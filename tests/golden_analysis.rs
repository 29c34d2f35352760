//! Golden digests of the §2 preemption analysis (Fig. 1, Tables 1–2).
//!
//! Each case runs one small seeded workload through `ClusterSim` and
//! hashes (FNV-1a, 64-bit) the whole `PreemptionAnalysis`: every counter,
//! the timeline and the bit patterns of both CPU-hour sums. The digests
//! pin the analysis, so a change to how it is fed or folded must
//! reproduce every value exactly.
//!
//! On a mismatch the test names every failing case and prints the
//! observed digest.

mod common;

use cbp::checkpoint::NvramSpec;
use cbp::core::{PreemptionPolicy, SimConfig};
use cbp::faults::FaultSpec;
use cbp::simkit::SimDuration;
use cbp::storage::MediaKind;
use cbp::workload::google::GoogleTraceConfig;

use common::fnv1a;

/// One golden case: the run's configuration and its analysis digest.
struct Case {
    name: &'static str,
    config: fn() -> SimConfig,
    golden: u64,
}

const CASES: &[Case] = &[
    Case {
        // The fig1 setup: the kill-based status quo on HDD.
        name: "kill",
        config: || SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Hdd).with_nodes(6),
        golden: 0x6d196fa286e85dcd,
    },
    Case {
        // Contended and faulty: dump evictions, failed dumps and
        // node-crash evictions all reach the analysis.
        name: "adaptive-heavy",
        config: || {
            SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Hdd)
                .with_nodes(5)
                .with_faults(FaultSpec::parse("heavy,seed=11").expect("plan parses"))
        },
        golden: 0x8027cb88b814b4ce,
    },
    Case {
        // NVRAM suspend evictions under a chaos plan (crashes, racks).
        name: "checkpoint-nvram-chaos",
        config: || {
            SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_nodes(5)
                .with_nvram(NvramSpec::default())
                .with_faults(FaultSpec::parse("chaos,seed=11").expect("plan parses"))
        },
        golden: 0x898b166d1fd8a254,
    },
];

/// Runs `case` and returns the digest of its analysis (5-second window,
/// 10-minute timeline buckets).
fn digest(case: &Case) -> u64 {
    let w = GoogleTraceConfig::small(300.0)
        .with_load_factor(1.35)
        .generate(6);
    let (_, a) = (case.config)().run_analyzed(&w, SimDuration::from_secs(600));

    let mut words = vec![a.window.as_micros()];
    let groups = a
        .per_priority
        .iter()
        .chain(a.per_band.iter().map(|(_, c)| c))
        .chain(&a.per_latency)
        .chain([&a.overall]);
    for g in groups {
        words.extend([g.scheduled_tasks, g.preempted_tasks, g.preemptions]);
    }
    words.extend(a.per_band.iter().map(|(band, _)| *band as u64));
    words.extend(a.preemption_count_histogram);
    words.push(a.timeline.len() as u64);
    for bucket in &a.timeline {
        words.push(bucket.start.as_micros());
        for (scheduled, preempted) in bucket.per_band {
            words.extend([scheduled, preempted]);
        }
    }
    words.extend([a.wasted_cpu_hours.to_bits(), a.useful_cpu_hours.to_bits()]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[test]
fn preemption_analysis_replays_golden_digests() {
    let mismatches: Vec<String> = CASES
        .iter()
        .filter_map(|case| {
            let got = digest(case);
            (got != case.golden).then(|| format!("{}: got {got:#018x}", case.name))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "analysis digests differ:\n{}",
        mismatches.join("\n")
    );
}
