//! NodeManager grace-period (`graceful_timeout`) semantics: escalation
//! ordering of force-kills, the behavioural gap vs the unlimited default,
//! and the RM's fault-injected AM-unresponsiveness escalation.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_core::{PreemptionPolicy, RunReport};
use cbp_faults::FaultSpec;
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_telemetry::{JsonlReader, JsonlTracer, TraceRecord};
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::Workload;
use cbp_yarn::{YarnConfig, YarnSim};

/// A `Write` sink whose buffer outlives the boxed tracer.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn cluster(policy: PreemptionPolicy, media: MediaKind) -> YarnConfig {
    let mut cfg = YarnConfig::paper_cluster(policy, media);
    cfg.nodes = 2;
    cfg
}

/// A contended Facebook-derived draw: probes seeds (deterministically)
/// until the kill-policy run actually preempts, so checkpoint runs have
/// dumps for the grace clock to race.
fn contended_workload(seed: u64) -> Workload {
    use cbp_workload::kmeans::KMeansJob;
    for probe in seed..seed + 20 {
        let w = FacebookConfig {
            jobs: 12,
            total_tasks: 260,
            giant_job_tasks: 60,
            mean_interarrival: SimDuration::from_secs(90),
            task_model: KMeansJob {
                iterations: 60,
                ..KMeansJob::yarn_container()
            },
            ..Default::default()
        }
        .generate(probe);
        if cluster(PreemptionPolicy::Kill, MediaKind::Ssd)
            .run(&w)
            .metrics
            .kills
            > 0
        {
            return w;
        }
    }
    panic!("no contended draw within 20 seeds of {seed}");
}

fn traced_run(cfg: YarnConfig, w: &Workload) -> (RunReport, Vec<(u64, TraceRecord)>) {
    let buf = SharedBuf::default();
    let mut sim = YarnSim::new(cfg, w.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    let bytes = buf.0.borrow().clone();
    let records = JsonlReader::new(bytes.as_slice())
        .expect("valid trace header")
        .map(|r| r.expect("valid trace line"))
        .collect();
    (report, records)
}

/// Escalation ordering: every `grace-expired` fallback happens exactly
/// `graceful_timeout` after the dump it aborts started, and is followed at
/// the same instant by the forced kill's eviction — never the other way
/// round, and never after the dump completed.
#[test]
fn force_kill_fires_exactly_at_grace_expiry() {
    let w = contended_workload(21);
    let grace = SimDuration::from_secs(5);
    let cfg = cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd).with_graceful_timeout(grace);
    let (report, records) = traced_run(cfg, &w);
    assert_eq!(report.metrics.jobs_finished, w.job_count() as u64);
    assert!(
        report.metrics.force_kills > 0,
        "5s grace must abort some 60s HDD dumps"
    );

    let mut checked = 0u64;
    for (i, (t, rec)) in records.iter().enumerate() {
        let TraceRecord::DumpFallback {
            task,
            reason: "grace-expired",
            ..
        } = rec
        else {
            continue;
        };
        // The aborted dump started exactly one grace period earlier...
        let started_at = t - grace.as_micros();
        let dump_started = records.iter().any(|(ts, r)| {
            *ts == started_at && matches!(r, TraceRecord::DumpStart { task: k, .. } if k == task)
        });
        assert!(dump_started, "no dump started at grace-start for {task}");
        // ...and never completed before the grace expired.
        let completed = records.iter().any(|(ts, r)| {
            (started_at..=*t).contains(ts)
                && matches!(r, TraceRecord::DumpDone { task: k, .. } if k == task)
        });
        assert!(!completed, "force-kill after dump {task} completed");
        // The forced kill's eviction follows at the same instant.
        let evicted = records[i + 1..].iter().take_while(|(ts, _)| ts == t).any(
            |(_, r)| matches!(r, TraceRecord::TaskEvict { task: k, reason: "kill", .. } if k == task),
        );
        assert!(evicted, "grace expiry for {task} must evict immediately");
        checked += 1;
    }
    assert_eq!(
        checked, report.metrics.force_kills,
        "every force-kill is traced"
    );
}

/// `with_graceful_timeout` changes outcomes vs the unlimited default: the
/// strict run force-kills (losing at-risk progress), the default never
/// does.
#[test]
fn graceful_timeout_changes_outcomes_vs_none() {
    let w = contended_workload(22);
    let unlimited = cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd).run(&w);
    let strict = cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
        .with_graceful_timeout(SimDuration::from_secs(5))
        .run(&w);

    assert_eq!(
        unlimited.metrics.force_kills, 0,
        "unlimited grace never force-kills"
    );
    assert!(
        strict.metrics.force_kills > 0,
        "strict grace must force-kill"
    );
    // Both drain the workload; the strict run pays for it in aborted
    // dumps (kills) the unlimited run does not suffer.
    assert_eq!(unlimited.metrics.jobs_finished, w.job_count() as u64);
    assert_eq!(strict.metrics.jobs_finished, w.job_count() as u64);
    assert!(
        strict.metrics.kills != unlimited.metrics.kills
            || strict.metrics.kill_lost_cpu_hours != unlimited.metrics.kill_lost_cpu_hours,
        "a binding grace period must change the run's outcome"
    );
}

/// Fault injection: an always-unresponsive AM never services preemption
/// requests, so the *only* route from a `ContainerPreemptEvent` to a
/// freed slot is the RM's escalation kill — checkpoints stay at zero,
/// kills appear, and the workload still drains (liveness backstop).
#[test]
fn unresponsive_am_is_escalated_to_kill() {
    let w = contended_workload(23);
    let cfg = cluster(PreemptionPolicy::Checkpoint, MediaKind::Ssd).with_faults(FaultSpec {
        am_unresponsive_prob: 1.0,
        escalation_timeout: SimDuration::from_secs(10),
        ..FaultSpec::default()
    });
    let (report, records) = traced_run(cfg, &w);
    assert_eq!(report.metrics.jobs_finished, w.job_count() as u64);
    assert_eq!(
        report.metrics.checkpoints, 0,
        "an unresponsive AM never checkpoints"
    );
    assert!(
        report.metrics.kills > 0,
        "escalation must kill the ignored victims"
    );
    let escalations = records
        .iter()
        .filter(|(_, r)| matches!(r, TraceRecord::AmEscalate { .. }))
        .count();
    assert!(escalations > 0, "escalations must be traced");
    // Each traced escalation is chased (same instant) by an eviction
    // carrying the dedicated "am-escalate" reason — not a plain "kill",
    // so analyzers can attribute the lost work to AM unresponsiveness.
    for (t, rec) in &records {
        let TraceRecord::AmEscalate { task, .. } = rec else {
            continue;
        };
        let killed = records.iter().any(|(ts, r)| {
            ts == t
                && matches!(
                    r,
                    TraceRecord::TaskEvict { task: k, reason: "am-escalate", .. } if k == task
                )
        });
        assert!(killed, "escalation of {task} must kill at the same instant");
    }
    // And the distinct reason is used *only* for escalations.
    let escalate_evicts = records
        .iter()
        .filter(|(_, r)| {
            matches!(
                r,
                TraceRecord::TaskEvict {
                    reason: "am-escalate",
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        escalate_evicts, escalations,
        "one am-escalate eviction per traced escalation"
    );
}
