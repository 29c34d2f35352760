//! QoS by latency-sensitivity class — the concern behind the paper's
//! Table 2: "a large number of highest latency-sensitive tasks (14.8%) were
//! still preempted. This can have a significantly negative impact on task
//! performance and application QoS."

use cbp_core::PreemptionPolicy;
use cbp_storage::MediaKind;
use cbp_workload::LatencyClass;

use crate::table::{fmt, Experiment, Table};
use crate::Scale;

use super::google_setup;

/// Mean response per latency class under each policy, normalized to Kill.
pub fn qos(scale: Scale, seed: u64) -> Experiment {
    let (workload, base) = google_setup(scale, seed);
    let kill = base
        .clone()
        .with_policy(PreemptionPolicy::Kill)
        .run(&workload);

    let mut exp = Experiment::new(
        "(extension of Table 2's observation) latency-sensitive jobs suffer \
         most from kill-based preemption; checkpointing on fast storage \
         restores their response times",
    );

    let mut t = Table::new(
        "qos",
        "Mean response per latency class, normalized to Kill",
        &["policy", "class 0", "class 1", "class 2", "class 3"],
    );
    t.row(vec![
        "Kill".into(),
        "1.00".into(),
        "1.00".into(),
        "1.00".into(),
        "1.00".into(),
    ]);
    for (label, policy, media) in [
        ("Chk-HDD", PreemptionPolicy::Checkpoint, MediaKind::Hdd),
        ("Chk-NVM", PreemptionPolicy::Checkpoint, MediaKind::Nvm),
        ("Adaptive-NVM", PreemptionPolicy::Adaptive, MediaKind::Nvm),
    ] {
        let report = base
            .clone()
            .with_policy(policy)
            .with_media(media.spec())
            .run(&workload);
        let mut cells = vec![label.to_string()];
        for class in LatencyClass::ALL {
            let k = kill.metrics.mean_response_latency(class);
            let v = report.metrics.mean_response_latency(class);
            cells.push(if k == 0.0 { "-".into() } else { fmt(v / k, 2) });
        }
        t.row(cells);
    }
    t.note("paper Table 2: even the most latency-sensitive class saw 14.8% preemption under kill");
    exp.push(t);
    exp
}
