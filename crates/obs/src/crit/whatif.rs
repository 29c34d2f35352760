//! Counterfactual ("what-if") cost models: re-walk recorded segment
//! timelines with selected cost classes removed and predict the
//! response times a cheaper checkpoint path would have produced.
//!
//! These are *first-order* estimates: each task's timeline is shortened
//! by the removed segments while every kept segment retains its
//! recorded length. Scheduling feedback (shorter device queues freeing
//! resources earlier, policies choosing different victims when dumps
//! are free) is deliberately not modelled — the bounded-error tests in
//! `cbp-bench` quantify how far that assumption drifts from an actual
//! re-run on the smoke configurations.

use std::collections::BTreeMap;

use super::path::walk_jobs;
use crate::span::{SegKind, SpanCollector};

/// A counterfactual cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhatIf {
    /// Checkpoint dumps are free: dump service time and dump-side
    /// device queueing vanish.
    Dump0,
    /// Infinite checkpoint device bandwidth: dump *and* restore service
    /// and queueing vanish.
    IobwInf,
    /// No injected faults: retry/backoff overhead vanishes.
    FaultsOff,
}

impl WhatIf {
    /// All scenarios, in report order.
    pub const ALL: [WhatIf; 3] = [WhatIf::Dump0, WhatIf::IobwInf, WhatIf::FaultsOff];

    /// Stable snake_case name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            WhatIf::Dump0 => "dump0",
            WhatIf::IobwInf => "iobw_inf",
            WhatIf::FaultsOff => "faults_off",
        }
    }

    /// CLI spelling (`repro analyze --what-if <...>`).
    pub fn cli_name(self) -> &'static str {
        match self {
            WhatIf::Dump0 => "dump0",
            WhatIf::IobwInf => "iobw-inf",
            WhatIf::FaultsOff => "faults-off",
        }
    }

    /// The scenario's position in [`WhatIf::ALL`]: the variants are
    /// declared in that order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<WhatIf> {
        WhatIf::ALL.into_iter().find(|w| w.cli_name() == s)
    }

    /// Whether this counterfactual removes a segment kind's cost.
    pub fn removes(self, kind: SegKind) -> bool {
        match self {
            WhatIf::Dump0 => matches!(kind, SegKind::DumpQueue | SegKind::Dump),
            WhatIf::IobwInf => matches!(
                kind,
                SegKind::DumpQueue | SegKind::Dump | SegKind::RestoreQueue | SegKind::Restore
            ),
            WhatIf::FaultsOff => matches!(kind, SegKind::Retry),
        }
    }
}

/// Predicts each *complete* job's response time under the
/// counterfactual: every task's finish moves earlier by the removed
/// segment durations, and the job finishes with its slowest predicted
/// task. Keyed by job id; jobs with unfinished or malformed tasks are
/// omitted (same eligibility rule as critical-path extraction).
pub fn predicted_job_responses(collector: &SpanCollector, w: WhatIf) -> BTreeMap<u64, u64> {
    let i = w.index();
    walk_jobs(collector)
        .iter()
        .filter(|j| j.complete)
        .map(|j| (j.job, j.what_if_finish_us[i].saturating_sub(j.submit_us)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanCollector;
    use cbp_telemetry::TraceRecord;

    /// One job, one task: ready_wait 10, run 40, dump_queue 10, dump 20,
    /// suspended 20, restore_queue 5, restore 15, run 30.
    fn collector() -> SpanCollector {
        let mut c = SpanCollector::new();
        let stream = [
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 1,
                    job: 1,
                    priority: 9,
                },
            ),
            (
                10,
                TraceRecord::TaskSchedule {
                    task: 1,
                    node: 0,
                    restore: false,
                },
            ),
            (
                50,
                TraceRecord::TaskEvict {
                    task: 1,
                    node: 0,
                    reason: "dump",
                },
            ),
            (
                80,
                TraceRecord::DumpDone {
                    task: 1,
                    node: 0,
                    start_us: 60,
                },
            ),
            (
                100,
                TraceRecord::TaskSchedule {
                    task: 1,
                    node: 0,
                    restore: true,
                },
            ),
            (
                120,
                TraceRecord::RestoreDone {
                    task: 1,
                    node: 0,
                    start_us: 105,
                },
            ),
            (150, TraceRecord::TaskFinish { task: 1, node: 0 }),
        ];
        for (t, rec) in stream {
            c.observe(t, &rec);
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        c
    }

    #[test]
    fn dump0_removes_dump_and_its_queue() {
        let pred = predicted_job_responses(&collector(), WhatIf::Dump0);
        // 150 actual − dump 20 − dump_queue 10 = 120.
        assert_eq!(pred[&1], 120);
    }

    #[test]
    fn iobw_inf_also_removes_restore_side() {
        let pred = predicted_job_responses(&collector(), WhatIf::IobwInf);
        // 120 − restore 15 − restore_queue 5 = 100.
        assert_eq!(pred[&1], 100);
    }

    #[test]
    fn faults_off_is_a_noop_without_retries() {
        let pred = predicted_job_responses(&collector(), WhatIf::FaultsOff);
        assert_eq!(pred[&1], 150);
    }

    #[test]
    fn parse_round_trips_cli_names() {
        for w in WhatIf::ALL {
            assert_eq!(WhatIf::parse(w.cli_name()), Some(w));
            assert_eq!(WhatIf::ALL[w.index()], w);
        }
        assert_eq!(WhatIf::parse("bogus"), None);
    }
}
