//! [`CritReport`]: the cluster-wide critical-path attribution, merged
//! into `ObsReport` JSON as the `"crit"` section.

use std::fmt::Write as _;

use cbp_telemetry::json;

use super::path::walk_jobs;
use super::whatif::WhatIf;
use crate::span::{Band, SegKind, SpanCollector};

/// Critical-path attribution for one priority band.
#[derive(Debug, Clone)]
pub struct CritBand {
    /// The band.
    pub band: Band,
    /// Complete jobs whose critical task fell in the band.
    pub jobs: u64,
    /// Total µs on the bands' critical paths, by segment kind (indexed
    /// by [`SegKind::index`]).
    pub path_us: [u64; 9],
    /// Exact median job response (µs; order statistic at rank
    /// `ceil(0.5·n)`). Exact — not the streaming P² estimate the blame
    /// report uses — so the counterfactual columns are elementwise
    /// comparable: a counterfactual that shortens every job can never
    /// show a *higher* percentile from estimator drift.
    pub response_p50_us: f64,
    /// Exact 95th-percentile job response (µs).
    pub response_p95_us: f64,
    /// Predicted 95th-percentile job response under each counterfactual
    /// in [`WhatIf::ALL`] order (µs).
    pub what_if_p95_us: [f64; 3],
}

/// Cluster-wide critical-path and what-if attribution.
#[derive(Debug, Clone)]
pub struct CritReport {
    /// Complete jobs with an extracted critical path.
    pub jobs: u64,
    /// Jobs excluded (unfinished or malformed tasks).
    pub skipped_jobs: u64,
    /// Cluster makespan over complete jobs: latest finish minus
    /// earliest job submit (µs; 0 when no complete jobs).
    pub makespan_us: u64,
    /// The job whose finish sets the makespan (its critical path bounds
    /// the cluster's completion), if any.
    pub makespan_job: Option<u64>,
    /// Non-empty bands in [`Band::ALL`] order.
    pub bands: Vec<CritBand>,
}

/// Exact order statistic at rank `ceil(p·n)` (1-clamped) — the same
/// convention as [`cbp_telemetry::P2Quantile`]'s small-sample
/// fallback, but over the full sample. Job counts are bounded (one
/// value per job), so storing them is cheap, and exactness buys a
/// dominance guarantee: when a counterfactual shortens every job, its
/// predicted percentile can never exceed the actual one.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // The values are `u64` µs: no NaN and no negative zero, so this is
    // the numeric order.
    xs.sort_by(f64::total_cmp);
    let idx = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[idx]
}

impl CritReport {
    /// Builds the attribution from a finished collector. Fails if any
    /// job's critical path violates the tiling invariant.
    pub fn build(collector: &SpanCollector) -> Result<CritReport, String> {
        let walk = walk_jobs(collector);

        #[derive(Default)]
        struct Acc {
            jobs: u64,
            path_us: [u64; 9],
            responses: Vec<f64>,
            what_if: [Vec<f64>; 3],
        }
        // Indexed by `Band as usize`, in `Band::ALL` order.
        let mut accs = Band::ALL.map(|_| Acc::default());

        let mut jobs = 0u64;
        let mut makespan_end = 0u64;
        let mut makespan_start = u64::MAX;
        let mut makespan_job = None;
        for job in &walk {
            let Some(critical) = job.critical() else {
                continue;
            };
            let (crit, finish_us) = critical?;
            jobs += 1;
            let acc = &mut accs[crit.band() as usize];
            acc.jobs += 1;
            for s in &crit.segments {
                // Saturates like `Blame::accumulate`.
                let us = &mut acc.path_us[s.kind.index()];
                *us = us.saturating_add(s.dur_us());
            }
            acc.responses.push((finish_us - job.submit_us) as f64);
            for (what_if, finish) in acc.what_if.iter_mut().zip(job.what_if_finish_us) {
                what_if.push(finish.saturating_sub(job.submit_us) as f64);
            }
            if finish_us > makespan_end || makespan_job.is_none() {
                makespan_end = finish_us;
                makespan_job = Some(job.job);
            }
            makespan_start = makespan_start.min(job.submit_us);
        }

        let bands = Band::ALL
            .into_iter()
            .zip(accs)
            .filter(|(_, a)| a.jobs > 0)
            .map(|(band, mut a)| CritBand {
                band,
                jobs: a.jobs,
                path_us: a.path_us,
                response_p50_us: percentile(&mut a.responses, 0.5),
                response_p95_us: percentile(&mut a.responses, 0.95),
                what_if_p95_us: [
                    percentile(&mut a.what_if[0], 0.95),
                    percentile(&mut a.what_if[1], 0.95),
                    percentile(&mut a.what_if[2], 0.95),
                ],
            })
            .collect();

        Ok(CritReport {
            jobs,
            skipped_jobs: walk.len() as u64 - jobs,
            makespan_us: if makespan_job.is_some() {
                makespan_end - makespan_start
            } else {
                0
            },
            makespan_job,
            bands,
        })
    }

    /// Appends the report as one JSON object (byte-stable; same
    /// conventions as `ObsReport::to_json`).
    pub fn push_json(&self, s: &mut String) {
        let kv_u64 = |s: &mut String, k: &str, v: u64| {
            json::push_key(s, k);
            json::push_u64(s, v);
            s.push(',');
        };
        let kv_f64 = |s: &mut String, k: &str, v: f64| {
            json::push_key(s, k);
            json::push_f64(s, v);
            s.push(',');
        };
        s.push('{');
        kv_u64(s, "jobs", self.jobs);
        kv_u64(s, "skipped_jobs", self.skipped_jobs);
        kv_u64(s, "makespan_us", self.makespan_us);
        if let Some(j) = self.makespan_job {
            kv_u64(s, "makespan_job", j);
        }
        json::push_key(s, "bands");
        s.push('{');
        for (i, b) in self.bands.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_key(s, b.band.name());
            s.push('{');
            kv_u64(s, "jobs", b.jobs);
            json::push_key(s, "path");
            s.push('{');
            for kind in SegKind::ALL {
                let mut key = String::from(kind.name());
                key.push_str("_us");
                kv_u64(s, &key, b.path_us[kind.index()]);
            }
            s.pop();
            s.push_str("},");
            kv_f64(s, "response_p50_us", b.response_p50_us);
            kv_f64(s, "response_p95_us", b.response_p95_us);
            json::push_key(s, "what_if");
            s.push('{');
            for (i, w) in WhatIf::ALL.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                json::push_key(s, w.name());
                s.push('{');
                kv_f64(s, "response_p95_us", b.what_if_p95_us[i]);
                s.pop();
                s.push('}');
            }
            s.push_str("}}");
        }
        s.push_str("}}");
    }

    /// Renders the attribution as a fixed-width terminal table.
    pub fn render_table(&self) -> String {
        let secs = |us: u64| us as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical paths: {} jobs ({} skipped), makespan {:.1}s{}",
            self.jobs,
            self.skipped_jobs,
            secs(self.makespan_us),
            match self.makespan_job {
                Some(j) => format!(" (bounded by job {j})"),
                None => String::new(),
            },
        );
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "band", "jobs", "run s", "queue s", "ckpt s", "retry s", "lost s", "p95 s", "p95 dump0"
        );
        for b in &self.bands {
            let p = &b.path_us;
            let queue = p[SegKind::ReadyWait.index()] + p[SegKind::Suspended.index()];
            let ckpt = p[SegKind::DumpQueue.index()]
                + p[SegKind::Dump.index()]
                + p[SegKind::RestoreQueue.index()]
                + p[SegKind::Restore.index()];
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                b.band.name(),
                b.jobs,
                secs(p[SegKind::Run.index()]),
                secs(queue),
                secs(ckpt),
                secs(p[SegKind::Retry.index()]),
                secs(p[SegKind::Lost.index()]),
                b.response_p95_us / 1e6,
                b.what_if_p95_us[0] / 1e6,
            );
        }
        out
    }

    /// Renders the predicted per-band deltas for one counterfactual.
    pub fn render_what_if(&self, w: WhatIf) -> String {
        let idx = w.index();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "what-if {}: predicted p95 response per band",
            w.cli_name()
        );
        for b in &self.bands {
            let actual = b.response_p95_us;
            let predicted = b.what_if_p95_us[idx];
            let _ = writeln!(
                out,
                "{:<12} actual {:>9.1}s -> predicted {:>9.1}s (saves {:>8.1}s)",
                b.band.name(),
                actual / 1e6,
                predicted / 1e6,
                (actual - predicted) / 1e6,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_telemetry::TraceRecord;

    fn collector() -> SpanCollector {
        let mut c = SpanCollector::new();
        let stream = [
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 1,
                    job: 1,
                    priority: 0,
                },
            ),
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 2,
                    job: 2,
                    priority: 10,
                },
            ),
            (
                5,
                TraceRecord::TaskSchedule {
                    task: 2,
                    node: 0,
                    restore: false,
                },
            ),
            (
                10,
                TraceRecord::TaskSchedule {
                    task: 1,
                    node: 1,
                    restore: false,
                },
            ),
            (
                50,
                TraceRecord::TaskEvict {
                    task: 1,
                    node: 1,
                    reason: "dump",
                },
            ),
            (
                70,
                TraceRecord::DumpDone {
                    task: 1,
                    node: 1,
                    start_us: 55,
                },
            ),
            (
                80,
                TraceRecord::TaskSchedule {
                    task: 1,
                    node: 1,
                    restore: true,
                },
            ),
            (
                95,
                TraceRecord::RestoreDone {
                    task: 1,
                    node: 1,
                    start_us: 85,
                },
            ),
            (105, TraceRecord::TaskFinish { task: 2, node: 0 }),
            (140, TraceRecord::TaskFinish { task: 1, node: 1 }),
        ];
        for (t, rec) in stream {
            c.observe(t, &rec);
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        c
    }

    #[test]
    fn build_aggregates_bands_and_makespan() {
        let r = CritReport::build(&collector()).unwrap();
        assert_eq!(r.jobs, 2);
        assert_eq!(r.skipped_jobs, 0);
        assert_eq!(r.makespan_us, 140);
        assert_eq!(r.makespan_job, Some(1));
        assert_eq!(r.bands.len(), 2);
        let free = &r.bands[0];
        assert_eq!(free.band, Band::Free);
        assert_eq!(free.jobs, 1);
        assert_eq!(free.response_p95_us, 140.0);
        // dump0 removes dump 15 + dump_queue 5.
        assert_eq!(free.what_if_p95_us[0], 120.0);
        // iobw-inf additionally removes restore 10 + restore_queue 5.
        assert_eq!(free.what_if_p95_us[1], 105.0);
        let prod = &r.bands[1];
        assert_eq!(prod.band, Band::Production);
        assert_eq!(prod.response_p95_us, 105.0);
        assert_eq!(prod.what_if_p95_us[0], 105.0);
    }

    #[test]
    fn json_is_valid_and_stable() {
        let r = CritReport::build(&collector()).unwrap();
        let mut a = String::new();
        r.push_json(&mut a);
        let mut b = String::new();
        r.push_json(&mut b);
        assert_eq!(a, b);
        assert!(json::is_valid(&a), "invalid: {a}");
        assert!(a.contains("\"bands\":{\"free\":{"));
        assert!(a.contains("\"what_if\":{\"dump0\":{"));
    }

    #[test]
    fn tables_render_every_band() {
        let r = CritReport::build(&collector()).unwrap();
        let t = r.render_table();
        assert!(t.contains("free") && t.contains("production"), "{t}");
        let w = r.render_what_if(WhatIf::Dump0);
        assert!(w.contains("dump0") && w.contains("predicted"), "{w}");
    }
}
