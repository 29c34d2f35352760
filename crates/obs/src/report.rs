//! The analysis report: blame totals, per-band and per-node penalty
//! aggregation, top-K worst-penalized jobs, and anomaly flagging.
//!
//! [`ObsReport::build`] folds a finished [`SpanCollector`] into a report
//! in one deterministic pass (tasks are visited in ascending task id, so
//! streaming estimators see the same feed order whether the collector
//! ran online against a simulator or offline over a JSONL trace), and
//! [`ObsReport::to_json`] emits byte-stable JSON: same trace, same bytes.

use cbp_telemetry::{json, Histogram, P2Quantile};

use crate::span::{Band, Blame, ByJob, SpanCollector};

/// Schema name stamped into report JSON.
pub const REPORT_SCHEMA: &str = "cbp-obs-report";
/// Schema version stamped into report JSON (version 2 added the
/// `retry_us` blame segment and the fault counters; version 3 added the
/// optional `crit` critical-path section).
pub const REPORT_VERSION: u32 = 3;

/// Oldest report schema version [`crate::flatten_report`] still accepts
/// as a diff baseline (version-2 reports differ only by lacking the
/// optional `crit` section).
pub const REPORT_MIN_VERSION: u32 = 2;

/// MAD multiplier for anomaly flagging (the Iglewicz–Hoaglin modified
/// z-score cutoff).
pub const ANOMALY_K: f64 = 3.5;

/// Penalty histogram buckets: 1 ms .. ~4200 s in ×4 steps.
fn penalty_histogram() -> Histogram {
    Histogram::exponential(1_000.0, 4.0, 12)
}

/// Provenance counters for the analyzed stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceSummary {
    /// Trace records consumed.
    pub records: u64,
    /// Malformed records: ones the collector could not apply.
    pub malformed_records: u64,
    /// Distinct tasks seen.
    pub tasks_seen: u64,
    /// Tasks that ran to completion within the trace.
    pub tasks_finished: u64,
    /// Tasks still in flight when the trace ended.
    pub tasks_incomplete: u64,
    /// Tasks excluded from aggregation because of malformed records.
    pub tasks_malformed: u64,
}

/// Workload-wide totals over finished, well-formed tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalsSummary {
    /// Aggregate blame decomposition.
    pub blame: Blame,
    /// Aggregate preemption penalty (`blame` total minus run).
    pub penalty_us: u64,
    /// Evictions (any reason) across all tasks.
    pub evictions: u64,
    /// Kill / node-fail evictions.
    pub kills: u64,
    /// Completed dumps.
    pub dumps: u64,
    /// Completed restores.
    pub restores: u64,
    /// Dump fallbacks.
    pub fallbacks: u64,
    /// Failed dump attempts (fault injection).
    pub dump_fails: u64,
    /// Failed restore attempts (fault injection).
    pub restore_fails: u64,
    /// RM escalations after unresponsive AMs.
    pub escalations: u64,
}

/// Penalty summary for one priority band.
#[derive(Debug, Clone)]
pub struct BandSummary {
    /// The band.
    pub band: Band,
    /// Tasks in the band (finished or not).
    pub tasks: u64,
    /// Finished, well-formed tasks (everything below covers only these).
    pub finished: u64,
    /// Aggregate blame decomposition.
    pub blame: Blame,
    /// Mean response time (µs; 0 if no finished tasks).
    pub mean_response_us: f64,
    /// Mean preemption penalty (µs).
    pub mean_penalty_us: f64,
    /// Aggregate penalty as a fraction of aggregate response.
    pub penalty_frac: f64,
    /// P² streaming estimate of the median per-task penalty (µs).
    pub penalty_p50_us: f64,
    /// P² streaming estimate of the 95th percentile penalty (µs).
    pub penalty_p95_us: f64,
    /// P² streaming estimate of the 99th percentile penalty (µs).
    pub penalty_p99_us: f64,
    /// Exponential-bucket histogram of per-task penalties (µs).
    pub penalty_hist: Histogram,
}

/// Activity summary for one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeSummary {
    /// Node id.
    pub node: u32,
    /// Evictions observed on the node.
    pub evictions: u32,
    /// Kill / node-fail evictions.
    pub kills: u32,
    /// Completed dumps.
    pub dumps: u32,
    /// Dump service time (µs).
    pub dump_us: u64,
    /// Completed restores.
    pub restores: u32,
    /// Restore service time (µs).
    pub restore_us: u64,
    /// Work discarded by evictions on the node (µs).
    pub lost_us: u64,
    /// Recovery overhead on the node (failed dump/restore attempts, µs).
    pub retry_us: u64,
    /// Blocks re-replicated after the node's datanode failures.
    pub repairs: u32,
    /// Bytes re-replicated for those repairs.
    pub repair_bytes: u64,
    /// Tasks that finished on the node.
    pub finishes: u32,
}

/// Penalty summary for one job (for the top-K table).
#[derive(Debug, Clone, Copy)]
pub struct JobSummary {
    /// Job id.
    pub job: u64,
    /// Tasks in the job.
    pub tasks: u64,
    /// Finished, well-formed tasks.
    pub finished: u64,
    /// Aggregate penalty (µs) over finished tasks.
    pub penalty_us: u64,
    /// Aggregate response time (µs).
    pub response_us: u64,
    /// Aggregate lost work (µs).
    pub lost_us: u64,
}

/// One flagged outlier task.
#[derive(Debug, Clone, Copy)]
pub struct Anomaly {
    /// Task id.
    pub task: u64,
    /// Owning job id.
    pub job: u64,
    /// The task's band.
    pub band: Band,
    /// What was anomalous: `"evictions"` or `"restore_us"`.
    pub kind: &'static str,
    /// The task's value.
    pub value: f64,
    /// The band median for the metric.
    pub median: f64,
    /// Flagging threshold (`median + K · scale`, robust scale from the
    /// MAD with a mean-absolute-deviation fallback).
    pub threshold: f64,
}

/// The complete analysis of one trace.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Provenance counters.
    pub source: SourceSummary,
    /// Workload-wide totals.
    pub totals: TotalsSummary,
    /// Per-band summaries, in [`Band::ALL`] order (always all three).
    pub bands: Vec<BandSummary>,
    /// Per-node summaries, ascending node id.
    pub nodes: Vec<NodeSummary>,
    /// Worst-penalized jobs, descending aggregate penalty.
    pub top_jobs: Vec<JobSummary>,
    /// Flagged outlier tasks.
    pub anomalies: Vec<Anomaly>,
    /// Critical-path and what-if attribution; present only when
    /// critical-path analysis was requested (see [`ObsReport::with_crit`]).
    pub crit: Option<crate::crit::CritReport>,
}

/// Robust location/scale of a sample: `(median, scale)` where scale is
/// `MAD / 0.6745` (or the mean absolute deviation × 1.2533 when the MAD
/// degenerates to zero). Returns scale 0 when every deviation is zero.
fn robust_stats(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    // Values that compare equal are the same value here (no NaN, no
    // negative zero), so selection finds the sorted sample's middle, and
    // an unstable sort gives the sorted sample.
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaN");
    let median = |v: &mut Vec<f64>| -> f64 {
        let n = v.len();
        let (below, &mut mid, _) = v.select_nth_unstable_by(n / 2, cmp);
        if n % 2 == 1 {
            mid
        } else {
            let below = below.iter().copied().max_by(cmp).expect("n >= 2");
            (below + mid) / 2.0
        }
    };
    let mut v = xs.to_vec();
    let med = median(&mut v);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    let mad = median(&mut dev);
    if mad > 0.0 {
        return (med, mad / 0.6745);
    }
    // Summed in ascending order, as always, so the float sum is the same.
    dev.sort_unstable_by(cmp);
    let mean_ad = dev.iter().sum::<f64>() / dev.len() as f64;
    (med, mean_ad * 1.2533)
}

struct BandAcc {
    tasks: u64,
    finished: u64,
    blame: Blame,
    response_us: u64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    hist: Histogram,
    evictions: Vec<f64>,
    restore_us: Vec<f64>,
    task_ids: Vec<(u64, u64)>, // (task, job), aligned with the vectors
}

impl BandAcc {
    fn new() -> Self {
        BandAcc {
            tasks: 0,
            finished: 0,
            blame: Blame::default(),
            response_us: 0,
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            hist: penalty_histogram(),
            evictions: Vec::new(),
            restore_us: Vec::new(),
            task_ids: Vec::new(),
        }
    }
}

impl ObsReport {
    /// Folds a finished collector into a report. `top_k` bounds the
    /// worst-penalized-jobs table.
    pub fn build(collector: &SpanCollector, top_k: usize) -> ObsReport {
        let mut source = SourceSummary {
            records: collector.records(),
            malformed_records: collector.malformed(),
            ..SourceSummary::default()
        };
        let mut totals = TotalsSummary::default();
        // Indexed by `Band as usize`, in `Band::ALL` order.
        let mut bands = Band::ALL.map(|_| BandAcc::new());
        let mut jobs = ByJob::new();

        // Ascending task id: the P² estimators see a deterministic feed
        // order regardless of how the records arrived.
        for span in collector.tasks() {
            source.tasks_seen += 1;
            totals.evictions += span.evictions as u64;
            totals.kills += span.kills as u64;
            totals.dumps += span.dumps as u64;
            totals.restores += span.restores as u64;
            totals.fallbacks += span.fallbacks as u64;
            totals.dump_fails += span.dump_fails as u64;
            totals.restore_fails += span.restore_fails as u64;
            totals.escalations += span.escalations as u64;
            let acc = &mut bands[span.band() as usize];
            acc.tasks += 1;
            let job = jobs.get(span.job, || JobSummary {
                job: span.job,
                tasks: 0,
                finished: 0,
                penalty_us: 0,
                response_us: 0,
                lost_us: 0,
            });
            job.tasks += 1;
            if span.malformed > 0 {
                source.tasks_malformed += 1;
                continue;
            }
            let Some(response) = span.response_us() else {
                source.tasks_incomplete += 1;
                continue;
            };
            source.tasks_finished += 1;
            let blame = span.blame();
            totals.blame.accumulate(&blame);
            acc.finished += 1;
            acc.blame.accumulate(&blame);
            acc.response_us = acc.response_us.saturating_add(response);
            let penalty = blame.penalty_us() as f64;
            acc.p50.observe(penalty);
            acc.p95.observe(penalty);
            acc.p99.observe(penalty);
            acc.hist.record(penalty);
            acc.evictions.push(span.evictions as f64);
            acc.restore_us.push(blame.restore_us as f64);
            acc.task_ids.push((span.task, span.job));
            job.finished += 1;
            job.penalty_us = job.penalty_us.saturating_add(blame.penalty_us());
            job.response_us = job.response_us.saturating_add(response);
            job.lost_us = job.lost_us.saturating_add(blame.lost_us);
        }
        totals.penalty_us = totals.blame.penalty_us();

        // Anomalies: one-sided modified z-score per band and metric.
        let mut anomalies = Vec::new();
        for (band, acc) in Band::ALL.iter().zip(&bands) {
            for (kind, xs) in [
                ("evictions", &acc.evictions),
                ("restore_us", &acc.restore_us),
            ] {
                let (med, scale) = robust_stats(xs);
                if scale <= 0.0 {
                    continue;
                }
                let threshold = med + ANOMALY_K * scale;
                for (i, &x) in xs.iter().enumerate() {
                    if x > threshold {
                        let (task, job) = acc.task_ids[i];
                        anomalies.push(Anomaly {
                            task,
                            job,
                            band: *band,
                            kind,
                            value: x,
                            median: med,
                            threshold,
                        });
                    }
                }
            }
        }

        let bands = Band::ALL
            .into_iter()
            .zip(bands)
            .map(|(band, acc)| {
                let est = |q: &P2Quantile| q.estimate().unwrap_or(0.0);
                let fin = acc.finished as f64;
                let total = acc.blame.total_us();
                BandSummary {
                    band,
                    tasks: acc.tasks,
                    finished: acc.finished,
                    blame: acc.blame,
                    mean_response_us: if acc.finished > 0 {
                        acc.response_us as f64 / fin
                    } else {
                        0.0
                    },
                    mean_penalty_us: if acc.finished > 0 {
                        acc.blame.penalty_us() as f64 / fin
                    } else {
                        0.0
                    },
                    penalty_frac: if total > 0 {
                        acc.blame.penalty_us() as f64 / total as f64
                    } else {
                        0.0
                    },
                    penalty_p50_us: est(&acc.p50),
                    penalty_p95_us: est(&acc.p95),
                    penalty_p99_us: est(&acc.p99),
                    penalty_hist: acc.hist,
                }
            })
            .collect();

        let nodes = collector
            .nodes()
            .iter()
            .map(|(node, s)| NodeSummary {
                node: *node,
                evictions: s.evictions,
                kills: s.kills,
                dumps: s.dumps,
                dump_us: s.dump_us,
                restores: s.restores,
                restore_us: s.restore_us,
                lost_us: s.lost_us,
                retry_us: s.retry_us,
                repairs: s.repairs,
                repair_bytes: s.repair_bytes,
                finishes: s.finishes,
            })
            .collect();

        let mut top_jobs = jobs.into_vec();
        top_jobs.sort_by(|a, b| b.penalty_us.cmp(&a.penalty_us).then(a.job.cmp(&b.job)));
        top_jobs.truncate(top_k);

        ObsReport {
            source,
            totals,
            bands,
            nodes,
            top_jobs,
            anomalies,
            crit: None,
        }
    }

    /// Attaches the critical-path section, built from the same
    /// collector. Fails if a job's critical path violates the tiling
    /// invariant.
    pub fn with_crit(mut self, collector: &SpanCollector) -> Result<ObsReport, String> {
        self.crit = Some(crate::crit::CritReport::build(collector)?);
        Ok(self)
    }

    /// Serializes the report as one byte-stable JSON object: fixed field
    /// order everywhere, hand-rolled emission (see `cbp_telemetry::json`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
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
        let push_blame = |s: &mut String, blame: &Blame| {
            s.push('{');
            for (name, v) in blame.components() {
                kv_u64(s, name, v);
            }
            s.pop();
            s.push('}');
        };

        s.push('{');
        json::push_key(&mut s, "schema");
        json::push_str_escaped(&mut s, REPORT_SCHEMA);
        s.push(',');
        kv_u64(&mut s, "version", REPORT_VERSION as u64);

        json::push_key(&mut s, "source");
        s.push('{');
        kv_u64(&mut s, "records", self.source.records);
        kv_u64(&mut s, "malformed_records", self.source.malformed_records);
        kv_u64(&mut s, "tasks_seen", self.source.tasks_seen);
        kv_u64(&mut s, "tasks_finished", self.source.tasks_finished);
        kv_u64(&mut s, "tasks_incomplete", self.source.tasks_incomplete);
        kv_u64(&mut s, "tasks_malformed", self.source.tasks_malformed);
        s.pop();
        s.push_str("},");

        json::push_key(&mut s, "totals");
        s.push('{');
        json::push_key(&mut s, "blame");
        push_blame(&mut s, &self.totals.blame);
        s.push(',');
        kv_u64(&mut s, "penalty_us", self.totals.penalty_us);
        kv_u64(&mut s, "evictions", self.totals.evictions);
        kv_u64(&mut s, "kills", self.totals.kills);
        kv_u64(&mut s, "dumps", self.totals.dumps);
        kv_u64(&mut s, "restores", self.totals.restores);
        kv_u64(&mut s, "fallbacks", self.totals.fallbacks);
        kv_u64(&mut s, "dump_fails", self.totals.dump_fails);
        kv_u64(&mut s, "restore_fails", self.totals.restore_fails);
        kv_u64(&mut s, "escalations", self.totals.escalations);
        s.pop();
        s.push_str("},");

        json::push_key(&mut s, "bands");
        s.push('[');
        for (i, b) in self.bands.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            json::push_key(&mut s, "band");
            json::push_str_escaped(&mut s, b.band.name());
            s.push(',');
            let (lo, hi) = b.band.priority_range();
            kv_u64(&mut s, "priority_min", lo as u64);
            kv_u64(&mut s, "priority_max", hi as u64);
            kv_u64(&mut s, "tasks", b.tasks);
            kv_u64(&mut s, "finished", b.finished);
            json::push_key(&mut s, "blame");
            push_blame(&mut s, &b.blame);
            s.push(',');
            kv_f64(&mut s, "mean_response_us", b.mean_response_us);
            kv_f64(&mut s, "mean_penalty_us", b.mean_penalty_us);
            kv_f64(&mut s, "penalty_frac", b.penalty_frac);
            kv_f64(&mut s, "penalty_p50_us", b.penalty_p50_us);
            kv_f64(&mut s, "penalty_p95_us", b.penalty_p95_us);
            kv_f64(&mut s, "penalty_p99_us", b.penalty_p99_us);
            json::push_key(&mut s, "penalty_hist");
            s.push('{');
            json::push_key(&mut s, "bounds_us");
            json::push_f64_array(&mut s, b.penalty_hist.bounds());
            s.push(',');
            json::push_key(&mut s, "counts");
            json::push_u64_array(&mut s, b.penalty_hist.counts());
            s.push('}');
            s.push('}');
        }
        s.push_str("],");

        json::push_key(&mut s, "nodes");
        s.push('[');
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            kv_u64(&mut s, "node", n.node as u64);
            kv_u64(&mut s, "evictions", n.evictions as u64);
            kv_u64(&mut s, "kills", n.kills as u64);
            kv_u64(&mut s, "dumps", n.dumps as u64);
            kv_u64(&mut s, "dump_us", n.dump_us);
            kv_u64(&mut s, "restores", n.restores as u64);
            kv_u64(&mut s, "restore_us", n.restore_us);
            kv_u64(&mut s, "lost_us", n.lost_us);
            kv_u64(&mut s, "retry_us", n.retry_us);
            kv_u64(&mut s, "repairs", n.repairs as u64);
            kv_u64(&mut s, "repair_bytes", n.repair_bytes);
            kv_u64(&mut s, "finishes", n.finishes as u64);
            s.pop();
            s.push('}');
        }
        s.push_str("],");

        json::push_key(&mut s, "top_jobs");
        s.push('[');
        for (i, j) in self.top_jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            kv_u64(&mut s, "job", j.job);
            kv_u64(&mut s, "tasks", j.tasks);
            kv_u64(&mut s, "finished", j.finished);
            kv_u64(&mut s, "penalty_us", j.penalty_us);
            kv_u64(&mut s, "response_us", j.response_us);
            kv_u64(&mut s, "lost_us", j.lost_us);
            s.pop();
            s.push('}');
        }
        s.push_str("],");

        json::push_key(&mut s, "anomalies");
        s.push('[');
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            kv_u64(&mut s, "task", a.task);
            kv_u64(&mut s, "job", a.job);
            json::push_key(&mut s, "band");
            json::push_str_escaped(&mut s, a.band.name());
            s.push(',');
            json::push_key(&mut s, "kind");
            json::push_str_escaped(&mut s, a.kind);
            s.push(',');
            kv_f64(&mut s, "value", a.value);
            kv_f64(&mut s, "median", a.median);
            kv_f64(&mut s, "threshold", a.threshold);
            s.pop();
            s.push('}');
        }
        s.push(']');
        if let Some(crit) = &self.crit {
            s.push(',');
            json::push_key(&mut s, "crit");
            crit.push_json(&mut s);
        }
        s.push('}');
        debug_assert!(json::is_valid(&s), "report JSON must be valid");
        s
    }

    /// Renders the report as a fixed-width terminal table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let secs = |us: u64| us as f64 / 1e6;
        let mut out = String::new();
        let src = &self.source;
        let _ = writeln!(
            out,
            "trace: {} records, {} tasks ({} finished, {} in flight{})",
            src.records,
            src.tasks_seen,
            src.tasks_finished,
            src.tasks_incomplete,
            if src.tasks_malformed > 0 || src.malformed_records > 0 {
                format!(
                    ", {} malformed tasks / {} records",
                    src.tasks_malformed, src.malformed_records
                )
            } else {
                String::new()
            }
        );
        let t = &self.totals;
        let _ = writeln!(
            out,
            "events: {} evictions ({} kills, {} dumps, {} restores, {} fallbacks)",
            t.evictions, t.kills, t.dumps, t.restores, t.fallbacks
        );
        if t.dump_fails > 0 || t.restore_fails > 0 || t.escalations > 0 {
            let _ = writeln!(
                out,
                "faults: {} dump fails, {} restore fails, {} AM escalations",
                t.dump_fails, t.restore_fails, t.escalations
            );
        }
        let _ = writeln!(
            out,
            "\n{:<11} {:>7} {:>8} {:>11} {:>11} {:>9} {:>9} {:>9} {:>6}",
            "band",
            "tasks",
            "finished",
            "resp mean s",
            "pen mean s",
            "pen p50 s",
            "pen p95 s",
            "pen p99 s",
            "pen %"
        );
        for b in &self.bands {
            let _ = writeln!(
                out,
                "{:<11} {:>7} {:>8} {:>11.2} {:>11.2} {:>9.2} {:>9.2} {:>9.2} {:>6.2}",
                b.band.name(),
                b.tasks,
                b.finished,
                b.mean_response_us / 1e6,
                b.mean_penalty_us / 1e6,
                b.penalty_p50_us / 1e6,
                b.penalty_p95_us / 1e6,
                b.penalty_p99_us / 1e6,
                100.0 * b.penalty_frac,
            );
        }
        let _ = writeln!(
            out,
            "\nblame totals (s): run {:.1}  ready-wait {:.1}  dump {:.1}  ckpt-wait {:.1}  restore {:.1}  retry {:.1}  lost {:.1}  suspended {:.1}",
            secs(t.blame.run_us),
            secs(t.blame.ready_wait_us),
            secs(t.blame.dump_us),
            secs(t.blame.ckpt_wait_us),
            secs(t.blame.restore_us),
            secs(t.blame.retry_us),
            secs(t.blame.lost_us),
            secs(t.blame.suspended_us),
        );
        if !self.top_jobs.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<12} {:>7} {:>8} {:>12} {:>12} {:>12}",
                "worst jobs", "tasks", "finished", "penalty s", "response s", "lost s"
            );
            for j in &self.top_jobs {
                let _ = writeln!(
                    out,
                    "{:<12} {:>7} {:>8} {:>12.2} {:>12.2} {:>12.2}",
                    j.job,
                    j.tasks,
                    j.finished,
                    secs(j.penalty_us),
                    secs(j.response_us),
                    secs(j.lost_us),
                );
            }
        }
        if self.anomalies.is_empty() {
            let _ = writeln!(out, "\nanomalies: none");
        } else {
            let _ = writeln!(out, "\nanomalies ({}):", self.anomalies.len());
            for a in &self.anomalies {
                let _ = writeln!(
                    out,
                    "  task {} (job {}, {}): {} = {:.1} > threshold {:.1} (band median {:.1})",
                    a.task,
                    a.job,
                    a.band.name(),
                    a.kind,
                    a.value,
                    a.threshold,
                    a.median,
                );
            }
        }
        if let Some(crit) = &self.crit {
            let _ = writeln!(out);
            out.push_str(&crit.render_table());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_telemetry::TraceRecord;

    fn collector_with_tasks(n: u64) -> SpanCollector {
        let mut c = SpanCollector::new();
        for i in 0..n {
            let prio = (i % 12) as u8;
            c.observe(
                i,
                &TraceRecord::TaskSubmit {
                    task: i,
                    job: i / 4,
                    priority: prio,
                },
            );
            c.observe(
                i + 10,
                &TraceRecord::TaskSchedule {
                    task: i,
                    node: (i % 3) as u32,
                    restore: false,
                },
            );
            if i % 5 == 0 {
                c.observe(
                    i + 100,
                    &TraceRecord::TaskEvict {
                        task: i,
                        node: (i % 3) as u32,
                        reason: "kill",
                    },
                );
                c.observe(
                    i + 150,
                    &TraceRecord::TaskSchedule {
                        task: i,
                        node: (i % 3) as u32,
                        restore: false,
                    },
                );
                c.observe(
                    i + 1_150,
                    &TraceRecord::TaskFinish {
                        task: i,
                        node: (i % 3) as u32,
                    },
                );
            } else {
                c.observe(
                    i + 1_010,
                    &TraceRecord::TaskFinish {
                        task: i,
                        node: (i % 3) as u32,
                    },
                );
            }
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        c
    }

    #[test]
    fn report_json_is_valid_and_stable() {
        let a = ObsReport::build(&collector_with_tasks(60), 5).to_json();
        let b = ObsReport::build(&collector_with_tasks(60), 5).to_json();
        assert_eq!(a, b, "same spans must produce byte-identical JSON");
        assert!(json::is_valid(&a), "report must be valid JSON: {a}");
        assert!(a.starts_with("{\"schema\":\"cbp-obs-report\",\"version\":3,"));
        for key in [
            "\"source\"",
            "\"totals\"",
            "\"bands\"",
            "\"nodes\"",
            "\"top_jobs\"",
            "\"anomalies\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
        for band in ["\"free\"", "\"middle\"", "\"production\""] {
            assert!(a.contains(band), "missing band {band}");
        }
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let c = collector_with_tasks(60);
        let r = ObsReport::build(&c, 3);
        assert_eq!(r.source.tasks_seen, 60);
        assert_eq!(r.source.tasks_finished, 60);
        assert_eq!(r.source.tasks_incomplete, 0);
        let band_total: u64 = r.bands.iter().map(|b| b.tasks).sum();
        assert_eq!(band_total, 60);
        let blame_sum: u64 = r.bands.iter().map(|b| b.blame.total_us()).sum();
        assert_eq!(blame_sum, r.totals.blame.total_us());
        assert_eq!(r.totals.kills, 12);
        assert_eq!(r.top_jobs.len(), 3);
        // Top jobs are sorted by descending penalty.
        for pair in r.top_jobs.windows(2) {
            assert!(pair[0].penalty_us >= pair[1].penalty_us);
        }
        assert_eq!(r.nodes.len(), 3);
        let finishes: u32 = r.nodes.iter().map(|n| n.finishes).sum();
        assert_eq!(finishes as u64, 60);
    }

    #[test]
    fn anomalies_flag_heavy_outliers() {
        let mut c = SpanCollector::new();
        // 40 clean tasks and one that is evicted 8 times.
        for i in 0..41u64 {
            c.observe(
                0,
                &TraceRecord::TaskSubmit {
                    task: i,
                    job: i,
                    priority: 0,
                },
            );
            c.observe(
                10,
                &TraceRecord::TaskSchedule {
                    task: i,
                    node: 0,
                    restore: false,
                },
            );
            let mut t = 10;
            let evictions = if i == 40 { 8 } else { i % 2 };
            for _ in 0..evictions {
                t += 50;
                c.observe(
                    t,
                    &TraceRecord::TaskEvict {
                        task: i,
                        node: 0,
                        reason: "kill",
                    },
                );
                t += 10;
                c.observe(
                    t,
                    &TraceRecord::TaskSchedule {
                        task: i,
                        node: 0,
                        restore: false,
                    },
                );
            }
            c.observe(t + 500, &TraceRecord::TaskFinish { task: i, node: 0 });
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        let r = ObsReport::build(&c, 10);
        assert!(
            r.anomalies
                .iter()
                .any(|a| a.task == 40 && a.kind == "evictions"),
            "task 40 must be flagged: {:?}",
            r.anomalies
        );
        assert!(
            r.anomalies.iter().all(|a| a.task == 40),
            "only the outlier is flagged: {:?}",
            r.anomalies
        );
    }

    #[test]
    fn table_renders_all_sections() {
        let r = ObsReport::build(&collector_with_tasks(60), 4);
        let table = r.render_table();
        for needle in [
            "band",
            "free",
            "middle",
            "production",
            "blame totals",
            "worst jobs",
        ] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
    }

    #[test]
    fn robust_stats_handles_degenerate_samples() {
        assert_eq!(robust_stats(&[]), (0.0, 0.0));
        let (med, scale) = robust_stats(&[5.0, 5.0, 5.0]);
        assert_eq!(med, 5.0);
        assert_eq!(scale, 0.0);
        // MAD of {0,0,0,0,9} is 0, but the mean-AD fallback still gives a
        // usable scale.
        let (med, scale) = robust_stats(&[0.0, 0.0, 0.0, 0.0, 9.0]);
        assert_eq!(med, 0.0);
        assert!(scale > 0.0);
    }
}
