//! Regression diffing of analysis reports.
//!
//! Two [`crate::ObsReport`] JSON documents (baseline and candidate) are
//! flattened into `metric path → value` maps and compared under
//! configurable tolerances. Each metric gets a verdict — *same* within
//! tolerance, *improved* / *regressed* for metrics with a known good
//! direction (penalties, waits and lost work are lower-is-better;
//! finished counts are higher-is-better), or *changed* for neutral ones
//! — and the report rolls up into an overall verdict plus a rendered
//! table of the deltas.
//!
//! Identity-heavy sections (`top_jobs`, `anomalies`) and raw histogram
//! buckets are excluded from the flat view: they are diagnostic detail,
//! not regression metrics, and tiny scheduling changes legitimately
//! reorder them.

use std::collections::BTreeMap;
use std::fmt;

use cbp_telemetry::json::{self, Value};

use crate::report::{REPORT_MIN_VERSION, REPORT_SCHEMA, REPORT_VERSION};

/// Comparison tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Relative tolerance applied to every metric
    /// (`|Δ| ≤ rel · max(|a|, |b|)` counts as same).
    pub rel: f64,
    /// Absolute tolerance, in microseconds, applied only to `*_us`
    /// metrics (absorbs sub-millisecond jitter on large time sums).
    pub abs_us: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            rel: 0.05,
            abs_us: 1_000.0,
        }
    }
}

impl Tolerances {
    fn within(&self, key: &str, a: f64, b: f64) -> bool {
        let d = (a - b).abs();
        if d <= self.rel * a.abs().max(b.abs()) {
            return true;
        }
        key.ends_with("_us") && d <= self.abs_us
    }
}

/// Per-metric comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Same,
    /// Out of tolerance, in the good direction.
    Improved,
    /// Out of tolerance, in the bad direction.
    Regressed,
    /// Out of tolerance, no known good direction.
    Changed,
    /// Present only in the candidate.
    Added,
    /// Present only in the baseline.
    Removed,
}

impl Verdict {
    /// Short stable label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Changed => "changed",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Flattened metric path (e.g. `bands.production.mean_penalty_us`).
    pub key: String,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Candidate value, if present.
    pub candidate: Option<f64>,
    /// Outcome.
    pub verdict: Verdict,
}

impl DiffRow {
    /// Candidate minus baseline (0 when either side is missing).
    pub fn delta(&self) -> f64 {
        match (self.baseline, self.candidate) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }
}

/// The full comparison: one row per metric path, in sorted key order.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// All compared metrics.
    pub rows: Vec<DiffRow>,
    /// The tolerances used.
    pub tolerances: Tolerances,
}

impl DiffReport {
    /// Rows with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// Overall verdict: regressed if anything regressed, else improved
    /// if anything improved, else changed if anything changed (or the
    /// schemas gained/lost metrics), else same.
    pub fn verdict(&self) -> Verdict {
        if self.count(Verdict::Regressed) > 0 {
            Verdict::Regressed
        } else if self.count(Verdict::Improved) > 0 {
            Verdict::Improved
        } else if self.count(Verdict::Changed)
            + self.count(Verdict::Added)
            + self.count(Verdict::Removed)
            > 0
        {
            Verdict::Changed
        } else {
            Verdict::Same
        }
    }

    /// Renders a table of every out-of-tolerance metric plus a summary
    /// line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>12} {:>10}",
            "metric", "baseline", "candidate", "delta", "verdict"
        );
        for row in &self.rows {
            if row.verdict == Verdict::Same {
                continue;
            }
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.2}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>14} {:>14} {:>12.2} {:>10}",
                row.key,
                fmt_opt(row.baseline),
                fmt_opt(row.candidate),
                row.delta(),
                row.verdict,
            );
        }
        let _ = writeln!(
            out,
            "{} metrics: {} same, {} improved, {} regressed, {} changed, {} added/removed => {}",
            self.rows.len(),
            self.count(Verdict::Same),
            self.count(Verdict::Improved),
            self.count(Verdict::Regressed),
            self.count(Verdict::Changed),
            self.count(Verdict::Added) + self.count(Verdict::Removed),
            self.verdict(),
        );
        out
    }
}

/// Subtrees excluded from the flat metric view.
const SKIP_SUBTREES: [&str; 3] = ["top_jobs", "anomalies", "penalty_hist"];

/// True if a lower value of the metric is better.
fn lower_is_better(key: &str) -> bool {
    const BAD: [&str; 12] = [
        "penalty",
        "lost",
        "ckpt_wait",
        "ready_wait",
        "suspended",
        "dump_us",
        "restore_us",
        "evictions",
        "kills",
        "fallbacks",
        "malformed",
        "response",
    ];
    BAD.iter().any(|b| key.contains(b))
}

/// True if a higher value of the metric is better.
fn higher_is_better(key: &str) -> bool {
    key.ends_with("finished") || key.ends_with(".finishes")
}

fn walk(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Object(fields) => {
            for (k, child) in fields {
                if SKIP_SUBTREES.contains(&k.as_str()) {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, child, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                // Identify array elements by their id field when present
                // (bands by name, nodes by id) so reordering does not
                // show up as wholesale adds/removes.
                let label = item
                    .get("band")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .or_else(|| {
                        item.get("node")
                            .and_then(Value::as_u64)
                            .map(|n| n.to_string())
                    })
                    .unwrap_or_else(|| i.to_string());
                walk(&format!("{prefix}.{label}"), item, out);
            }
        }
        Value::U64(_) | Value::F64(_) => {
            if let Some(x) = v.as_f64() {
                out.insert(prefix.to_string(), x);
            }
        }
        Value::Bool(b) => {
            out.insert(prefix.to_string(), if *b { 1.0 } else { 0.0 });
        }
        Value::Str(_) | Value::Null => {}
    }
}

/// Flattens an `ObsReport` JSON document into `metric path → value`.
///
/// Fails if the document is not valid JSON or does not carry the
/// `cbp-obs-report` schema header.
pub fn flatten_report(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(text).ok_or_else(|| "not valid JSON".to_string())?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != REPORT_SCHEMA {
        return Err(format!("expected schema {REPORT_SCHEMA:?}, got {schema:?}"));
    }
    let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version < REPORT_MIN_VERSION as u64 || version > REPORT_VERSION as u64 {
        return Err(format!(
            "expected schema version {REPORT_MIN_VERSION}..={REPORT_VERSION}, got {version}"
        ));
    }
    let mut out = BTreeMap::new();
    if let Value::Object(fields) = &v {
        for (k, child) in fields {
            if k == "schema" || k == "version" || SKIP_SUBTREES.contains(&k.as_str()) {
                continue;
            }
            walk(k, child, &mut out);
        }
    }
    Ok(out)
}

/// Compares two `ObsReport` JSON documents.
pub fn diff_reports(
    baseline: &str,
    candidate: &str,
    tolerances: Tolerances,
) -> Result<DiffReport, String> {
    let base = flatten_report(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = flatten_report(candidate).map_err(|e| format!("candidate: {e}"))?;
    let mut keys: Vec<&String> = base.keys().collect();
    for k in cand.keys() {
        if !base.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();
    let rows = keys
        .into_iter()
        .map(|key| {
            let a = base.get(key).copied();
            let b = cand.get(key).copied();
            let verdict = match (a, b) {
                (None, Some(_)) => Verdict::Added,
                (Some(_), None) => Verdict::Removed,
                (Some(a), Some(b)) if tolerances.within(key, a, b) => Verdict::Same,
                (Some(a), Some(b)) => {
                    let better =
                        (b < a && lower_is_better(key)) || (b > a && higher_is_better(key));
                    let worse = (b > a && lower_is_better(key)) || (b < a && higher_is_better(key));
                    if better {
                        Verdict::Improved
                    } else if worse {
                        Verdict::Regressed
                    } else {
                        Verdict::Changed
                    }
                }
                (None, None) => unreachable!("key came from one of the maps"),
            };
            DiffRow {
                key: key.clone(),
                baseline: a,
                candidate: b,
                verdict,
            }
        })
        .collect();
    Ok(DiffReport { rows, tolerances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ObsReport;
    use crate::span::SpanCollector;
    use cbp_telemetry::TraceRecord;

    fn report_json(kill_at: u64) -> String {
        let mut c = SpanCollector::new();
        for i in 0..20u64 {
            c.observe(
                0,
                &TraceRecord::TaskSubmit {
                    task: i,
                    job: i / 2,
                    priority: (i % 12) as u8,
                },
            );
            c.observe(
                5,
                &TraceRecord::TaskSchedule {
                    task: i,
                    node: 0,
                    restore: false,
                },
            );
            let mut t = 5;
            if i == 3 {
                c.observe(
                    kill_at,
                    &TraceRecord::TaskEvict {
                        task: i,
                        node: 0,
                        reason: "kill",
                    },
                );
                c.observe(
                    kill_at + 10,
                    &TraceRecord::TaskSchedule {
                        task: i,
                        node: 0,
                        restore: false,
                    },
                );
                t = kill_at + 10;
            }
            c.observe(t + 1_000_000, &TraceRecord::TaskFinish { task: i, node: 0 });
        }
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
        ObsReport::build(&c, 5).to_json()
    }

    #[test]
    fn identical_reports_diff_as_same() {
        let a = report_json(500_000);
        let d = diff_reports(&a, &a, Tolerances::default()).unwrap();
        assert_eq!(d.verdict(), Verdict::Same);
        assert!(d.rows.iter().all(|r| r.verdict == Verdict::Same));
        assert!(!d.rows.is_empty());
        assert!(d.render().contains("=> same"));
    }

    #[test]
    fn more_lost_work_regresses() {
        // Baseline kills task 3 early (little lost work); candidate
        // kills it late (much more lost work and a longer response).
        let base = report_json(10_000);
        let cand = report_json(40_000_000);
        let d = diff_reports(&base, &cand, Tolerances::default()).unwrap();
        assert_eq!(d.verdict(), Verdict::Regressed);
        assert!(
            d.rows
                .iter()
                .any(|r| r.key.contains("lost_us") && r.verdict == Verdict::Regressed),
            "lost_us must regress:\n{}",
            d.render()
        );
        // The reverse comparison improves.
        let d = diff_reports(&cand, &base, Tolerances::default()).unwrap();
        assert_eq!(d.verdict(), Verdict::Improved);
    }

    #[test]
    fn tolerances_absorb_small_deltas() {
        let base = report_json(10_000);
        let cand = report_json(10_040);
        let strict = diff_reports(
            &base,
            &cand,
            Tolerances {
                rel: 0.0,
                abs_us: 0.0,
            },
        )
        .unwrap();
        assert_ne!(strict.verdict(), Verdict::Same);
        let loose = diff_reports(&base, &cand, Tolerances::default()).unwrap();
        assert_eq!(loose.verdict(), Verdict::Same);
    }

    #[test]
    fn flatten_identifies_bands_and_nodes_by_id() {
        let flat = flatten_report(&report_json(10_000)).unwrap();
        assert!(flat.contains_key("bands.production.mean_penalty_us"));
        assert!(flat.contains_key("bands.free.blame.run_us"));
        assert!(flat.contains_key("nodes.0.finishes"));
        assert!(flat.contains_key("totals.blame.lost_us"));
        assert!(!flat.keys().any(|k| k.contains("top_jobs")));
        assert!(!flat.keys().any(|k| k.contains("penalty_hist")));
        assert!(!flat.keys().any(|k| k.contains("schema")));
    }

    #[test]
    fn rejects_non_report_json() {
        assert!(flatten_report("{}").is_err());
        assert!(flatten_report("not json").is_err());
        assert!(flatten_report("{\"schema\":\"cbp-trace\",\"version\":1}").is_err());
        assert!(diff_reports("{}", "{}", Tolerances::default()).is_err());
    }
}
