//! The experiment harness: one function per table/figure of the paper.
//!
//! Each experiment returns [`Experiment`] — a set of [`Table`]s mirroring
//! the rows/series the paper plots — so the `repro` binary can print them
//! and assemble `EXPERIMENTS.md`. Absolute numbers come from the simulated
//! substrates, so the comparison target is the *shape* (orderings,
//! crossovers, rough factors), not the authors' testbed values; each
//! experiment embeds the paper's anchor observations in its notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_run;
pub mod experiments;
mod table;
pub mod telemetry_run;

pub use bench_run::{
    check_bench_files, find_scenario, run_scenario, standard_matrix, tiny_matrix, BenchDiff,
    BenchOptions, BenchResult, BenchScenario, SimKind, BENCH_SCHEMA, BENCH_VERSION,
};
pub use table::{experiments_json, Experiment, Table};
pub use telemetry_run::{
    analyze_trace_collector, analyze_trace_file, emit_crit_extras, run_instrumented,
    InstrumentError, TelemetryOptions, ANALYZE_TOP_K,
};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fraction of the paper's workload/cluster size (1.0 = full).
    pub factor: f64,
}

impl Scale {
    /// The paper's full scale.
    pub const FULL: Scale = Scale { factor: 1.0 };
    /// A laptop-friendly default (10% of the trace, proportionally smaller
    /// cluster — per-node load is preserved).
    pub const SMALL: Scale = Scale { factor: 0.1 };
    /// Tiny smoke-test scale for CI.
    pub const SMOKE: Scale = Scale { factor: 0.02 };

    /// Scales an integer quantity, keeping at least `min`.
    pub fn apply(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.factor).round() as usize).max(min)
    }
}

/// Runs every experiment at the given scale, in paper order.
pub fn run_all(scale: Scale, seed: u64) -> Vec<Experiment> {
    vec![
        experiments::characterize::fig1_tables12(scale, seed),
        experiments::micro::fig2(),
        experiments::micro::table3(),
        experiments::tracesim::fig3(scale, seed),
        experiments::sensitivity::fig4(),
        experiments::tracesim::fig5(scale, seed),
        experiments::sensitivity::fig6(),
        experiments::yarnexp::fig8(scale, seed),
        experiments::yarnexp::fig9(scale, seed),
        experiments::yarnexp::fig10(scale, seed),
        experiments::yarnexp::fig11(scale, seed),
        experiments::yarnexp::fig12(scale, seed),
        experiments::ablate::ablations(scale, seed),
        experiments::extensions::mapreduce(scale, seed),
        experiments::qos::qos(scale, seed),
        experiments::extensions::faults(scale, seed),
    ]
}

/// Looks up one experiment by id (`fig1`, `table3`, `fig8`, `ablate`, ...).
pub fn run_one(id: &str, scale: Scale, seed: u64) -> Option<Experiment> {
    let exp = match id {
        "fig1" | "table1" | "table2" => experiments::characterize::fig1_tables12(scale, seed),
        "fig2" => experiments::micro::fig2(),
        "table3" => experiments::micro::table3(),
        "fig3" => experiments::tracesim::fig3(scale, seed),
        "fig4" => experiments::sensitivity::fig4(),
        "fig5" => experiments::tracesim::fig5(scale, seed),
        "fig6" => experiments::sensitivity::fig6(),
        "fig8" => experiments::yarnexp::fig8(scale, seed),
        "fig9" => experiments::yarnexp::fig9(scale, seed),
        "fig10" => experiments::yarnexp::fig10(scale, seed),
        "fig11" => experiments::yarnexp::fig11(scale, seed),
        "fig12" => experiments::yarnexp::fig12(scale, seed),
        "ablate" => experiments::ablate::ablations(scale, seed),
        "mapreduce" => experiments::extensions::mapreduce(scale, seed),
        "qos" => experiments::qos::qos(scale, seed),
        "faults" => experiments::extensions::faults(scale, seed),
        _ => return None,
    };
    Some(exp)
}

/// The experiment ids that simulate the Google trace (see
/// [`experiments::google_setup`]).
const GOOGLE_TRACE_IDS: [&str; 8] = [
    "fig1", "table1", "table2", "fig3", "fig5", "ablate", "qos", "faults",
];

/// A `--scale` so small that the Google trace it scales has no job: every
/// table of the experiments that simulate it would be zeros.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmptyWorkload {
    /// The scale factor asked for.
    pub scale: f64,
    /// The seed the trace was generated with.
    pub seed: u64,
}

impl std::fmt::Display for EmptyWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--scale {} gives an empty Google trace (no jobs at seed {}); \
             use a larger scale",
            self.scale, self.seed
        )
    }
}

impl std::error::Error for EmptyWorkload {}

/// Checks that experiment `id` (every experiment, for `all`) has work to
/// simulate at `scale`: the Google trace of the experiments that run it
/// must have at least one job. Other experiments keep a floor on their
/// workload size and always pass.
///
/// # Errors
///
/// [`EmptyWorkload`] if the scaled trace is empty.
pub fn check_scale(id: &str, scale: Scale, seed: u64) -> Result<(), EmptyWorkload> {
    if id != "all" && !GOOGLE_TRACE_IDS.contains(&id) {
        return Ok(());
    }
    let (workload, _) = experiments::google_setup(scale, seed);
    if workload.job_count() == 0 {
        Err(EmptyWorkload {
            scale: scale.factor,
            seed,
        })
    } else {
        Ok(())
    }
}

/// All experiment ids accepted by [`run_one`].
pub const EXPERIMENT_IDS: [&str; 18] = [
    "fig1",
    "table1",
    "table2",
    "fig2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablate",
    "mapreduce",
    "qos",
    "faults",
];

impl Scale {
    /// Parses `full` / `small` / `smoke` / a float factor.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::FULL),
            "small" => Some(Scale::SMALL),
            "smoke" => Some(Scale::SMOKE),
            other => other
                .parse::<f64>()
                .ok()
                .filter(|f| *f > 0.0 && *f <= 1.0)
                .map(|factor| Scale { factor }),
        }
    }
}
