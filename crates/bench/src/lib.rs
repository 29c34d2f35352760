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
    analyze_trace_collector, emit_analysis, run_instrumented, InstrumentError, TelemetryOptions,
    ANALYZE_TOP_K,
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

/// What an experiment simulates. It picks the simulator of the
/// instrumented run behind `repro`'s telemetry flags, and whether a
/// `--scale` can leave the experiment without work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// `ClusterSim` on the Google trace of [`experiments::google_setup`].
    GoogleTrace,
    /// `YarnSim` on the Facebook workload of [`experiments::yarn_setup`].
    Yarn,
    /// An analytic model or a microbenchmark table: nothing to simulate.
    Analytic,
}

/// One experiment: the ids that select it, what it simulates, and the
/// function that runs it.
#[derive(Debug)]
pub struct ExperimentDef {
    /// The ids that select it, in the order `repro --list` prints them.
    pub ids: &'static [&'static str],
    /// What it simulates.
    pub substrate: Substrate,
    /// Runs it at a scale and seed; the result is unlabelled.
    run: fn(Scale, u64) -> Experiment,
}

impl ExperimentDef {
    /// Runs it at a scale and seed, labelled with its first id.
    pub fn run(&self, scale: Scale, seed: u64) -> Experiment {
        Experiment {
            id: self.ids[0].to_string(),
            ..(self.run)(scale, seed)
        }
    }
}

const fn def(
    ids: &'static [&'static str],
    substrate: Substrate,
    run: fn(Scale, u64) -> Experiment,
) -> ExperimentDef {
    ExperimentDef {
        ids,
        substrate,
        run,
    }
}

/// Every experiment, in paper order.
pub static EXPERIMENTS: [ExperimentDef; 16] = {
    use experiments::*;
    use Substrate::{Analytic, GoogleTrace, Yarn};
    [
        def(
            &["fig1", "table1", "table2"],
            GoogleTrace,
            characterize::fig1_tables12,
        ),
        def(&["fig2"], Analytic, |_, _| micro::fig2()),
        def(&["table3"], Analytic, |_, _| micro::table3()),
        def(&["fig3"], GoogleTrace, tracesim::fig3),
        def(&["fig4"], Analytic, |_, _| sensitivity::fig4()),
        def(&["fig5"], GoogleTrace, tracesim::fig5),
        def(&["fig6"], Analytic, |_, _| sensitivity::fig6()),
        def(&["fig8"], Yarn, yarnexp::fig8),
        def(&["fig9"], Yarn, yarnexp::fig9),
        def(&["fig10"], Yarn, yarnexp::fig10),
        def(&["fig11"], Yarn, yarnexp::fig11),
        def(&["fig12"], Yarn, yarnexp::fig12),
        def(&["ablate"], GoogleTrace, ablate::ablations),
        def(&["mapreduce"], Yarn, extensions::mapreduce),
        def(&["qos"], GoogleTrace, qos::qos),
        def(&["faults"], GoogleTrace, extensions::faults),
    ]
};

/// The experiment `id` selects.
pub fn find_experiment(id: &str) -> Option<&'static ExperimentDef> {
    EXPERIMENTS.iter().find(|e| e.ids.contains(&id))
}

/// Every experiment id, in paper order.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().flat_map(|e| e.ids.iter().copied())
}

/// Runs every experiment at the given scale, in paper order.
pub fn run_all(scale: Scale, seed: u64) -> Vec<Experiment> {
    EXPERIMENTS.iter().map(|e| e.run(scale, seed)).collect()
}

/// Runs one experiment by id (`fig1`, `table3`, `fig8`, `ablate`, ...).
pub fn run_one(id: &str, scale: Scale, seed: u64) -> Option<Experiment> {
    find_experiment(id).map(|e| e.run(scale, seed))
}

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
    if id != "all" && find_experiment(id).is_none_or(|e| e.substrate != Substrate::GoogleTrace) {
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
