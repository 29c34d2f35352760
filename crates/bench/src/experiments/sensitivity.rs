//! Bandwidth sensitivity with two k-means jobs: Fig. 4 (wait/kill/
//! checkpoint) and Fig. 6 (plus adaptive).

use cbp_core::scenario::SensitivityScenario;
use cbp_core::PreemptionPolicy;

use crate::table::{fmt, Experiment, Table};

const BWS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

fn sweep_tables(id_prefix: &str, policies: &[PreemptionPolicy]) -> Vec<Table> {
    let scenario = SensitivityScenario::default();
    let undisturbed = scenario.undisturbed_secs();
    let names: Vec<String> = policies.iter().map(|p| p.to_string()).collect();
    let columns: Vec<&str> = std::iter::once("bw [GB/s]")
        .chain(names.iter().map(String::as_str))
        .collect();

    let mut high = Table::new(
        format!("{id_prefix}a"),
        "High-priority response normalized to undisturbed runtime",
        &columns,
    );
    let mut low = Table::new(
        format!("{id_prefix}b"),
        "Low-priority response normalized to undisturbed runtime",
        &columns,
    );
    let mut energy = Table::new(
        format!("{id_prefix}c"),
        "Energy normalized to the Wait policy",
        &columns,
    );

    for bw in BWS {
        let outcomes: Vec<_> = policies.iter().map(|p| scenario.run(*p, bw)).collect();
        let wait_energy = scenario.run(PreemptionPolicy::Wait, bw).energy_kwh;
        high.row(
            std::iter::once(fmt(bw, 1))
                .chain(
                    outcomes
                        .iter()
                        .map(|o| fmt(o.high_normalized(undisturbed), 2)),
                )
                .collect(),
        );
        low.row(
            std::iter::once(fmt(bw, 1))
                .chain(
                    outcomes
                        .iter()
                        .map(|o| fmt(o.low_normalized(undisturbed), 2)),
                )
                .collect(),
        );
        energy.row(
            std::iter::once(fmt(bw, 1))
                .chain(outcomes.iter().map(|o| fmt(o.energy_kwh / wait_energy, 2)))
                .collect(),
        );
    }
    vec![high, low, energy]
}

/// Fig. 4: wait / kill / always-checkpoint over 1–5 GB/s.
pub fn fig4() -> Experiment {
    let mut exp = Experiment::new(
        "kill is always best for the high-priority job; waiting costs it \
         >1.5x; checkpointing is worse than kill at low bandwidth and \
         approaches it as bandwidth grows; for the low-priority job \
         checkpointing beats kill once bandwidth is high enough; \
         checkpointing at low bandwidth costs more energy than kill",
    );
    for t in sweep_tables(
        "fig4",
        &[
            PreemptionPolicy::Wait,
            PreemptionPolicy::Kill,
            PreemptionPolicy::Checkpoint,
        ],
    ) {
        exp.push(t);
    }
    exp
}

/// Fig. 6: Fig. 4 plus the adaptive policy.
pub fn fig6() -> Experiment {
    let mut exp = Experiment::new(
        "adaptive kills at low bandwidth and checkpoints at high bandwidth: \
         the high-priority job is never worse than under wait, and energy is \
         never worse than under kill",
    );
    for t in sweep_tables(
        "fig6",
        &[
            PreemptionPolicy::Wait,
            PreemptionPolicy::Kill,
            PreemptionPolicy::Checkpoint,
            PreemptionPolicy::Adaptive,
        ],
    ) {
        exp.push(t);
    }
    exp
}
