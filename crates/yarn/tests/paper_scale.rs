//! Full paper-scale validations: the Facebook workload on the paper's
//! 8 x 24 cluster. Each test takes well under a second in debug builds.

use cbp_core::PreemptionPolicy;
use cbp_storage::MediaKind;
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::PriorityBand;
use cbp_yarn::YarnConfig;

/// Fig. 8a at full scale: checkpointing beats kill on every medium, with
/// the paper's roughly-monotone media ordering.
#[test]
fn fig8_full_scale_waste_reductions() {
    let w = FacebookConfig::default().generate(42);
    let kill = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Ssd).run(&w);
    assert!(kill.metrics.kills > 0);
    let mut waste = Vec::new();
    for media in MediaKind::ALL {
        let chk = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, media).run(&w);
        let reduction = 1.0 - chk.metrics.wasted_cpu_hours() / kill.metrics.wasted_cpu_hours();
        println!(
            "{media}: chk {:.2} core-h vs kill {:.2} (reduction {:.0}%)",
            chk.metrics.wasted_cpu_hours(),
            kill.metrics.wasted_cpu_hours(),
            reduction * 100.0
        );
        // The paper reports 50/65/67%; our simulated substrate reproduces
        // the direction everywhere and the magnitude on SSD/NVM, while HDD
        // stays positive but smaller (its dump costs are the closest to the
        // kill losses — see EXPERIMENTS.md).
        let floor = if media == MediaKind::Hdd { 0.05 } else { 0.2 };
        assert!(
            reduction > floor,
            "{media}: reduction only {:.0}%",
            reduction * 100.0
        );
        waste.push(chk.metrics.wasted_cpu_hours());
    }
    // HDD wastes the most among checkpoint runs, NVM the least.
    assert!(waste[0] > waste[2], "HDD {} vs NVM {}", waste[0], waste[2]);
}

/// Fig. 8c at full scale: NVM checkpointing keeps high-priority response
/// within a few percent of kill while improving low-priority response.
#[test]
fn fig8_full_scale_nvm_responses() {
    let w = FacebookConfig::default().generate(42);
    let kill = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Nvm).run(&w);
    let chk = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm).run(&w);
    assert!(
        chk.metrics.mean_response(PriorityBand::Free)
            <= kill.metrics.mean_response(PriorityBand::Free) * 1.02,
        "low: chk {} vs kill {}",
        chk.metrics.mean_response(PriorityBand::Free),
        kill.metrics.mean_response(PriorityBand::Free)
    );
    assert!(
        chk.metrics.mean_response(PriorityBand::Production)
            <= kill.metrics.mean_response(PriorityBand::Production) * 1.10,
        "high: chk {} vs kill {}",
        chk.metrics.mean_response(PriorityBand::Production),
        kill.metrics.mean_response(PriorityBand::Production)
    );
}
