//! §3.3.1 microbenchmarks: Fig. 2 (suspend/restore vs size) and Table 3
//! (incremental checkpointing).

use cbp_checkpoint::{Criu, TaskMemory};
use cbp_dfs::{DfsCluster, DfsConfig, DnId};
use cbp_simkit::units::ByteSize;
use cbp_simkit::SimTime;
use cbp_storage::{Device, MediaSpec};

use crate::table::{fmt, Experiment, Table};

const SIZES_GB: [f64; 6] = [0.5, 1.0, 2.5, 5.0, 7.5, 10.0];

/// Fig. 2a/2b: total dump+restore time vs image size, local FS and HDFS.
pub fn fig2() -> Experiment {
    let mut exp = Experiment::new(
        "suspend+restore time is linear in memory size; SSD is 3-4x faster \
         than HDD and NVM 10-15x faster than SSD; HDFS adds overhead over \
         the local file system on every medium",
    );

    let mut fig2a = Table::new(
        "fig2a",
        "Local FS: total dump+restore time [s] vs checkpoint size",
        &["size [GB]", "HDD", "SSD", "NVM"],
    );
    for gb in SIZES_GB {
        let size = ByteSize::from_gb_f64(gb);
        let mut cells = vec![fmt(gb, 1)];
        for spec in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()] {
            cells.push(fmt(spec.round_trip_time(size).as_secs_f64(), 1));
        }
        fig2a.row(cells);
    }
    {
        let hdd = MediaSpec::hdd()
            .round_trip_time(ByteSize::from_gb(10))
            .as_secs_f64();
        let ssd = MediaSpec::ssd()
            .round_trip_time(ByteSize::from_gb(10))
            .as_secs_f64();
        let nvm = MediaSpec::nvm()
            .round_trip_time(ByteSize::from_gb(10))
            .as_secs_f64();
        fig2a.note(format!(
            "ratios at 10 GB: HDD/SSD = {:.1}x (paper 3-4x), SSD/NVM = {:.1}x (paper 10-15x)",
            hdd / ssd,
            ssd / nvm
        ));
    }
    exp.push(fig2a);

    let mut fig2b = Table::new(
        "fig2b",
        "HDFS: total dump+restore time [s] vs checkpoint size (remote reader)",
        &["size [GB]", "HDD", "SSD", "PMFS"],
    );
    for gb in SIZES_GB {
        let size = ByteSize::from_gb_f64(gb);
        let mut cells = vec![fmt(gb, 1)];
        for media in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()] {
            let mut dfs = DfsCluster::homogeneous(DfsConfig::default(), media, 4, 11);
            let write = dfs
                .create("/img", size, DnId(0))
                .expect("fresh path")
                .duration;
            // Restore on another node, as remote resume does.
            let read = dfs.read_cost("/img", DnId(1)).expect("exists").duration;
            cells.push(fmt((write + read).as_secs_f64(), 1));
        }
        fig2b.row(cells);
    }
    fig2b.note("paper: HDFS takes more time than the local FS but enables restore on any node");
    exp.push(fig2b);

    exp
}

/// Table 3: first (full) vs second (incremental, 10% dirty) checkpoint of a
/// 5 GB program.
pub fn table3() -> Experiment {
    let mut exp = Experiment::new(
        "with 10% of memory modified, the second (incremental) checkpoint is \
         about an order of magnitude faster: 169.18->15.34 s (HDD), \
         43.73->4.08 s (SSD), 2.92->0.28 s (PMFS)",
    );
    let mut t = Table::new(
        "table3",
        "Benefits of incremental checkpointing (5 GB task, 10% dirtied)",
        &[
            "storage",
            "first checkpoint [s]",
            "second checkpoint [s]",
            "paper first",
            "paper second",
        ],
    );
    let paper = [
        ("HDD", 169.18, 15.34),
        ("SSD", 43.73, 4.08),
        ("PMFS", 2.92, 0.28),
    ];
    for (spec, (label, p1, p2)) in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()]
        .into_iter()
        .zip(paper)
    {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(spec);
        let mut mem = TaskMemory::new(ByteSize::from_gb(5));
        let d1 = criu
            .dump(1, &mut mem, 0, &mut dev, SimTime::ZERO)
            .expect("capacity suffices");
        mem.touch_fraction(0.10);
        dev.on_advance(SimTime::from_secs(10_000));
        let d2 = criu
            .dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(10_000))
            .expect("capacity suffices");
        t.row(vec![
            label.to_string(),
            fmt(d1.op.end.since(d1.op.start).as_secs_f64(), 2),
            fmt(d2.op.end.since(d2.op.start).as_secs_f64(), 2),
            fmt(p1, 2),
            fmt(p2, 2),
        ]);
    }
    exp.push(t);
    exp
}
