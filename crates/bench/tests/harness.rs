//! Harness smoke tests: the cheap experiments produce well-formed tables
//! whose headline numbers sit where the paper puts them.

use cbp_bench::{run_one, Scale, EXPERIMENT_IDS};

#[test]
fn experiment_ids_dispatch() {
    // Every id resolves; unknown ids do not. (Only the cheap experiments
    // are actually *run* here; the expensive ones are covered by `repro`.)
    assert!(run_one("bogus", Scale::SMOKE, 1).is_none());
    assert!(EXPERIMENT_IDS.contains(&"fig3"));
    assert!(EXPERIMENT_IDS.contains(&"mapreduce"));
}

#[test]
fn table3_matches_paper_anchors() {
    let exp = run_one("table3", Scale::SMOKE, 1).unwrap();
    let t = &exp.tables[0];
    assert_eq!(t.columns.len(), 5);
    assert_eq!(t.rows.len(), 3);
    // HDD first checkpoint within 5% of the paper's 169.18 s.
    let hdd_first: f64 = t.rows[0][1].parse().unwrap();
    assert!(
        (hdd_first - 169.18).abs() / 169.18 < 0.05,
        "HDD first checkpoint {hdd_first}"
    );
    // PMFS second checkpoint within 25% of the paper's 0.28 s.
    let pmfs_second: f64 = t.rows[2][2].parse().unwrap();
    assert!(
        (pmfs_second - 0.28).abs() / 0.28 < 0.25,
        "PMFS second checkpoint {pmfs_second}"
    );
}

#[test]
fn fig2_is_linear_and_ordered() {
    let exp = run_one("fig2", Scale::SMOKE, 1).unwrap();
    let fig2a = &exp.tables[0];
    // Per row: HDD > SSD > NVM.
    for row in &fig2a.rows {
        let hdd: f64 = row[1].parse().unwrap();
        let ssd: f64 = row[2].parse().unwrap();
        let nvm: f64 = row[3].parse().unwrap();
        assert!(hdd > ssd && ssd > nvm, "media ordering violated: {row:?}");
    }
    // Roughly linear: time(10 GB) ≈ 2x time(5 GB) on HDD.
    let t5: f64 = fig2a.rows[3][1].parse().unwrap();
    let t10: f64 = fig2a.rows[5][1].parse().unwrap();
    assert!(
        (t10 / t5 - 2.0).abs() < 0.1,
        "HDD not linear: {t5} -> {t10}"
    );
    // HDFS (fig2b) is slower than local on every cell.
    let fig2b = &exp.tables[1];
    for (ra, rb) in fig2a.rows.iter().zip(&fig2b.rows) {
        for col in 1..4 {
            let local: f64 = ra[col].parse().unwrap();
            let dfs: f64 = rb[col].parse().unwrap();
            assert!(dfs >= local, "HDFS faster than local at {ra:?} col {col}");
        }
    }
}

#[test]
fn fig4_crossovers() {
    let exp = run_one("fig4", Scale::SMOKE, 1).unwrap();
    let high = &exp.tables[0];
    // Wait is flat at 1.5; kill flat at 1.0; checkpoint decreasing.
    let chk_first: f64 = high.rows[0][3].parse().unwrap();
    let chk_last: f64 = high.rows[4][3].parse().unwrap();
    assert!(
        chk_first > chk_last,
        "checkpoint should improve with bandwidth"
    );
    let kill: f64 = high.rows[0][2].parse().unwrap();
    assert!((kill - 1.0).abs() < 0.05);
    let wait: f64 = high.rows[0][1].parse().unwrap();
    assert!((wait - 1.5).abs() < 0.05);
    // At 1 GB/s checkpointing the high-priority job is worse than waiting
    // (the paper's low-bandwidth warning).
    assert!(chk_first > wait);
}

#[test]
fn markdown_renders_for_cheap_experiments() {
    for id in ["fig2", "table3", "fig4", "fig6"] {
        let exp = run_one(id, Scale::SMOKE, 1).unwrap();
        let md = exp.markdown();
        assert!(md.contains("**Paper:**"), "{id} missing paper claim");
        assert!(md.contains("|---"), "{id} missing table");
    }
}

/// A scale that leaves the Google trace without a job is rejected with a
/// typed error, and `repro` exits 2 with nothing on stdout instead of
/// printing all-zero tables. Experiments with a floor on their workload
/// size, and usable scales, pass the check.
#[test]
fn empty_workload_scale_is_rejected() {
    use cbp_bench::{check_scale, EmptyWorkload};
    let tiny = Scale::parse("1e-9").expect("a positive factor parses");
    for id in ["fig3", "fig1", "table2", "qos", "all"] {
        assert_eq!(
            check_scale(id, tiny, 42),
            Err(EmptyWorkload {
                scale: 1e-9,
                seed: 42
            }),
            "{id}"
        );
    }
    for id in ["fig8", "table3", "mapreduce"] {
        assert_eq!(check_scale(id, tiny, 42), Ok(()), "{id}");
    }
    assert_eq!(check_scale("fig3", Scale::SMOKE, 42), Ok(()));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--scale", "1e-9", "--seed", "42"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "printed tables for an empty workload"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty Google trace"), "{stderr}");
}
