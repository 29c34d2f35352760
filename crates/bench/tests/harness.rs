//! Harness smoke tests: the cheap experiments produce well-formed tables
//! whose headline numbers sit where the paper puts them.

use cbp_bench::{experiment_ids, run_one, Scale};

#[test]
fn experiment_ids_dispatch() {
    // Every id resolves; unknown ids do not. (Only the cheap experiments
    // are actually *run* here; the expensive ones are covered by `repro`.)
    assert!(run_one("bogus", Scale::SMOKE, 1).is_none());
    assert!(experiment_ids().any(|id| id == "fig3"));
    assert!(experiment_ids().any(|id| id == "mapreduce"));
}

#[test]
fn table3_matches_paper_anchors() {
    let exp = run_one("table3", Scale::SMOKE, 1).unwrap();
    assert_eq!(exp.id, "table3");
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

/// Every input `repro` rejects exits 2 with nothing on stdout and names
/// the flag, key or file at fault on stderr. Each case stops before any
/// simulation runs.
#[test]
fn cli_rejects_bad_input_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("cbp-cli-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let headerless = dir.join("headerless.jsonl");
    std::fs::write(&headerless, "{\"t_us\":0,\"event\":\"task_submit\"}\n").unwrap();
    let not_json = dir.join("not-json.json");
    std::fs::write(&not_json, "not json\n").unwrap();
    let missing = dir.join("missing.jsonl");
    let (headerless, not_json, missing) = (
        headerless.to_str().unwrap(),
        not_json.to_str().unwrap(),
        missing.to_str().unwrap(),
    );

    // (arguments, what stderr must name)
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["fig3", "--scale", "0"], "--scale"),
        (vec!["fig3", "--scale", "nan"], "--scale"),
        (vec!["fig3", "--scale", "-1"], "--scale"),
        (vec!["fig3", "--scale", "2"], "--scale"),
        (vec!["fig3", "--scale", "smoke", "--seed", "-1"], "--seed"),
        (vec!["fig3", "--scale", "smoke", "--seed", "abc"], "--seed"),
        (vec!["fig3", "--what-if", "bogus"], "--what-if"),
        (vec!["all", "--scale", "smoke", "--telemetry"], "'all'"),
        (
            vec!["all", "--scale", "smoke", "--trace-out", "t.jsonl"],
            "'all'",
        ),
        (
            vec!["fig3", "--scale", "smoke", "--faults", "heavy"],
            "--faults",
        ),
        (
            vec!["fig3", "--scale", "smoke", "--no-lifecycle"],
            "--no-lifecycle",
        ),
        (vec!["bogus", "--scale", "smoke"], "bogus"),
        (vec!["bench", "--check", not_json], "--candidate"),
        (vec!["bench", "--reps", "0"], "--reps"),
        (vec!["bench", "--tol-pct", "-1"], "--tol-pct"),
        (vec!["bench", "--matrix", "bogus"], "matrix"),
        (vec!["analyze", missing], missing),
        (vec!["analyze", headerless], headerless),
        (vec!["analyze", headerless, headerless], headerless),
        (
            vec!["bench", "--check", not_json, "--candidate", not_json],
            "baseline",
        ),
    ];
    for (spec, key) in [
        ("seed=-1", "seed"),
        ("rack-size=0", "rack-size"),
        ("breaker-min=0", "breaker-min"),
        ("cap=0", "cap"),
        ("chunk-mb=0", "chunk-mb"),
        ("crash=2", "crash"),
        ("bogus=1", "bogus"),
        ("extreme", "extreme"),
    ] {
        cases.push((
            vec!["fig3", "--scale", "smoke", "--telemetry", "--faults", spec],
            key,
        ));
    }
    for cmd in [vec!["fig3"], vec!["bench"], vec!["analyze", headerless]] {
        let mut args = cmd.clone();
        args.push("--bogus");
        cases.push((args, "--bogus"));
    }
    for flag in [
        "--scale",
        "--seed",
        "--md",
        "--json",
        "--trace-out",
        "--chrome-trace",
        "--timeseries",
        "--analyze",
        "--faults",
        "--flamegraph-out",
        "--what-if",
    ] {
        cases.push((vec!["fig3", flag], flag));
    }
    for flag in [
        "--matrix",
        "--scenario",
        "--reps",
        "--warmup",
        "--out",
        "--check",
        "--candidate",
        "--tol-pct",
    ] {
        cases.push((vec!["bench", flag], flag));
    }
    for flag in [
        "--report",
        "--baseline",
        "--tol-rel",
        "--tol-abs-us",
        "--flamegraph-out",
        "--what-if",
    ] {
        cases.push((vec!["analyze", headerless, flag], flag));
    }

    for (args, key) in &cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(
            stderr.contains(key),
            "{args:?}: stderr does not name {key}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro --help` and each command's `--help` print the command's
/// generated usage on stderr and exit 0.
#[test]
fn help_prints_usage_and_exits_0() {
    let cases: [(&[&str], &str); 4] = [
        (&["--help"], "repro bench"),
        (&["bench", "--help"], "--tol-pct"),
        (&["analyze", "--help"], "--baseline"),
        (&["fig3", "--help"], "chunk-mb"),
    ];
    for (args, flag) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.starts_with("usage: repro"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: usage leaves out {flag}");
    }
}
