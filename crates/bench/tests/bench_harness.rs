//! End-to-end tests of `repro bench`: the binary must emit schema-valid
//! BENCH json that its own `--check` accepts at 0% tolerance, and the
//! check must reject perturbed candidates and mismatched configs.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbp-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bench_emits_schema_valid_json_that_self_checks_at_zero_tolerance() {
    let dir = tmp_dir("emit");
    let out = repro()
        .args([
            "bench",
            "--scenario",
            "fig8_smoke",
            "--reps",
            "1",
            "--warmup",
            "0",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("repro bench runs");
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let path = dir.join("BENCH_fig8_smoke.json");
    let json = std::fs::read_to_string(&path).expect("BENCH file written");
    assert!(
        json.starts_with("{\"schema\":\"cbp-bench\",\"version\":1,"),
        "schema header missing: {}",
        &json[..json.len().min(80)]
    );
    assert!(cbp_telemetry::json::is_valid(&json), "invalid JSON emitted");
    // Config and measured fields live in separate objects.
    let v = cbp_telemetry::json::parse(&json).expect("BENCH file parses");
    assert!(v.get("config").and_then(|c| c.get("scenario")).is_some());
    assert!(v.get("measured").and_then(|m| m.get("events")).is_some());

    let check = repro()
        .args([
            "bench",
            "--check",
            path.to_str().unwrap(),
            "--candidate",
            path.to_str().unwrap(),
            "--tol-pct",
            "0",
        ])
        .output()
        .expect("repro bench --check runs");
    assert!(
        check.status.success(),
        "self-check at 0%% must pass: {}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_exits_one_on_regression() {
    let dir = tmp_dir("regress");
    let baseline = cbp_bench::run_scenario(
        &cbp_bench::find_scenario("fig8_smoke").unwrap(),
        cbp_bench::BenchOptions { reps: 1, warmup: 0 },
    )
    .to_json();
    let base_path = dir.join("base.json");
    std::fs::write(&base_path, &baseline).unwrap();

    // A candidate whose event count differs: regression at any tolerance.
    let v = cbp_telemetry::json::parse(&baseline).expect("baseline parses");
    let events = v
        .get("measured")
        .and_then(|m| m.get("events"))
        .and_then(|e| e.as_u64())
        .unwrap();
    let perturbed = baseline.replace(
        &format!("\"events\":{events}"),
        &format!("\"events\":{}", events + 1),
    );
    assert_ne!(perturbed, baseline);
    let cand_path = dir.join("cand.json");
    std::fs::write(&cand_path, &perturbed).unwrap();

    let check = repro()
        .args([
            "bench",
            "--check",
            base_path.to_str().unwrap(),
            "--candidate",
            cand_path.to_str().unwrap(),
            "--tol-pct",
            "50",
        ])
        .output()
        .expect("repro bench --check runs");
    assert_eq!(
        check.status.code(),
        Some(1),
        "event-count drift must exit 1: {}",
        String::from_utf8_lossy(&check.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_mismatched_scenarios() {
    let tiny = cbp_bench::tiny_matrix();
    let opts = cbp_bench::BenchOptions { reps: 1, warmup: 0 };
    let a = cbp_bench::run_scenario(&tiny[0], opts).to_json();
    let b = cbp_bench::run_scenario(&tiny[1], opts).to_json();
    let err = cbp_bench::check_bench_files(&a, &b, 100.0).unwrap_err();
    assert!(err.contains("config.scenario"), "{err}");
}
