//! Each workload runs end to end at a tiny size, traced and untraced,
//! and prints a result line that matches `BENCHMARK.json`.

use std::process::Command;

use hls_ir::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let scratch =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&scratch)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let _ = std::fs::remove_dir_all(&scratch);
    Json::parse(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: bool, key: &str) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(got, declared(&benchmark(), key), "{workload}");
    if !trace {
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
        }
    }
}

#[test]
fn serve_cold_end_to_end() {
    check("serve-cold", false, "end_to_end");
    check("serve-cold", true, "per_layer");
}

#[test]
fn serve_warm_end_to_end() {
    check("serve-warm", false, "end_to_end");
    check("serve-warm", true, "per_layer");
}

#[test]
fn explore_grid_end_to_end() {
    check("explore-grid", false, "end_to_end");
    check("explore-grid", true, "per_layer");
}

#[test]
fn rtl_sim_end_to_end() {
    check("rtl-sim", false, "end_to_end");
    check("rtl-sim", true, "per_layer");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
