//! A tiny-scale run of every workload (and one traced run) prints the result
//! object with exactly the contract keys, a passing verdict, and every
//! end-to-end metric of that workload (for the gated ones, the metrics
//! `BENCHMARK.json` names), each with its unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::{end_to_end, END_TO_END, GATED_WORKLOADS, PER_LAYER, WORKLOADS};
use trout_std::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

/// Builds the release daemon into a target dir of its own (the test's own
/// build directory is locked by the running `cargo test`).
fn trout_binary() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trout-under-test");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "trout-cli",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the trout daemon failed");
    target.join("release").join("trout")
}

fn names(j: &Json, key: &str) -> Vec<(String, String)> {
    match j.get(key) {
        Some(Json::Arr(v)) => v
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

#[test]
fn benchmark_json_names_the_metrics_the_runs_print() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&j, "end_to_end"), want(&END_TO_END));
    assert_eq!(names(&j, "per_layer"), want(&PER_LAYER));
    let workloads: Vec<String> = match j.get("workloads") {
        Some(Json::Arr(v)) => v
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(n)) => n.clone(),
                _ => panic!("workload without a name"),
            })
            .collect(),
        _ => panic!("no workloads"),
    };
    assert_eq!(workloads, WORKLOADS[..GATED_WORKLOADS]);
}

fn run(trout: &Path, work: &Path, workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "3"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .arg("--trout")
        .arg(trout)
        .arg("--work")
        .arg(work)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn check(result: &Json, metrics: &[(&str, &str)]) {
    let Json::Obj(members) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(matches!(result.get("attempted"), Some(Json::Int(n)) if *n >= 1));
    let Some(Json::Obj(got)) = result.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(got.len(), metrics.len());
    for (name, unit) in metrics {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(m.get("unit"), Some(&Json::Str(unit.to_string())), "{name}");
        assert!(
            matches!(m.get("value"), Some(Json::Num(_)) | Some(Json::Int(_))),
            "{name} has no numeric value"
        );
    }
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    let trout = trout_binary();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tiny");
    for workload in WORKLOADS {
        check(&run(&trout, &work, workload, 0), end_to_end(workload));
    }
    check(&run(&trout, &work, WORKLOADS[0], 1), &PER_LAYER);
}
