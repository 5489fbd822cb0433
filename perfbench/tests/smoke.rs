//! Tiny-size smoke of every workload through the benchmark's own command
//! line: each must pass the correctness gate and print exactly the
//! metrics `BENCHMARK.json` lists.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Json;

const WORKLOADS: [&str; 4] = ["population", "storm", "churn", "federated"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    let mut v: Vec<String> = list
        .as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect();
    v.sort();
    v
}

fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

fn smoke(workload: &str, trace: &str, listed: &str) {
    let r = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--size",
        "tiny",
    ]);
    let Json::Obj(fields) = &r else {
        panic!("{workload}: the result is not an object: {r:?}")
    };
    let keys: Vec<&String> = fields.keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        r.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {r:?}"
    );
    assert_eq!(r.get("failed").and_then(Json::num), Some(0.0), "{workload}");
    assert!(r.get("attempted").and_then(Json::num) >= Some(1.0));
    let Some(Json::Obj(metrics)) = r.get("metrics") else {
        panic!("{workload}: no metrics object: {r:?}")
    };
    let printed: Vec<String> = metrics.keys().cloned().collect();
    assert_eq!(
        printed,
        names(benchmark_json().get(listed).expect("metric list"))
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::num);
        assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {m:?}");
    }
}

#[test]
fn every_workload_passes_the_gate_and_prints_the_listed_metrics() {
    for w in WORKLOADS {
        smoke(w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        smoke(w, "1", "per_layer");
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
}
