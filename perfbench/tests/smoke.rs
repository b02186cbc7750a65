//! Runs every workload end to end at the smoke scale, in both modes, and
//! checks the result line against `BENCHMARK.json`: exactly the declared
//! metrics, each with its declared unit.

use geoalign_serve::json::{self, Json};
use std::process::Command;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "3"])
        .args(["--trace", trace, "--scale", "smoke"])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: &str, section: &str) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect();
    assert_eq!(got, declared(section), "{workload} --trace {trace}");
}

#[test]
fn paper_crosswalk_end_to_end_and_traced() {
    check("paper-crosswalk", "0", "end_to_end");
    check("paper-crosswalk", "1", "per_layer");
}

#[test]
fn paper_stream_end_to_end_and_traced() {
    check("paper-stream", "0", "end_to_end");
    check("paper-stream", "1", "per_layer");
}

#[test]
fn cluster_small_end_to_end_and_traced() {
    check("cluster-small", "0", "end_to_end");
    check("cluster-small", "1", "per_layer");
}

#[test]
fn unknown_workload_fails_without_a_result() {
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
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
