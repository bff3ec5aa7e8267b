//! The benchmark checks itself: every name it prints is declared in
//! `BENCHMARK.json`, every run prints every metric with its unit, and a
//! traced run's layer self times plus the remainder add up to its total.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

use txmm::protocol::{parse_json, Json};
use txmm_perfbench::metrics::{END_TO_END, PER_LAYER};
use txmm_perfbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

fn num_of(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing {section}"))
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_txmm-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The result line's `(name, unit, value)` triples, after checking its
/// shape.
fn result(out: &Output) -> Vec<(String, String, f64)> {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let v = parse_json(line).expect("the result line is JSON");
    let keys: Vec<&str> = match &v {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("the result line is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert!(num_of(&v, "attempted") >= 1.0);
    assert_eq!(num_of(&v, "failed"), 0.0, "{line}");
    match v.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, m)| (k.clone(), str_of(m, "unit").to_string(), num_of(m, "value")))
            .collect(),
        _ => panic!("metrics is an object"),
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_names() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    let per_layer: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    let printed: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(per_layer, printed);
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name").to_string())
        .collect();
    let known: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric_nonzero() {
    let got = result(&run(&[
        "--workload",
        "serve-warm",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]));
    let names: Vec<(String, String)> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    assert_eq!(names, owned(END_TO_END));
    for (name, _, value) in got {
        assert!(value > 0.0, "{name} reads {value}");
    }
}

#[test]
fn traced_layers_and_remainder_add_up_to_the_total() {
    let out = run(&[
        "--workload",
        "serve-warm",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    let got = result(&out);
    let names: Vec<(String, String)> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    assert_eq!(names, owned(PER_LAYER));
    let metric = |name: &str| got.iter().find(|(n, _, _)| n == name).expect(name).2;

    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench-trace "))
        .expect("a perfbench-trace line on stderr");
    let trace = parse_json(line).expect("the trace line is JSON");
    let total = num_of(&trace, "total_s");
    let remainder = num_of(&trace, "remainder_s");
    let layers: f64 = match trace.get("layers") {
        Some(Json::Obj(fields)) => fields.iter().map(|(_, l)| num_of(l, "self_s")).sum(),
        _ => panic!("layers is an object"),
    };
    assert!((layers + remainder - total).abs() <= 1e-9 * total.max(1.0));
    assert!(
        remainder >= 0.0,
        "layers exceed the traced total by {}",
        -remainder
    );
    assert!(total > 0.0);
    assert_eq!(metric("trace.total_s"), total);
    assert_eq!(metric("trace.remainder_s"), remainder);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sweep", "--seed", "x"][..],
        &["--trace", "2"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
