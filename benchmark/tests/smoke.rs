//! Runs the benchmark in smoke mode (5 % sizes) through its command line
//! and checks what it prints against `BENCHMARK.json`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_mpl-benchmark");

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn names(list: &Json) -> Vec<String> {
    list.arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

/// Runs `one` on a workload in smoke mode; returns (stdout, driver line).
fn one(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(EXE)
        .args([
            "one",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = Json::parse(stdout.lines().last().expect("a last line")).expect("last line is JSON");
    (stdout, line)
}

#[test]
fn benchmark_json_repeats_the_definition_in_spec_rs() {
    let out = Command::new(EXE)
        .arg("spec")
        .output()
        .expect("benchmark binary runs");
    let spec = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("spec prints JSON");
    let file = contract();
    for key in ["run_seconds", "workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            file.get(key),
            spec.get(key),
            "BENCHMARK.json and spec.rs disagree on {key}"
        );
    }
    let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let bounds = file
        .get("end_to_end")
        .unwrap()
        .arr()
        .iter()
        .map(|m| m.get("bound").and_then(Json::num).unwrap());
    assert!(bounds.clone().all(|b| b > 0.0 && b <= 0.25));
    let setup = file
        .get("end_to_end")
        .unwrap()
        .arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"));
    let largest = bounds.fold(0.0, f64::max);
    assert_eq!(
        setup.and_then(|m| m.get("bound")).and_then(Json::num),
        Some(largest),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes_its_checks() {
    let file = contract();
    let wanted = names(file.get("end_to_end").unwrap());
    for workload in names(file.get("workloads").unwrap()) {
        let (stdout, line) = one(&workload, "0");
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{workload}"
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            line.get("failed").and_then(Json::num),
            Some(0.0),
            "{workload}"
        );
        assert!(
            line.get("attempted").and_then(Json::num).unwrap() >= 1.0,
            "{workload}"
        );
        let metrics = line.get("metrics").unwrap();
        let got: Vec<String> = metrics.fields().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, wanted, "{workload}");
        for (name, m) in metrics.fields() {
            let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            assert!(
                value.is_finite() && value > 0.0,
                "{workload} {name} = {value}"
            );
            // The human-readable part names the metric with its unit and bound.
            assert!(
                stdout
                    .lines()
                    .any(|l| l.trim_start().starts_with(name.as_str()) && l.contains("bound")),
                "{workload} {name}"
            );
        }
        assert!(stdout.contains("failed_share"), "{workload}");
        assert!(stdout.contains("calib_ms"), "{workload}");
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric_and_writes_trace_and_ledger() {
    let file = contract();
    let wanted = names(file.get("per_layer").unwrap());
    let (_, line) = one("alloc-churn", "1");
    let got: Vec<String> = line
        .get("metrics")
        .unwrap()
        .fields()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(got, wanted);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let ledger =
        Json::parse(&std::fs::read_to_string(out.join("ledger.alloc-churn.json")).unwrap())
            .unwrap();
    // The layers and the residual sum to T_1.
    let layers: f64 = ledger
        .get("layers_s")
        .unwrap()
        .fields()
        .iter()
        .map(|(_, v)| v.num().unwrap())
        .sum();
    let t1 = ledger.get("t1_s").and_then(Json::num).unwrap();
    assert!(
        (layers - t1).abs() <= 1e-9 * t1.max(1.0),
        "layers {layers} != t1 {t1}"
    );
    let trace =
        Json::parse(&std::fs::read_to_string(out.join("trace.alloc-churn.json")).unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().arr();
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::str) == Some("force_lgc")));
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::str) == Some("force_cgc")));
}

#[test]
fn compare_reads_two_result_files() {
    // `run` needs every workload; two smoke runs of one seed make an A/A pair.
    let run = |label: &str| {
        let status = Command::new(EXE)
            .args(["run", "--smoke", "--seed", "5", "--seconds", "0"])
            .status()
            .unwrap();
        assert!(status.success());
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let to = out.join(format!("result.test-{label}.json"));
        std::fs::copy(out.join("result.5.json"), &to).unwrap();
        to
    };
    let (a, b) = (run("a"), run("b"));
    let out = Command::new(EXE)
        .arg("compare")
        .args([&a, &b])
        .output()
        .unwrap();
    let table = String::from_utf8(out.stdout).unwrap();
    for workload in names(contract().get("workloads").unwrap()) {
        assert!(table.contains(&workload), "{table}");
    }
    assert!(
        table.contains("p99_us.r32k")
            && table.contains("capacity_rps")
            && table.contains("failed_share"),
        "{table}"
    );
    assert!(table.contains("base A"), "ratios name their base");
}
