//! End-to-end checks of the benchmark: its `BENCHMARK.json` matches the
//! metric catalogue, every workload runs and verifies at smoke scale, and
//! the deterministic per-layer counts repeat exactly across processes.

use spangle_benchmark::json::Json;
use spangle_benchmark::metrics::{self, MetricDef};
use spangle_benchmark::workloads::Workload;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string '{key}' in {}", v.render()))
}

fn assert_metrics_match(entries: &[Json], catalogue: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = entries.iter().map(|m| field(m, "name")).collect();
    let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (entry, def) in entries.iter().zip(catalogue) {
        let mut want = vec!["name", "unit", "better"];
        if with_bound {
            want.push("bound");
        }
        assert_eq!(keys(entry), want, "{}", def.name);
        assert!(metrics::valid_name(def.name), "{}", def.name);
        assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(field(entry, "better"), def.better.as_str(), "{}", def.name);
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics() {
    let bench = benchmark_json();
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(field(w, "why").len() <= 200);
            field(w, "name")
        })
        .collect();
    let expected: Vec<&str> = Workload::MEASURED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let end_to_end = bench.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_metrics_match(end_to_end, metrics::END_TO_END, true);
    let bounds: Vec<f64> = end_to_end
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25), "{bounds:?}");
    let setup_bound = bounds[0];
    assert_eq!(field(&end_to_end[0], "name"), "setup_s");
    assert!(
        bounds.iter().all(|b| *b <= setup_bound),
        "setup_s has the largest bound"
    );

    let per_layer = bench.get("per_layer").and_then(Json::as_array).unwrap();
    assert_metrics_match(per_layer, metrics::PER_LAYER, false);

    let paths = bench.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let command: Vec<&str> = bench
        .get("command")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|a| a.as_str().unwrap())
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
}

/// Runs the benchmark binary at smoke scale in a directory of its own and
/// returns its stdout lines and exit status.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, bool) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("run-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_spangle-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke"])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    (
        stdout.lines().map(str::to_string).collect(),
        out.status.success(),
    )
}

#[test]
fn smoke_run_of_every_workload_verifies() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (lines, ok) = run(workload.name(), 7, trace);
            assert!(
                ok,
                "{} trace={trace} failed:\n{}",
                workload.name(),
                lines.join("\n")
            );
            let result = Json::parse(lines.last().expect("a result line")).unwrap();
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let catalogue = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
            assert_eq!(keys(result.get("metrics").unwrap()), expected);
            if trace && workload == Workload::Gram {
                // The spill probe measures the spill tier on `gram`.
                let v = result.get("metrics").unwrap().get("spill.blocks_spilled");
                let spilled = v.and_then(|v| v.get("value")).and_then(Json::as_f64);
                assert!(spilled.unwrap() > 0.0, "{v:?}");
            }
            if !trace {
                for name in ["setup_s", "op_p50_ms", "cells_per_s", "peak_rss_mib"] {
                    let v = result.get("metrics").unwrap().get(name).unwrap();
                    assert!(
                        v.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                        "{name}"
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_counts_repeat_across_processes() {
    for workload in [Workload::PageRank, Workload::Gram, Workload::Raster] {
        let counts = |lines: Vec<String>| -> Vec<f64> {
            let result = Json::parse(lines.last().unwrap()).unwrap();
            metrics::DETERMINISTIC
                .iter()
                .map(|name| {
                    result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap()
                })
                .collect()
        };
        let (first, ok1) = run(workload.name(), 11, true);
        let (second, ok2) = run(workload.name(), 11, true);
        assert!(ok1 && ok2, "{}", workload.name());
        assert_eq!(
            counts(first),
            counts(second),
            "{}: {:?}",
            workload.name(),
            metrics::DETERMINISTIC
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_spangle-benchmark"))
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
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
