//! A tiny-size run of every workload, in both modes, prints a correct
//! result line carrying every metric `BENCHMARK.json` names, each with its
//! unit; bad arguments exit non-zero without a result.

use linvar_metrics::Json;
use linvar_serve::{parse_json, JsonGet};
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn entries<'a>(b: &'a Json, key: &str) -> &'a [Json] {
    match b.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json {key}: expected a list, got {other:?}"),
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_linvar-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn tiny_runs_report_every_metric_with_its_unit() {
    let b = benchmark_json();
    for workload in entries(&b, "workloads") {
        let name = workload.get_str("name").expect("workload name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--size",
                "tiny",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let ctx = format!(
                "{name} --trace {trace}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{ctx}");
            let result = parse_json(stdout.lines().last().unwrap_or("").as_bytes())
                .expect("last line is JSON");
            assert_eq!(result.get_bool("correct"), Some(true), "{ctx}");
            assert!(result.get_u64("attempted").is_some_and(|a| a >= 1), "{ctx}");
            assert_eq!(result.get_u64("failed"), Some(0), "{ctx}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {ctx}");
            };
            let expected = entries(&b, section);
            assert_eq!(metrics.len(), expected.len(), "{ctx}");
            for e in expected {
                let (metric, unit) = (e.get_str("name").unwrap(), e.get_str("unit").unwrap());
                let m = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{metric} missing: {ctx}"));
                assert_eq!(m.get_str("unit"), Some(unit), "{metric}: {ctx}");
                let value = match m.get("value") {
                    Some(Json::F64(v)) => *v,
                    Some(Json::U64(v)) => *v as f64,
                    other => panic!("{metric}: value {other:?}: {ctx}"),
                };
                if section == "end_to_end" {
                    assert!(value > 0.0, "{metric} reads {value}: {ctx}");
                }
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(metric)
                            && l.trim_end().ends_with(unit)),
                    "{metric} has no printed line with its unit: {ctx}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "rc_chains",
            "--seed",
            "x",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "rc_chains",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "2",
        ],
        &["--workload", "rc_chains", "--seed", "1"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}
