//! End-to-end smoke of the built `omlbench` binary at 1/50 scale: every
//! workload, both trace modes, through the same child-process path a full
//! `omlbench run` takes.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;
use std::time::{Duration, Instant};

use json::Json;

fn omlbench(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_omlbench"))
        .args(args)
        .output()
        .expect("spawn omlbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

fn names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .expect(section)
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn quick_set_reports_every_declared_metric_on_every_workload() {
    let bench = benchmark_json();
    let started = Instant::now();
    let (ok, stdout, stderr) = omlbench(&["run", "--quick", "--seed", "1"]);
    let took = started.elapsed();
    assert!(ok, "omlbench run --quick failed:\n{stderr}");
    assert!(took < Duration::from_secs(20), "quick set took {took:?}");
    let doc = json::parse(&stdout).expect("result document");

    let fingerprint = doc.get("fingerprint").expect("fingerprint");
    for key in [
        "nproc",
        "cpu_model",
        "l2_cache",
        "git_commit",
        "rustc",
        "features",
        "wal_fs",
        "seed",
        "ops_per_client",
    ] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks `{key}`");
    }

    let workloads = names(&bench, "workloads");
    assert_eq!(workloads.len(), 6);
    for workload in &workloads {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("no results for {workload}"));
        assert_eq!(
            w.get("correct"),
            Some(&Json::Bool(true)),
            "{workload} incorrect"
        );
        assert_eq!(
            w.get("failed"),
            Some(&Json::Num(0.0)),
            "{workload} failed ops"
        );
        assert!(w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        for section in ["end_to_end", "per_layer"] {
            let reported = w.get(section).expect(section);
            for metric in names(&bench, section) {
                let value = reported
                    .get(&metric)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{workload}: `{metric}` missing"));
                assert!(value.is_finite(), "{workload}: `{metric}` = {value}");
            }
            assert_eq!(
                reported.as_obj().len(),
                names(&bench, section).len(),
                "{workload}: undeclared metrics in {section}"
            );
        }
        let digest = w
            .get("detail")
            .and_then(|d| d.get("answers_digest"))
            .and_then(Json::as_str)
            .expect("answers_digest");
        assert_eq!(digest.len(), 16);
    }
    // What the workloads are for: compiled where they should be, interpreted
    // where they should be, pre-aggregated where they should be.
    let layer = |workload: &str, metric: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(workload))
            .and_then(|w| w.get("per_layer"))
            .and_then(|p| p.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert_eq!(layer("serve_short", "online.compiled_window_share"), 1.0);
    assert_eq!(layer("serve_scan", "online.compiled_window_share"), 1.0);
    assert_eq!(layer("serve_wide", "online.compiled_window_share"), 0.0);
    assert!(layer("ingest_mixed", "online.preagg_hit_share") > 0.9);
}

/// The driver's contract for one run: last stdout line is one object with
/// exactly `correct`, `attempted`, `failed`, `metrics`.
#[test]
fn a_single_run_prints_the_contract_object_last() {
    let bench = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout, stderr) = omlbench(&[
            "--workload",
            "serve_scan",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "{stderr}");
        let last = json::parse(stdout.lines().last().expect("a last line")).expect("json");
        let keys: Vec<&str> = last.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        let reported: Vec<&str> = last
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(reported, names(&bench, section));
    }
}

#[test]
fn digests_repeat_at_a_seed_and_differ_between_seeds() {
    let digests = |seed: &str| {
        let (ok, stdout, stderr) = omlbench(&[
            "--workload",
            "serve_short",
            "--seed",
            seed,
            "--seconds",
            "2",
            "--trace",
            "0",
            "--quick",
        ]);
        assert!(ok, "{stderr}");
        let detail = json::parse(stdout.lines().rev().nth(1).expect("detail line")).expect("json");
        ["answers_digest", "table_rows_digest", "requests_digest"]
            .map(|k| detail.get(k).and_then(Json::as_str).expect(k).to_string())
    };
    let a = digests("1");
    assert_eq!(a, digests("1"));
    let b = digests("2");
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
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
        &["--workload", "serve_scan", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "serve_scan", "--seconds", "0", "--trace", "0"][..],
        &["--frobnicate"][..],
        &["compare", "only-one.json"][..],
    ] {
        let (ok, stdout, _) = omlbench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
