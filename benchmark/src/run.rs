//! `omlbench run | compare | calibrate`: full sets of runs (one child process
//! of this binary per workload and trace mode, so `peak_rss_mb` and the
//! process-global registry deltas are per workload), result files with a
//! machine fingerprint, and the comparison of two result files against the
//! bounds in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::bench::{out_dir, timed_ops, RunArgs};
use crate::gen::WORKLOADS;
use crate::json::{self, Json};
use crate::stats;

/// `BENCHMARK.json` sits beside the benchmark's directory, at the repo root.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

pub fn load_benchmark_json() -> Result<Json, String> {
    let path = benchmark_json_path();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub fn metric_specs(doc: &Json, section: &str) -> Vec<MetricSpec> {
    doc.get(section)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(MetricSpec {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

// ---------------------------------------------------------- fingerprint ---

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Filesystem type holding `dir`: the longest mount point that prefixes it.
pub fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    std::fs::read_to_string("/proc/mounts")
        .ok()?
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, mount, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

fn unknown(v: Option<String>) -> Json {
    Json::str(v.unwrap_or_else(|| "unknown".into()))
}

/// Where the numbers were taken: two result files compare only if they agree
/// on cores and features.
pub fn fingerprint(seed: u64, seconds: f64, quick: bool) -> Json {
    let _ = std::fs::create_dir_all(out_dir());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let op_counts = WORKLOADS.iter().map(|w| {
        let args = RunArgs {
            workload: w,
            seed,
            seconds,
            trace: false,
            quick,
        };
        (w.name, Json::Num(timed_ops(&args) as f64))
    });
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", unknown(cpu_model())),
        (
            "l2_cache",
            unknown(
                std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        (
            "git_commit",
            unknown(command_line(
                "git",
                &["-C", &repo.display().to_string(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", unknown(command_line("rustc", &["-V"]))),
        // The benchmark enables no crate feature; `obs_enabled` shows whether
        // something else in the build graph turned `obs-off` on.
        ("features", Json::str("default")),
        ("obs_enabled", Json::Bool(openmldb_obs::enabled())),
        ("wal_fs", unknown(filesystem_of(&out_dir()))),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("ops_per_client", Json::obj(op_counts)),
    ])
}

// ------------------------------------------------------------ run a set ---

/// The last two stdout lines of a workload child: detail, then the result.
pub struct ChildResult {
    pub result: Json,
    pub detail: Json,
}

pub fn parse_child_stdout(stdout: &str) -> Result<ChildResult, String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = lines
        .next()
        .and_then(|line| json::parse(line).ok())
        .unwrap_or(Json::Null);
    for key in ["correct", "attempted", "failed", "metrics"] {
        if result.get(key).is_none() {
            return Err(format!("child result lacks `{key}`"));
        }
    }
    Ok(ChildResult { result, detail })
}

/// Check a child's metrics against the section of `BENCHMARK.json` its trace
/// mode reports: every declared metric, by name and unit, with a finite
/// value, and nothing else.
pub fn check_metrics(specs: &[MetricSpec], result: &Json) -> Result<(), String> {
    let metrics = result.get("metrics").map(Json::as_obj).unwrap_or_default();
    for spec in specs {
        let m = metrics
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|(_, m)| m)
            .ok_or_else(|| format!("metric `{}` is missing", spec.name))?;
        if m.get("unit").and_then(Json::as_str) != Some(spec.unit.as_str()) {
            return Err(format!("metric `{}` is not in `{}`", spec.name, spec.unit));
        }
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("metric `{}` has no finite value", spec.name));
        }
    }
    match metrics
        .iter()
        .find(|(n, _)| specs.iter().all(|s| s.name != *n))
    {
        Some((name, _)) => Err(format!("metric `{name}` is not in BENCHMARK.json")),
        None => Ok(()),
    }
}

/// Options of `run` and `calibrate`.
#[derive(Debug, Clone)]
pub struct SetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub sets: usize,
    pub workloads: Vec<String>,
    pub out: Option<PathBuf>,
}

fn run_child(name: &str, a: &SetArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end and collects both pipes.
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_child_stdout(&String::from_utf8_lossy(&out.stdout))
}

/// Per workload, per section: metric name → (unit, one value per set).
type Collected = Vec<(String, String, Vec<f64>)>;

fn collect(into: &mut Collected, result: &Json) {
    for (name, m) in result.get("metrics").map(Json::as_obj).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        match into.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, values)) => values.push(value),
            None => into.push((name.clone(), unit.to_string(), vec![value])),
        }
    }
}

fn render_metrics(c: &Collected) -> Json {
    Json::obj(c.iter().map(|(name, unit, values)| {
        (
            name.as_str(),
            Json::obj([
                ("value", Json::Num(stats::median(values))),
                ("unit", Json::str(unit.as_str())),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]),
        )
    }))
}

/// Run `sets` full sets (every workload, untraced then traced) and return
/// the result document. Progress goes to stderr.
pub fn run_sets(a: &SetArgs) -> Result<Json, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| a.workloads.is_empty() || a.workloads.iter().any(|w| w == n))
        .collect();
    if names.is_empty() {
        return Err("no such workload".into());
    }
    struct PerWorkload {
        end_to_end: Collected,
        per_layer: Collected,
        attempted: f64,
        failed: f64,
        correct: bool,
        detail: Json,
        trace_detail: Json,
    }
    let bench = load_benchmark_json()?;
    let declared = [
        metric_specs(&bench, "end_to_end"),
        metric_specs(&bench, "per_layer"),
    ];
    let mut all: Vec<PerWorkload> = names
        .iter()
        .map(|_| PerWorkload {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0.0,
            failed: 0.0,
            correct: true,
            detail: Json::Null,
            trace_detail: Json::Null,
        })
        .collect();
    for set in 0..a.sets {
        for (name, acc) in names.iter().zip(&mut all) {
            for trace in [false, true] {
                eprintln!(
                    "set {}/{}: {name} --trace {}",
                    set + 1,
                    a.sets,
                    u8::from(trace)
                );
                let child = run_child(name, a, trace)?;
                check_metrics(&declared[usize::from(trace)], &child.result)
                    .map_err(|e| format!("{name} (trace {}): {e}", u8::from(trace)))?;
                let num = |k: &str| child.result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                acc.attempted += num("attempted");
                acc.failed += num("failed");
                acc.correct &= child.result.get("correct") == Some(&Json::Bool(true));
                if trace {
                    collect(&mut acc.per_layer, &child.result);
                    acc.trace_detail = child.detail;
                } else {
                    collect(&mut acc.end_to_end, &child.result);
                    acc.detail = child.detail;
                }
            }
        }
    }
    let workloads = names.iter().zip(&all).map(|(name, acc)| {
        (
            *name,
            Json::obj([
                ("correct", Json::Bool(acc.correct)),
                ("attempted", Json::Num(acc.attempted)),
                ("failed", Json::Num(acc.failed)),
                ("end_to_end", render_metrics(&acc.end_to_end)),
                ("per_layer", render_metrics(&acc.per_layer)),
                ("detail", acc.detail.clone()),
                ("trace_detail", acc.trace_detail.clone()),
            ]),
        )
    });
    Ok(Json::obj([
        ("fingerprint", fingerprint(a.seed, a.seconds, a.quick)),
        ("sets", Json::Num(a.sets as f64)),
        ("workloads", Json::obj(workloads)),
    ]))
}

pub fn run_command(a: &SetArgs) -> Result<i32, String> {
    let doc = run_sets(a)?;
    let text = doc.pretty();
    if let Some(path) = &a.out {
        std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print!("{text}");
    let clean = doc
        .get("workloads")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .all(|(_, w)| w.get("correct") == Some(&Json::Bool(true)));
    Ok(if clean { 0 } else { 1 })
}

// -------------------------------------------------------------- compare ---

fn metric_values(doc: &Json, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let values: Vec<f64> = m
        .get("values")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, values))
}

/// One row of `compare`.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread wider than the bound: neither "same" nor "worse"
    /// can be claimed.
    Unresolved,
}

/// Judge `b` against base `a`: worse when it moved the wrong way by more
/// than `bound` of the base, unresolved when either side's own spread
/// (interquartile, as a share of its median) exceeds the bound.
pub fn judge(a: f64, b: f64, spread: f64, bound: f64, lower_is_better: bool) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better {
        b > a * (1.0 + bound)
    } else {
        b < a * (1.0 - bound)
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Cores and features must match for a comparison to mean anything.
fn fingerprints_comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["nproc", "features", "obs_enabled", "quick", "seconds"] {
        let (x, y) = (
            a.get("fingerprint").and_then(|f| f.get(key)),
            b.get("fingerprint").and_then(|f| f.get(key)),
        );
        if x != y {
            return Err(format!(
                "fingerprints differ in `{key}`: {} vs {}",
                x.map_or("missing".into(), Json::render),
                y.map_or("missing".into(), Json::render)
            ));
        }
    }
    Ok(())
}

pub fn compare_docs(bench: &Json, a: &Json, b: &Json) -> Result<(String, i32), String> {
    fingerprints_comparable(a, b)?;
    let specs = metric_specs(bench, "end_to_end");
    let mut table = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    let mut worse = 0;
    for w in bench.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let Some(workload) = w.get("name").and_then(Json::as_str) else {
            continue;
        };
        for spec in &specs {
            let bound = spec.bound.unwrap_or(0.0);
            let (Some((va, sa)), Some((vb, sb))) = (
                metric_values(a, workload, &spec.name),
                metric_values(b, workload, &spec.name),
            ) else {
                // A file produced by `run --workload x` holds a subset.
                continue;
            };
            let spread = stats::iqr_share(&sa).max(stats::iqr_share(&sb));
            let verdict = judge(va, vb, spread, bound, spec.lower_is_better);
            worse += i32::from(verdict == Verdict::Worse);
            table.push_str(&format!(
                "{workload:<16} {:<18} {va:>14.4} {vb:>14.4} {:>9.4} {spread:>7.3} {bound:>7.2}  {}\n",
                spec.name,
                vb / va,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        let failed = b
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .and_then(|w| w.get("failed"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if failed > 0.0 {
            table.push_str(&format!(
                "{workload:<16} failed operations in b: {failed}\n"
            ));
            worse += 1;
        }
    }
    Ok((table, i32::from(worse > 0)))
}

pub fn compare_command(a: &Path, b: &Path) -> Result<i32, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, code) = compare_docs(&load_benchmark_json()?, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(code)
}

// ------------------------------------------------------------ calibrate ---

/// Largest bound the benchmark contract accepts.
const MAX_BOUND: f64 = 0.25;

/// Run full sets and print, per end-to-end metric and workload, the spread
/// seen and the bound it calls for: max(declared, 1.5 × (max − min)/median).
pub fn calibrate_command(a: &SetArgs) -> Result<i32, String> {
    let bench = load_benchmark_json()?;
    let doc = run_sets(a)?;
    if let Some(path) = &a.out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "{:<16} {:<18} {:>14} {:>9} {:>7} {:>9} {:>11}",
        "workload", "metric", "median", "range", "iqr", "declared", "calibrated"
    );
    let mut over = 0;
    let mut per_metric: Vec<(String, f64)> = Vec::new();
    for spec in metric_specs(&bench, "end_to_end") {
        let declared = spec.bound.unwrap_or(0.0);
        let mut widest = declared;
        for w in &WORKLOADS {
            let Some((value, values)) = metric_values(&doc, w.name, &spec.name) else {
                continue;
            };
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let range = (hi - lo) / value.abs();
            let calibrated = declared.max(1.5 * range);
            widest = widest.max(calibrated);
            over += i32::from(calibrated > MAX_BOUND);
            println!(
                "{:<16} {:<18} {value:>14.4} {range:>9.3} {:>7.3} {declared:>9.2} {calibrated:>11.3}{}",
                w.name,
                spec.name,
                stats::iqr_share(&values),
                if calibrated > MAX_BOUND {
                    "  not end-to-end material on this workload"
                } else {
                    ""
                }
            );
        }
        per_metric.push((spec.name, widest));
    }
    println!("\nbounds to paste into BENCHMARK.json (widest workload per metric):");
    for (name, bound) in per_metric {
        println!("  {name}: {:.2}", (bound * 100.0).ceil() / 100.0);
    }
    Ok(i32::from(over > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        assert_eq!(judge(100.0, 109.0, 0.0, 0.10, true), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, 0.0, 0.10, true), Verdict::Worse);
        assert_eq!(judge(100.0, 50.0, 0.0, 0.10, true), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, 0.0, 0.10, false), Verdict::Worse);
        assert_eq!(judge(100.0, 91.0, 0.0, 0.10, false), Verdict::Ok);
        assert_eq!(judge(100.0, 200.0, 0.11, 0.10, true), Verdict::Unresolved);
    }

    fn doc(nproc: f64, p50: &[f64], failed: f64) -> Json {
        Json::obj([
            (
                "fingerprint",
                Json::obj([
                    ("nproc", Json::Num(nproc)),
                    ("features", Json::str("default")),
                    ("obs_enabled", Json::Bool(true)),
                    ("quick", Json::Bool(false)),
                    ("seconds", Json::Num(6.0)),
                ]),
            ),
            (
                "workloads",
                Json::obj([(
                    "serve_short",
                    Json::obj([
                        ("failed", Json::Num(failed)),
                        (
                            "end_to_end",
                            Json::obj([(
                                "latency_p50_us",
                                Json::obj([
                                    ("value", Json::Num(stats::median(p50))),
                                    (
                                        "values",
                                        Json::Arr(p50.iter().map(|v| Json::Num(*v)).collect()),
                                    ),
                                ]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn bench_doc() -> Json {
        json::parse(
            r#"{"workloads":[{"name":"serve_short","why":"x"}],
                "end_to_end":[{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_refuses_other_machines() {
        let base = doc(2.0, &[4.0, 4.1, 3.9, 4.0], 0.0);
        let same = doc(2.0, &[4.1, 4.2, 4.0, 4.1], 0.0);
        let slow = doc(2.0, &[5.0, 5.1, 4.9, 5.0], 0.0);
        let noisy = doc(2.0, &[3.0, 5.0, 4.0, 6.0], 0.0);
        let wrong = doc(2.0, &[4.0, 4.1, 3.9, 4.0], 3.0);
        let other = doc(8.0, &[4.0], 0.0);
        let b = bench_doc();
        let (table, code) = compare_docs(&b, &base, &same).unwrap();
        assert_eq!(code, 0, "{table}");
        assert!(table.contains(" ok"));
        let (table, code) = compare_docs(&b, &base, &slow).unwrap();
        assert_eq!(code, 1, "{table}");
        assert!(table.contains("worse"));
        let (table, code) = compare_docs(&b, &base, &noisy).unwrap();
        assert_eq!(code, 0);
        assert!(table.contains("unresolved"), "{table}");
        assert_eq!(compare_docs(&b, &base, &wrong).unwrap().1, 1);
        assert!(compare_docs(&b, &base, &other)
            .unwrap_err()
            .contains("nproc"));
    }

    #[test]
    fn child_stdout_needs_the_contract_keys() {
        let ok = "noise\n{\"detail\":1}\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n";
        let parsed = parse_child_stdout(ok).unwrap();
        assert_eq!(parsed.detail.get("detail"), Some(&Json::Num(1.0)));
        assert!(parse_child_stdout("{\"correct\":true}\n").is_err());
        assert!(parse_child_stdout("").is_err());
    }
}
