//! `omlbench`: end-to-end and per-layer benchmark of the serve, ingest,
//! recover and offline paths. See `benchmark/README.md`.
//!
//! ```text
//! omlbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! omlbench run       [--seed n] [--seconds s] [--sets k] [--quick] [--workload name]... [--out file]
//! omlbench calibrate [--sets 5] [--seed n] [--seconds s] [--quick] [--out file]
//! omlbench compare   <a.json> <b.json>
//! ```

mod bench;
mod gen;
mod hostref;
mod json;
mod probes;
mod replay;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

const USAGE: &str = "usage:
  omlbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  omlbench run       [--seed n] [--seconds s] [--sets k] [--quick] [--workload name]... [--out file]
  omlbench calibrate [--sets k] [--seed n] [--seconds s] [--quick] [--out file]
  omlbench compare   <a.json> <b.json>";

/// `--key value` pairs and bare flags, in order.
struct Flags {
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    sets: Option<usize>,
    workloads: Vec<String>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        sets: None,
        workloads: Vec::new(),
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{name}` needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--sets" => {
                let n: usize = value("--sets")?
                    .parse()
                    .map_err(|e| format!("bad --sets: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--sets must be in 1..=100".into());
                }
                f.sets = Some(n);
            }
            "--workload" => f.workloads.push(value("--workload")?),
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => f.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown argument `{flag}`")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

/// `run_seconds` of `BENCHMARK.json`, the default for `run` and `calibrate`.
fn default_seconds() -> f64 {
    run::load_benchmark_json()
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(6.0)
}

/// The driver's contract: one workload, one result object as the last line
/// of stdout (the line before it carries digests and counts for result
/// files). Everything for people goes to stderr.
fn run_workload(f: &Flags) -> Result<i32, String> {
    let [name] = f.workloads.as_slice() else {
        return Err("exactly one --workload".into());
    };
    let workload = gen::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let args = bench::RunArgs {
        workload,
        seed: f.seed,
        seconds: f.seconds.ok_or("--seconds is required")?,
        trace: f.trace.ok_or("--trace is required")?,
        quick: f.quick,
    };
    let outcome = if args.trace {
        probes::run_traced(&args)?
    } else {
        bench::run_untraced(&args)?
    };
    for m in &outcome.metrics {
        eprintln!("{:<16} {:<34} {:>16.4} {}", name, m.name, m.value, m.unit);
    }
    eprintln!(
        "{name}: attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric `{}` is not a finite number", bad.name));
    }
    let mut detail = vec![
        ("workload", Json::str(name.as_str())),
        ("seed", Json::Num(args.seed as f64)),
    ];
    detail.extend(outcome.detail);
    println!("{}", Json::obj(detail).render());
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(0)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "calibrate" | "compare")) => (c, &args[1..]),
        _ => ("workload", args),
    };
    let f = parse_flags(rest)?;
    let set_args = |default_sets: usize| run::SetArgs {
        seed: f.seed,
        seconds: f.seconds.unwrap_or_else(default_seconds),
        quick: f.quick,
        sets: f.sets.unwrap_or(default_sets),
        workloads: f.workloads.clone(),
        out: f.out.clone(),
    };
    match command {
        "run" => run::run_command(&set_args(1)),
        "calibrate" => run::calibrate_command(&set_args(5)),
        "compare" => match f.positional.as_slice() {
            [a, b] => run::compare_command(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".into()),
        },
        _ if !f.positional.is_empty() => Err(format!("unknown argument `{}`", f.positional[0])),
        _ => run_workload(&f),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("omlbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
