//! `podium-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). Exits non-zero when
//! any answer or final check is wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use podium_perfbench::stats::Metric;
use podium_perfbench::workloads::{run, RunConfig, RunResult, Workload};
use serde_json::{Number, Value};

/// Directory (relative to the working directory) for trace files and
/// data directories.
const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: podium-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Number(Number::Float(value))),
                        ("unit".to_owned(), Value::String(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_report(w: Workload, seed: u64, trace: bool, r: &RunResult) {
    println!(
        "== {} (seed {seed}, trace {}) ==",
        w.name(),
        u8::from(trace)
    );
    for note in &r.notes {
        println!("  {note}");
    }
    println!("  -- end-to-end metrics (gated) --");
    for m in &r.e2e {
        println!("  {}", m.line());
    }
    println!("  -- end-to-end metrics of this workload --");
    for m in &r.detail {
        println!("  {}", m.line());
    }
    if trace {
        println!("  -- per-layer metrics (gated list) --");
        for m in &r.layers {
            println!("  {}", m.line());
        }
        println!("  -- per-layer timings of the calls that ran --");
        for m in &r.layer_detail {
            println!("  {}", m.line());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut all_correct = true;
    let mut last_line = String::new();
    for &workload in &args.workloads {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            out_dir: out_dir.clone(),
        };
        let result = run(&cfg);
        print_report(workload, args.seed, args.trace, &result);
        let metrics = if args.trace {
            &result.layers
        } else {
            &result.e2e
        };
        let metrics_ok = metrics.iter().all(|m| m.value.is_finite());
        let correct = result.correct && metrics_ok;
        all_correct &= correct;
        last_line = serde_json::to_string(&Value::Object(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            (
                "attempted".to_owned(),
                Value::Number(Number::PosInt(result.attempted)),
            ),
            (
                "failed".to_owned(),
                Value::Number(Number::PosInt(result.failed)),
            ),
            ("metrics".to_owned(), metrics_json(metrics)),
        ]))
        .expect("plain JSON values serialize");
        if args.workloads.len() > 1 {
            println!("{last_line}");
        }
    }
    if args.workloads.len() == 1 {
        println!("{last_line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
