//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the measured input facts on one line, then, as the last line
//! of standard output, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans, counters and histograms to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`).

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{run, Opts, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use urn_coloring::json::Value;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };

    let opts = Opts {
        seed,
        seconds,
        trace,
    };
    let mut tracer = Tracer::new(trace);
    let report = run(workload, Scale::Full, &opts, &mut tracer);
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let line = report.result_line(catalogue);
    println!(
        "{} seed={seed} inputs: {}",
        workload.name(),
        report.info_json()
    );
    if trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("perfbench");
        let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
        let body = tracer.to_json(vec![
            ("workload".into(), Value::Str(workload.name().into())),
            ("seed".into(), Value::Num(seed as f64)),
            ("result".into(), Value::Str(line.clone())),
        ]);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
