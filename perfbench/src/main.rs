//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints report lines, then one metric per line (`name value unit`),
//! then, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exit codes: 0 for a correct run, 1 for a wrong answer (the JSON line
//! still printed, with `"correct": false`), 2 for a run that could not
//! produce a result (bad arguments, transport failure, or a percentile
//! without enough samples beyond it).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{render_json, run, RunArgs, Workload};

const USAGE: &str = "usage: perfbench --workload <ingest-ooo|mixed-latest|history-agg> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: Workload::IngestOoo,
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out_dir: Some(PathBuf::from(".perfbench_out")),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds == 0.0 {
        return Err("--seconds is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &result.notes {
        println!("{note}");
    }
    for m in &result.metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        render_json(&result.metrics)
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
