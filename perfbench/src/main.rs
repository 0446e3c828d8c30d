//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Provenance (seeds, sizes, threads) goes to standard
//! error; a traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. The exit code is non-zero when any
//! correctness gate failed.

use std::process::ExitCode;

use perfbench::{Plan, Scale};

fn parse() -> Result<(String, Plan, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let plan = Plan {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scale: Scale::Full,
    };
    Ok((
        workload.ok_or("--workload is required")?,
        plan,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let (workload, plan, traced) = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let outcome = match perfbench::run(&workload, &plan, traced) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("perfbench: host available_parallelism={threads}");
    eprintln!("perfbench: {}", outcome.provenance);
    if let Some(spans) = &outcome.spans {
        let path = format!(".bench_out/spans-{workload}-{}.jsonl", plan.seed);
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
