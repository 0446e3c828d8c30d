//! Runs experiment scenarios and prints their tables and gates.
//!
//! Usage: `cargo run --release -p stst-bench --bin report -- <scenario>... | all
//! [--smoke] [--json] [--seed=N] [--threads=LIST]`
//!
//! * `--smoke` runs the small sizes CI uses instead of the full sizes;
//! * `--json` prints one JSON document instead of markdown;
//! * `--seed=N` replaces every scenario's default seed;
//! * `--threads=LIST` (e.g. `1,4`) is the worker-thread grid.
//!
//! Exits 1 when a gate fails and 2, with the usage text, on an argument it cannot
//! parse.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = stst_bench::Options::parse(&args).unwrap_or_else(|err| {
        eprintln!("report: {err}\n{}", stst_bench::usage());
        std::process::exit(2);
    });
    let runs = stst_bench::run(&opts);
    println!("{}", stst_bench::render(&runs, &opts.threads, opts.json));
    for run in &runs {
        for gate in run.gates.iter().filter(|g| !g.passed) {
            eprintln!("report: {} gate {} FAILED", run.name, gate.name);
        }
    }
    std::process::exit(stst_bench::exit_code(&runs));
}
