//! The deterministic cells of `report all --smoke --threads=1,4`, pinned: every gate
//! verdict and every table cell outside the volatile columns must equal the checked-in
//! golden file. Round counts, guard evaluations, label writes, full decodes and bytes
//! per node therefore cannot change unnoticed. A change that alters a cell on purpose
//! copies the projection this test writes on a mismatch over `golden/all_smoke.txt`
//! and says in its change log which cells changed and why.

use std::path::Path;

use stst_bench::{deterministic_cells, run, Options};

const GOLDEN: &str = include_str!("golden/all_smoke.txt");

/// `(name, value)` of every projected line, in order.
fn cells(projection: &str) -> Vec<(&str, &str)> {
    projection
        .lines()
        .map(|line| line.split_once(" = ").unwrap_or((line, "")))
        .collect()
}

#[test]
fn smoke_grid_matches_the_golden_cells() {
    let opts = Options::parse(&["all", "--smoke", "--threads=1,4"]).expect("valid arguments");
    let actual = deterministic_cells(&run(&opts));
    if actual == GOLDEN {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("all_smoke.txt");
    std::fs::write(&path, &actual).expect("write the projection");
    let (expected, actual) = (cells(GOLDEN), cells(&actual));
    let mut report = String::new();
    for &(name, want) in &expected {
        match actual.iter().find(|(n, _)| *n == name) {
            Some(&(_, got)) if got == want => {}
            Some(&(_, got)) => report.push_str(&format!("  {name}: expected {want}, got {got}\n")),
            None => report.push_str(&format!("  {name}: expected {want}, missing\n")),
        }
    }
    for &(name, got) in &actual {
        if !expected.iter().any(|(n, _)| *n == name) {
            report.push_str(&format!("  {name}: not in the golden file, got {got}\n"));
        }
    }
    panic!(
        "the deterministic cells differ from tests/golden/all_smoke.txt:\n{report}\
         the full projection is at {}",
        path.display()
    );
}
