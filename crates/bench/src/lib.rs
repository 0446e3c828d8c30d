//! Experiment harness for the ICDCS 2015 reproduction.
//!
//! The paper is theory-only, so its guarantees (silence once legal, `O(log² n)` bits
//! per node, polynomial rounds, recovery from any configuration) are checked by
//! *scenarios*. Each entry of [`SCENARIOS`] runs seeded workloads at smoke or full
//! size over a worker-thread grid and records typed [`Table`]s and named [`Gate`]s
//! into a [`ScenarioRun`]. Every boolean cell is a verdict: a table contributes one
//! gate per boolean column, so no table can print `false` while its run passes. One
//! writer ([`render`]) prints any set of runs as markdown or as one JSON document,
//! and one parser ([`Options::parse`]) is the whole CLI of the `report` binary.

use std::fmt;

/// Builds a table row from values convertible into [`Cell`]s.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($crate::Cell::from($cell)),*] };
}

mod experiments;
mod observe;
mod scale;
mod serving;

/// One typed table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A count or a size.
    Int(u64),
    /// A measurement, rendered with the given number of decimals.
    Float(f64, usize),
    /// A verdict. Every boolean column of a table is also a gate of its run.
    Bool(bool),
    /// Free text, or `-` where a value does not apply.
    Text(String),
}

macro_rules! cell_from {
    ($($ty:ty => |$v:ident| $cell:expr),* $(,)?) => {
        $(impl From<$ty> for Cell {
            fn from($v: $ty) -> Self {
                $cell
            }
        })*
    };
}

cell_from! {
    u64 => |v| Cell::Int(v),
    usize => |v| Cell::Int(v as u64),
    f64 => |v| Cell::Float(v, 1),
    bool => |v| Cell::Bool(v),
    &str => |v| Cell::Text(v.to_string()),
    String => |v| Cell::Text(v),
}

/// A float cell with `digits` decimals (plain `f64` values render with one).
pub fn fl(x: f64, digits: usize) -> Cell {
    Cell::Float(x, digits)
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(x, digits) => write!(f, "{x:.digits$}"),
            Cell::Bool(b) => write!(f, "{b}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

impl Cell {
    fn json(&self) -> String {
        match self {
            Cell::Float(x, _) if !x.is_finite() => "null".into(),
            Cell::Text(s) => json_string(s),
            cell => cell.to_string(),
        }
    }
}

/// A named pass/fail check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Gate name; table gates are prefixed with the table id (`E1.legal`).
    pub name: String,
    /// Whether every evaluation of the check held.
    pub passed: bool,
}

/// Records `ok` under `name`: a gate checked several times passes only if all did.
fn and_gate(gates: &mut Vec<Gate>, name: &str, ok: bool) {
    match gates.iter_mut().find(|g| g.name == name) {
        Some(gate) => gate.passed &= ok,
        None => gates.push(Gate {
            name: name.to_string(),
            passed: ok,
        }),
    }
}

/// A result table with typed cells and the table's own named checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Identifier (E1–E12, E8b, S1, S2, …).
    pub id: String,
    /// The claim the table exercises.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows, one cell per header.
    pub rows: Vec<Vec<Cell>>,
    /// Checks that are not a boolean column; they become gates `<id>.<name>`.
    pub checks: Vec<Gate>,
    /// Headers of the volatile columns, whose values follow the clock, RSS or thread
    /// scheduling. [`deterministic_cells`] leaves them out.
    pub volatile: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(id: &str, claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            claim: claim.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            checks: Vec::new(),
            volatile: Vec::new(),
        }
    }

    /// Marks the named columns volatile.
    ///
    /// # Panics
    ///
    /// Panics if a name is not a header of the table.
    pub fn with_volatile(mut self, headers: &[&str]) -> Self {
        for &header in headers {
            assert!(
                self.headers.iter().any(|h| h == header),
                "volatile column `{header}` is not a header of {}",
                self.id
            );
            self.volatile.push(header.to_string());
        }
        self
    }

    /// Records a named check of the table.
    pub fn check(&mut self, name: &str, ok: bool) {
        and_gate(&mut self.checks, name, ok);
    }

    /// The table's gates: its named checks, then one per boolean column, failing
    /// if any cell of that column reads `false`.
    pub fn gates(&self) -> Vec<Gate> {
        let mut gates = self.checks.clone();
        for (col, header) in self.headers.iter().enumerate() {
            let verdicts: Vec<bool> = self
                .rows
                .iter()
                .filter_map(|row| match row[col] {
                    Cell::Bool(b) => Some(b),
                    _ => None,
                })
                .collect();
            if !verdicts.is_empty() {
                and_gate(&mut gates, header, verdicts.iter().all(|&b| b));
            }
        }
        for gate in &mut gates {
            gate.name = format!("{}.{}", self.id, gate.name);
        }
        gates
    }
}

/// Everything one scenario recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRun {
    /// Scenario name.
    pub name: String,
    /// Seed the scenario ran with.
    pub seed: u64,
    /// Named gates, in the order they were first checked.
    pub gates: Vec<Gate>,
    /// Result tables, in order.
    pub tables: Vec<Table>,
    /// Pre-rendered JSON values added to the scenario's JSON object under their key
    /// (the trace scenario's raw trace and metric registry).
    pub raw: Vec<(&'static str, String)>,
}

impl ScenarioRun {
    /// An empty run.
    pub fn new(name: &str, seed: u64) -> Self {
        ScenarioRun {
            name: name.to_string(),
            seed,
            gates: Vec::new(),
            tables: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Records a named scenario-level check.
    pub fn check(&mut self, name: &str, ok: bool) {
        and_gate(&mut self.gates, name, ok);
    }

    /// Adds a table together with its gates.
    pub fn table(&mut self, table: Table) {
        for gate in table.gates() {
            and_gate(&mut self.gates, &gate.name, gate.passed);
        }
        self.tables.push(table);
    }

    /// `true` iff every gate passed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }
}

/// What a scenario runs with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ctx {
    /// Seed of every generator and daemon of the run.
    pub seed: u64,
    /// Smoke sizes (the CI pass) instead of full sizes.
    pub smoke: bool,
    /// Worker-thread grid. Determinism gates compare every entry with one thread;
    /// a table measured at a single setting runs at the widest entry.
    pub threads: Vec<usize>,
}

impl Ctx {
    /// `smoke` at smoke size, `full` otherwise.
    pub fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The widest thread count of the grid.
    pub fn widest(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

/// One entry of the scenario registry.
#[derive(Debug)]
pub struct Scenario {
    /// Name on the command line.
    pub name: &'static str,
    /// Default seed (`--seed=N` overrides it).
    pub seed: u64,
    /// What the scenario covers.
    pub about: &'static str,
    /// Runs the scenario; its smoke and full sizes are the `Ctx::pick` calls inside.
    pub run: fn(&Ctx, &mut ScenarioRun),
}

/// The registry: every table and gate of the harness comes from exactly one entry.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "paper",
        seed: 2015,
        about: "E1-E4, E6, E8, E8b, E9: the paper's constructions, switches, labels and recovery",
        run: experiments::paper,
    },
    Scenario {
        name: "space",
        seed: 2015,
        about: "E5, E7, E11: register space vs baselines; packed store vs struct reference",
        run: scale::space,
    },
    Scenario {
        name: "parallel",
        seed: 71,
        about:
            "P1: wave-parallel executor and engine reproofs, bit-identical at every thread count",
        run: scale::parallel,
    },
    Scenario {
        name: "churn",
        seed: 71,
        about: "E10, E10b: live topology churn, incremental vs rebuild, thread-invariant",
        run: scale::churn,
    },
    Scenario {
        name: "soak",
        seed: 2015,
        about: "E12, E12s: churn + faults + checkpoint/kill/restore soaks and restore gates",
        run: scale::soak,
    },
    Scenario {
        name: "serve",
        seed: 2015,
        about: "S1, S2: epoch-pinned query serving under churn, differential oracle",
        run: serving::serve,
    },
    Scenario {
        name: "trace",
        seed: 2015,
        about: "T1: observability contracts across all four layers",
        run: observe::trace,
    },
    Scenario {
        name: "reference",
        seed: 2015,
        about: "R1: incremental executor and labels vs their reference modes, wall clock; \
                R2: fragment repair work per label entry",
        run: scale::reference,
    },
];

/// The parsed command line of the `report` binary.
#[derive(Debug)]
pub struct Options {
    /// Scenarios to run, in order, each at most once.
    pub scenarios: Vec<&'static Scenario>,
    /// Smoke sizes instead of full sizes.
    pub smoke: bool,
    /// Emit JSON instead of markdown.
    pub json: bool,
    /// Seed for every scenario instead of each one's default.
    pub seed: Option<u64>,
    /// Worker-thread grid (default `1,4` at smoke size, `1,2,4,8` at full size).
    pub threads: Vec<usize>,
}

impl Options {
    /// Parses the arguments after the program name. Scenario names (or `all`),
    /// `--smoke`, `--json`, `--seed=N` and `--threads=LIST` are accepted; anything
    /// else, a missing scenario, an unparsable seed and a zero or unparsable thread
    /// count are errors.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Options, String> {
        let mut opts = Options {
            scenarios: Vec::new(),
            smoke: false,
            json: false,
            seed: None,
            threads: Vec::new(),
        };
        for arg in args.iter().map(AsRef::as_ref) {
            if arg == "--smoke" {
                opts.smoke = true;
            } else if arg == "--json" {
                opts.json = true;
            } else if let Some(seed) = arg.strip_prefix("--seed=") {
                opts.seed = Some(seed.parse().map_err(|_| format!("bad seed `{arg}`"))?);
            } else if let Some(list) = arg.strip_prefix("--threads=") {
                opts.threads = list
                    .split(',')
                    .map(|t| t.parse().ok().filter(|&t: &usize| t > 0))
                    .collect::<Option<_>>()
                    .ok_or_else(|| {
                        format!("bad thread list `{arg}` (positive counts, e.g. 1,4)")
                    })?;
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else if arg == "all" {
                opts.scenarios.extend(SCENARIOS);
            } else {
                let scenario = SCENARIOS.iter().find(|s| s.name == arg);
                opts.scenarios
                    .push(scenario.ok_or_else(|| format!("unknown scenario `{arg}`"))?);
            }
        }
        if opts.scenarios.is_empty() {
            return Err("no scenario given".into());
        }
        let mut seen = Vec::new();
        opts.scenarios.retain(|s| {
            let first = !seen.contains(&s.name);
            seen.push(s.name);
            first
        });
        if opts.threads.is_empty() {
            opts.threads = if opts.smoke {
                vec![1, 4]
            } else {
                vec![1, 2, 4, 8]
            };
        }
        Ok(opts)
    }
}

/// The usage text: the accepted arguments and the registered scenarios.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: report <scenario>... | all [--smoke] [--json] [--seed=N] [--threads=LIST]\n\
         scenarios (default seed, tables):\n",
    );
    for s in SCENARIOS {
        out.push_str(&format!("  {:<10} {:>5}  {}\n", s.name, s.seed, s.about));
    }
    out
}

/// Runs the selected scenarios in order.
pub fn run(opts: &Options) -> Vec<ScenarioRun> {
    opts.scenarios
        .iter()
        .map(|scenario| {
            let ctx = Ctx {
                seed: opts.seed.unwrap_or(scenario.seed),
                smoke: opts.smoke,
                threads: opts.threads.clone(),
            };
            let mut run = ScenarioRun::new(scenario.name, ctx.seed);
            (scenario.run)(&ctx, &mut run);
            run
        })
        .collect()
}

/// The `report` exit status: 0 when every gate of every run passed, 1 otherwise.
pub fn exit_code(runs: &[ScenarioRun]) -> i32 {
    i32::from(!runs.iter().all(ScenarioRun::passed))
}

/// Logical cores available to this process (1 when the query fails).
fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Renders runs as markdown, or as one JSON document: `host` (logical cores,
/// whether thread timings can show a speedup, thread grid), then per scenario
/// `name`, `seed`, `passed`, `gates`, `tables` and any raw values.
pub fn render(runs: &[ScenarioRun], thread_grid: &[usize], json: bool) -> String {
    let grid: Vec<String> = thread_grid.iter().map(usize::to_string).collect();
    let (cores, grid) = (logical_cores(), grid.join(","));
    if json {
        let scenarios: Vec<String> = runs.iter().map(scenario_json).collect();
        return format!(
            "{{\"host\":{{\"logical_cores\":{cores},\"speedup_baseline\":{},\
             \"thread_grid\":[{grid}]}},\n \"scenarios\":[{}]}}",
            cores > 1,
            scenarios.join(",\n ")
        );
    }
    let mut out = format!("host: {cores} logical cores, threads {grid}\n");
    for run in runs {
        let verdict = if run.passed() { "PASS" } else { "FAIL" };
        let (name, seed) = (&run.name, run.seed);
        out.push_str(&format!(
            "\n# {name} (seed {seed}): {verdict}\n\n| gate | passed |\n|---|---|\n"
        ));
        for gate in &run.gates {
            out.push_str(&format!("| {} | {} |\n", gate.name, gate.passed));
        }
        for table in &run.tables {
            let headers = table.headers.join(" | ");
            out.push_str(&format!(
                "\n## {} — {}\n\n| {headers} |\n|",
                table.id, table.claim
            ));
            out.push_str(&"---|".repeat(table.headers.len()));
            for row in &table.rows {
                out.push_str(&format!("\n| {} |", join(row, Cell::to_string, " | ")));
            }
            out.push('\n');
        }
    }
    out
}

/// The deterministic projection of runs: one line per gate verdict and per table cell
/// outside the volatile columns, named by scenario, table, row and column
/// (`paper E1[0] rounds = 57`, `paper gate E1.legal = true`). Runs of the same code
/// with the same arguments project identically.
pub fn deterministic_cells(runs: &[ScenarioRun]) -> String {
    let mut out = String::new();
    for run in runs {
        for gate in &run.gates {
            out.push_str(&format!(
                "{} gate {} = {}\n",
                run.name, gate.name, gate.passed
            ));
        }
        for table in &run.tables {
            for (r, row) in table.rows.iter().enumerate() {
                for (header, cell) in table.headers.iter().zip(row) {
                    if !table.volatile.contains(header) {
                        out.push_str(&format!(
                            "{} {}[{r}] {header} = {cell}\n",
                            run.name, table.id
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Renders `items` with `f` and joins them with `sep`.
fn join<T>(items: &[T], f: impl Fn(&T) -> String, sep: &str) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(sep)
}

fn scenario_json(run: &ScenarioRun) -> String {
    let gates = join(
        &run.gates,
        |g| format!("{}:{}", json_string(&g.name), g.passed),
        ",",
    );
    let tables = join(&run.tables, table_json, ",\n   ");
    let raw = join(
        &run.raw,
        |(key, value)| format!(",\n  \"{key}\":{value}"),
        "",
    );
    let (name, seed, passed) = (json_string(&run.name), run.seed, run.passed());
    format!(
        "{{\"name\":{name},\"seed\":{seed},\"passed\":{passed},\"gates\":{{{gates}}},\
         \n  \"tables\":[{tables}]{raw}}}"
    )
}

fn table_json(table: &Table) -> String {
    let headers = join(&table.headers, |h| json_string(h), ",");
    let rows = join(
        &table.rows,
        |row| format!("[{}]", join(row, Cell::json, ",")),
        ",",
    );
    let (id, claim) = (json_string(&table.id), json_string(&table.claim));
    format!("{{\"id\":{id},\"claim\":{claim},\"headers\":[{headers}],\"rows\":[{rows}]}}")
}

/// JSON-escapes a string (quotes, backslashes, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::experiments::*;
    use super::observe::trace;
    use super::scale::*;
    use super::serving::*;
    use super::*;

    fn demo_run(verdict: bool) -> ScenarioRun {
        let mut table = Table::new("E0", "say \"hi\"\n", &["n", "ratio", "note", "legal"]);
        table.rows.push(row![3usize, 1.26, "x\\y", true]);
        table.rows.push(row![4usize, f64::INFINITY, "-", verdict]);
        table.check("counted", true);
        let mut run = ScenarioRun::new("demo", 7);
        run.check("setup", true);
        run.table(table);
        run
    }

    fn ctx(threads: &[usize]) -> Ctx {
        Ctx {
            seed: 2015,
            smoke: true,
            threads: threads.to_vec(),
        }
    }

    /// The cells of the column named `header`.
    fn column<'t>(table: &'t Table, header: &str) -> Vec<&'t Cell> {
        let col = table
            .headers
            .iter()
            .position(|h| h == header)
            .expect("column");
        table.rows.iter().map(|row| &row[col]).collect()
    }

    fn int(cell: &Cell) -> u64 {
        match cell {
            Cell::Int(v) => *v,
            other => panic!("not an integer cell: {other:?}"),
        }
    }

    fn float(cell: &Cell) -> f64 {
        match cell {
            Cell::Float(x, _) => *x,
            other => panic!("not a float cell: {other:?}"),
        }
    }

    #[test]
    fn markdown_rendering_is_well_formed() {
        let md = render(&[demo_run(true)], &[1, 4], false);
        assert!(md.starts_with("host: "));
        assert!(md.contains("# demo (seed 7): PASS"));
        assert!(md.contains("| E0.legal | true |"));
        assert!(md.contains("## E0 — say"));
        assert!(md.contains("| n | ratio | note | legal |\n|---|---|---|---|"));
        assert!(md.contains("| 3 | 1.3 | x\\y | true |"));
        assert!(md.contains("| 4 | inf | - | true |"));
    }

    #[test]
    fn json_rendering_is_well_formed_and_escaped() {
        let json = render(&[demo_run(true)], &[1, 4], true);
        assert!(json.contains(
            "\"name\":\"demo\",\"seed\":7,\"passed\":true,\
             \"gates\":{\"setup\":true,\"E0.counted\":true,\"E0.legal\":true}"
        ));
        assert!(json.contains("\"claim\":\"say \\\"hi\\\"\\n\""));
        assert!(json.contains("\"headers\":[\"n\",\"ratio\",\"note\",\"legal\"]"));
        assert!(json.contains("\"rows\":[[3,1.3,\"x\\\\y\",true],[4,null,\"-\",true]]"));
        assert!(json.ends_with("}]}"));
    }

    #[test]
    fn host_metadata_is_valid_json_with_the_grid() {
        let json = render(&[], &[1, 4], true);
        assert!(json.starts_with("{\"host\":{\"logical_cores\":"));
        assert!(json.contains("\"thread_grid\":[1,4]}"));
        assert!(json.ends_with("\"scenarios\":[]}"));
        // A run only claims to be a speedup baseline when the host can actually run
        // threads in parallel.
        let expected = format!("\"speedup_baseline\":{}", logical_cores() > 1);
        assert!(json.contains(&expected), "{json}");
    }

    #[test]
    fn the_projection_keeps_every_gate_and_every_cell_outside_the_volatile_columns() {
        let mut table =
            Table::new("E0", "claim", &["n", "wall ms", "legal"]).with_volatile(&["wall ms"]);
        table.rows.push(row![3usize, 1.26, true]);
        let mut run = ScenarioRun::new("demo", 7);
        run.check("setup", true);
        run.table(table);
        assert_eq!(
            deterministic_cells(&[run]),
            "demo gate setup = true\ndemo gate E0.legal = true\n\
             demo E0[0] n = 3\ndemo E0[0] legal = true\n"
        );
    }

    #[test]
    #[should_panic(expected = "volatile column `wall ms` is not a header of E0")]
    fn every_volatile_name_must_be_a_header_of_its_table() {
        let _ = Table::new("E0", "claim", &["n", "ms"]).with_volatile(&["wall ms"]);
    }

    #[test]
    fn a_false_verdict_cell_fails_the_run_and_the_exit_code() {
        assert!(demo_run(true).passed());
        assert_eq!(exit_code(&[demo_run(true)]), 0);
        let failing = demo_run(false);
        assert!(!failing.passed());
        assert_eq!(exit_code(&[demo_run(true), failing.clone()]), 1);
        let json = render(&[failing], &[1], true);
        assert!(json.contains("\"passed\":false") && json.contains("\"E0.legal\":false"));
    }

    #[test]
    fn a_repeated_check_passes_only_if_every_evaluation_did() {
        let mut run = ScenarioRun::new("demo", 1);
        run.check("identical", true);
        run.check("identical", false);
        run.check("identical", true);
        assert_eq!(run.gates.len(), 1);
        assert!(!run.passed());
    }

    #[test]
    fn the_parser_accepts_the_documented_arguments() {
        let args = [
            "serve",
            "paper",
            "serve",
            "--smoke",
            "--json",
            "--seed=9",
            "--threads=1,4",
        ];
        let opts = Options::parse(&args).unwrap();
        let names: Vec<_> = opts.scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, ["serve", "paper"]);
        assert!(opts.smoke && opts.json);
        assert_eq!((opts.seed, opts.threads), (Some(9), vec![1, 4]));
        let all = Options::parse(&["all"]).unwrap();
        assert_eq!(all.scenarios.len(), SCENARIOS.len());
        assert_eq!(all.threads, [1, 2, 4, 8]);
        assert_eq!(
            Options::parse(&["trace", "--smoke"]).unwrap().threads,
            [1, 4]
        );
    }

    #[test]
    fn the_parser_rejects_what_it_cannot_parse() {
        for args in [
            &["--smoke"][..],
            &["all", "--smok"],
            &["serve", "--threads", "4"],
            &["serve", "--threads=0"],
            &["serve", "--threads=1,,4"],
            &["serve", "--threads=four"],
            &["serve", "--seed=x"],
            &["serve", "2015"],
            &["nonsense"],
        ] {
            assert!(Options::parse(args).is_err(), "{args:?} was accepted");
        }
        for scenario in SCENARIOS {
            assert!(usage().contains(scenario.name));
        }
    }

    #[test]
    fn small_experiments_run_end_to_end() {
        assert_eq!(e1_bfs(&[12], 1).rows.len(), 2);
        assert_eq!(e2_switch(&[12], 1).rows.len(), 1);
        assert_eq!(e3_nca(&[16], 1).rows.len(), 2);
        assert_eq!(e4_mst(&[12], 1, 1).rows.len(), 2);
        assert_eq!(e6_mdst(&[10], 1).rows.len(), 1);
        assert_eq!(e8_faults(12, &[0.5], 1, 1).rows.len(), 3);
        assert!(e9_sched_ablation(12, 1).rows.len() >= 7);
        let mut run = ScenarioRun::new("paper", 1);
        paper(
            &Ctx {
                seed: 1,
                ..ctx(&[1])
            },
            &mut run,
        );
        assert!(run.passed(), "{:?}", run.gates);
        assert!(run.gates.iter().any(|g| g.name == "E8b.silent again"));
    }

    #[test]
    fn e6_claims_within_one_of_opt_only_where_it_is_proven() {
        let table = e6_mdst(&[10, 24], 2015);
        let verdicts = column(&table, "≤ OPT+1");
        // n = 10: the exact optimum; n = 24: degree ≤ lower bound + 1.
        assert_eq!(verdicts, [&Cell::Bool(true), &Cell::Bool(true)]);
        assert_eq!(table.rows[1][2], Cell::Text("≥2".into()));
    }

    #[test]
    fn e8_reports_guard_evaluations_alongside_rounds() {
        let table = e8_faults(14, &[0.25], 3, 1);
        for cell in column(&table, "recovery guard evals") {
            assert!(int(cell) > 0);
        }
    }

    #[test]
    fn e4_and_e8_report_identical_results_at_any_thread_count() {
        let strip_threads = |t: &Table| {
            let col = t.headers.iter().position(|h| h == "threads").unwrap();
            let mut rows = t.rows.clone();
            rows.iter_mut().for_each(|r| drop(r.remove(col)));
            rows
        };
        assert_eq!(
            strip_threads(&e4_mst(&[14], 5, 1)),
            strip_threads(&e4_mst(&[14], 5, 4))
        );
        let (a, b) = (e8_faults(14, &[0.25], 5, 1), e8_faults(14, &[0.25], 5, 4));
        assert_eq!(strip_threads(&a), strip_threads(&b));
    }

    #[test]
    fn e8b_recovers_from_label_corruption() {
        let table = e8_label_faults(16, &[1, 3], 2);
        assert_eq!(
            table.rows.len(),
            4,
            "scratch + 2 random-corruption rows + the stale-certificate row"
        );
        let verdicts = column(&table, "silent again");
        assert!(verdicts.iter().all(|c| **c == Cell::Bool(true)));
        assert!(table.rows[3][0].to_string().contains("stale"));
        assert!(table.gates().iter().all(|g| g.passed));
    }

    #[test]
    fn smoke_grid_covers_every_experiment() {
        let mut ids = Vec::new();
        for scenario in SCENARIOS
            .iter()
            .filter(|s| ["paper", "space", "churn", "soak"].contains(&s.name))
        {
            let mut run = ScenarioRun::new(scenario.name, scenario.seed);
            (scenario.run)(&ctx(&[1]), &mut run);
            assert!(run.passed(), "{}: {:?}", scenario.name, run.gates);
            for table in &run.tables {
                assert!(!table.rows.is_empty(), "{} produced no rows", table.id);
                assert!(!ids.contains(&table.id), "{} produced twice", table.id);
                ids.push(table.id.clone());
            }
        }
        for id in [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E8b", "E9", "E10", "E11", "E12",
        ] {
            assert!(ids.iter().any(|t| t == id), "no scenario produced {id}");
        }
    }

    #[test]
    fn e11_packed_store_meets_the_allocation_budget() {
        let table = e11_space_scale(&[1_500], &[300], 7, &[1, 2]);
        assert_eq!(table.rows.len(), 3, "packed + struct sync-BFS, packed MST");
        let ratios: Vec<f64> = column(&table, "measured×8 / accounted")
            .into_iter()
            .map(float)
            .collect();
        assert!(
            ratios[0] <= 4.0,
            "packed BFS store blew the 4x budget: {}",
            ratios[0]
        );
        assert!(
            ratios[2] <= 4.0,
            "packed MST label store blew the 4x budget: {}",
            ratios[2]
        );
        assert!(
            ratios[1] >= 2.0 * ratios[0],
            "struct reference should cost several times packed"
        );
        // Bit identity, tier accounting, the 5x decode gap and the budgets are gates.
        let gates = table.gates();
        assert!(
            gates.len() >= 10 && gates.iter().all(|g| g.passed),
            "{gates:?}"
        );
        let hits = column(&table, "guard screen hits");
        assert!(int(hits[0]) > 0, "the screen never resolved a guard");
        assert_eq!(
            int(hits[1]),
            0,
            "the struct reference has nothing to screen"
        );
    }

    #[test]
    fn e12_soak_runs_and_serializes_its_time_series() {
        let (summary, series) = e12_soak(&[14], &[60], 8, 9, 2);
        assert_eq!(summary.id, "E12");
        assert_eq!(summary.rows.len(), 2, "one engine soak + one executor soak");
        assert!(
            summary.gates().iter().all(|g| g.passed),
            "{:?}",
            summary.gates()
        );
        for col in ["checkpoints", "restores"] {
            assert!(
                column(&summary, col).into_iter().all(|c| int(c) > 0),
                "{col}"
            );
        }
        assert_eq!(series.rows.len(), 16, "8 waves per soak");
        assert!(column(&series, "restored").contains(&&Cell::from("yes")));
        let mut run = ScenarioRun::new("soak", 9);
        run.table(summary);
        run.table(series);
        let json = render(&[run], &[2], true);
        assert!(json.contains("\"p99 repair ms\"") && json.contains("\"id\":\"E12s\""));
    }

    #[test]
    fn e10_incremental_beats_rebuild_on_label_writes() {
        let table = e10_churn(&[48], &[1.0], 6, 3, 1);
        assert_eq!(table.rows.len(), 1);
        let incr = float(column(&table, "label writes/event (incr)")[0]);
        let rebuild = float(column(&table, "label writes/event (rebuild)")[0]);
        assert!(
            incr < rebuild,
            "incremental wrote {incr} labels/event, rebuild {rebuild}"
        );
        assert!(float(column(&table, "label-writes ratio (rebuild/incr)")[0]) > 1.0);
        assert!(table.gates().iter().all(|g| g.passed));
    }

    #[test]
    fn e10b_gates_thread_invariance_and_incrementality() {
        let table = e10b_churn_scale(&[60], 4, 71, &[1, 2]);
        let names: Vec<_> = table
            .gates()
            .into_iter()
            .filter(|g| g.passed)
            .map(|g| g.name)
            .collect();
        assert_eq!(
            names,
            [
                "E10b.thread_invariant",
                "E10b.rebuild_matches_churned_tree",
                "E10b.incremental_beats_rebuild"
            ]
        );
    }

    #[test]
    fn serve_report_passes_its_gates_at_toy_size() {
        let mut run = ScenarioRun::new("serve", 7);
        serve_report(&mut run, 40, 3, 2_000, &[1, 2], 7);
        assert!(run.passed(), "{:?}", run.gates);
        assert_eq!(run.tables[0].rows.len(), 2, "one S1 row per reader count");
        assert_eq!(
            run.tables[1].rows.len(),
            1 + stst_serve::QUERY_KINDS,
            "default mix + per-kind"
        );
        let names: Vec<_> = run.gates.iter().map(|g| g.name.as_str()).collect();
        for gate in [
            "answers_checked",
            "epochs_published",
            "pinned_reader_lockstep",
        ] {
            assert!(names.contains(&gate), "{gate}");
        }
    }

    #[test]
    fn a_serve_run_that_checked_nothing_fails() {
        let checked = ReaderStats {
            queries: 10,
            checked: 1,
            ..ReaderStats::default()
        };
        let mut run = ScenarioRun::new("serve", 1);
        serve_gates(&mut run, &checked, 1);
        assert!(run.passed());
        serve_gates(
            &mut run,
            &ReaderStats {
                checked: 0,
                ..checked
            },
            1,
        );
        assert!(!run.passed());
        let mut run = ScenarioRun::new("serve", 1);
        serve_gates(&mut run, &checked, 0);
        assert!(!run.passed(), "no epoch published");
    }

    #[test]
    fn trace_report_passes_every_contract_at_smoke_size() {
        let mut run = ScenarioRun::new("trace", 2015);
        trace(&ctx(&[2]), &mut run);
        assert!(run.passed(), "{:?}", run.gates);
        assert_eq!(run.gates.len(), 10);
        assert!(int(column(&run.tables[0], "events")[0]) > 0);
        let json = render(&[run], &[2], true);
        assert!(json.contains("\"trace\":[{\"seq\":"));
        assert!(json.contains("\"metrics\":{"));
    }

    #[test]
    fn scenario_names_are_unique() {
        for (i, a) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[i + 1..].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
        }
    }
}
