//! The one experiment runner.
//!
//! ```text
//! experiments <name>… | --all | --paper | --list  [--quick]
//! experiments gate [--baseline DIR] [--current DIR]
//! experiments compare --parent BIN --change BIN --workload W [--pairs N] [--seconds S]
//! ```
//!
//! Runs the named rows of [`REGISTRY`] (`--paper`: the paper's own eight
//! panels; `--all`: those, then the extensions), printing each report and
//! writing its CSVs and `BENCH_<name>.json` under `target/experiments/`.
//! `gate` compares those artifacts with `experiments/baselines/` by the
//! rules `--list` shows. `compare` runs two prebuilt `tldag-benchmark`
//! binaries alternately (`N` pairs, default 10, of `S`-second runs, default
//! 20) and prints each end-to-end metric's medians, wins and verdict (see
//! [`tldag_bench::compare`]). Exits 1 if any invariant of any report is
//! false, any gate rule fails or a compared run prints no result, 2 on a
//! usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tldag_bench::experiments::{list_markdown, Experiment, REGISTRY};
use tldag_bench::{compare, gate, Scale};

const ARTIFACTS: &str = "target/experiments";
const BASELINES: &str = "experiments/baselines";

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "experiments: {problem}\n\
         usage: experiments <name>… | --all | --paper | --list  [--quick]\n\
         \x20      experiments gate [--baseline DIR] [--current DIR]\n\
         \x20      experiments compare --parent BIN --change BIN --workload W \
         [--pairs N] [--seconds S]"
    );
    ExitCode::from(2)
}

fn run_gate(args: &[String]) -> ExitCode {
    let (mut baseline, mut current) = (PathBuf::from(BASELINES), PathBuf::from(ARTIFACTS));
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let dir = match flag.as_str() {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            other => return usage(&format!("unknown gate option `{other}`")),
        };
        match args.next() {
            Some(value) => *dir = PathBuf::from(value),
            None => return usage(&format!("{flag} needs a directory")),
        }
    }
    if gate::run(REGISTRY, &baseline, &current) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let (mut parent, mut change, mut workload) = (None, None, None);
    let (mut pairs, mut seconds) = (10usize, 20f64);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let positive = || usage(&format!("{flag} needs a positive number, not `{value}`"));
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--pairs" => match value.parse() {
                Ok(n) if n > 0 => pairs = n,
                _ => return positive(),
            },
            "--seconds" => match value.parse() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return positive(),
            },
            other => return usage(&format!("unknown compare option `{other}`")),
        }
    }
    let (Some(parent), Some(change), Some(workload)) = (parent, change, workload) else {
        return usage("compare needs --parent, --change and --workload");
    };
    let directions = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|contract| compare::directions(&contract))
    {
        Ok(directions) => directions,
        Err(e) => {
            eprintln!("experiments compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut parent_runs, mut change_runs) = (Vec::new(), Vec::new());
    for pair in 1..=pairs {
        let mut sides = [
            ("parent", &parent, &mut parent_runs),
            ("change", &change, &mut change_runs),
        ];
        // Alternate which side runs first, so drift over the session
        // weighs on both alike.
        if pair % 2 == 0 {
            sides.reverse();
        }
        for (side, bin, runs) in sides {
            eprintln!("experiments compare: {workload} pair {pair}/{pairs}, {side}");
            match compare::run_once(bin, &workload, seconds) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("experiments compare: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    print!(
        "{}",
        compare::render(&workload, &directions, &parent_runs, &change_runs)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") => return run_gate(&args[1..]),
        Some("compare") => return run_compare(&args[1..]),
        _ => {}
    }
    let mut scale = Scale::Paper;
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--list" => {
                print!("{}", list_markdown());
                return ExitCode::SUCCESS;
            }
            "--all" => selected.extend(REGISTRY),
            "--paper" => selected.extend(REGISTRY.iter().filter(|e| e.paper_panel)),
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(exp) => selected.push(exp),
                None => return usage(&format!("no experiment or option `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        return usage("nothing to run");
    }
    let mut broken = Vec::new();
    for exp in selected {
        match exp.execute(scale, Path::new(ARTIFACTS)) {
            Ok(true) => {}
            Ok(false) => broken.push(exp.name),
            Err(e) => {
                eprintln!("experiments: writing {ARTIFACTS} for {}: {e}", exp.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("experiments: invariant(s) broken in {}", broken.join(", "));
        ExitCode::FAILURE
    }
}
