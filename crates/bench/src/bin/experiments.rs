//! The one experiment runner.
//!
//! ```text
//! experiments <name>… | --all | --paper | --list  [--quick]
//! experiments gate [--baseline DIR] [--current DIR]
//! ```
//!
//! Runs the named rows of [`REGISTRY`] (`--paper`: the paper's own eight
//! panels; `--all`: those, then the extensions), printing each report and
//! writing its CSVs and `BENCH_<name>.json` under `target/experiments/`.
//! `gate` compares those artifacts with `experiments/baselines/` by the
//! rules `--list` shows. Exits 1 if any invariant of any report is false or
//! any gate rule fails, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tldag_bench::experiments::{list_markdown, Experiment, REGISTRY};
use tldag_bench::{gate, Scale};

const ARTIFACTS: &str = "target/experiments";
const BASELINES: &str = "experiments/baselines";

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "experiments: {problem}\n\
         usage: experiments <name>… | --all | --paper | --list  [--quick]\n\
         \x20      experiments gate [--baseline DIR] [--current DIR]"
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "gate") {
        return run_gate(&args[1..]);
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
