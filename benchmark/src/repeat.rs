//! `--repeat K`: is the benchmark steady enough to hold its own bounds?
//!
//! Two sets of K untraced runs of the same code, interleaved (A₀ B₀ A₁ B₁
//! …) so a drift of the host lands on both, run `i` of either set on seed
//! `seed + i`. Each run is a child process, as the driver runs them, so
//! peak memory is per run. Judged as the driver judges: per metric and
//! workload, each set's quartile spread (as a share of its median) must
//! stay within the metric's bound (`setup_s` excepted), and the second
//! set's median may not be worse than the first's by more than the bound.

use crate::json::Json;
use crate::stats::{iqr_share, quartiles};
use crate::{contract, Args, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// Runs this binary on one workload and returns its parsed result line.
/// With `show`, the child's whole output is passed through.
pub fn child(workload: &str, seed: u64, seconds: f64, trace: bool, show: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("cannot start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if show {
        print!("{stdout}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return None;
    }
    stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
}

/// Runs the two sets and prints the verdict table. Returns whether every
/// metric of every workload held its bound.
pub fn run(args: &Args, k: usize) -> bool {
    let contract = contract();
    let chosen: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // (workload, metric) -> [set A values, set B values]
    let mut values: BTreeMap<(String, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..k {
        for set in 0..2 {
            for workload in &chosen {
                let seed = args.seed + i as u64;
                eprintln!(
                    "repeat: set {} run {i} {workload} seed {seed}",
                    ["A", "B"][set]
                );
                let Some(result) = child(workload, seed, args.seconds, false, false) else {
                    eprintln!("repeat: {workload} seed {seed} failed");
                    all_correct = false;
                    continue;
                };
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                for (name, metric) in result.get("metrics").into_iter().flat_map(Json::members) {
                    let value = metric.get("value").and_then(Json::number).unwrap_or(0.0);
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()[set]
                        .push(value);
                }
            }
        }
    }

    println!(
        "| workload | metric | bound | A median [q1, q3] | B median [q1, q3] | spread A | spread B | B vs A | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut held = all_correct;
    for workload in &chosen {
        for entry in contract.get("end_to_end").map_or(&[][..], Json::items) {
            let name = entry.get("name").and_then(Json::text).expect("metric name");
            let bound = entry
                .get("bound")
                .and_then(Json::number)
                .expect("metric bound");
            let lower = entry.get("better").and_then(Json::text) == Some("lower");
            let Some([a, b]) = values.get(&(workload.to_string(), name.to_string())) else {
                println!("| {workload} | {name} | {bound} | missing | missing | | | | MISS |");
                held = false;
                continue;
            };
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
            let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
            // Positive = the second set reads worse than the first.
            let worse = if lower {
                (b2 - a2) / a2
            } else {
                (a2 - b2) / a2
            };
            let spread_ok = name == "setup_s" || (spread_a <= bound && spread_b <= bound);
            let ok = spread_ok && worse <= bound;
            held &= ok;
            println!(
                "| {workload} | {name} | {bound} | {a2:.4} [{a1:.4}, {a3:.4}] | {b2:.4} [{b1:.4}, {b3:.4}] | {spread_a:.4} | {spread_b:.4} | {worse:+.4} | {} |",
                if ok { "ok" } else { "MISS" }
            );
        }
    }
    println!();
    println!(
        "{} runs per set, seeds {}..{}, {} s each; every run correct: {all_correct}; every bound held: {held}",
        k,
        args.seed,
        args.seed + k as u64 - 1,
        args.seconds
    );
    held
}
