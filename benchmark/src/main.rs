//! The repo benchmark.
//!
//! One command builds it, runs four workloads from a `--seed`, checks
//! their outputs, and prints every metric by name and unit; the last line
//! of a `--workload` run is the result object `BENCHMARK.json` describes.
//! It touches no program code: every number is taken from outside, by
//! timing calls into the public functions of the `crates/*` layers or by
//! reading counters those crates already export. See `README.md`.

mod cal;
mod engine;
mod inputs;
mod json;
mod layers;
mod repeat;
mod report;
mod spans;
mod stats;
mod traced;
mod wire;

use cal::Calibrator;
use engine::Backend;
use json::Json;
use report::{print_table, result_line, Metric, Pass};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The four workloads, in the order a bare run executes them.
pub const WORKLOADS: [&str; 4] = [
    "engine_mem",
    "engine_disk",
    "wire_pipelined",
    "wire_lockstep",
];

/// Share of the full sizing each of the two passes of a traced run gets:
/// the traced run does the workload twice (spans off, spans on) and the
/// ledger besides, and has to stay inside one run's time.
const TRACED_PASS_SHARE: f64 = 0.35;

/// Command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One workload, or all four when absent.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Run length the work is sized for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--repeat K`: two interleaved sets of K untraced runs.
    pub repeat: Option<usize>,
    /// `--selfcheck`: exact repetition of the engine workloads' counts.
    pub selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        repeat: None,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        // `--trace` and `--repeat` may stand alone; a value that follows
        // is theirs only if it is a number.
        let number = |argv: &mut std::iter::Peekable<_>| -> Option<f64> {
            let value = argv.peek().and_then(|v: &String| v.parse::<f64>().ok());
            if value.is_some() {
                argv.next();
            }
            value
        };
        match flag.as_str() {
            "--workload" => {
                let name = argv.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?;
            }
            "--seconds" => {
                args.seconds = number(&mut argv)
                    .filter(|s| *s >= 1.0)
                    .ok_or("--seconds needs a number of at least 1")?;
            }
            "--trace" => args.trace = number(&mut argv).is_none_or(|v| v != 0.0),
            "--repeat" => args.repeat = Some(number(&mut argv).map_or(5, |k| k as usize).max(2)),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, the one place metric names, directions and bounds
/// are written down.
pub fn contract() -> Json {
    let path = report::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
}

/// Puts `metrics` in the order of the contract's `section`, fills what
/// the workload does not exercise with 0, and refuses a metric the
/// contract does not name: the two cannot drift apart unnoticed.
fn in_contract_order(section: &str, metrics: Vec<Metric>) -> Vec<Metric> {
    let contract = contract();
    let listed = contract.get(section).map_or(&[][..], Json::items);
    for m in &metrics {
        assert!(
            listed
                .iter()
                .any(|entry| entry.get("name").and_then(Json::text) == Some(&m.name)),
            "metric '{}' is not in BENCHMARK.json {section}",
            m.name
        );
    }
    listed
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::text).expect("metric name");
            let unit = entry.get("unit").and_then(Json::text).expect("metric unit");
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    Metric::new(name, 0.0, unit).note("not exercised by this workload")
                })
        })
        .collect()
}

/// One pass of `workload`, sized for `seconds`; `traced` carries the span
/// epoch when spans are on.
fn pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: Option<Instant>,
    cal: &mut Calibrator,
) -> Pass {
    match workload {
        "engine_mem" | "engine_disk" => {
            let backend = if workload == "engine_mem" {
                Backend::Memory
            } else {
                Backend::Disk
            };
            let sizing = engine::Sizing::for_seconds(seconds);
            engine::run(backend, seed, sizing, traced.is_some(), cal)
        }
        "wire_pipelined" => wire::run(seed, wire::Sizing::pipelined(seconds), traced, cal),
        _ => wire::run(seed, wire::Sizing::lockstep(seconds), traced, cal),
    }
}

/// Runs one workload and prints its tables and result line. Returns
/// whether every output was correct.
fn run_workload(workload: &str, args: &Args) -> bool {
    println!(
        "== {workload}  seed {}  seconds {}  trace {}  threads {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::threads()
    );
    let mut cal = Calibrator::default();
    let (done, metrics) = if args.trace {
        let done = traced_run(workload, args, &mut cal);
        let metrics = in_contract_order("per_layer", done.layer.clone());
        print_table("per layer (traced run)", &metrics);
        (done, metrics)
    } else {
        let done = pass(workload, args.seed, args.seconds, None, &mut cal);
        print_table("end to end (untraced run)", &done.end_to_end);
        print_table("counters of this run", &done.layer);
        let metrics = in_contract_order("end_to_end", done.end_to_end.clone());
        (done, metrics)
    };
    for (kernel, ms, reference) in [
        ("calibration kernel", &cal.cal_ms, cal::CAL_REF_MS),
        (
            "disk calibration kernel",
            &cal.disk_cal_ms,
            cal::DISK_CAL_REF_MS,
        ),
        (
            "wire calibration kernel",
            &cal.wire_cal_ms,
            cal::WIRE_CAL_REF_MS,
        ),
    ] {
        if !ms.is_empty() {
            println!(
                "{kernel}: p50 {:.3} ms over {} runs (reference {reference} ms)",
                stats::median(ms),
                ms.len()
            );
        }
    }
    let correct = done.failed == 0;
    println!(
        "ops: {} attempted, {} failed (ops_failed_share {:.6})",
        done.attempted,
        done.failed,
        done.failed as f64 / done.attempted.max(1) as f64
    );
    println!(
        "{}",
        result_line(correct, done.attempted.max(1), done.failed, &metrics)
    );
    if done.wedged {
        // Program threads of the wedged trial cannot be stopped; ending
        // the process is the only way to end them.
        std::process::exit(1);
    }
    correct
}

/// The traced run: the workload with spans off, then with spans on, then
/// the per-layer ledger; writes `out/trace.json`. The returned pass holds
/// both passes' operations and, as `layer`, every per-layer metric.
fn traced_run(workload: &str, args: &Args, cal: &mut Calibrator) -> Pass {
    let seconds = args.seconds * TRACED_PASS_SHARE;
    let plain = pass(workload, args.seed, seconds, None, cal);
    if plain.wedged {
        return plain;
    }
    let epoch = Instant::now();
    spans::enable(epoch, 0);
    let mut traced = pass(workload, args.seed, seconds, Some(epoch), cal);
    let mut threads = vec![spans::take()];
    threads.append(&mut traced.thread_spans);

    let by_name = spans::self_time_by_name(&threads);
    let total_ns = by_name.values().map(|(_, ns)| ns).sum::<u64>().max(1) as f64;
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    println!("-- self time per span (traced run)");
    for (name, (count, ns)) in &by_name {
        println!("{name:<34} {:>12.3} ms  {count:>9} spans", *ns as f64 / 1e6);
        *by_layer.entry(spans::layer_of(name)).or_default() += ns;
    }
    println!("-- self time per layer (traced run)");
    for (layer, ns) in &by_layer {
        println!(
            "{layer:<34} {:>12.3} ms  {:>8.4} of all self time",
            *ns as f64 / 1e6,
            *ns as f64 / total_ns
        );
    }
    let trace_path = report::out_dir().join("trace.json");
    std::fs::write(&trace_path, spans::to_json(workload, &threads))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));
    println!(
        "{} spans written to {}",
        threads.iter().map(Vec::len).sum::<usize>(),
        trace_path.display()
    );

    let mut layer = layers::run(args.seed, args.seconds, cal);
    // Counters come from the pass without spans; the spans' cost is the
    // difference between the two passes and gets its own row.
    layer.extend(plain.layer);
    for name in ["bench", "core", "storage", "net"] {
        layer.push(Metric::new(
            format!("trace.self_share_{name}"),
            by_layer.get(name).copied().unwrap_or(0) as f64 / total_ns,
            "share",
        ));
    }
    let (with_spans, without) = (
        quantity(&traced.end_to_end, "blocks_per_s"),
        quantity(&plain.end_to_end, "blocks_per_s"),
    );
    layer.push(
        Metric::new(
            "bench.trace_overhead_share",
            1.0 - with_spans / without,
            "share",
        )
        .note(format!(
            "blocks_per_s {with_spans:.1} with spans, {without:.1} without"
        )),
    );
    layer.push(Metric::new(
        "bench.cal_ms_p50",
        stats::median(&cal.cal_ms),
        "ms",
    ));
    layer.push(Metric::new(
        "bench.disk_cal_ms_p50",
        stats::median(&cal.disk_cal_ms),
        "ms",
    ));
    layer.push(Metric::new(
        "bench.wire_cal_ms_p50",
        stats::median(&cal.wire_cal_ms),
        "ms",
    ));
    layer.push(Metric::new(
        "bench.threads",
        report::threads() as f64,
        "count",
    ));
    Pass {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        wedged: traced.wedged,
        layer,
        ..Pass::default()
    }
}

/// The value of the metric called `name`.
fn quantity(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// `--selfcheck`: the engine workloads twice on one seed must give every
/// count bit for bit, and once on the next seed must still pass its gate.
fn selfcheck(args: &Args) -> bool {
    let sizing = engine::Sizing::for_seconds(args.seconds);
    let mut ok = true;
    for (name, backend) in [
        ("engine_mem", Backend::Memory),
        ("engine_disk", Backend::Disk),
    ] {
        let mut cal = Calibrator::default();
        let first = engine::run(backend, args.seed, sizing, false, &mut cal);
        let second = engine::run(backend, args.seed, sizing, false, &mut cal);
        let other = engine::run(backend, args.seed + 1, sizing, false, &mut cal);
        println!("== selfcheck {name}");
        for ((count, a), (_, b)) in first.counts.iter().zip(&second.counts) {
            let same = a == b;
            ok &= same;
            println!(
                "{count:<16} seed {}: {a:>14} {b:>14} {}",
                args.seed,
                if same { "identical" } else { "DIFFER" }
            );
        }
        for (run, seed) in [
            (&first, args.seed),
            (&second, args.seed),
            (&other, args.seed + 1),
        ] {
            ok &= run.failed == 0;
            println!(
                "seed {seed}: {} ops attempted, {} failed",
                run.attempted, run.failed
            );
        }
        let moved = first
            .counts
            .iter()
            .zip(&other.counts)
            .filter(|(a, b)| a.1 != b.1)
            .count();
        println!(
            "seed {} vs {}: {moved} of {} counts differ (inputs follow the seed)",
            args.seed,
            args.seed + 1,
            first.counts.len()
        );
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("tldag-benchmark: {reason}");
            eprintln!(
                "usage: [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--repeat [K]] [--selfcheck]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(k) = args.repeat {
        repeat::run(&args, k)
    } else {
        match &args.workload {
            Some(name) => run_workload(name, &args),
            // One child process per workload, as the driver runs them:
            // peak memory is per process. Every workload runs even after
            // one fails, so one command reports all four.
            None => {
                let wrong = WORKLOADS
                    .iter()
                    .filter(|w| {
                        let result = repeat::child(w, args.seed, args.seconds, args.trace, true);
                        !result.is_some_and(|r| r.get("correct") == Some(&Json::Bool(true)))
                    })
                    .count();
                wrong == 0
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
