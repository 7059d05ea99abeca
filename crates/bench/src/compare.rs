//! `experiments compare`: two prebuilt `tldag-benchmark` binaries run
//! alternately on one workload, and every end-to-end metric judged.
//!
//! ```text
//! experiments compare --parent BIN --change BIN --workload W [--pairs N] [--seconds S] [--seed N]
//! ```
//!
//! Each pair runs the parent binary and the change binary, one process at
//! a time, as `BIN --workload W --seconds S --seed N`; odd pairs start with
//! the parent and even pairs with the change. A run's last line is the
//! result object `BENCHMARK.json` describes; its `… kernel: p50 X ms` lines
//! are the calibration kernels, and the `raw …` note beside a normalised
//! row in its table is that row's raw reading. Per metric the report
//! prints both medians, both raw medians where the rows give one, how many
//! pairs the change won, and a [`Verdict`]: *resolved* when the
//! medians sit further apart than the parent's inter-quartile distance,
//! *unresolved* otherwise, and *identical* when every run read the same.
//! Below `MIN_PAIRS` pairs a row whose parent runs spread gets no timing
//! verdict at all; an exact row, where every parent run read one value,
//! keeps its verdict at any count.
//! The kernels' medians sit under the table, so calibration drift shows
//! beside every verdict. Which way is better comes from `BENCHMARK.json`'s
//! `end_to_end` list, read from the current directory.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The failed share of a run's operations, judged beside the metrics.
pub(crate) const FAILED_SHARE: &str = "ops_failed_share";

/// Fewest pairs that can carry a verdict on a row whose parent runs spread.
pub(crate) const MIN_PAIRS: usize = 10;

/// One benchmark run, parsed from its standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// The result object's `correct` flag.
    pub(crate) correct: bool,
    /// Operations attempted.
    pub(crate) attempted: u64,
    /// Operations that failed.
    pub(crate) failed: u64,
    /// `(name, value)` of every metric, in the result object's order.
    pub(crate) metrics: Vec<(String, f64)>,
    /// `(name, raw value)` of every metric whose table row gives one, in
    /// the result object's order.
    pub(crate) raw: Vec<(String, f64)>,
    /// `(kernel, p50 ms)` of every calibration kernel the run printed.
    pub(crate) kernels: Vec<(String, f64)>,
}

impl Run {
    /// The value of metric `name` ([`FAILED_SHARE`] included).
    pub(crate) fn metric(&self, name: &str) -> Option<f64> {
        if name == FAILED_SHARE {
            return Some(self.failed as f64 / self.attempted.max(1) as f64);
        }
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The raw reading of metric `name`, when its row gives one.
    pub(crate) fn raw(&self, name: &str) -> Option<f64> {
        self.raw.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The raw reading a table row's `note` gives for a row of `value`: the
/// number after `raw ` or `raw median ` in one of its `; `-separated parts,
/// or `value` itself when the note opens with `raw;` (the row is raw).
fn raw_of(note: &str, value: f64) -> Option<f64> {
    if note.starts_with("raw;") {
        return Some(value);
    }
    note.split("; ").find_map(|part| {
        let rest = part.strip_prefix("raw ")?;
        let rest = rest.strip_prefix("median ").unwrap_or(rest);
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

/// The note of `name`'s first table row in `stdout` (`name value unit
/// note`), if it has a row.
fn note_of<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
    stdout.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        let mut rest = rest.trim_start();
        // Skip the value and the unit.
        for _ in 0..2 {
            rest = rest[rest.find(' ').unwrap_or(rest.len())..].trim_start();
        }
        Some(rest)
    })
}

/// The text after `"key":` in `text`, leading blanks skipped.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let rest = &text[text.find(&quoted)? + quoted.len()..];
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

/// The scalar (number or `true`/`false`) after `"key":` in `text`.
fn scalar<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(text, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The string after `"key":` in `text`.
fn string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Parses one run's standard output.
///
/// # Errors
///
/// The last line is not a result object, or a field of it is missing.
pub(crate) fn parse_run(stdout: &str) -> Result<Run, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let bad = |what: &str| format!("{what} in result line `{line}`");
    let number = |key: &str| -> Result<u64, String> {
        scalar(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(&format!("no \"{key}\"")))
    };
    let correct = match scalar(line, "correct") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(bad("no \"correct\"")),
    };
    let body = after_key(line, "metrics")
        .and_then(|b| b.strip_prefix('{'))
        .ok_or_else(|| bad("no \"metrics\""))?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let name = entry
            .trim_start()
            .strip_prefix('"')
            .and_then(|e| e.split('"').next())
            .ok_or_else(|| bad("a malformed metric"))?;
        let value = scalar(entry, "value")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(&format!("no value for {name}")))?;
        metrics.push((name.to_string(), value));
    }
    let raw = metrics
        .iter()
        .filter_map(|(name, value)| {
            let raw = raw_of(note_of(stdout, name)?, *value)?;
            Some((name.clone(), raw))
        })
        .collect();
    let kernels = stdout
        .lines()
        .filter_map(|l| {
            let (kernel, rest) = l.split_once(" kernel: p50 ")?;
            let ms = rest.split_whitespace().next()?.parse().ok()?;
            Some((format!("{kernel} kernel"), ms))
        })
        .collect();
    Ok(Run {
        correct,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        raw,
        kernels,
    })
}

/// `(name, lower is better)` of every end-to-end metric in a
/// `BENCHMARK.json` document, in its order.
///
/// # Errors
///
/// No `end_to_end` list, or an entry without a name or direction.
pub fn directions(contract: &str) -> Result<Vec<(String, bool)>, String> {
    let list = after_key(contract, "end_to_end")
        .and_then(|l| l.strip_prefix('['))
        .ok_or("no \"end_to_end\" list")?;
    let list = &list[..list.find(']').ok_or("unterminated \"end_to_end\" list")?];
    list.split('{')
        .skip(1)
        .map(|entry| {
            let name = string(entry, "name").ok_or("an entry without a name")?;
            match string(entry, "better") {
                Some("lower") => Ok((name.to_string(), true)),
                Some("higher") => Ok((name.to_string(), false)),
                _ => Err(format!("{name}: \"better\" is neither lower nor higher")),
            }
        })
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (linear between the two middle values).
pub(crate) fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Third minus first quartile by Python's `statistics.quantiles(values,
/// n=4)` (the "exclusive" method), the spread `tldag-benchmark --repeat`
/// reports.
pub(crate) fn iqr(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    cut(3) - cut(1)
}

/// How one metric's change reads against its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of both sides read the same value.
    Identical,
    /// The medians sit further apart than the parent's inter-quartile
    /// distance.
    Resolved,
    /// The medians sit within the parent's inter-quartile distance.
    Unresolved,
}

/// Judges `change` against `parent` (one value per run each).
pub(crate) fn verdict(parent: &[f64], change: &[f64]) -> Verdict {
    let first = parent.first().or(change.first());
    if parent.iter().chain(change).all(|v| Some(v) == first) {
        Verdict::Identical
    } else if (median(change) - median(parent)).abs() > iqr(parent) {
        Verdict::Resolved
    } else {
        Verdict::Unresolved
    }
}

/// Pairs in which `change` is strictly better than `parent`.
pub(crate) fn wins(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count()
}

/// `(change − parent) / |parent|` in percent, 0 for a zero parent.
fn percent_delta(parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        0.0
    } else {
        (change - parent) / parent.abs() * 100.0
    }
}

/// The comparison table for one workload: every metric of `directions`
/// plus `FAILED_SHARE`, each with its raw medians beside the normalised
/// ones where every run's row gave a raw reading, then the kernels'
/// medians.
pub fn render(
    workload: &str,
    directions: &[(String, bool)],
    parent: &[Run],
    change: &[Run],
) -> String {
    let pairs = parent.len().min(change.len());
    let mut out = format!("== compare {workload}: {pairs} pairs\n");
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>9} {:>14} {:>14} {:>9} {:>12} {:>6}  verdict",
        "metric",
        "parent median",
        "change median",
        "delta",
        "parent raw",
        "change raw",
        "raw delta",
        "parent IQR",
        "wins"
    );
    let rows = directions
        .iter()
        .map(|(name, lower)| (name.as_str(), *lower))
        .chain([(FAILED_SHARE, true)]);
    for (name, lower) in rows {
        let values = |runs: &[Run]| -> Vec<f64> {
            runs.iter()
                .take(pairs)
                .filter_map(|r| r.metric(name))
                .collect()
        };
        let (p, c) = (values(parent), values(change));
        if p.len() != pairs || c.len() != pairs {
            let _ = writeln!(out, "{name:<22} (missing from some runs)");
            continue;
        }
        let (pm, cm) = (median(&p), median(&c));
        let delta = percent_delta(pm, cm);
        let raw = |runs: &[Run]| -> Option<f64> {
            let values: Vec<f64> = runs
                .iter()
                .take(pairs)
                .filter_map(|r| r.raw(name))
                .collect();
            (values.len() == pairs).then(|| median(&values))
        };
        let raw_cells = match (raw(parent), raw(change)) {
            (Some(pr), Some(cr)) => {
                format!("{pr:>14.4} {cr:>14.4} {:>+8.2}%", percent_delta(pr, cr))
            }
            _ => format!("{:>14} {:>14} {:>9}", "-", "-", "-"),
        };
        let exact = p.iter().all(|v| *v == p[0]);
        let judged = match verdict(&p, &c) {
            Verdict::Identical => "identical".to_string(),
            _ if !exact && pairs < MIN_PAIRS => format!("too few pairs ({pairs} < {MIN_PAIRS})"),
            Verdict::Unresolved => "unresolved".to_string(),
            Verdict::Resolved => {
                let better = if lower { cm < pm } else { cm > pm };
                format!("resolved, {}", if better { "better" } else { "worse" })
            }
        };
        let _ = writeln!(
            out,
            "{name:<22} {pm:>14.4} {cm:>14.4} {delta:>+8.2}% {raw_cells} {:>12.4} {:>3}/{pairs:<2}  {judged}",
            iqr(&p),
            wins(&p, &c, lower),
        );
    }
    let incorrect = |runs: &[Run]| runs.iter().filter(|r| !r.correct).count();
    let (pi, ci) = (incorrect(parent), incorrect(change));
    if pi + ci > 0 {
        let _ = writeln!(
            out,
            "incorrect runs: {pi}/{} parent, {ci}/{} change",
            parent.len(),
            change.len()
        );
    }
    let mut kernels: Vec<&str> = Vec::new();
    for run in parent.iter().chain(change) {
        for (kernel, _) in &run.kernels {
            if !kernels.contains(&kernel.as_str()) {
                kernels.push(kernel);
            }
        }
    }
    for kernel in kernels {
        let p50 = |runs: &[Run]| -> Vec<f64> {
            let of = |r: &Run| r.kernels.iter().find(|(k, _)| k == kernel).map(|&(_, v)| v);
            runs.iter().filter_map(of).collect()
        };
        let _ = writeln!(
            out,
            "{kernel}: p50 median {:.3} ms parent, {:.3} ms change",
            median(&p50(parent)),
            median(&p50(change))
        );
    }
    out
}

/// The arguments one run of a benchmark binary gets.
fn run_args(workload: &str, seconds: f64, seed: u64) -> Vec<String> {
    vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ]
}

/// Runs `bin --workload W --seconds S --seed N` to completion and parses
/// it. A run with failed operations exits non-zero but still prints its
/// result object: it is kept, and its failures count in `FAILED_SHARE`.
///
/// # Errors
///
/// The process could not start or printed no result object.
pub fn run_once(bin: &Path, workload: &str, seconds: f64, seed: u64) -> Result<Run, String> {
    let output = Command::new(bin)
        .args(run_args(workload, seconds, seed))
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    parse_run(&String::from_utf8_lossy(&output.stdout)).map_err(|e| {
        format!(
            "{} ({}): {e}; stderr: {}",
            bin.display(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "== wire_pipelined  seed 42  seconds 20  trace 0  threads 2\n\
-- end to end (untraced run)\n\
peak_rss_mb                                 16.2852 MiB      VmHWM when the last trial ended\n\
calibration kernel: p50 24.913 ms over 52 runs (reference 25 ms)\n\
wire calibration kernel: p50 3.100 ms over 24 runs (reference 3 ms)\n\
ops: 33192 attempted, 2 failed (ops_failed_share 0.000060)\n\
{\"correct\": true, \"attempted\": 33192, \"failed\": 2, \"metrics\": {\"setup_s\": {\"value\": 0.0508, \"unit\": \"s\"}, \"blocks_per_s\": {\"value\": 17733.58, \"unit\": \"1/s\"}, \"peak_rss_mb\": {\"value\": 16.28515625, \"unit\": \"MiB\"}}}\n";

    /// A `wire_pipelined` run's output, notes and all: `setup_s` is raw,
    /// `blocks_per_s` and `audit_us_p50` carry a raw reading in their note,
    /// and the other rows have none.
    const NOTED_RUN: &str = "== wire_pipelined  seed 42  seconds 3  trace 0  threads 2\n\
-- end to end (untraced run)\n\
setup_s                                      0.0009 s        raw; median of 4 trials, slowest node from before NetNode::new to its first slot\n\
blocks_per_s                             22054.5719 1/s      normalised by the wire kernel; raw 12774.9/s; median of 4 trials x 800 slots (quartiles 19022.4, 26467.1), blocks / slowest slot loop\n\
audit_us_p50                                10.2743 us       normalised; raw 20.1 us; 3 segments x 1500 operator audits of the reference chains\n\
audit_us_p90                                14.4838 us       \n\
tx_bytes_per_block                         541.4412 B        NetStats bytes_sent of every node\n\
peak_rss_mb                                 11.6953 MiB      VmHWM when the last trial ended\n\
-- counters of this run\n\
net.blocks_per_s_raw                     12774.9092 1/s      \n\
calibration kernel: p50 48.939 ms over 4 runs (reference 25 ms)\n\
ops: 26812 attempted, 0 failed (ops_failed_share 0.000000)\n\
{\"correct\": true, \"attempted\": 26812, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0009266495, \"unit\": \"s\"}, \"blocks_per_s\": {\"value\": 22054.571893445882, \"unit\": \"1/s\"}, \"audit_us_p50\": {\"value\": 10.274253949193339, \"unit\": \"us\"}, \"audit_us_p90\": {\"value\": 14.483824597711811, \"unit\": \"us\"}, \"tx_bytes_per_block\": {\"value\": 541.44125, \"unit\": \"B\"}, \"peak_rss_mb\": {\"value\": 11.6953125, \"unit\": \"MiB\"}}}\n";

    #[test]
    fn each_run_gets_the_workload_the_seconds_and_the_seed() {
        assert_eq!(
            run_args("wire_pipelined", 20.0, 7),
            [
                "--workload",
                "wire_pipelined",
                "--seconds",
                "20",
                "--seed",
                "7"
            ]
        );
        assert_eq!(
            run_args("engine_mem", 2.5, 42)[3..],
            ["2.5", "--seed", "42"]
        );
    }

    #[test]
    fn raw_readings_come_from_the_rows_notes() {
        let run = parse_run(NOTED_RUN).expect("parses");
        assert_eq!(
            run.raw,
            vec![
                ("setup_s".to_string(), 0.0009266495),
                ("blocks_per_s".to_string(), 12774.9),
                ("audit_us_p50".to_string(), 20.1),
            ]
        );
        assert_eq!(run.raw("peak_rss_mb"), None);
        // The engine's note names a raw median.
        assert_eq!(
            raw_of("normalised; raw median 0.0508 s over 3 set-ups", 0.04),
            Some(0.0508)
        );
        assert_eq!(raw_of("raw; median of 4 trials", 0.5), Some(0.5));
        assert_eq!(raw_of("VmHWM when the last trial ended", 1.0), None);
        // The older fixture's rows carry no raw reading.
        assert!(parse_run(RUN).expect("parses").raw.is_empty());
    }

    #[test]
    fn the_table_prints_raw_medians_beside_the_normalised_ones() {
        let run = parse_run(NOTED_RUN).expect("parses");
        let mut faster = run.clone();
        faster.metrics[1].1 = 24260.0;
        faster.raw[1].1 = 14052.39;
        let directions = vec![
            ("blocks_per_s".to_string(), false),
            ("peak_rss_mb".to_string(), true),
        ];
        let table = render(
            "wire_pipelined",
            &directions,
            &[run.clone(), run],
            &[faster.clone(), faster],
        );
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row in\n{table}"))
                .to_string()
        };
        let header = table.lines().nth(1).expect("header");
        assert!(
            header.contains("parent raw") && header.contains("raw delta"),
            "{table}"
        );
        let blocks = line("blocks_per_s");
        let blocks: Vec<&str> = blocks.split_whitespace().collect();
        assert_eq!(
            blocks[1..8],
            [
                "22054.5719",
                "24260.0000",
                "+10.00%",
                "12774.9000",
                "14052.3900",
                "+10.00%",
                "0.0000"
            ],
            "{table}"
        );
        let rss = line("peak_rss_mb");
        let rss: Vec<&str> = rss.split_whitespace().collect();
        assert_eq!(rss[4..7], ["-", "-", "-"], "{table}");
    }

    #[test]
    fn a_run_parses_its_result_object_and_kernels() {
        let run = parse_run(RUN).expect("parses");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (33192, 2));
        assert_eq!(
            run.metrics,
            vec![
                ("setup_s".to_string(), 0.0508),
                ("blocks_per_s".to_string(), 17733.58),
                ("peak_rss_mb".to_string(), 16.28515625),
            ]
        );
        assert_eq!(
            run.kernels,
            vec![
                ("calibration kernel".to_string(), 24.913),
                ("wire calibration kernel".to_string(), 3.1),
            ]
        );
        assert_eq!(run.metric(FAILED_SHARE), Some(2.0 / 33192.0));
        assert_eq!(run.metric("audit_us_p50"), None);
    }

    #[test]
    fn output_without_a_result_object_is_an_error() {
        assert!(parse_run("").is_err());
        assert!(parse_run("ops: 1 attempted, 0 failed\n").is_err());
        let cut = RUN.replace(", \"metrics\"", "");
        assert!(parse_run(&cut).is_err());
    }

    #[test]
    fn directions_come_from_the_end_to_end_list_only() {
        let contract = r#"{
  "end_to_end": [
    { "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25 },
    { "name": "blocks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25 }
  ],
  "per_layer": [ { "name": "crypto.sha256_1k_ns", "better": "lower" } ]
}"#;
        assert_eq!(
            directions(contract).expect("parses"),
            vec![
                ("setup_s".to_string(), true),
                ("blocks_per_s".to_string(), false)
            ]
        );
        assert!(directions(&contract.replace("\"higher\"", "\"up\"")).is_err());
        assert!(directions("{}").is_err());
    }

    #[test]
    fn the_repository_contract_names_every_direction() {
        let contract = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json");
        let names: Vec<String> = directions(&contract)
            .expect("parses")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"peak_rss_mb".to_string()), "{names:?}");
        assert!(
            !names.iter().any(|n| n.contains('.')),
            "per-layer rows leaked: {names:?}"
        );
    }

    #[test]
    fn the_verdict_weighs_the_median_gap_against_the_parents_spread() {
        // Parent quartiles (exclusive method) 10.5 and 13.5: IQR 3.
        let parent = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(iqr(&parent), 3.0);
        assert_eq!(median(&parent), 12.0);
        assert_eq!(
            verdict(&parent, &[8.0, 8.5, 9.0, 9.5, 10.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &[7.0, 8.0, 8.9, 9.0, 9.5]),
            Verdict::Resolved
        );
        assert_eq!(
            verdict(&parent, &[15.5, 16.0, 15.1, 16.5, 17.0]),
            Verdict::Resolved
        );
        // An exact row: no spread, so any move resolves and none is identical.
        let exact = [646.95; 4];
        assert_eq!(verdict(&exact, &exact), Verdict::Identical);
        assert_eq!(verdict(&exact, &[646.96; 4]), Verdict::Resolved);
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn incorrect_runs_are_kept_and_counted() {
        let good = parse_run(RUN).expect("parses");
        let bad = parse_run(&RUN.replace("\"correct\": true", "\"correct\": false"))
            .expect("an incorrect run still parses");
        assert!(!bad.correct);
        let directions = vec![("peak_rss_mb".to_string(), true)];
        let table = render(
            "engine_mem",
            &directions,
            &[good.clone(), good],
            &[bad.clone(), bad],
        );
        assert!(
            table.contains("incorrect runs: 0/2 parent, 2/2 change"),
            "{table}"
        );
    }

    #[test]
    fn wins_count_strictly_better_pairs_by_direction() {
        let (parent, change) = ([10.0, 10.0, 10.0], [9.0, 10.0, 11.0]);
        assert_eq!(wins(&parent, &change, true), 1);
        assert_eq!(wins(&parent, &change, false), 1);
        assert_eq!(wins(&parent, &parent, true), 0);
    }

    #[test]
    fn the_table_judges_every_metric_and_prints_the_kernels() {
        let run = parse_run(RUN).expect("parses");
        let mut lighter = run.clone();
        lighter.metrics[2].1 = 12.0;
        lighter.kernels[0].1 = 26.0;
        let directions = vec![
            ("setup_s".to_string(), true),
            ("peak_rss_mb".to_string(), true),
        ];
        let table = render(
            "wire_pipelined",
            &directions,
            &[run.clone(), run],
            &[lighter.clone(), lighter],
        );
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row in\n{table}"))
                .to_string()
        };
        assert!(line("setup_s").ends_with("0/2   identical"), "{table}");
        assert!(
            line("peak_rss_mb").ends_with("2/2   resolved, better"),
            "{table}"
        );
        assert!(line("peak_rss_mb").contains("-26.31%"), "{table}");
        assert!(line(FAILED_SHARE).ends_with("identical"), "{table}");
        assert!(!table.contains("incorrect runs"), "{table}");
        assert!(
            table.contains("calibration kernel: p50 median 24.913 ms parent, 26.000 ms change"),
            "{table}"
        );
        assert!(
            table.contains("wire calibration kernel: p50 median 3.100 ms parent, 3.100 ms change")
        );
    }

    #[test]
    fn a_spread_row_needs_ten_pairs_for_a_verdict() {
        let run = parse_run(RUN).expect("parses");
        // Every run of a side reads one `setup_s` (an exact row), while
        // `peak_rss_mb` spreads by 0.01 MiB a run.
        let runs = |pairs: usize, setup: f64, rss: f64| -> Vec<Run> {
            (0..pairs)
                .map(|i| {
                    let mut r = run.clone();
                    r.metrics[0].1 = setup;
                    r.metrics[2].1 = rss + 0.01 * i as f64;
                    r
                })
                .collect()
        };
        let directions = vec![
            ("setup_s".to_string(), true),
            ("peak_rss_mb".to_string(), true),
        ];
        let line = |table: &str, name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("no {name} row in\n{table}"))
                .to_string()
        };
        // Nine pairs: the spread row is refused, the exact one judged.
        let table = render(
            "wire_pipelined",
            &directions,
            &runs(9, 0.05, 16.0),
            &runs(9, 0.04, 12.0),
        );
        assert!(
            line(&table, "peak_rss_mb").ends_with("9/9   too few pairs (9 < 10)"),
            "{table}"
        );
        assert!(
            line(&table, "setup_s").ends_with("9/9   resolved, better"),
            "{table}"
        );
        // Ten pairs of the same spread resolve.
        let table = render(
            "wire_pipelined",
            &directions,
            &runs(10, 0.05, 16.0),
            &runs(10, 0.04, 12.0),
        );
        assert!(
            line(&table, "peak_rss_mb").ends_with("10/10  resolved, better"),
            "{table}"
        );
    }
}
