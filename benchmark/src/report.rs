//! Metrics, the result line, and the few host facts a result depends on.

use crate::spans::Span;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// What is printed beside the value for a human (raw totals, sample
    /// counts); never part of the result line.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            note: String::new(),
        }
    }

    /// Adds the human-readable note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted (PoPs, audits, restarts, node runs, parity
    /// checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// A wire trial hit its watchdog; program threads may still be running.
    pub wedged: bool,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics read from counters the program exports.
    pub layer: Vec<Metric>,
    /// Counts that must repeat exactly for one seed (`--selfcheck`).
    pub counts: Vec<(&'static str, u64)>,
    /// Spans recorded on threads other than the driver's, one buffer each.
    pub thread_spans: Vec<Vec<Span>>,
}

/// Prints metrics as an aligned table, one per line, by name and unit.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!("{:<34} {:>16.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
}

/// The one-object result line the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The benchmark's own directory (where `Cargo.toml`, `out/` live).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand: the only place the benchmark
/// writes.
pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("cannot create benchmark/out");
    dir
}

/// A directory under `benchmark/out/` that is removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty directory whose name starts with `label`.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create a temp dir under benchmark/out");
        TempDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` is
/// not there.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the OS lets this process use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
