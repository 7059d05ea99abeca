//! # tldag-bench — the 2LDAG evaluation harness
//!
//! One binary, `experiments`, runs every panel of the paper's evaluation
//! (Sec. VI) and the extensions from one table, [`experiments::REGISTRY`]:
//! `experiments --list` prints it (name, what the row reproduces, how its
//! artifact is gated). Every experiment module keeps its `run(&cfg)` and
//! adds `report(scale)`, which returns the one result type,
//! [`report::Report`]; the aligned tables on stdout, the CSVs and
//! `BENCH_<name>.json` under `target/experiments/` are three views of that
//! value, and [`gate`] compares the JSON against `experiments/baselines/`.
//! `--quick` selects the reduced sweep. Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod report;

pub use experiments::scale::Scale;
