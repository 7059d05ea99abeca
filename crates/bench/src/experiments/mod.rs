//! Experiment implementations, one module per panel group, and the
//! [`REGISTRY`] that is the single list of what can be run, what each row
//! reproduces, and how its `BENCH_<name>.json` is gated.

pub mod ablation;
pub mod adversary;
pub mod churn;
mod cluster;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod lifecycle;
pub mod restart;
pub mod retention;
pub mod saturation;
pub mod scale;
pub mod scaling;
pub mod summary;
pub mod wire;

use crate::gate::Rule;
use crate::report::Report;
use scale::Scale;
use std::fmt::Write as _;
use std::path::Path;

/// One runnable experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// The name on the command line and in `BENCH_<name>.json`.
    pub name: &'static str,
    /// What it reproduces (the README table cell).
    pub reproduces: &'static str,
    /// A panel of the paper's own evaluation: engine-only, deterministic,
    /// sub-second at `--quick`, pinned by an exact baseline.
    pub paper_panel: bool,
    /// Runs the sweep at a scale.
    pub run: fn(Scale) -> Report,
    /// `(key, rule)` pairs the gate holds the JSON artifact to; the key
    /// `"*"` selects every numeric key.
    pub gates: &'static [(&'static str, Rule)],
}

impl Experiment {
    /// Runs at `scale`, prints the report and writes its CSVs and JSON
    /// under `dir`. Returns whether every invariant held.
    ///
    /// # Errors
    ///
    /// An artifact could not be written.
    pub fn execute(&self, scale: Scale, dir: &Path) -> std::io::Result<bool> {
        let report = (self.run)(scale);
        println!("{}", report.render());
        report.write(dir)?;
        Ok(report.passed())
    }
}

/// The paper's panels are seeded engine runs: every number is pinned.
const PINNED: &[(&str, Rule)] = &[("*", Rule::Exact)];
const NO_WORSE: Rule = Rule::NoWorse { floor: 0.0 };

/// Every experiment, the paper's own panels first.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig7_storage",
        reproduces: "Fig. 7(a–c) storage vs slots for C ∈ {0.1, 0.5, 1} MB; 7(d) per-node storage CDF",
        paper_panel: true,
        run: fig7::report,
        gates: PINNED,
    },
    Experiment {
        name: "fig8_comm",
        reproduces: "Fig. 8(a) overall comm; 8(b) DAG construction; 8(c) consensus; 8(d) per-node comm CDF",
        paper_panel: true,
        run: fig8::report,
        gates: PINNED,
    },
    Experiment {
        name: "fig9_failure",
        reproduces: "Fig. 9(a–d) consensus-failure probability for γ ∈ {10, 15, 20, 24}",
        paper_panel: true,
        run: fig9::report,
        gates: PINNED,
    },
    Experiment {
        name: "table1_summary",
        reproduces: "The abstract's headline ratios (storage ≈2, comm ≈3 orders of magnitude vs blockchain) and consensus at 49% malicious",
        paper_panel: true,
        run: summary::report,
        gates: PINNED,
    },
    Experiment {
        name: "ablation_wps",
        reproduces: "WPS vs random next-hop selection",
        paper_panel: true,
        run: ablation::report_wps,
        gates: PINNED,
    },
    Experiment {
        name: "ablation_tps",
        reproduces: "TPS trusted-header cache on vs off over repeated verifications",
        paper_panel: true,
        run: ablation::report_tps,
        gates: PINNED,
    },
    Experiment {
        name: "ablation_multihop",
        reproduces: "Single-hop vs multi-hop traffic attribution",
        paper_panel: true,
        run: ablation::report_multihop,
        gates: PINNED,
    },
    Experiment {
        name: "ablation_bounds",
        reproduces: "Measured overhead vs the Prop. 1–4 analytic bounds, each bound an invariant of the run",
        paper_panel: true,
        run: ablation::report_bounds,
        gates: PINNED,
    },
    Experiment {
        name: "fig7_retention",
        reproduces: "Eq. 2 retention budgets — disk usage vs budget, PoP availability by block age (graceful pruned misses), and the TPS hit-rate of a warm (persisted `H_i`) vs cold restart",
        paper_panel: false,
        run: retention::report,
        gates: &[],
    },
    Experiment {
        name: "fig9_restart",
        reproduces: "mid-run node kills + disk recovery; PoP availability through the outage and a no-lost-blocks audit",
        paper_panel: false,
        run: restart::report,
        gates: &[],
    },
    Experiment {
        name: "fig10_scaling",
        reproduces: "slot-loop throughput vs worker threads (with a chain-digest identity check) and disk throughput vs sync policy (per-node fsync vs group commit)",
        paper_panel: false,
        run: scaling::report,
        gates: &[],
    },
    Experiment {
        name: "fig11_wire",
        reproduces: "PoP over **real UDP sockets** under injected datagram loss/duplication/reordering — delivery rate, latency, and retry work per fault rate, with batched and one-datagram-per-wakeup I/O",
        paper_panel: false,
        run: wire::report,
        gates: &[("success_rate", NO_WORSE)],
    },
    Experiment {
        name: "fig12_churn",
        reproduces: "**dynamic membership** over lossy UDP — join/leave churn levels vs PoP completion, joiner catch-up latency, and digest parity with the engine on the identical membership schedule",
        paper_panel: false,
        run: churn::report,
        gates: &[("completion", NO_WORSE), ("parity", Rule::True)],
    },
    Experiment {
        name: "fig13_saturation",
        reproduces: "**pipeline saturation** — loopback cluster blocks/s, PoP/s, and p50/p99 slot latency vs epoch-window size `W`, with the lockstep runtime as baseline and parity at every window",
        paper_panel: false,
        run: saturation::report,
        gates: &[("parity", Rule::True)],
    },
    Experiment {
        name: "fig14_lifecycle",
        reproduces: "**block lifecycle latency** from causal traces — p50/p99 generate → committed-everywhere on a traced loopback cluster, lockstep (`W=1`) vs pipelined (`W=8`), with parity under tracing",
        paper_panel: false,
        run: lifecycle::report,
        gates: &[("parity", Rule::True)],
    },
    Experiment {
        name: "fig15_adversary",
        reproduces: "**Byzantine fraction sweep** over loopback UDP — equivocate/digest-lie/parasite adversaries vs honest-node PoP completion, honest-subset digest parity with the engine under the identical placement, and the detection counters (conflicts, pulls)",
        paper_panel: false,
        run: adversary::report,
        gates: &[
            ("honest_completion", Rule::NoWorse { floor: 0.95 }),
            ("parity", Rule::True),
        ],
    },
];

/// The registry as the markdown table `experiments --list` prints and the
/// README carries.
pub fn list_markdown() -> String {
    let mut out = String::from(
        "| Experiment | Reproduces | Gate vs `experiments/baselines/` |\n|---|---|---|\n",
    );
    for exp in REGISTRY {
        let extension = if exp.paper_panel { "" } else { "*Extension*: " };
        let rules = exp.gates.iter();
        let mut gates: Vec<String> = rules.map(|(key, rule)| format!("`{key}` {rule}")).collect();
        if gates.is_empty() {
            gates.push("invariants only".to_string());
        }
        let gates = gates.join("; ");
        let _ = writeln!(
            out,
            "| `{}` | {extension}{} | {gates} |",
            exp.name, exp.reproduces
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;
    use crate::{gate, row};

    #[test]
    fn names_are_unique_and_paper_panels_lead() {
        let names: std::collections::BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len());
        let first_extension = REGISTRY.iter().position(|e| !e.paper_panel).unwrap();
        assert!(REGISTRY[first_extension..].iter().all(|e| !e.paper_panel));
        assert_eq!(first_extension, 8);
    }

    /// The engine-only panels run in well under a second each in release
    /// builds; the wire and disk extensions are exercised by CI's smoke job.
    #[test]
    fn every_paper_panel_reports_under_its_name_with_its_gate_keys() {
        for exp in REGISTRY.iter().filter(|e| e.paper_panel) {
            let report = (exp.run)(Scale::Quick);
            assert_eq!(report.name, exp.name);
            assert!(report.passed(), "{}: {:?}", exp.name, report.invariants);
            let json = report.to_json();
            for (key, rule) in exp.gates {
                let compared = gate::check(*rule, key, &json, &json);
                assert!(
                    matches!(compared, Ok(n) if n > 3),
                    "{}: {compared:?}",
                    exp.name
                );
            }
            // The same seed must give the same document, or Exact is no gate.
            if exp.name == "ablation_bounds" {
                assert_eq!((exp.run)(Scale::Quick).to_json(), json);
                let digit = json.replacen("\"measured\":560", "\"measured\":561", 1);
                assert_ne!(digit, json);
                assert!(gate::check(Rule::Exact, "*", &json, &digit).is_err());
                let flag = json.replacen("\"holds\":true", "\"holds\":false", 1);
                assert!(gate::check(Rule::Exact, "*", &json, &flag).is_err());
            }
        }
    }

    /// A run whose wire cluster lost digest parity.
    fn broken(scale: Scale) -> Report {
        let mut report = Report::new("broken", scale);
        let mut table = Table::new("broken", "a test double");
        table.push(row!["completion" => 0.75, "parity" => false]);
        report.tables.push(table);
        report.invariant("digest parity", false);
        report
    }

    #[test]
    fn a_false_invariant_fails_every_row_and_a_flipped_cell_fails_its_gate() {
        let dir = std::env::temp_dir().join(format!("tldag-registry-{}", std::process::id()));
        for exp in REGISTRY {
            let double = Experiment {
                name: "broken",
                run: broken,
                ..*exp
            };
            let passed = double
                .execute(Scale::Quick, &dir)
                .expect("artifacts written");
            assert!(!passed, "{} must fail on a false invariant", exp.name);
        }
        assert!(dir.join("broken.csv").exists());

        // The artifact against itself and against a copy with the one
        // parity cell flipped, through the entry point the CLI uses.
        let gated = |gates| {
            [Experiment {
                name: "broken",
                gates,
                ..REGISTRY[0]
            }]
        };
        assert!(!gate::run(&gated(&[("parity", Rule::True)]), &dir, &dir));
        assert!(gate::run(&gated(&[("completion", NO_WORSE)]), &dir, &dir));
        assert!(gate::run(&gated(PINNED), &dir, &dir));
        let flipped = dir.join("flipped");
        std::fs::create_dir_all(&flipped).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_broken.json")).unwrap();
        let json = json.replace("\"parity\":false", "\"parity\":true");
        std::fs::write(flipped.join("BENCH_broken.json"), json).unwrap();
        assert!(!gate::run(&gated(PINNED), &dir, &flipped));
        assert!(gate::run(&gated(&[("parity", Rule::True)]), &dir, &flipped));
        // A baseline without a fresh artifact fails; no baseline is a skip.
        assert!(!gate::run(&gated(PINNED), &dir, &dir.join("absent")));
        assert!(gate::run(&gated(PINNED), &dir.join("absent"), &dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readme_table_is_the_registry() {
        let readme = include_str!("../../../../README.md");
        assert!(
            readme.contains(&list_markdown()),
            "README.md's experiments table drifted from the registry; paste the \
output of `experiments --list` over it"
        );
    }
}
