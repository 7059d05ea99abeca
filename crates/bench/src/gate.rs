//! The regression gate: compares fresh `BENCH_*.json` artifacts against
//! the committed baselines, by the rules each registry row declares.
//!
//! Both sides must be produced at the same scale — values are matched by
//! document order and a different count is a failure, not a skip. A missing
//! baseline file is a skip (an experiment can be registered before it has a
//! baseline); a missing current file is a failure — the experiment did not
//! run or did not write its artifact.

use crate::experiments::Experiment;
use crate::report::json_scalars;
use std::path::Path;

/// Absolute slack for rate comparisons (float formatting noise).
const RATE_EPSILON: f64 = 1e-9;

/// How the current values of one key are judged against the baseline's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Rule {
    /// Equal, to the last printed digit.
    Exact,
    /// Not below the baseline, nor below `floor`.
    NoWorse {
        /// The absolute minimum, whatever the baseline reads.
        floor: f64,
    },
    /// The flag is set.
    True,
}

impl Rule {
    fn holds(self, current: f64, baseline: f64) -> bool {
        match self {
            Rule::Exact => current == baseline,
            Rule::NoWorse { floor } => current >= baseline - RATE_EPSILON && current >= floor,
            Rule::True => current >= 1.0,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::Exact => write!(f, "equal to baseline"),
            Rule::NoWorse { floor } if *floor > 0.0 => write!(f, "≥ baseline and ≥ {floor}"),
            Rule::NoWorse { .. } => write!(f, "≥ baseline"),
            Rule::True => write!(f, "true"),
        }
    }
}

/// Judges every value of `key` (`"*"`: every numeric key) in `current`
/// against the value at the same place in `baseline`. `Ok` carries the
/// number of values compared.
///
/// # Errors
///
/// A description of the first difference: a missing key, a changed sweep
/// shape, or the first value that breaks `rule`.
pub(crate) fn check(rule: Rule, key: &str, baseline: &str, current: &str) -> Result<usize, String> {
    let select = |json: &str| -> Vec<(String, f64)> {
        let all = json_scalars(json).into_iter();
        all.filter(|(k, _)| key == "*" || k == key).collect()
    };
    let (base, cur) = (select(baseline), select(current));
    if base.is_empty() {
        return Err(format!("baseline has no \"{key}\" values"));
    }
    if base.len() != cur.len() {
        return Err(format!(
            "sweep shape changed — baseline has {} \"{key}\" values, current has {} \
             (scale mismatch? re-baseline)",
            base.len(),
            cur.len()
        ));
    }
    for (i, ((bk, b), (ck, c))) in base.iter().zip(&cur).enumerate() {
        if bk != ck {
            return Err(format!(
                "value {i} is \"{ck}\", baseline has \"{bk}\" there"
            ));
        }
        if !rule.holds(*c, *b) {
            return Err(format!(
                "\"{ck}\" value {i} is {c}, baseline {b}, rule: {rule}"
            ));
        }
    }
    Ok(base.len())
}

/// Runs every gate of every experiment in `registry` on the artifacts in
/// `current_dir` against those in `baseline_dir`, printing one line per
/// rule. Returns whether nothing failed.
pub fn run(registry: &[Experiment], baseline_dir: &Path, current_dir: &Path) -> bool {
    println!(
        "gate: {} vs baseline {}",
        current_dir.display(),
        baseline_dir.display()
    );
    let (mut passed, mut skipped, mut failed) = (0, 0, 0);
    for exp in registry.iter().filter(|e| !e.gates.is_empty()) {
        let file = format!("BENCH_{}.json", exp.name);
        let Ok(baseline) = std::fs::read_to_string(baseline_dir.join(&file)) else {
            println!("SKIP {}: no baseline {file}", exp.name);
            skipped += 1;
            continue;
        };
        let Ok(current) = std::fs::read_to_string(current_dir.join(&file)) else {
            println!(
                "FAIL {}: baseline exists but no fresh {file} — did the experiment run?",
                exp.name
            );
            failed += 1;
            continue;
        };
        for (key, rule) in exp.gates {
            match check(*rule, key, &baseline, &current) {
                Ok(n) => {
                    println!("PASS {}: {n} \"{key}\" value(s) {rule}", exp.name);
                    passed += 1;
                }
                Err(why) => {
                    println!("FAIL {}: {why}", exp.name);
                    failed += 1;
                }
            }
        }
    }
    println!("gate: {passed} rule(s) passed, {skipped} experiment(s) skipped, {failed} failed");
    failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\"nodes\":4,\"tables\":[{\"rows\":[\
{\"completion\":0.75,\"parity\":true},{\"completion\":1,\"parity\":true}]}]}";

    #[test]
    fn a_document_passes_every_rule_against_itself() {
        assert_eq!(check(Rule::Exact, "*", DOC, DOC), Ok(5));
        assert_eq!(
            check(Rule::NoWorse { floor: 0.0 }, "completion", DOC, DOC),
            Ok(2)
        );
        assert_eq!(check(Rule::True, "parity", DOC, DOC), Ok(2));
    }

    #[test]
    fn one_flipped_flag_or_digit_fails() {
        let flipped = DOC.replacen("\"parity\":true", "\"parity\":false", 1);
        assert!(check(Rule::True, "parity", DOC, &flipped).is_err());
        assert!(check(Rule::Exact, "*", DOC, &flipped).is_err());
        let digit = DOC.replace("0.75", "0.76");
        assert!(check(Rule::Exact, "*", DOC, &digit).is_err());
        // Better is fine for a rate, worse is not, and a floor binds even
        // where the baseline sits below it.
        assert_eq!(
            check(Rule::NoWorse { floor: 0.0 }, "completion", DOC, &digit),
            Ok(2)
        );
        assert!(check(Rule::NoWorse { floor: 0.0 }, "completion", &digit, DOC).is_err());
        assert!(check(Rule::NoWorse { floor: 0.95 }, "completion", DOC, DOC).is_err());
    }

    #[test]
    fn a_changed_shape_or_key_order_fails() {
        let shorter = DOC.replace(",{\"completion\":1,\"parity\":true}", "");
        assert!(check(Rule::True, "parity", DOC, &shorter).is_err());
        let renamed = DOC.replace("\"nodes\"", "\"founders\"");
        assert!(check(Rule::Exact, "*", DOC, &renamed).is_err());
        assert!(check(Rule::True, "absent", DOC, DOC).is_err());
    }
}
