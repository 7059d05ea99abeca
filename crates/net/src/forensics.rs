//! Divergence forensics: turning a bare digest-mismatch verdict into a
//! slot-by-slot diagnosis.
//!
//! Digest parity between a wire cluster and the in-memory reference engine
//! is the deployment's core acceptance check, but the network digest is a
//! hash over every per-node chain digest — when it differs, it says
//! nothing about *where* the chains forked. This module reconstructs that
//! answer from the evidence the runtime already keeps around:
//!
//! 1. The harness pulls each suspect node's recent per-slot digests over
//!    the live [`crate::control::Control::DigestReq`] path (nodes linger
//!    serving until the controller releases them, and retain the last 64
//!    slots of own-digest history exactly for pulls like this).
//! 2. [`diagnose`] diffs those against the reference engine's per-slot
//!    block digests and names the **first divergent slot** plus the
//!    differing block digests at every divergent slot.
//! 3. With tracing on, [`timelines_for_slot`] extracts the causal
//!    lifecycle timeline of each offending block from the nodes' `/trace`
//!    snapshots, so the report shows not just *what* diverged but what
//!    every node observed about the block on the way there.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tldag_crypto::Digest;

/// One node's digest disagreement at one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotMismatch {
    /// The diverging node.
    pub(crate) node: u32,
    /// The digest the wire node served for this slot (`None` when the
    /// node never answered the pull — pruned history or a dead process).
    pub(crate) wire: Option<Digest>,
    /// The reference engine's block digest at this slot (`None` when the
    /// reference node generated no block here, e.g. before a join).
    pub(crate) reference: Option<Digest>,
}

/// The slot-by-slot diff produced by [`diagnose`], plus any trace
/// timelines attached by the harness.
#[derive(Clone, Debug, Default)]
pub struct DivergenceReport {
    /// The earliest slot where any node's wire digest provably differs
    /// from the reference (`None` when the pulls yielded no definite
    /// disagreement — e.g. the evidence window has been pruned).
    pub(crate) first_divergent_slot: Option<u64>,
    /// Every divergent slot with the differing block digests, ascending.
    pub(crate) mismatches: BTreeMap<u64, Vec<SlotMismatch>>,
    /// Suspect slots the wire nodes could not answer (pruned or
    /// unreachable) — divergence there is possible but unprovable.
    pub(crate) unanswered: Vec<(u32, u64)>,
    /// Raw `/trace` timeline JSON of the offending blocks (empty when
    /// tracing or metrics were off for the run).
    pub(crate) timelines: Vec<String>,
}

impl DivergenceReport {
    /// Human-readable multi-line rendering for the CLI and logs.
    pub fn render(&self) -> String {
        let mut out = String::from("divergence forensics:\n");
        match self.first_divergent_slot {
            Some(slot) => {
                let _ = writeln!(out, "  first divergent slot: {slot}");
            }
            None => out.push_str("  no provable per-slot disagreement in the pulled window\n"),
        }
        for (slot, mismatches) in &self.mismatches {
            let _ = writeln!(out, "  slot {slot}:");
            for m in mismatches {
                let wire = m
                    .wire
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "<unanswered>".into());
                let reference = m
                    .reference
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "<no reference block>".into());
                let _ = writeln!(
                    out,
                    "    node {}: wire {wire} vs reference {reference}",
                    m.node
                );
            }
        }
        if !self.unanswered.is_empty() {
            let listed: Vec<String> = self
                .unanswered
                .iter()
                .take(8)
                .map(|(node, slot)| format!("n{node}@{slot}"))
                .collect();
            let _ = writeln!(
                out,
                "  unanswered pulls (pruned or unreachable): {}{}",
                listed.join(" "),
                if self.unanswered.len() > 8 {
                    " …"
                } else {
                    ""
                }
            );
        }
        if self.timelines.is_empty() {
            out.push_str("  (run with --trace --metrics for block lifecycle timelines)\n");
        } else {
            out.push_str("  lifecycle timelines of offending blocks:\n");
            for t in &self.timelines {
                let _ = writeln!(out, "    {t}");
            }
        }
        out
    }
}

/// Diffs the pulled wire digests against the reference engine's per-slot
/// block digests for the given suspect nodes over `window` (a slot
/// range, typically the retention window of the nodes' own-digest
/// history).
///
/// A `(node, slot)` pair counts as **divergent** when both sides have a
/// digest and they differ, or when the wire node answered with a block
/// the reference never generated. A pair where the wire side is silent
/// is recorded as unanswered, not divergent — absence of evidence.
pub fn diagnose(
    wire: &BTreeMap<(u32, u64), Digest>,
    reference: &BTreeMap<(u32, u64), Digest>,
    suspects: &[u32],
    window: std::ops::Range<u64>,
) -> DivergenceReport {
    let mut report = DivergenceReport::default();
    for slot in window {
        for &node in suspects {
            let key = (node, slot);
            match (wire.get(&key), reference.get(&key)) {
                (Some(w), Some(r)) if w != r => {
                    report
                        .mismatches
                        .entry(slot)
                        .or_default()
                        .push(SlotMismatch {
                            node,
                            wire: Some(*w),
                            reference: Some(*r),
                        });
                }
                (Some(w), None) => {
                    report
                        .mismatches
                        .entry(slot)
                        .or_default()
                        .push(SlotMismatch {
                            node,
                            wire: Some(*w),
                            reference: None,
                        });
                }
                (None, Some(_)) => report.unanswered.push((node, slot)),
                _ => {}
            }
        }
    }
    report.first_divergent_slot = report.mismatches.keys().next().copied();
    report
}

/// Extracts the timeline objects for `slot` from a `/trace` JSON snapshot
/// (the exact format [`tldag_obs::trace_json`] renders): every element of
/// the top-level `"timelines"` array whose leading `"slot"` field equals
/// `slot`, returned as raw JSON object strings.
///
/// Tolerant by construction — a snapshot without a `"timelines"` array,
/// or with unbalanced braces, yields whatever complete objects were found
/// before the damage (never panics).
pub fn timelines_for_slot(trace_json: &str, slot: u64) -> Vec<String> {
    let Some(start) = trace_json.find("\"timelines\":[") else {
        return Vec::new();
    };
    let body = &trace_json[start + "\"timelines\":[".len()..];
    let wanted = format!("{{\"slot\":{slot},\"origin\":");
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_string = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = obj_start.take() {
                        let obj = &body[s..=i];
                        if obj.starts_with(&wanted) {
                            out.push(obj.to_string());
                        }
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(fill: u8) -> Digest {
        Digest::from_bytes([fill; 32])
    }

    #[test]
    fn diagnose_names_first_divergent_slot_and_differing_blocks() {
        // Node 1 agrees through slot 2, forks at slot 3, and stays forked.
        let mut wire = BTreeMap::new();
        let mut reference = BTreeMap::new();
        for slot in 0..6u64 {
            reference.insert((1u32, slot), digest(slot as u8));
            let served = if slot >= 3 {
                digest(0xAA + slot as u8)
            } else {
                digest(slot as u8)
            };
            wire.insert((1u32, slot), served);
        }
        let report = diagnose(&wire, &reference, &[1], 0..6);
        assert_eq!(report.first_divergent_slot, Some(3));
        assert_eq!(report.mismatches.len(), 3, "slots 3, 4, 5 all differ");
        let at3 = &report.mismatches[&3];
        assert_eq!(at3.len(), 1);
        assert_eq!(at3[0].node, 1);
        assert_eq!(at3[0].wire, Some(digest(0xAA + 3)));
        assert_eq!(at3[0].reference, Some(digest(3)));
        assert!(report.unanswered.is_empty());
        let rendered = report.render();
        assert!(rendered.contains("first divergent slot: 3"));
        assert!(rendered.contains("node 1:"));
    }

    #[test]
    fn diagnose_counts_extra_wire_blocks_but_not_silence() {
        let mut wire = BTreeMap::new();
        let mut reference = BTreeMap::new();
        // Slot 0: the node served a block the reference never generated.
        wire.insert((2u32, 0u64), digest(9));
        // Slot 1: the reference has a block the node never answered for.
        reference.insert((2u32, 1u64), digest(7));
        let report = diagnose(&wire, &reference, &[2], 0..2);
        assert_eq!(report.first_divergent_slot, Some(0));
        assert_eq!(report.mismatches[&0][0].reference, None);
        assert_eq!(report.unanswered, vec![(2, 1)]);
    }

    #[test]
    fn diagnose_of_agreeing_chains_is_clean() {
        let mut wire = BTreeMap::new();
        let mut reference = BTreeMap::new();
        for slot in 0..4u64 {
            wire.insert((0u32, slot), digest(slot as u8));
            reference.insert((0u32, slot), digest(slot as u8));
        }
        let report = diagnose(&wire, &reference, &[0], 0..4);
        assert_eq!(report.first_divergent_slot, None);
        assert!(report.mismatches.is_empty());
        assert!(report
            .render()
            .contains("no provable per-slot disagreement"));
    }

    #[test]
    fn timelines_for_slot_extracts_matching_objects() {
        let json = "{\"node\":0,\"spans\":4,\"dropped\":0,\"evicted\":0,\"timelines\":[\
{\"slot\":2,\"origin\":0,\"prefix\":\"00ff\",\"nodes\":1,\"stitched\":false,\"spans\":[\
{\"slot\":2,\"origin\":0,\"prefix\":\"00ff\",\"node\":0,\"kind\":\"gen\",\"ts_micros\":1}]},\
{\"slot\":3,\"origin\":1,\"prefix\":\"aa00\",\"nodes\":2,\"stitched\":true,\"spans\":[]}]}";
        let hits = timelines_for_slot(json, 3);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].starts_with("{\"slot\":3,\"origin\":1"));
        assert!(hits[0].ends_with("\"spans\":[]}"));
        // Slot 2's nested span objects also carry "slot":2 — only the
        // top-level timeline may match.
        assert_eq!(timelines_for_slot(json, 2).len(), 1);
        assert_eq!(timelines_for_slot(json, 9), Vec::<String>::new());
    }

    #[test]
    fn timelines_for_slot_survives_malformed_snapshots() {
        assert!(timelines_for_slot("", 1).is_empty());
        assert!(timelines_for_slot("not json at all", 1).is_empty());
        assert!(timelines_for_slot("{\"timelines\":[", 1).is_empty());
        assert!(timelines_for_slot("{\"timelines\":[{\"slot\":1,\"origin\":0", 1).is_empty());
        // A string containing braces must not confuse the depth tracker.
        let tricky = "{\"timelines\":[{\"slot\":1,\"origin\":0,\"x\":\"}{\",\"spans\":[]}]}";
        assert_eq!(timelines_for_slot(tricky, 1).len(), 1);
    }
}
