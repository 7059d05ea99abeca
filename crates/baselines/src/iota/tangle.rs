//! The Tangle: IOTA's transaction DAG.
//!
//! Every transaction approves `k` (normally two) previous transactions; a
//! **tip** is a transaction with no approvers yet. Every node stores the
//! entire tangle — the very property whose cost Fig. 7 measures.

use std::collections::HashSet;
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, NodeId};

/// Index of a transaction within the tangle (0 = genesis).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxId(pub u32);

impl TxId {
    /// The genesis transaction id.
    pub(crate) const GENESIS: TxId = TxId(0);

    /// Index into the tangle's transaction list.
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// This transaction's id.
    pub(crate) id: TxId,
    /// Node that issued it.
    pub(crate) issuer: NodeId,
    /// Slot in which it was issued.
    pub(crate) slot: Slot,
    /// Approved transactions (empty only for genesis).
    pub(crate) parents: Vec<TxId>,
    /// Wire/storage size.
    pub(crate) bits: Bits,
}

/// The append-only tangle.
#[derive(Clone, Debug)]
pub struct Tangle {
    txs: Vec<Transaction>,
    /// children[i] = approvers of transaction i.
    children: Vec<Vec<TxId>>,
    tips: HashSet<TxId>,
}

impl Tangle {
    /// Creates a tangle containing only the genesis transaction.
    pub fn new(genesis_bits: Bits) -> Self {
        let genesis = Transaction {
            id: TxId::GENESIS,
            issuer: NodeId(0),
            slot: 0,
            parents: Vec::new(),
            bits: genesis_bits,
        };
        Tangle {
            txs: vec![genesis],
            children: vec![Vec::new()],
            tips: [TxId::GENESIS].into(),
        }
    }

    /// Number of transactions including genesis.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True only before genesis exists (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Current tips (no approvers), in ascending id order.
    pub(crate) fn tips(&self) -> Vec<TxId> {
        let mut tips: Vec<TxId> = self.tips.iter().copied().collect();
        tips.sort_unstable();
        tips
    }

    /// Direct approvers of `id`.
    pub(crate) fn children(&self, id: TxId) -> &[TxId] {
        &self.children[id.index()]
    }

    /// Appends a transaction approving `parents`.
    ///
    /// # Panics
    ///
    /// Panics if `parents` is empty or references an unknown transaction —
    /// issuers select tips from their (full) local tangle copy, so a
    /// dangling approval is a programming error in the simulation.
    pub fn attach(&mut self, issuer: NodeId, slot: Slot, parents: Vec<TxId>, bits: Bits) -> TxId {
        assert!(!parents.is_empty(), "a transaction must approve parents");
        for p in &parents {
            assert!(p.index() < self.txs.len(), "unknown parent {p:?}");
        }
        let id = TxId(self.txs.len() as u32);
        for p in &parents {
            self.children[p.index()].push(id);
            self.tips.remove(p);
        }
        self.tips.insert(id);
        self.children.push(Vec::new());
        self.txs.push(Transaction {
            id,
            issuer,
            slot,
            parents,
            bits,
        });
        id
    }

    /// Total storage of the full tangle (what **every** IOTA node keeps).
    pub(crate) fn total_bits(&self) -> Bits {
        self.txs.iter().map(|t| t.bits).sum()
    }

    /// Cumulative weights (1 + descendant count) for every transaction,
    /// computed by the standard DP approximation over the reverse topological
    /// order (append order is topological). Diamond shapes are over-counted,
    /// as in common IOTA implementations.
    pub(crate) fn cumulative_weights_approx(&self) -> Vec<u64> {
        let mut w = vec![1u64; self.txs.len()];
        for i in (0..self.txs.len()).rev() {
            for child in &self.children[i] {
                w[i] = w[i].saturating_add(w[child.index()]);
            }
        }
        w
    }

    /// Whether every non-genesis transaction transitively approves genesis
    /// (tangle consistency invariant).
    pub fn all_reach_genesis(&self) -> bool {
        self.txs.iter().skip(1).all(|tx| {
            let mut stack = tx.parents.clone();
            let mut seen = HashSet::new();
            while let Some(p) = stack.pop() {
                if p == TxId::GENESIS {
                    return true;
                }
                if seen.insert(p) {
                    stack.extend(self.txs[p.index()].parents.iter().copied());
                }
            }
            false
        })
    }
}

#[cfg(test)]
impl Tangle {
    /// Exact number of transactions that directly or transitively approve
    /// `id` (its descendant count), via BFS.
    fn descendant_count(&self, id: TxId) -> usize {
        let mut seen = HashSet::new();
        let mut queue = vec![id];
        while let Some(cur) = queue.pop() {
            for &child in self.children(cur) {
                if seen.insert(child) {
                    queue.push(child);
                }
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits() -> Bits {
        Bits::from_bytes(100)
    }

    #[test]
    fn genesis_is_initial_tip() {
        let tangle = Tangle::new(bits());
        assert_eq!(tangle.len(), 1);
        assert_eq!(tangle.tips(), vec![TxId::GENESIS]);
    }

    #[test]
    fn attach_replaces_tips() {
        let mut tangle = Tangle::new(bits());
        let a = tangle.attach(NodeId(1), 1, vec![TxId::GENESIS], bits());
        assert_eq!(tangle.tips(), vec![a]);
        let b = tangle.attach(NodeId(2), 1, vec![TxId::GENESIS], bits());
        // Genesis already had an approver; b approves it again.
        let mut tips = tangle.tips();
        tips.sort_unstable();
        assert_eq!(tips, vec![a, b]);
    }

    #[test]
    fn attach_two_parents_clears_both() {
        let mut tangle = Tangle::new(bits());
        let a = tangle.attach(NodeId(1), 1, vec![TxId::GENESIS], bits());
        let b = tangle.attach(NodeId(2), 1, vec![TxId::GENESIS], bits());
        let c = tangle.attach(NodeId(3), 2, vec![a, b], bits());
        assert_eq!(tangle.tips(), vec![c]);
        assert_eq!(tangle.children(a), &[c]);
        assert_eq!(tangle.children(b), &[c]);
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn dangling_parent_rejected() {
        let mut tangle = Tangle::new(bits());
        tangle.attach(NodeId(1), 1, vec![TxId(99)], bits());
    }

    #[test]
    #[should_panic(expected = "must approve parents")]
    fn empty_parents_rejected() {
        let mut tangle = Tangle::new(bits());
        tangle.attach(NodeId(1), 1, vec![], bits());
    }

    #[test]
    fn total_bits_accumulates() {
        let mut tangle = Tangle::new(bits());
        tangle.attach(NodeId(1), 1, vec![TxId::GENESIS], bits());
        assert_eq!(tangle.total_bits(), bits() * 2);
    }

    #[test]
    fn descendant_count_is_exact_on_diamond() {
        let mut tangle = Tangle::new(bits());
        let a = tangle.attach(NodeId(1), 1, vec![TxId::GENESIS], bits());
        let b = tangle.attach(NodeId(2), 1, vec![TxId::GENESIS], bits());
        let c = tangle.attach(NodeId(3), 2, vec![a, b], bits());
        // Genesis is approved by a, b, c — exactly 3 descendants.
        assert_eq!(tangle.descendant_count(TxId::GENESIS), 3);
        assert_eq!(tangle.descendant_count(c), 0);
        // The DP approximation double-counts c through the diamond.
        let w = tangle.cumulative_weights_approx();
        assert_eq!(w[TxId::GENESIS.index()], 5); // 1 + (1+1) + (1+1)
    }

    #[test]
    fn all_reach_genesis_invariant() {
        let mut tangle = Tangle::new(bits());
        let mut prev = TxId::GENESIS;
        for i in 0..10 {
            prev = tangle.attach(NodeId(i % 3), u64::from(i), vec![prev], bits());
        }
        assert!(tangle.all_reach_genesis());
    }
}
