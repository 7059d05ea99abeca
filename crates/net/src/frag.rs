//! Fragment reassembly with a bounded memory budget.
//!
//! Fragments of one message share `(sender, msg_seq)`; the [`Reassembler`]
//! collects them (in any order, tolerating duplicates) and returns the full
//! payload once every fragment arrived. Partially assembled messages whose
//! tail was lost would otherwise pin memory forever, so the buffer enforces
//! a byte budget: when exceeded, the oldest partial message is evicted (its
//! remaining fragments will be retransmitted by the request/retry layer if
//! anyone still cares).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic
    )
)]

use crate::envelope::Envelope;
use std::collections::HashMap;
use tldag_sim::NodeId;

/// One partially reassembled message.
struct Partial {
    frags: Vec<Option<Vec<u8>>>,
    received: usize,
    bytes: usize,
    /// Insertion stamp for oldest-first eviction.
    stamp: u64,
}

/// Reassembles fragmented messages under a byte budget.
#[derive(Default)]
pub struct Reassembler {
    partials: HashMap<(NodeId, u64), Partial>,
    buffered_bytes: usize,
    budget_bytes: usize,
    next_stamp: u64,
    evictions: u64,
}

impl Reassembler {
    /// Creates a reassembler that buffers at most `budget_bytes` of
    /// incomplete fragments.
    pub fn new(budget_bytes: usize) -> Self {
        Reassembler {
            budget_bytes,
            ..Reassembler::default()
        }
    }

    /// Offers one decoded fragment. Returns the complete payload when this
    /// fragment finishes its message, `None` while more are outstanding.
    /// Duplicate and inconsistent fragments are dropped silently.
    pub fn offer(&mut self, env: &Envelope, payload: &[u8]) -> Option<Vec<u8>> {
        if env.frag_count == 1 {
            return Some(payload.to_vec());
        }
        let key = (env.sender, env.msg_seq);
        let stamp = self.next_stamp;
        // The budget must price what is actually allocated, not just payload
        // bytes received: a claimed frag_count reserves a slot table up
        // front, and unaccounted it would let a flood of 1-byte fragments
        // with huge counts pin memory far past the budget.
        let slot_table_bytes = env.frag_count as usize * std::mem::size_of::<Option<Vec<u8>>>();
        let mut created = false;
        let partial = self.partials.entry(key).or_insert_with(|| {
            created = true;
            Partial {
                frags: vec![None; env.frag_count as usize],
                received: 0,
                bytes: slot_table_bytes,
                stamp,
            }
        });
        if created {
            self.buffered_bytes += slot_table_bytes;
        }
        self.next_stamp += 1;
        // LRU, not oldest-created: an actively arriving message stays.
        partial.stamp = stamp;
        if partial.frags.len() != env.frag_count as usize {
            // A sender reused a seq with a different shape; distrust both.
            if let Some(stale) = self.partials.remove(&key) {
                self.buffered_bytes -= stale.bytes;
            }
            return None;
        }
        // The envelope decoder bounds the index by the count, which is the
        // table's length here.
        let slot = partial.frags.get_mut(usize::from(env.frag_index))?;
        if slot.is_some() {
            return None; // duplicate fragment
        }
        *slot = Some(payload.to_vec());
        partial.received += 1;
        partial.bytes += payload.len();
        self.buffered_bytes += payload.len();
        if partial.received == partial.frags.len() {
            let done = self.partials.remove(&key)?;
            self.buffered_bytes -= done.bytes;
            let mut out = Vec::with_capacity(done.bytes - slot_table_bytes);
            for frag in done.frags {
                out.extend_from_slice(&frag?);
            }
            return Some(out);
        }
        self.enforce_budget();
        None
    }

    /// Evicts oldest partials until the buffer fits the budget again. The
    /// newest partial is never evicted by its own arrival, so a single
    /// message larger than the budget can still complete.
    fn enforce_budget(&mut self) {
        while self.buffered_bytes > self.budget_bytes && self.partials.len() > 1 {
            let oldest = self.partials.iter().min_by_key(|(_, p)| p.stamp);
            let Some(evicted) = oldest
                .map(|(&k, _)| k)
                .and_then(|k| self.partials.remove(&k))
            else {
                break;
            };
            self.buffered_bytes -= evicted.bytes;
            self.evictions += 1;
        }
    }

    /// Number of partial messages evicted for exceeding the budget.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes currently buffered in incomplete messages.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{decode_datagram, encode_message, Kind};

    fn frames(seq: u64, payload: &[u8], mtu: usize) -> Vec<Vec<u8>> {
        encode_message(Kind::Wire, NodeId(1), seq, 0, payload, mtu).unwrap()
    }

    fn offer(r: &mut Reassembler, frame: &[u8]) -> Option<Vec<u8>> {
        let (env, payload) = decode_datagram(frame).unwrap();
        r.offer(&env, payload)
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_reassemble() {
        let payload: Vec<u8> = (0..4000u32).map(|i| (i * 7) as u8).collect();
        let fs = frames(5, &payload, 1400);
        assert!(fs.len() >= 3);
        let mut r = Reassembler::new(1 << 20);
        assert!(offer(&mut r, &fs[2]).is_none());
        assert!(offer(&mut r, &fs[0]).is_none());
        assert!(offer(&mut r, &fs[0]).is_none(), "duplicate ignored");
        let done = offer(&mut r, &fs[1]).expect("complete");
        assert_eq!(done, payload);
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn interleaved_messages_do_not_mix() {
        let a: Vec<u8> = vec![0xaa; 3000];
        let b: Vec<u8> = vec![0xbb; 3000];
        let fa = frames(1, &a, 1400);
        let fb = frames(2, &b, 1400);
        let mut r = Reassembler::new(1 << 20);
        assert!(offer(&mut r, &fa[0]).is_none());
        assert!(offer(&mut r, &fb[0]).is_none());
        assert!(offer(&mut r, &fb[1]).is_none());
        assert_eq!(offer(&mut r, &fb[2]).expect("b done"), b);
        assert!(offer(&mut r, &fa[1]).is_none());
        assert_eq!(offer(&mut r, &fa[2]).expect("a done"), a);
    }

    #[test]
    fn huge_claimed_frag_counts_cannot_pin_memory_past_the_budget() {
        // 1-byte fragments claiming the maximum fragment count: the slot
        // table each one allocates must be priced into the budget, so the
        // flood evicts instead of accumulating.
        let mut r = Reassembler::new(1 << 20);
        for seq in 0..100u64 {
            let env = Envelope {
                kind: Kind::Wire,
                sender: NodeId(1),
                msg_seq: seq,
                req_id: 0,
                frag_index: 0,
                frag_count: u16::MAX,
                trace: None,
            };
            assert!(r.offer(&env, &[0u8]).is_none());
        }
        let per_partial = u16::MAX as usize * std::mem::size_of::<Option<Vec<u8>>>();
        assert!(
            r.buffered_bytes() <= (1 << 20) + per_partial,
            "buffered {} must stay near the budget",
            r.buffered_bytes()
        );
        assert!(r.evictions() >= 90, "the flood must be evicted, not stored");
    }

    #[test]
    fn budget_evicts_oldest_partial_but_never_the_newest() {
        let big: Vec<u8> = vec![1; 3000];
        let fs1 = frames(1, &big, 1400);
        let fs2 = frames(2, &big, 1400);
        // Budget holds roughly one partial message.
        let mut r = Reassembler::new(2000);
        assert!(offer(&mut r, &fs1[0]).is_none());
        assert!(offer(&mut r, &fs1[1]).is_none());
        assert_eq!(r.evictions(), 0, "a lone partial may exceed the budget");
        // A second partial pushes past the budget; the older one is evicted.
        assert!(offer(&mut r, &fs2[0]).is_none());
        assert_eq!(r.evictions(), 1);
        // The survivor still completes.
        assert!(offer(&mut r, &fs2[1]).is_none());
        assert_eq!(offer(&mut r, &fs2[2]).expect("survivor completes"), big);
    }
}
