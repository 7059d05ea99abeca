//! Transport observability: atomic counters for everything the wire does.
//!
//! Every datagram fate is counted — including the drops the protocol never
//! sees (CRC failures, version skew, unknown codec tags) — so packet loss,
//! version mismatches, and retry pressure are visible in metrics instead of
//! silently degrading PoP latency.

use std::sync::atomic::{AtomicU64, Ordering};

tldag_obs::counters! {
    /// Live transport counters, shared between the receiver thread and
    /// request callers. All updates are `Relaxed`: these are statistics,
    /// not synchronization.
    live NetMetrics;
    /// A point-in-time copy of [`NetMetrics`], for reports and JSON output.
    pub struct NetStats {
        /// Datagrams handed to the transport.
        datagrams_sent: u64,
        /// Datagrams received from the transport.
        datagrams_received: u64,
        /// Bytes handed to the transport.
        bytes_sent: u64,
        /// Bytes received from the transport.
        bytes_received: u64,
        /// Datagrams dropped for a checksum mismatch.
        crc_drops: u64,
        /// Datagrams dropped for framing violations (magic, kind, lengths).
        malformed_drops: u64,
        /// Datagrams dropped for an unsupported protocol version.
        version_drops: u64,
        /// Well-framed messages dropped because the codec tag is unknown —
        /// the version-skew signal (`CodecError::UnknownTag`).
        unknown_tag_drops: u64,
        /// Well-framed messages whose codec payload failed to decode.
        codec_error_drops: u64,
        /// Multi-fragment messages fully reassembled.
        messages_reassembled: u64,
        /// Partial messages evicted under the reassembly budget.
        reassembly_evictions: u64,
        /// Requests initiated.
        requests_sent: u64,
        /// Request retransmissions after a timed-out attempt.
        request_retries: u64,
        /// Replies delivered to a waiting request (counted on the requester's
        /// side of the handoff).
        replies_matched: u64,
        /// Replies that arrived after their request gave up (late or duplicate).
        replies_unmatched: u64,
        /// Requests that exhausted their retry budget without a reply.
        request_timeouts: u64,
        /// Join handshakes served (roster transfers to prospective members).
        joins_served: u64,
        /// Membership deltas learned and re-gossiped (join announcements and
        /// leave/eviction notices that carried news).
        membership_gossip: u64,
        /// Peers evicted for liveness (heard once, then silent past the
        /// eviction window while blocking a barrier).
        evictions: u64,
        /// Receiver event-loop wakeups (batched receive calls), productive or
        /// not.
        recv_wakeups: u64,
        /// Wakeups whose parked receive timed out with no traffic — the
        /// idle-churn signal (a parked loop stays near its timeout cadence; a
        /// spinning loop sends this counter through the roof).
        idle_wakeups: u64,
        /// Batched send calls handed to the transport (each covering one or
        /// more datagrams).
        send_batches: u64,
        /// Conflicting `SlotDigest`s detected: a peer advertised two distinct
        /// digests for the same slot (equivocation / digest lies / parasite
        /// re-advertisement). Each conflict discards the stored digest.
        digest_conflicts: u64,
        /// `DigestReq` pulls issued to resolve a detected digest conflict
        /// directly from the advertising peer's canonical chain.
        conflict_pulls: u64,
        /// Rejoin announcements rejected because the peer had already been
        /// evicted for flapping membership this run.
        flap_rejections: u64,
    }
}

impl NetMetrics {
    /// Bumps `counter` by one.
    pub(crate) fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps `counter` by `n`.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = NetMetrics::default();
        NetMetrics::inc(&m.datagrams_sent);
        NetMetrics::add(&m.bytes_sent, 100);
        let s = m.snapshot();
        assert_eq!(s.datagrams_sent, 1);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.request_timeouts, 0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut value = 0;
        let stats = NetStats::try_from_values(|| {
            value += 1;
            Ok::<u64, ()>(value)
        })
        .expect("infallible");
        let mut doubled = stats;
        doubled.merge(&stats);
        for ((name, once), (_, twice)) in stats.fields().into_iter().zip(doubled.fields()) {
            assert_eq!(twice, 2 * once, "merge skipped {name}");
        }
    }
}
