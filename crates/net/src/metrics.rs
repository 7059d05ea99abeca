//! Transport observability: atomic counters for everything the wire does.
//!
//! Every datagram fate is counted — including the drops the protocol never
//! sees (CRC failures, version skew, unknown codec tags) — so packet loss,
//! version mismatches, and retry pressure are visible in metrics instead of
//! silently degrading PoP latency.

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! net_metrics {
    ($(#[$sdoc:meta])* snapshot $snap:ident; $($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Live transport counters, shared between the receiver thread and
        /// request callers. All updates are `Relaxed`: these are statistics,
        /// not synchronization.
        #[derive(Debug, Default)]
        pub struct NetMetrics {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        $(#[$sdoc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl NetMetrics {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl $snap {
            /// Every counter as `(name, value)` pairs, in declaration
            /// order, for metric exposition and JSON output.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }

            /// Rebuilds a snapshot by pulling one value per counter in the
            /// same declaration order as [`Self::fields`] (wire decoding).
            ///
            /// # Errors
            ///
            /// The first error `next` returns.
            pub fn try_from_values<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<Self, E> {
                Ok($snap {
                    $($field: next()?,)+
                })
            }

            /// Folds another snapshot into this one field-by-field
            /// (aggregating a cluster's nodes).
            pub fn merge(&mut self, other: &$snap) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

net_metrics! {
    /// A point-in-time copy of [`NetMetrics`], for reports and JSON output.
    snapshot NetStats;
    /// Datagrams handed to the transport.
    datagrams_sent,
    /// Datagrams received from the transport.
    datagrams_received,
    /// Bytes handed to the transport.
    bytes_sent,
    /// Bytes received from the transport.
    bytes_received,
    /// Datagrams dropped for a checksum mismatch.
    crc_drops,
    /// Datagrams dropped for framing violations (magic, kind, lengths).
    malformed_drops,
    /// Datagrams dropped for an unsupported protocol version.
    version_drops,
    /// Well-framed messages dropped because the codec tag is unknown —
    /// the version-skew signal (`CodecError::UnknownTag`).
    unknown_tag_drops,
    /// Well-framed messages whose codec payload failed to decode.
    codec_error_drops,
    /// Multi-fragment messages fully reassembled.
    messages_reassembled,
    /// Partial messages evicted under the reassembly budget.
    reassembly_evictions,
    /// Requests initiated.
    requests_sent,
    /// Request retransmissions after a timed-out attempt.
    request_retries,
    /// Replies delivered to a waiting request (counted on the requester's
    /// side of the handoff).
    replies_matched,
    /// Replies that arrived after their request gave up (late or duplicate).
    replies_unmatched,
    /// Requests that exhausted their retry budget without a reply.
    request_timeouts,
    /// Join handshakes served (roster transfers to prospective members).
    joins_served,
    /// Membership deltas learned and re-gossiped (join announcements and
    /// leave/eviction notices that carried news).
    membership_gossip,
    /// Peers evicted for liveness (heard once, then silent past the
    /// eviction window while blocking a barrier).
    evictions,
    /// Receiver event-loop wakeups (batched receive calls), productive or
    /// not.
    recv_wakeups,
    /// Wakeups whose parked receive timed out with no traffic — the
    /// idle-churn signal (a parked loop stays near its timeout cadence; a
    /// spinning loop sends this counter through the roof).
    idle_wakeups,
    /// Batched send calls handed to the transport (each covering one or
    /// more datagrams).
    send_batches,
    /// Conflicting `SlotDigest`s detected: a peer advertised two distinct
    /// digests for the same slot (equivocation / digest lies / parasite
    /// re-advertisement). Each conflict discards the stored digest.
    digest_conflicts,
    /// `DigestReq` pulls issued to resolve a detected digest conflict
    /// directly from the advertising peer's canonical chain.
    conflict_pulls,
    /// Rejoin announcements rejected because the peer had already been
    /// evicted for flapping membership this run.
    flap_rejections,
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

    /// Counts a join handshake served.
    pub fn bump_joins_served(&self) {
        Self::inc(&self.joins_served);
    }

    /// Counts a membership delta learned and re-gossiped.
    pub fn bump_membership_gossip(&self) {
        Self::inc(&self.membership_gossip);
    }

    /// Counts a liveness eviction.
    pub fn bump_evictions(&self) {
        Self::inc(&self.evictions);
    }

    /// Counts a detected `SlotDigest` conflict.
    pub fn bump_digest_conflicts(&self) {
        Self::inc(&self.digest_conflicts);
    }

    /// Counts a conflict-resolving `DigestReq` pull.
    pub fn bump_conflict_pulls(&self) {
        Self::inc(&self.conflict_pulls);
    }

    /// Counts a rejected rejoin flap.
    pub fn bump_flap_rejections(&self) {
        Self::inc(&self.flap_rejections);
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
