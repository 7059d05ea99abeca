//! The peer table: addressing plus liveness tracking under churn.
//!
//! Deployments bootstrap from a static peer list (`id@host:port`,
//! mirroring the paper's registration-time provisioning of identities),
//! but the table is **dynamic**: the membership control plane inserts
//! late joiners as their announcements arrive and forgets leavers and
//! evicted peers. Liveness is tracked per peer from any
//! authenticated-by-CRC envelope that arrives, so the runtime can
//! distinguish "never heard from" from "went quiet" when a request times
//! out — the signal behind liveness-based eviction of silent departures.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};
use tldag_sim::NodeId;

/// Address book + liveness for a node's peers.
#[derive(Debug)]
pub struct PeerTable {
    addrs: RwLock<BTreeMap<NodeId, SocketAddr>>,
    last_heard: Mutex<HashMap<NodeId, Instant>>,
}

impl PeerTable {
    /// Builds a table from static `(id, addr)` bootstrap entries.
    pub fn new(entries: impl IntoIterator<Item = (NodeId, SocketAddr)>) -> Self {
        PeerTable {
            addrs: RwLock::new(entries.into_iter().collect()),
            last_heard: Mutex::new(HashMap::new()),
        }
    }

    /// The address of `peer`, if known.
    pub fn addr(&self, peer: NodeId) -> Option<SocketAddr> {
        self.addrs
            .read()
            .expect("peer table poisoned")
            .get(&peer)
            .copied()
    }

    /// All known peer ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.addrs
            .read()
            .expect("peer table poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.addrs.read().expect("peer table poisoned").len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.read().expect("peer table poisoned").is_empty()
    }

    /// Registers (or re-addresses) a peer — a join, or a re-join of a
    /// previously evicted id. Returns `true` when the entry changed.
    pub fn insert(&self, peer: NodeId, addr: SocketAddr) -> bool {
        self.addrs
            .write()
            .expect("peer table poisoned")
            .insert(peer, addr)
            != Some(addr)
    }

    /// Forgets a peer entirely: address *and* liveness history, so a
    /// re-joining id starts from a clean slate instead of inheriting the
    /// old incarnation's last-heard timestamp.
    pub fn forget(&self, peer: NodeId) {
        self.addrs
            .write()
            .expect("peer table poisoned")
            .remove(&peer);
        self.last_heard
            .lock()
            .expect("peer liveness poisoned")
            .remove(&peer);
    }

    /// Records that a valid envelope from `peer` just arrived.
    pub fn mark_heard(&self, peer: NodeId) {
        self.last_heard
            .lock()
            .expect("peer liveness poisoned")
            .insert(peer, Instant::now());
    }

    /// When `peer` was last heard from, if ever.
    pub fn last_heard(&self, peer: NodeId) -> Option<Instant> {
        self.last_heard
            .lock()
            .expect("peer liveness poisoned")
            .get(&peer)
            .copied()
    }

    /// Whether `peer` was heard from once but has now been silent longer
    /// than `window` — the eviction predicate. A peer that was *never*
    /// heard from is a bootstrap straggler, not an eviction candidate;
    /// see [`PeerTable::silent_peers`].
    pub fn gone_quiet(&self, peer: NodeId, window: Duration) -> bool {
        self.last_heard(peer)
            .is_some_and(|at| at.elapsed() > window)
    }

    /// Peers never heard from at all (bootstrap stragglers).
    pub fn silent_peers(&self) -> Vec<NodeId> {
        let heard = self.last_heard.lock().expect("peer liveness poisoned");
        self.addrs
            .read()
            .expect("peer table poisoned")
            .keys()
            .filter(|id| !heard.contains_key(id))
            .copied()
            .collect()
    }
}

/// Parses a `0@127.0.0.1:9000,2@127.0.0.1:9002` peer list.
///
/// # Errors
///
/// A human-readable message naming the offending entry.
pub fn parse_peer_list(raw: &str) -> Result<Vec<(NodeId, SocketAddr)>, String> {
    let mut out = Vec::new();
    for entry in raw.split(',').filter(|e| !e.is_empty()) {
        let (id_raw, addr_raw) = entry
            .split_once('@')
            .ok_or_else(|| format!("peer `{entry}` is not id@host:port"))?;
        let id: u32 = id_raw
            .parse()
            .map_err(|_| format!("peer `{entry}` has a non-numeric id"))?;
        let addr: SocketAddr = addr_raw
            .parse()
            .map_err(|_| format!("peer `{entry}` has an invalid address"))?;
        out.push((NodeId(id), addr));
    }
    Ok(out)
}

/// Renders peers back into the `id@addr,...` form accepted by
/// [`parse_peer_list`] (the harness hands this to spawned node processes).
pub fn format_peer_list(peers: &[(NodeId, SocketAddr)]) -> String {
    peers
        .iter()
        .map(|(id, addr)| format!("{}@{addr}", id.0))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_format_round_trip() {
        let raw = "0@127.0.0.1:9000,2@127.0.0.1:9002";
        let peers = parse_peer_list(raw).unwrap();
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].0, NodeId(0));
        assert_eq!(format_peer_list(&peers), raw);
    }

    #[test]
    fn malformed_entries_are_named() {
        assert!(parse_peer_list("nope").unwrap_err().contains("nope"));
        assert!(parse_peer_list("x@127.0.0.1:1").is_err());
        assert!(parse_peer_list("1@not-an-addr").is_err());
        assert!(parse_peer_list("").unwrap().is_empty());
    }

    #[test]
    fn insert_and_forget_track_churn() {
        let a: SocketAddr = "127.0.0.1:9001".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:9002".parse().unwrap();
        let table = PeerTable::new([(NodeId(0), a)]);
        assert!(table.insert(NodeId(5), b), "new peer is a change");
        assert!(!table.insert(NodeId(5), b), "same addr is idempotent");
        assert_eq!(table.ids(), vec![NodeId(0), NodeId(5)]);
        table.mark_heard(NodeId(5));
        table.forget(NodeId(5));
        assert_eq!(table.addr(NodeId(5)), None);
        assert!(
            table.last_heard(NodeId(5)).is_none(),
            "a re-join must not inherit the evicted incarnation's liveness"
        );
        // Re-join on a different port re-addresses the id.
        assert!(table.insert(NodeId(5), a));
        assert_eq!(table.addr(NodeId(5)), Some(a));
    }

    #[test]
    fn gone_quiet_distinguishes_silence_from_never_heard() {
        let a: SocketAddr = "127.0.0.1:9001".parse().unwrap();
        let table = PeerTable::new([(NodeId(1), a)]);
        // Never heard: a bootstrap straggler, not an eviction candidate.
        assert!(!table.gone_quiet(NodeId(1), Duration::from_millis(0)));
        table.mark_heard(NodeId(1));
        assert!(!table.gone_quiet(NodeId(1), Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(table.gone_quiet(NodeId(1), Duration::from_millis(1)));
    }

    #[test]
    fn liveness_tracks_heard_peers() {
        let a: SocketAddr = "127.0.0.1:9001".parse().unwrap();
        let table = PeerTable::new([(NodeId(1), a), (NodeId(2), a)]);
        assert_eq!(table.silent_peers(), vec![NodeId(1), NodeId(2)]);
        assert!(table.last_heard(NodeId(1)).is_none());
        table.mark_heard(NodeId(1));
        assert!(table.last_heard(NodeId(1)).is_some());
        assert!(!table.gone_quiet(NodeId(1), Duration::from_secs(60)));
        assert_eq!(table.silent_peers(), vec![NodeId(2)]);
        assert!(table.last_heard(NodeId(2)).is_none());
    }
}
