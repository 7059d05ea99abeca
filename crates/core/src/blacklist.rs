//! Blacklist penalty mechanism for selfish/unresponsive peers (Sec. IV-D.6).
//!
//! *"Each node maintains a blacklist consisting of nodes that do not reply to
//! a REQ_CHILD message, either due to selfish behavior, disconnection or
//! malicious intent. [...] The nodes in the blacklist will be removed after
//! it helps transmit a certain number of blocks."*
//!
//! A peer is banned after `ban_after_failures` consecutive failures and
//! paroled after delivering `parole_after_services` valid digests (its way of
//! "helping transmit blocks" again).

use crate::config::BlacklistConfig;
use std::collections::HashMap;
use tldag_sim::NodeId;

#[derive(Clone, Copy, Debug, Default)]
struct PeerRecord {
    consecutive_failures: u32,
    services_while_banned: u32,
    banned: bool,
}

/// Per-node blacklist state.
#[derive(Clone, Debug)]
pub struct Blacklist {
    config: BlacklistConfig,
    peers: HashMap<NodeId, PeerRecord>,
}

impl Blacklist {
    /// Creates an empty blacklist with the given policy.
    pub fn new(config: BlacklistConfig) -> Self {
        Blacklist {
            config,
            peers: HashMap::new(),
        }
    }

    /// Whether `peer` is currently banned.
    pub fn is_banned(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|r| r.banned)
    }

    /// Records a failed interaction (timeout or invalid `RPY_CHILD`).
    pub fn record_failure(&mut self, peer: NodeId) {
        let record = self.peers.entry(peer).or_default();
        record.consecutive_failures += 1;
        if record.consecutive_failures >= self.config.ban_after_failures {
            if !record.banned {
                record.services_while_banned = 0;
            }
            record.banned = true;
        }
    }

    /// Records a successful protocol interaction (valid reply), clearing the
    /// failure streak.
    pub(crate) fn record_success(&mut self, peer: NodeId) {
        if let Some(record) = self.peers.get_mut(&peer) {
            record.consecutive_failures = 0;
        }
    }

    /// Records that `peer` helped transmit a block (delivered a valid
    /// digest). Banned peers accumulate parole credit and are released once
    /// they reach the configured service count.
    pub(crate) fn record_service(&mut self, peer: NodeId) {
        if let Some(record) = self.peers.get_mut(&peer) {
            if record.banned {
                record.services_while_banned += 1;
                if record.services_while_banned >= self.config.parole_after_services {
                    record.banned = false;
                    record.consecutive_failures = 0;
                    record.services_while_banned = 0;
                }
            }
        }
    }

    /// Number of currently banned peers.
    pub fn banned_count(&self) -> usize {
        self.peers.values().filter(|r| r.banned).count()
    }
}

#[cfg(test)]
impl Blacklist {
    /// Ids of all currently banned peers.
    pub(crate) fn banned_peers(&self) -> Vec<NodeId> {
        let mut banned: Vec<NodeId> = self
            .peers
            .iter()
            .filter_map(|(&id, r)| r.banned.then_some(id))
            .collect();
        banned.sort_unstable();
        banned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(ban_after: u32, parole_after: u32) -> BlacklistConfig {
        BlacklistConfig {
            ban_after_failures: ban_after,
            parole_after_services: parole_after,
        }
    }

    #[test]
    fn bans_after_threshold() {
        let mut bl = Blacklist::new(policy(2, 4));
        let peer = NodeId(1);
        bl.record_failure(peer);
        assert!(!bl.is_banned(peer));
        bl.record_failure(peer);
        assert!(bl.is_banned(peer));
        assert_eq!(bl.banned_peers(), vec![peer]);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut bl = Blacklist::new(policy(2, 4));
        let peer = NodeId(2);
        bl.record_failure(peer);
        bl.record_success(peer);
        bl.record_failure(peer);
        assert!(!bl.is_banned(peer), "streak was broken");
    }

    #[test]
    fn parole_after_services() {
        let mut bl = Blacklist::new(policy(1, 3));
        let peer = NodeId(3);
        bl.record_failure(peer);
        assert!(bl.is_banned(peer));
        bl.record_service(peer);
        bl.record_service(peer);
        assert!(bl.is_banned(peer), "needs 3 services");
        bl.record_service(peer);
        assert!(!bl.is_banned(peer), "paroled");
        assert_eq!(bl.banned_count(), 0);
    }

    #[test]
    fn services_only_count_while_banned() {
        let mut bl = Blacklist::new(policy(1, 2));
        let peer = NodeId(4);
        bl.record_service(peer); // not tracked yet, no-op
        bl.record_failure(peer);
        assert!(bl.is_banned(peer));
        bl.record_service(peer);
        bl.record_service(peer);
        assert!(!bl.is_banned(peer));
    }

    #[test]
    fn reban_after_parole_requires_fresh_services() {
        let mut bl = Blacklist::new(policy(1, 1));
        let peer = NodeId(5);
        bl.record_failure(peer);
        bl.record_service(peer);
        assert!(!bl.is_banned(peer));
        bl.record_failure(peer);
        assert!(bl.is_banned(peer));
        bl.record_service(peer);
        assert!(!bl.is_banned(peer));
    }

    #[test]
    fn independent_peers() {
        let mut bl = Blacklist::new(policy(1, 1));
        bl.record_failure(NodeId(1));
        assert!(bl.is_banned(NodeId(1)));
        assert!(!bl.is_banned(NodeId(2)));
        assert_eq!(bl.banned_count(), 1);
    }
}
