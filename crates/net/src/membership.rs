//! Dynamic membership: the roster, churn schedules, and join placement.
//!
//! The paper's Sec. VII names dynamic membership — IoT nodes joining and
//! leaving mid-run — as the operating condition a deployed ledger must
//! treat as normal, and the in-memory engine already models it
//! (`TldagNetwork::node_joins` / `node_leaves`). This module is the wire
//! half: a [`Roster`] every process keeps in sync through scheduled churn
//! specs and/or gossiped membership deltas, so that barriers, gossip
//! fan-out, and PoP candidate enumeration all agree on *who is a protocol
//! participant at which slot*.
//!
//! Membership changes take effect at **slot boundaries**: a node that
//! joins at slot `s` generates its first block (an empty-reference genesis
//! of its own chain) at `s`; a node that leaves at slot `m` generated its
//! last block at `m - 1` and its last digest is dropped from every former
//! neighbor's `A_i` before they generate at `m` — exactly the engine's
//! `node_joins` / `node_leaves` semantics, which is what makes wire/engine
//! `network_digest` parity under churn checkable at all.
//!
//! Join *placement* is deterministic: `join_site` derives the newcomer's
//! coordinates from the joiner's `(seed, slot, id)` membership stream,
//! anchored within radio range of a live member — every process (and the
//! reference engine) computes the same radio links without ever shipping
//! coordinates over the wire.
//!
//! The roster is also the node's one address book and liveness record:
//! every valid envelope marks its sender heard, which tells "never heard
//! from" apart from "went quiet" — the signal behind liveness eviction.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tldag_core::network::{derived_rng, stream};
use tldag_sim::geometry::Point;
use tldag_sim::{NodeId, Topology};

/// One member's lifecycle entry in the [`Roster`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Member {
    /// Where the member's endpoint listens, once known. Scheduled joiners
    /// appear in the roster before their announcement delivers the address.
    pub(crate) addr: Option<SocketAddr>,
    /// First slot the member generates in (0 for founders).
    pub(crate) join_slot: u64,
    /// First slot the member no longer generates in, if it left.
    pub(crate) leave_slot: Option<u64>,
    /// Whether the departure was a liveness eviction rather than a
    /// graceful/scheduled leave (evicted members may re-join).
    pub(crate) evicted: bool,
    /// What this process has heard from the member lately.
    pub(crate) liveness: Liveness,
}

impl Member {
    fn new(addr: Option<SocketAddr>, join_slot: u64) -> Self {
        Member {
            addr,
            join_slot,
            leave_slot: None,
            evicted: false,
            liveness: Liveness::Unheard,
        }
    }

    /// Where requests to the member go (PoP, digest pulls, hellos): its
    /// address, unless this process cut it off by eviction. A graceful
    /// leaver stays addressable — it keeps serving.
    pub(crate) fn request_addr(&self) -> Option<SocketAddr> {
        self.addr.filter(|_| self.liveness != Liveness::Cut)
    }

    /// Writes the member's address; a member cut off by eviction becomes
    /// addressable again, from a clean liveness slate.
    fn readdress(&mut self, addr: SocketAddr) {
        self.addr = Some(addr);
        if self.liveness == Liveness::Cut {
            self.liveness = Liveness::Unheard;
        }
    }
}

/// A member's liveness as one process sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Liveness {
    /// No authenticated envelope arrived yet: a bootstrap straggler, never
    /// an eviction candidate.
    Unheard,
    /// The last authenticated envelope arrived at this instant.
    Heard(Instant),
    /// Evicted by this process for silence: the address is kept (the
    /// evictee is still sent its `Leave`), but no request goes to it until
    /// it is re-addressed.
    Cut,
}

/// The membership view of one deployment: every id that ever participated,
/// with its join/leave slots and addressing.
///
/// All processes converge on the same roster through two channels:
/// a shared churn schedule (`--churn`, deterministic) and gossiped
/// membership deltas (`crate::control::Control::JoinAnnounce` /
/// `crate::control::Control::Leave`, dynamic).
#[derive(Clone, Debug, Default)]
pub struct Roster {
    members: BTreeMap<NodeId, Member>,
}

impl Roster {
    /// A roster of `founders` nodes present from slot 0, addresses unknown.
    pub fn founders(founders: usize) -> Self {
        let members = (0..founders as u32)
            .map(|id| (NodeId(id), Member::new(None, 0)))
            .collect();
        Roster { members }
    }

    /// The founders plus every join and leave `churn` schedules: what each
    /// process of a deployment knows before it starts.
    pub(crate) fn scheduled(founders: usize, churn: &[ChurnEvent]) -> Self {
        let mut roster = Roster::founders(founders);
        for event in churn {
            match *event {
                ChurnEvent::Join { id, slot } => roster.learn_join(id, None, slot),
                ChurnEvent::Leave { id, slot } => roster.learn_leave(id, slot),
            };
        }
        roster
    }

    /// Records a member's endpoint address.
    pub fn set_addr(&mut self, id: NodeId, addr: SocketAddr) {
        if let Some(m) = self.members.get_mut(&id) {
            m.readdress(addr);
        }
    }

    /// Where requests to `id` go (`Member::request_addr`), if anywhere.
    pub fn request_addr(&self, id: NodeId) -> Option<SocketAddr> {
        self.members.get(&id).and_then(Member::request_addr)
    }

    /// Records that an authenticated envelope from `id` just arrived from
    /// `src` (`None` for protocol traffic, which never re-addresses). A
    /// member with no request address is first addressed at `src` — a
    /// scheduled joiner whose announcement was missed, or an evictee back
    /// from a clean slate. Ids outside the roster are ignored.
    pub fn mark_heard(&mut self, id: NodeId, src: Option<SocketAddr>) {
        if let Some(m) = self.members.get_mut(&id) {
            if let Some(src) = src.filter(|_| m.request_addr().is_none()) {
                m.readdress(src);
            }
            if m.request_addr().is_some() {
                m.liveness = Liveness::Heard(Instant::now());
            }
        }
    }

    /// Whether `id` was heard from once but has now been silent longer
    /// than `window` — the eviction predicate.
    pub fn gone_quiet(&self, id: NodeId, window: Duration) -> bool {
        self.members
            .get(&id)
            .is_some_and(|m| matches!(m.liveness, Liveness::Heard(at) if at.elapsed() > window))
    }

    /// Cuts `id` off after this process evicted it: no more requests, and
    /// its liveness history is cleared. Returns the kept address, where
    /// the evictee is told of its eviction.
    pub fn cut(&mut self, id: NodeId) -> Option<SocketAddr> {
        let m = self.members.get_mut(&id)?;
        m.liveness = Liveness::Cut;
        m.addr
    }

    /// The member's entry, if it ever participated.
    pub(crate) fn member(&self, id: NodeId) -> Option<&Member> {
        self.members.get(&id)
    }

    /// One past the highest id that ever participated (ids are dense: the
    /// engine's `Topology::add_node` hands out consecutive indices).
    pub(crate) fn total_ids(&self) -> u32 {
        self.members.keys().next_back().map_or(0, |last| last.0 + 1)
    }

    /// Learns that `id` joins at `slot` (idempotent). Returns `true` when
    /// this was new information — a fresh id, a previously evicted id
    /// re-joining, or an address filled in for a scheduled join.
    pub fn learn_join(&mut self, id: NodeId, addr: Option<SocketAddr>, slot: u64) -> bool {
        match self.members.get_mut(&id) {
            None => {
                self.members.insert(id, Member::new(addr, slot));
                true
            }
            Some(m) => {
                // Re-join of an evicted id: a fresh lifecycle entry. The
                // previous incarnation's chain is gone with its process, so
                // the rejoin behaves like a brand-new join at `slot`.
                let rejoin = m.evicted && m.leave_slot.is_some_and(|l| l <= slot);
                if rejoin {
                    (m.join_slot, m.leave_slot, m.evicted) = (slot, None, false);
                }
                let new_addr = addr.is_some() && m.addr != addr;
                if let Some(a) = addr {
                    m.readdress(a);
                }
                rejoin || new_addr
            }
        }
    }

    /// Learns that `id` stops generating from `slot` on (idempotent; the
    /// earliest recorded leave wins so concurrent announcements converge).
    /// Returns `true` when this was new information.
    pub(crate) fn learn_leave(&mut self, id: NodeId, slot: u64) -> bool {
        match self.members.get_mut(&id) {
            Some(m) => match m.leave_slot {
                None => {
                    m.leave_slot = Some(slot);
                    true
                }
                Some(existing) if slot < existing => {
                    m.leave_slot = Some(slot);
                    true
                }
                Some(_) => false,
            },
            None => false,
        }
    }

    /// Evicts `id` for silence: a leave at `slot` flagged as non-graceful,
    /// so a later [`Self::learn_join`] may bring the id back.
    pub fn evict(&mut self, id: NodeId, slot: u64) -> bool {
        let changed = self.learn_leave(id, slot);
        if let Some(m) = self.members.get_mut(&id) {
            if m.leave_slot == Some(slot) {
                m.evicted = true;
            }
        }
        changed
    }

    /// Whether `id` generates a block at `slot` (member and not yet left).
    pub(crate) fn generates_at(&self, id: NodeId, slot: u64) -> bool {
        self.members
            .get(&id)
            .is_some_and(|m| m.join_slot <= slot && m.leave_slot.is_none_or(|leave| slot < leave))
    }

    /// Whether `id` has departed (left or been evicted) by `slot`.
    pub(crate) fn departed_by(&self, id: NodeId, slot: u64) -> bool {
        self.members
            .get(&id)
            .is_some_and(|m| m.leave_slot.is_some_and(|leave| leave <= slot))
    }

    /// All ids generating at `slot`, ascending.
    pub(crate) fn generators_at(&self, slot: u64) -> Vec<NodeId> {
        self.members
            .keys()
            .copied()
            .filter(|&id| self.generates_at(id, slot))
            .collect()
    }

    /// All `(id, addr)` pairs of members generating at `slot` whose address
    /// is known, excluding `me` — the gossip/barrier fan-out set.
    pub(crate) fn peer_addrs_at(&self, slot: u64, me: NodeId) -> Vec<(NodeId, SocketAddr)> {
        self.members
            .iter()
            .filter(|(&id, m)| id != me && self.generates_at(id, slot) && m.addr.is_some())
            .map(|(&id, m)| (id, m.addr.expect("filtered on addr")))
            .collect()
    }

    /// Every entry, ascending by id (the `JoinAck` roster transfer).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (NodeId, &Member)> + '_ {
        self.members.iter().map(|(&id, m)| (id, m))
    }
}

/// One scheduled membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// `id` joins (first generation) at `slot`.
    Join {
        /// The joining node.
        id: NodeId,
        /// Its first generation slot.
        slot: u64,
    },
    /// `id` leaves: its last generation was at `slot - 1`.
    Leave {
        /// The leaving node.
        id: NodeId,
        /// The first slot it no longer generates in.
        slot: u64,
    },
}

impl ChurnEvent {
    /// The slot the event takes effect at.
    pub fn slot(&self) -> u64 {
        match self {
            ChurnEvent::Join { slot, .. } | ChurnEvent::Leave { slot, .. } => *slot,
        }
    }

    /// The affected node.
    pub fn id(&self) -> NodeId {
        match self {
            ChurnEvent::Join { id, .. } | ChurnEvent::Leave { id, .. } => *id,
        }
    }
}

/// Parses a churn spec: comma-separated `join:ID@SLOT` / `leave:ID@SLOT`
/// entries, e.g. `join:4@3,leave:1@6`.
///
/// # Errors
///
/// A human-readable message naming the offending entry.
pub fn parse_churn_spec(raw: &str) -> Result<Vec<ChurnEvent>, String> {
    let mut out = Vec::new();
    for entry in raw.split(',').filter(|e| !e.is_empty()) {
        let (kind, rest) = entry
            .split_once(':')
            .ok_or_else(|| format!("churn entry `{entry}` is not kind:id@slot"))?;
        let (id_raw, slot_raw) = rest
            .split_once('@')
            .ok_or_else(|| format!("churn entry `{entry}` is not kind:id@slot"))?;
        let id: u32 = id_raw
            .parse()
            .map_err(|_| format!("churn entry `{entry}` has a non-numeric id"))?;
        let slot: u64 = slot_raw
            .parse()
            .map_err(|_| format!("churn entry `{entry}` has a non-numeric slot"))?;
        out.push(match kind {
            "join" => ChurnEvent::Join {
                id: NodeId(id),
                slot,
            },
            "leave" => ChurnEvent::Leave {
                id: NodeId(id),
                slot,
            },
            other => return Err(format!("churn entry `{entry}` has unknown kind `{other}`")),
        });
    }
    out.sort_by_key(|e| (e.slot(), matches!(e, ChurnEvent::Join { .. }), e.id().0));
    Ok(out)
}

/// Renders churn events back into the form accepted by
/// [`parse_churn_spec`] (the harness hands this to spawned processes).
pub fn format_churn_spec(events: &[ChurnEvent]) -> String {
    events
        .iter()
        .map(|e| match e {
            ChurnEvent::Join { id, slot } => format!("join:{}@{slot}", id.0),
            ChurnEvent::Leave { id, slot } => format!("leave:{}@{slot}", id.0),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Validates a churn schedule against a deployment of `founders` initial
/// nodes running `slots` slots: join ids must be consecutive from
/// `founders` in slot order (the engine's `Topology::add_node` hands out
/// the next index), every event must land inside the run, at most one
/// event per id, and a leave must name a node that is a member by then.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_churn(events: &[ChurnEvent], founders: usize, slots: u64) -> Result<(), String> {
    let mut next_join_id = founders as u32;
    let mut roster = Roster::founders(founders);
    let mut last_slot = 0u64;
    for event in events {
        if event.slot() < last_slot {
            return Err("churn events must be sorted by slot".into());
        }
        last_slot = event.slot();
        if event.slot() == 0 || event.slot() >= slots {
            return Err(format!(
                "churn event at slot {} outside 1..{slots}",
                event.slot()
            ));
        }
        match *event {
            ChurnEvent::Join { id, slot } => {
                if id.0 != next_join_id {
                    return Err(format!(
                        "join ids must be consecutive: expected {next_join_id}, got {}",
                        id.0
                    ));
                }
                next_join_id += 1;
                roster.learn_join(id, None, slot);
            }
            ChurnEvent::Leave { id, slot } => {
                if !roster.generates_at(id, slot.saturating_sub(1)) {
                    return Err(format!(
                        "leave:{}@{slot} names a node that is not a member there",
                        id.0
                    ));
                }
                roster.learn_leave(id, slot);
            }
        }
    }
    Ok(())
}

/// The deterministic join site for `joiner` entering at `slot`: a point
/// within radio range of a live anchor member, drawn from the joiner's
/// `(seed, slot, id)` membership stream. Every process — and the
/// reference engine — computes the same coordinates, so the newcomer's
/// radio links need never cross the wire.
///
/// `topology` and `roster` must reflect the deployment state with all
/// events before this join already applied (events at one slot apply
/// leaves first, then joins ascending — the canonical order).
/// `range_m` is the deployment radio range
/// ([`crate::runtime::deployment_range_m`] for the standard deployment).
pub(crate) fn join_site(
    topology: &Topology,
    roster: &Roster,
    seed: u64,
    slot: u64,
    joiner: NodeId,
    range_m: f64,
) -> Point {
    let mut rng = derived_rng(seed, stream::MEMBERSHIP, slot, joiner);
    // Anchor on a member that is still generating (alive radio): the chain
    // of custody for connectivity. Fall back to any placed node if churn
    // emptied the live set.
    let live: Vec<NodeId> = (0..topology.len() as u32)
        .map(NodeId)
        .filter(|&id| roster.generates_at(id, slot))
        .collect();
    let anchor = if live.is_empty() {
        NodeId(rng.index(topology.len()) as u32)
    } else {
        live[rng.index(live.len())]
    };
    let at = topology.position(anchor);
    // Uniform in the disk of radius 0.95 × range around the anchor: the
    // joiner is strictly within range of at least the anchor.
    let r = 0.95 * range_m * rng.unit_f64().sqrt();
    let theta = rng.unit_f64() * std::f64::consts::TAU;
    Point::new(at.x + r * theta.cos(), at.y + r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn roster_tracks_join_and_leave_windows() {
        let mut roster = Roster::founders(3);
        assert!(roster.generates_at(NodeId(0), 0));
        roster.learn_join(NodeId(3), Some(addr(9003)), 4);
        roster.learn_leave(NodeId(1), 6);
        assert!(!roster.generates_at(NodeId(3), 3));
        assert!(roster.generates_at(NodeId(3), 4));
        assert!(roster.generates_at(NodeId(1), 5));
        assert!(!roster.generates_at(NodeId(1), 6));
        assert!(roster.departed_by(NodeId(1), 6));
        assert!(!roster.departed_by(NodeId(1), 5));
        assert_eq!(roster.total_ids(), 4);
        assert_eq!(
            roster.generators_at(5),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            roster.generators_at(6),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn earliest_leave_wins_and_repeats_are_not_news() {
        let mut roster = Roster::founders(2);
        assert!(roster.learn_leave(NodeId(1), 8));
        assert!(!roster.learn_leave(NodeId(1), 9));
        assert!(roster.learn_leave(NodeId(1), 5));
        assert_eq!(roster.member(NodeId(1)).unwrap().leave_slot, Some(5));
        assert!(
            !roster.learn_join(NodeId(0), None, 0),
            "founder re-join is not news"
        );
    }

    #[test]
    fn evicted_id_can_rejoin_fresh() {
        let mut roster = Roster::founders(2);
        assert!(roster.evict(NodeId(1), 4));
        assert!(roster.member(NodeId(1)).unwrap().evicted);
        assert!(!roster.generates_at(NodeId(1), 4));
        // A graceful leave cannot be "re-joined"; an eviction can.
        assert!(roster.learn_join(NodeId(1), Some(addr(9101)), 7));
        let m = roster.member(NodeId(1)).unwrap();
        assert!(!m.evicted);
        assert_eq!((m.join_slot, m.leave_slot), (7, None));
        assert!(!roster.generates_at(NodeId(1), 5));
        assert!(roster.generates_at(NodeId(1), 7));
    }

    fn liveness(roster: &Roster, id: u32) -> Liveness {
        roster.member(NodeId(id)).unwrap().liveness
    }

    #[test]
    fn insert_and_forget_track_churn() {
        let mut roster = Roster::founders(1);
        roster.set_addr(NodeId(0), addr(9001));
        assert!(
            roster.learn_join(NodeId(5), Some(addr(9002)), 3),
            "new peer is a change"
        );
        assert!(
            !roster.learn_join(NodeId(5), Some(addr(9002)), 3),
            "same addr is idempotent"
        );
        let ids: Vec<NodeId> = roster.entries().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(5)]);
        roster.mark_heard(NodeId(5), None);
        assert!(roster.evict(NodeId(5), 4));
        assert_eq!(roster.cut(NodeId(5)), Some(addr(9002)));
        assert_eq!(roster.request_addr(NodeId(5)), None);
        assert_eq!(
            liveness(&roster, 5),
            Liveness::Cut,
            "a re-join must not inherit the evicted incarnation's liveness"
        );
        // Re-join on a different port re-addresses the id.
        assert!(roster.learn_join(NodeId(5), Some(addr(9001)), 7));
        assert_eq!(roster.request_addr(NodeId(5)), Some(addr(9001)));
    }

    #[test]
    fn gone_quiet_distinguishes_silence_from_never_heard() {
        let mut roster = Roster::founders(2);
        roster.set_addr(NodeId(1), addr(9001));
        // Never heard: a bootstrap straggler, not an eviction candidate.
        assert!(!roster.gone_quiet(NodeId(1), Duration::from_millis(0)));
        roster.mark_heard(NodeId(1), None);
        assert!(!roster.gone_quiet(NodeId(1), Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(5));
        assert!(roster.gone_quiet(NodeId(1), Duration::from_millis(1)));
    }

    #[test]
    fn liveness_tracks_heard_peers() {
        let mut roster = Roster::founders(3);
        roster.set_addr(NodeId(1), addr(9001));
        roster.set_addr(NodeId(2), addr(9001));
        assert_eq!(liveness(&roster, 1), Liveness::Unheard);
        roster.mark_heard(NodeId(1), None);
        assert!(matches!(liveness(&roster, 1), Liveness::Heard(_)));
        assert!(!roster.gone_quiet(NodeId(1), Duration::from_secs(60)));
        assert_eq!(liveness(&roster, 2), Liveness::Unheard);
        // Protocol traffic from a member with no address marks nothing,
        // and an id outside the roster is ignored.
        roster.mark_heard(NodeId(0), None);
        assert_eq!(liveness(&roster, 0), Liveness::Unheard);
        roster.mark_heard(NodeId(9), Some(addr(9009)));
        assert!(roster.member(NodeId(9)).is_none());
    }

    #[test]
    fn an_evicted_member_is_not_pop_addressable() {
        let mut roster = Roster::founders(3);
        roster.set_addr(NodeId(2), addr(9002));
        roster.mark_heard(NodeId(2), None);
        assert!(roster.evict(NodeId(2), 5));
        assert_eq!(
            roster.cut(NodeId(2)),
            Some(addr(9002)),
            "the evictee is still told"
        );
        assert_eq!(roster.request_addr(NodeId(2)), None);
        assert!(
            !roster.gone_quiet(NodeId(2), Duration::ZERO),
            "liveness is cleared"
        );
        // Protocol traffic never re-addresses it; the membership fan-out
        // still knows where it is.
        roster.mark_heard(NodeId(2), None);
        assert_eq!(roster.request_addr(NodeId(2)), None);
        assert_eq!(roster.member(NodeId(2)).unwrap().addr, Some(addr(9002)));
    }

    #[test]
    fn a_graceful_leaver_stays_addressable() {
        let mut roster = Roster::founders(3);
        roster.set_addr(NodeId(1), addr(9001));
        roster.mark_heard(NodeId(1), None);
        assert!(roster.learn_leave(NodeId(1), 4));
        assert!(roster.departed_by(NodeId(1), 4));
        assert_eq!(
            roster.request_addr(NodeId(1)),
            Some(addr(9001)),
            "a leaver keeps serving"
        );
        assert!(matches!(liveness(&roster, 1), Liveness::Heard(_)));
        assert!(roster.peer_addrs_at(4, NodeId(0)).is_empty());
    }

    #[test]
    fn re_registration_clears_liveness() {
        let mut roster = Roster::founders(2);
        roster.set_addr(NodeId(1), addr(9001));
        roster.mark_heard(NodeId(1), None);
        let Liveness::Heard(before) = liveness(&roster, 1) else {
            panic!("just heard");
        };
        std::thread::sleep(Duration::from_millis(2));
        assert!(roster.evict(NodeId(1), 3));
        roster.cut(NodeId(1));
        // An authenticated envelope from a new port re-registers the
        // evictee, heard now rather than at its old incarnation's instant.
        roster.mark_heard(NodeId(1), Some(addr(9101)));
        assert_eq!(roster.request_addr(NodeId(1)), Some(addr(9101)));
        assert!(matches!(liveness(&roster, 1), Liveness::Heard(at) if at > before));
        // An address learned from membership traffic starts unheard.
        roster.cut(NodeId(1));
        roster.set_addr(NodeId(1), addr(9102));
        assert_eq!(roster.request_addr(NodeId(1)), Some(addr(9102)));
        assert_eq!(liveness(&roster, 1), Liveness::Unheard);
    }

    #[test]
    fn churn_spec_round_trips_and_sorts() {
        let events = parse_churn_spec("leave:1@6,join:4@3").unwrap();
        assert_eq!(
            events,
            vec![
                ChurnEvent::Join {
                    id: NodeId(4),
                    slot: 3
                },
                ChurnEvent::Leave {
                    id: NodeId(1),
                    slot: 6
                },
            ]
        );
        assert_eq!(format_churn_spec(&events), "join:4@3,leave:1@6");
        assert!(parse_churn_spec("").unwrap().is_empty());
        assert!(parse_churn_spec("nope").is_err());
        assert!(parse_churn_spec("join:x@1").is_err());
        assert!(parse_churn_spec("grow:4@3").is_err());
    }

    #[test]
    fn churn_validation_catches_bad_schedules() {
        let ok = parse_churn_spec("join:4@3,leave:1@6").unwrap();
        assert!(validate_churn(&ok, 4, 10).is_ok());
        // Join id must be the next topology index.
        let bad_id = parse_churn_spec("join:7@3").unwrap();
        assert!(validate_churn(&bad_id, 4, 10).is_err());
        // Leave of a node that never joined.
        let bad_leave = parse_churn_spec("leave:9@6").unwrap();
        assert!(validate_churn(&bad_leave, 4, 10).is_err());
        // Leave before the join took effect.
        let too_early = parse_churn_spec("join:4@5,leave:4@5").unwrap();
        assert!(validate_churn(&too_early, 4, 10).is_err());
        // Outside the run.
        let late = parse_churn_spec("join:4@12").unwrap();
        assert!(validate_churn(&late, 4, 10).is_err());
        // A join and a leave of the same id in order is fine.
        let lifecycle = parse_churn_spec("join:4@2,leave:4@5").unwrap();
        assert!(validate_churn(&lifecycle, 4, 10).is_ok());
    }

    #[test]
    fn join_site_lands_in_range_of_a_live_member() {
        let range = crate::runtime::deployment_range_m();
        let topo = crate::runtime::deployment_topology(11, 5, 300.0);
        let roster = Roster::founders(5);
        let site = join_site(&topo, &roster, 11, 3, NodeId(5), range);
        let in_range = (0..5).any(|i| topo.position(NodeId(i)).in_range(&site, range));
        assert!(in_range, "the joiner must wire at least one radio link");
        // Deterministic: same inputs, same site.
        assert_eq!(site, join_site(&topo, &roster, 11, 3, NodeId(5), range));
        // Different slot or id: a different draw.
        assert_ne!(site, join_site(&topo, &roster, 11, 4, NodeId(5), range));
    }
}
