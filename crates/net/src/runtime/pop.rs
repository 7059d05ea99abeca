//! PoP over the wire: the responder role, a walk's asks as datagram
//! exchanges, the closed-form target pool, and the validator's verify step.

use super::*;

/// Serves one inbound protocol request against a node's state, returning
/// the reply to send (or `None` when the node stays silent / the message is
/// not a request). The answer is the engine's ([`LedgerNode::respond`]),
/// with one wire rule on top: a fetch the node cannot serve gets an explicit
/// `Nack` where the engine stays silent, so honest requesters fail fast
/// instead of burning their retry budget.
pub fn serve_wire_request(node: &LedgerNode, msg: &WireMessage) -> Option<WireMessage> {
    let request = match *msg {
        WireMessage::FetchBlock { id, .. } => Request::Fetch(id),
        WireMessage::ReqChild { target, .. } => Request::Child {
            responder: node.id(),
            target,
            horizon: None,
        },
        WireMessage::ReqChildAt {
            target, horizon, ..
        } => Request::Child {
            responder: node.id(),
            target,
            horizon: Some(horizon),
        },
        _ => return None,
    };
    let from = node.id();
    Some(match node.respond(&request) {
        Some(Reply::Block(block)) => WireMessage::Block(block),
        Some(Reply::Child(reply)) => WireMessage::RpyChild(reply),
        Some(Reply::NoChild) => WireMessage::Nack { from },
        Some(Reply::Pruned { retained_from }) => WireMessage::PrunedNack {
            from,
            retained_from,
        },
        None if matches!(request, Request::Fetch(_)) => nack_unservable_fetch(from),
        None => return None,
    })
}

/// The wire's one departure from the engine's responder: a block fetch
/// that gets no answer there (a silent owner, or a block it never
/// generated) gets an explicit `Nack` here. The validator reads it as the
/// engine's silence, [`tldag_core::error::PopError::BlockUnavailable`],
/// without waiting out the retries.
fn nack_unservable_fetch(from: NodeId) -> WireMessage {
    WireMessage::Nack { from }
}

/// Carries a walk's `request` to its addressee as one [`Endpoint::request`]
/// (with retry/backoff, so datagram loss surfaces as a timeout only after
/// the retry budget is spent) and returns the answer. `addr_of` is where a
/// peer's requests go ([`Roster::request_addr`] in the caller's membership
/// book); `None` skips the peer as unreachable. A block fetched is stamped
/// with a [`SpanKind::Verified`] span on `spans` when set.
pub fn ask_over_wire(
    endpoint: &Endpoint,
    addr_of: impl Fn(NodeId) -> Option<SocketAddr>,
    spans: Option<&SpanStore>,
    request: &Request,
) -> Option<Reply> {
    let ticket = send_ask(endpoint, addr_of, request)?;
    await_ask(endpoint, spans, request, ticket)
}

/// Sends `request` to its addressee without waiting for the answer
/// ([`ask_over_wire`]'s first half); `None` when `addr_of` has no address
/// for it.
pub(super) fn send_ask(
    endpoint: &Endpoint,
    addr_of: impl Fn(NodeId) -> Option<SocketAddr>,
    request: &Request,
) -> Option<Ticket> {
    let addr = addr_of(request.to())?;
    let from = endpoint.id();
    let msg = match *request {
        Request::Fetch(id) => WireMessage::FetchBlock { from, id },
        Request::Child {
            target,
            horizon: Some(horizon),
            ..
        } => WireMessage::ReqChildAt {
            from,
            target,
            horizon,
        },
        Request::Child {
            target,
            horizon: None,
            ..
        } => WireMessage::ReqChild { from, target },
    };
    endpoint.send_request(addr, &msg)
}

/// Awaits the answer to `request`, sent as `ticket`, and reads it as the
/// walk's [`Reply`] ([`ask_over_wire`]'s second half).
fn await_ask(
    endpoint: &Endpoint,
    spans: Option<&SpanStore>,
    request: &Request,
    ticket: Ticket,
) -> Option<Reply> {
    match endpoint.await_reply(ticket)?.1 {
        WireMessage::Block(block) => {
            if let (Some(spans), Request::Fetch(_)) = (spans, request) {
                spans.record(SpanEvent {
                    slot: block.header.time,
                    origin: block.id.owner.0,
                    prefix: block.header_digest().prefix_u64(),
                    node: endpoint.id().0,
                    kind: SpanKind::Verified,
                    ts_micros: unix_micros(),
                });
            }
            Some(Reply::Block(block))
        }
        WireMessage::RpyChild(reply) => Some(Reply::Child(reply)),
        WireMessage::Nack { .. } => Some(Reply::NoChild),
        WireMessage::PrunedNack { retained_from, .. } => Some(Reply::Pruned { retained_from }),
        _ => None,
    }
}

/// The verification targets the in-memory engine's [`TargetPool`] holds at
/// `slot`, computed closed-form from the deployment invariants (uniform
/// schedule): a member that joined at slot `j` holds blocks with sequence
/// `t - j` and generation time `t` for every `t` it generated in, so its
/// qualifying blocks are seqs `0..=horizon - j`; departed members hold none.
/// Owners are in id order, as in the engine, so [`TargetPool::choose`] on a
/// validator's derived target stream picks the same block.
pub(crate) fn wire_target_pool(roster: &Roster, slot: u64, min_age: u64) -> TargetPool {
    // The latest qualifying generation time.
    let Some(horizon) = slot.checked_sub(min_age) else {
        return TargetPool::default();
    };
    let qualifying = |owner: NodeId| match roster.member(owner) {
        Some(m) if !roster.departed_by(owner, slot) && m.join_slot <= horizon => {
            0..(horizon - m.join_slot + 1) as u32
        }
        _ => 0..0,
    };
    TargetPool::from_ranges((0..roster.total_ids()).map(|id| qualifying(NodeId(id))))
}

/// The candidate list [`wire_target_pool`] replaced: every qualifying block
/// of every other member, listed owner by owner — the reference it must
/// agree with under `rng.choose`.
#[cfg(test)]
fn wire_pop_candidates(
    roster: &Roster,
    validator: NodeId,
    slot: u64,
    min_age: u64,
) -> Vec<BlockId> {
    let mut out = Vec::new();
    if slot < min_age {
        return out;
    }
    let horizon = slot - min_age; // latest qualifying generation time
    for owner in (0..roster.total_ids()).map(NodeId) {
        if owner == validator || roster.departed_by(owner, slot) {
            continue;
        }
        let Some(member) = roster.member(owner) else {
            continue;
        };
        let mut t = member.join_slot;
        while t <= horizon {
            out.push(BlockId::new(owner, (t - member.join_slot) as u32));
            t += 1;
        }
    }
    out
}

impl NetNode {
    /// One PoP verification of `target` over the wire, with the engine's
    /// derived randomness for this `(slot, validator)`. Generation may keep
    /// appending while the walk runs, so each step reads the own chain
    /// under a fresh node read lock, dropped before the next ask goes out,
    /// and every child lookup — its own and the wire's — is capped at
    /// `slot`, which makes the view identical at every window. `fetched`
    /// is the target's fetch when it was sent ahead: it answers the walk's
    /// first ask in place of a new request. While each ask is in flight,
    /// the fetches of later slots go out ([`NetNode::fetch_ahead`]). A
    /// successful run's headers are committed to the node's `H_i` right
    /// after it, as the engine's `run_pop` does.
    pub(super) fn run_pop_with(
        &self,
        slot: u64,
        target: BlockId,
        mut fetched: Option<Ticket>,
        state: &mut VerifyState,
    ) -> PopReport {
        // Read locks: the dispatcher keeps serving peers' requests
        // concurrently, so symmetric cross-verification cannot deadlock;
        // the topology is only written at slot boundaries (with the
        // pipeline drained to the boundary first).
        let topology = self.shared.topology.read().expect("topology poisoned");
        let telemetry = &self.shared.telemetry;
        let spans = telemetry.spans.is_enabled().then_some(&telemetry.spans);
        let addr_of = |peer| self.shared.book().roster.request_addr(peer);
        let pop_rng = derived_rng(self.config.seed, stream::POP, slot, self.config.id);
        let mut step = PopWalk::start(target, pop_rng);
        let mut report = loop {
            let (walk, request) = match step {
                Step::Ask(walk, request) => (walk, request),
                Step::Done(report) => break report,
            };
            let ticket = fetched
                .take()
                .or_else(|| send_ask(&self.endpoint, addr_of, &request));
            // Owners may have started later slots since the last ask.
            self.fetch_ahead(slot, state);
            let reply =
                ticket.and_then(|ticket| await_ask(&self.endpoint, spans, &request, ticket));
            let node = self.shared.node.read().expect("node lock poisoned");
            let mut ctx = PopContext {
                cfg: &self.cfg,
                topology: &topology,
                id: self.config.id,
                own_store: node.store(),
                trust_cache: &state.trust_cache,
                blacklist: &mut state.blacklist,
                horizon: Some(slot),
            };
            step = walk.resume(&mut ctx, reply);
        };
        state
            .trust_cache
            .commit(std::mem::take(&mut report.trusted));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// Random rosters — founders, joins, leaves, evictions and re-joins
        /// at random slots — and random validators, slots and ages: the
        /// closed-form pool picks the block `rng.choose` picks from the
        /// candidate list, and leaves the stream where it leaves it.
        #[test]
        fn wire_target_pool_matches_the_candidate_list(
            founders in 1usize..6,
            churn in proptest::collection::vec((0u8..3, 0u32..9, 0u64..30), 0..12),
            validator in 0u32..10,
            slot in 0u64..40,
            min_age in 0u64..12,
            seed in proptest::any::<u64>(),
        ) {
            let mut roster = Roster::founders(founders);
            for (kind, id, at) in churn {
                let id = NodeId(id);
                match kind {
                    0 => {
                        roster.learn_join(id, None, at);
                    }
                    1 => {
                        roster.learn_leave(id, at);
                    }
                    _ => {
                        roster.evict(id, at);
                    }
                }
            }
            let validator = NodeId(validator);
            let mut list_rng = derived_rng(seed, stream::TARGET, slot, validator);
            let mut pool_rng = list_rng.clone();
            let candidates = wire_pop_candidates(&roster, validator, slot, min_age);
            let expect = list_rng.choose(&candidates).copied();
            let got = wire_target_pool(&roster, slot, min_age).choose(validator, &mut pool_rng);
            proptest::prop_assert_eq!(got, expect, "{:?} slot {} age {}", roster, slot, min_age);
            proptest::prop_assert_eq!(pool_rng.next_u64(), list_rng.next_u64());
        }
    }
}
