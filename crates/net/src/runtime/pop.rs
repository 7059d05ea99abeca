//! PoP over the wire: the responder role, the socket transport, the
//! closed-form target pool, and the validator's view of the live chain.

use super::*;

/// Serves one inbound protocol request against a node's state, returning
/// the reply to send (or `None` when the node stays silent / the message is
/// not a request). Mirrors the simulator's responder semantics exactly:
/// cooperative `Nack` for a definitive miss, `PrunedNack` with the pruned
/// floor for a retention miss, and — unlike the simulator, where silence
/// models absence — an explicit `Nack` for an unavailable block, so honest
/// requesters fail fast instead of burning their retry budget.
pub fn serve_wire_request(node: &LedgerNode, msg: &WireMessage) -> Option<WireMessage> {
    let child_reply = |serve: ChildServe| match serve {
        ChildServe::Found(block_id, header) => WireMessage::RpyChild(ChildReply {
            claimed_owner: node.id(),
            block_id,
            header,
        }),
        ChildServe::NoChild => WireMessage::Nack { from: node.id() },
        ChildServe::Pruned => WireMessage::PrunedNack {
            from: node.id(),
            retained_from: node.pruned_floor(),
        },
    };
    match msg {
        WireMessage::ReqChild { target, .. } => node.serve_child_request(target).map(child_reply),
        WireMessage::ReqChildAt {
            target, horizon, ..
        } => node
            .serve_child_request_within(target, *horizon)
            .map(child_reply),
        WireMessage::FetchBlock { id, .. } => Some(match node.serve_block(*id) {
            BlockFetch::Served(block) => WireMessage::Block(Box::new(block)),
            BlockFetch::Pruned { retained_from } => WireMessage::PrunedNack {
                from: node.id(),
                retained_from,
            },
            BlockFetch::Unavailable => WireMessage::Nack { from: node.id() },
        }),
        _ => None,
    }
}

/// [`PopTransport`] over a real socket: each exchange is an
/// [`Endpoint::request`] with retry/backoff, so datagram loss surfaces to
/// the validator as a timeout only after the retry budget is spent.
pub struct NetPopTransport<'a> {
    /// The validator's endpoint.
    pub endpoint: &'a Endpoint,
    /// Where a peer's requests go ([`Roster::request_addr`] in the
    /// caller's membership book); `None` skips the peer as unreachable.
    pub addr_of: &'a dyn Fn(NodeId) -> Option<SocketAddr>,
    /// When set, child requests carry this horizon so run-ahead responders
    /// answer from their store *as of that slot* — a validator inside the
    /// slot loop must see exactly what the engine's Verify phase saw.
    /// `None` asks uncapped (`fig11_wire` audits static chains).
    pub horizon: Option<u64>,
    /// When set, every block fetched during the PoP walk is stamped with a
    /// [`SpanKind::Verified`] span on this ring (`None` = tracing off).
    pub spans: Option<&'a SpanStore>,
}

impl PopTransport for NetPopTransport<'_> {
    fn fetch_block(
        &mut self,
        validator: NodeId,
        owner: NodeId,
        id: BlockId,
    ) -> Option<FetchResponse> {
        let addr = (self.addr_of)(owner)?;
        let msg = WireMessage::FetchBlock {
            from: validator,
            id,
        };
        match self.endpoint.request(addr, &msg)? {
            (_, WireMessage::Block(block)) => {
                if let Some(spans) = self.spans {
                    spans.record(SpanEvent {
                        slot: block.header.time,
                        origin: block.id.owner.0,
                        prefix: block.header_digest().prefix_u64(),
                        node: self.endpoint.id().0,
                        kind: SpanKind::Verified,
                        ts_micros: unix_micros(),
                    });
                }
                Some(FetchResponse::Block(block))
            }
            (_, WireMessage::PrunedNack { retained_from, .. }) => {
                Some(FetchResponse::Pruned { retained_from })
            }
            // An explicit Nack means "not available"; like silence, but
            // without waiting out the retries.
            _ => None,
        }
    }

    fn request_child(
        &mut self,
        validator: NodeId,
        responder: NodeId,
        target: Digest,
    ) -> Option<tldag_core::pop::messages::ChildResponse> {
        use tldag_core::pop::messages::ChildResponse;
        let addr = (self.addr_of)(responder)?;
        let msg = match self.horizon {
            Some(horizon) => WireMessage::ReqChildAt {
                from: validator,
                target,
                horizon,
            },
            None => WireMessage::ReqChild {
                from: validator,
                target,
            },
        };
        match self.endpoint.request(addr, &msg)? {
            (_, WireMessage::RpyChild(reply)) => Some(ChildResponse::Found(reply)),
            (_, WireMessage::Nack { .. }) => Some(ChildResponse::NoChild),
            (_, WireMessage::PrunedNack { .. }) => Some(ChildResponse::Pruned),
            _ => None,
        }
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
    /// appending while the walk runs, so the validator reads its own chain
    /// through [`PipelinedStore`] (a fresh read lock per call) and caps
    /// every child lookup — its own and the wire's — at `slot`, which
    /// makes the view identical at every window. A successful run's headers
    /// are committed to the node's `H_i` right after it, as the engine's
    /// `run_pop` does.
    pub(super) fn run_pop_with(
        &self,
        slot: u64,
        target: BlockId,
        state: &mut VerifyState,
    ) -> PopReport {
        // Read locks: the dispatcher keeps serving peers' requests
        // concurrently, so symmetric cross-verification cannot deadlock;
        // the topology is only written at slot boundaries (with the
        // pipeline drained to the boundary first).
        let topology = self.shared.topology.read().expect("topology poisoned");
        let mut pop_rng = derived_rng(self.config.seed, stream::POP, slot, self.config.id);
        let addr_of = |peer| self.shared.book().roster.request_addr(peer);
        let mut transport = NetPopTransport {
            endpoint: &self.endpoint,
            addr_of: &addr_of,
            horizon: Some(slot),
            spans: self
                .shared
                .telemetry
                .spans
                .is_enabled()
                .then_some(&self.shared.telemetry.spans),
        };
        let store = PipelinedStore {
            node: &self.shared.node,
        };
        let mut validator = Validator::new(
            &self.cfg,
            &topology,
            self.config.id,
            &store,
            &state.trust_cache,
            &mut state.blacklist,
            &mut pop_rng,
        )
        .with_horizon(slot);
        let mut report = validator.run(target, &mut transport);
        state
            .trust_cache
            .commit(std::mem::take(&mut report.trusted));
        report
    }
}

/// [`BlockBackend`] view over the live node for the validator: every call
/// takes a fresh read lock, so the verify step never holds the node lock
/// across PoP network I/O (which would stall a run-ahead generation
/// thread's writes for a whole round-trip). Horizon capping makes the walk
/// insensitive to blocks appended between calls — every lookup the
/// validator performs is filtered to `header.time <= horizon`, and the
/// store below an already-generated slot never changes.
struct PipelinedStore<'a> {
    node: &'a RwLock<LedgerNode>,
}

impl PipelinedStore<'_> {
    fn with<T>(&self, f: impl FnOnce(&dyn BlockBackend) -> T) -> T {
        let node = self.node.read().expect("node lock poisoned");
        f(node.store())
    }
}

impl fmt::Debug for PipelinedStore<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PipelinedStore")
    }
}

impl BlockBackend for PipelinedStore<'_> {
    fn append(&mut self, _block: DataBlock) -> Result<(), TldagError> {
        unreachable!("the validator never appends")
    }
    fn len(&self) -> usize {
        self.with(|s| s.len())
    }
    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.with(|s| s.get(seq))
    }
    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.with(|s| s.by_header_digest(digest))
    }
    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.with(|s| s.oldest_child_of(target))
    }
    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        self.with(|s| s.children_of(target))
    }
    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        self.with(|s| s.oldest_child_of_within(target, horizon))
    }
    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        let blocks: Vec<DataBlock> = self.with(|s| s.iter().collect());
        Box::new(blocks.into_iter())
    }
    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.with(|s| s.logical_bits(cfg))
    }
    fn resident_bytes(&self) -> usize {
        self.with(|s| s.resident_bytes())
    }
    fn pruned_floor(&self) -> u32 {
        self.with(|s| s.pruned_floor())
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
