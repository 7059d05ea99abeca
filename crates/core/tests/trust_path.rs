//! Every check on the PoP trust path fails a test when it is removed: a
//! scripted responder serves replies that only that check rejects, or a
//! topology where only that filter keeps WPS away from a peer.

use tldag_core::blacklist::Blacklist;
use tldag_core::block::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_core::config::ProtocolConfig;
use tldag_core::pop::messages::{ChildReply, Reply, Request};
use tldag_core::pop::validator::{PopContext, PopReport, PopWalk, Step};
use tldag_core::store::{BlockStore, TrustCache};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::{DetRng, NodeId, Topology};

/// A block of `owner` (signed with its registered key) whose Digests field
/// references `parent`, mined at `cfg`'s difficulty.
fn block(cfg: &ProtocolConfig, owner: u32, parent: Option<(u32, &DataBlock)>) -> DataBlock {
    let digests: Vec<DigestEntry> = parent
        .map(|(origin, b)| DigestEntry {
            origin: NodeId(origin),
            digest: b.header_digest(),
        })
        .into_iter()
        .collect();
    DataBlock::create(
        cfg,
        BlockId::new(NodeId(owner), 0),
        0,
        digests,
        BlockBody::new(vec![owner as u8], cfg.body_bits),
        &KeyPair::from_seed(u64::from(owner)),
    )
}

/// The `RPY_CHILD` an honest `responder` would send for `child`.
fn reply(responder: u32, child: &DataBlock) -> ChildReply {
    ChildReply {
        claimed_owner: NodeId(responder),
        block_id: child.id,
        header: child.header.clone(),
    }
}

/// Serves fetches from `blocks` and child requests from `replies`
/// (`NoChild` for anything unscripted), logging every child request.
#[derive(Default)]
struct Scripted {
    blocks: Vec<DataBlock>,
    replies: Vec<(NodeId, Digest, ChildReply)>,
    asked: Vec<(NodeId, Digest)>,
}

impl Scripted {
    /// The scripted answer to `request`; a block nobody scripted is silence.
    fn answer(&mut self, request: &Request) -> Option<Reply> {
        match *request {
            Request::Fetch(id) => {
                let block = self.blocks.iter().find(|b| b.id == id)?;
                Some(Reply::Block(Box::new(block.clone())))
            }
            Request::Child {
                responder, target, ..
            } => {
                self.asked.push((responder, target));
                let scripted =
                    (self.replies.iter()).find(|(r, t, _)| *r == responder && *t == target);
                Some(match scripted {
                    Some((_, _, reply)) => Reply::Child(reply.clone()),
                    None => Reply::NoChild,
                })
            }
        }
    }
}

/// Runs validator `validator` on `target` against `scripted`, with an
/// empty store and trust cache, and `blacklist`.
fn audit(
    cfg: &ProtocolConfig,
    topology: &Topology,
    validator: u32,
    target: BlockId,
    blacklist: &mut Blacklist,
    scripted: &mut Scripted,
) -> PopReport {
    let (store, cache) = (BlockStore::new(), TrustCache::new());
    let mut ctx = PopContext {
        cfg,
        topology,
        id: NodeId(validator),
        own_store: &store,
        trust_cache: &cache,
        blacklist,
        horizon: None,
    };
    PopWalk::run(target, DetRng::seed_from(7), &mut ctx, |request| {
        scripted.answer(request)
    })
}

/// A reply header signed by the responder's registered key whose nonce
/// fails the puzzle is rejected; the same reply mined properly is accepted.
#[test]
fn a_signed_reply_that_fails_the_puzzle_is_rejected() {
    let cfg = ProtocolConfig::test_default()
        .with_gamma(1)
        .with_difficulty(8);
    let topology = Topology::from_edges(3, &[(0, 1)]);
    let target = block(&cfg, 0, None);
    let unmined = block(&cfg.with_difficulty(0), 1, Some((0, &target)));
    assert!(!unmined.header.verify_puzzle(cfg.difficulty_bits));
    assert!(unmined
        .header
        .verify_signature(&KeyPair::from_seed(1).public()));
    let mined = block(&cfg, 1, Some((0, &target)));

    let run = |child: &DataBlock| {
        let mut transport = Scripted {
            blocks: vec![target.clone()],
            replies: vec![(NodeId(1), target.header_digest(), reply(1, child))],
            ..Scripted::default()
        };
        let mut blacklist = Blacklist::new(cfg.blacklist);
        audit(
            &cfg,
            &topology,
            2,
            target.id,
            &mut blacklist,
            &mut transport,
        )
    };
    let rejected = run(&unmined);
    assert!(!rejected.is_success(), "{rejected:?}");
    assert_eq!(rejected.metrics.invalid_replies, 1);
    let accepted = run(&mined);
    assert!(accepted.is_success(), "{accepted:?}");
    assert_eq!(accepted.metrics.invalid_replies, 0);
}

/// A reply whose block id names another owner than the responder is
/// rejected, so a responder cannot put a second identity on the path; the
/// same header under its own id is accepted.
#[test]
fn a_reply_for_another_owners_block_is_rejected() {
    let cfg = ProtocolConfig::test_default().with_gamma(1);
    let topology = Topology::from_edges(4, &[(0, 1)]);
    let target = block(&cfg, 0, None);
    let child = block(&cfg, 1, Some((0, &target)));

    let run = |reply: ChildReply| {
        let mut transport = Scripted {
            blocks: vec![target.clone()],
            replies: vec![(NodeId(1), target.header_digest(), reply)],
            ..Scripted::default()
        };
        let mut blacklist = Blacklist::new(cfg.blacklist);
        audit(
            &cfg,
            &topology,
            2,
            target.id,
            &mut blacklist,
            &mut transport,
        )
    };
    let mut forged = reply(1, &child);
    forged.block_id = BlockId::new(NodeId(3), 0);
    let rejected = run(forged);
    assert!(!rejected.is_success(), "{rejected:?}");
    assert_eq!(rejected.metrics.invalid_replies, 1);
    let accepted = run(reply(1, &child));
    assert!(accepted.is_success(), "{accepted:?}");
}

/// Algorithm 3's rollback cascade (`V \ V'`): once owner 2's block is
/// popped, and then owner 1's, WPS at the target does not go back to
/// owner 2 — a neighbour of the target it never asked there.
///
/// Topology 0–1, 0–2, 1–2, 1–3 (validator 4 apart). At the target (owner
/// 0) WPS prefers 1 (weight 1/4 against 2's 1/3); at owner 1's block it
/// asks 3, then 2, whose block no one extends. γ = 3 cannot be met by
/// three owners, so the run rolls all the way back.
#[test]
fn the_rollback_cascade_never_repicks_a_popped_owner() {
    let cfg = ProtocolConfig::test_default().with_gamma(3);
    let topology = Topology::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3)]);
    let b0 = block(&cfg, 0, None);
    let b1 = block(&cfg, 1, Some((0, &b0)));
    let b2 = block(&cfg, 2, Some((1, &b1)));
    let mut transport = Scripted {
        blocks: vec![b0.clone()],
        replies: vec![
            (NodeId(1), b0.header_digest(), reply(1, &b1)),
            (NodeId(2), b1.header_digest(), reply(2, &b2)),
        ],
        ..Scripted::default()
    };
    let mut blacklist = Blacklist::new(cfg.blacklist);
    let report = audit(&cfg, &topology, 4, b0.id, &mut blacklist, &mut transport);
    assert!(!report.is_success(), "{report:?}");
    assert_eq!(report.metrics.rollbacks, 3, "{report:?}");
    // The walk did reach owner 2 (through owner 1) …
    assert!(transport.asked.contains(&(NodeId(2), b1.header_digest())));
    // … and once popped, owner 2 was never asked for the target's child.
    assert!(
        !transport.asked.contains(&(NodeId(2), b0.header_digest())),
        "re-picked a popped owner: {:?}",
        transport.asked
    );
}

/// A banned neighbour that WPS would pick (owner 1 has the lower weight)
/// is skipped, and the path goes through the other neighbour.
#[test]
fn wps_skips_a_banned_neighbour() {
    let cfg = ProtocolConfig::test_default().with_gamma(1);
    // N(1) = {0, 3, 4, 5}: weight 1/5; N(2) = {0}: weight 1/2.
    let topology = Topology::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)]);
    let target = block(&cfg, 0, None);
    let via_1 = block(&cfg, 1, Some((0, &target)));
    let via_2 = block(&cfg, 2, Some((0, &target)));
    let scripted = || Scripted {
        blocks: vec![target.clone()],
        replies: vec![
            (NodeId(1), target.header_digest(), reply(1, &via_1)),
            (NodeId(2), target.header_digest(), reply(2, &via_2)),
        ],
        ..Scripted::default()
    };

    // Unbanned, WPS picks owner 1.
    let mut transport = scripted();
    let mut blacklist = Blacklist::new(cfg.blacklist);
    let report = audit(
        &cfg,
        &topology,
        6,
        target.id,
        &mut blacklist,
        &mut transport,
    );
    assert!(report.is_success(), "{report:?}");
    assert_eq!(report.path[1].owner, NodeId(1));

    // Banned, owner 1 is never asked.
    let mut transport = scripted();
    let mut blacklist = Blacklist::new(cfg.blacklist);
    blacklist.record_failure(NodeId(1));
    assert!(blacklist.is_banned(NodeId(1)));
    let report = audit(
        &cfg,
        &topology,
        6,
        target.id,
        &mut blacklist,
        &mut transport,
    );
    assert!(report.is_success(), "{report:?}");
    assert_eq!(report.path[1].owner, NodeId(2));
    assert!(
        transport.asked.iter().all(|(r, _)| *r != NodeId(1)),
        "asked a banned peer: {:?}",
        transport.asked
    );
}

/// A walk holds nothing between its steps: two walks on different targets,
/// stepped alternately on one thread against one responder, each end with
/// the report they end with when driven alone.
#[test]
fn interleaved_walks_end_as_each_does_alone() {
    let cfg = ProtocolConfig::test_default().with_gamma(2);
    let topology = Topology::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    let b0 = block(&cfg, 0, None);
    let b1 = block(&cfg, 1, Some((0, &b0)));
    let b2 = block(&cfg, 2, Some((1, &b1)));
    let b3 = block(&cfg, 3, Some((2, &b2)));
    let mut scripted = Scripted {
        blocks: vec![b0.clone(), b1.clone()],
        replies: vec![
            (NodeId(1), b0.header_digest(), reply(1, &b1)),
            (NodeId(2), b1.header_digest(), reply(2, &b2)),
            (NodeId(3), b2.header_digest(), reply(3, &b3)),
        ],
        ..Scripted::default()
    };
    // (validator, target) of each walk.
    let walks = [(4, b0.id), (5, b1.id)];
    let alone = walks.map(|(validator, target)| {
        let mut blacklist = Blacklist::new(cfg.blacklist);
        let report = audit(
            &cfg,
            &topology,
            validator,
            target,
            &mut blacklist,
            &mut scripted,
        );
        format!("{report:?}")
    });

    let (store, cache) = (BlockStore::new(), TrustCache::new());
    let mut blacklists = walks.map(|_| Blacklist::new(cfg.blacklist));
    let mut queue = std::collections::VecDeque::new();
    for (i, (_, target)) in walks.into_iter().enumerate() {
        let Step::Ask(walk, request) = PopWalk::start(target, DetRng::seed_from(7)) else {
            panic!("a walk starts with the target fetch");
        };
        queue.push_back((i, walk, request));
    }
    let mut interleaved = [String::new(), String::new()];
    let mut steps = [0; 2];
    while let Some((i, walk, request)) = queue.pop_front() {
        steps[i] += 1;
        let mut ctx = PopContext {
            cfg: &cfg,
            topology: &topology,
            id: NodeId(walks[i].0),
            own_store: &store,
            trust_cache: &cache,
            blacklist: &mut blacklists[i],
            horizon: None,
        };
        match walk.resume(&mut ctx, scripted.answer(&request)) {
            Step::Ask(walk, request) => queue.push_back((i, walk, request)),
            Step::Done(report) => interleaved[i] = format!("{report:?}"),
        }
    }
    // Both walks fetched their target and asked at least two children, so
    // their steps did alternate.
    assert!(steps.iter().all(|&n| n >= 3), "steps {steps:?}");
    assert_eq!(interleaved, alone);
}
