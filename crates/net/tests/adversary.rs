//! Byzantine behaviors over real loopback sockets: an equivocator and a
//! digest liar are detected from conflicting `SlotDigest` gossip (pull
//! recovery re-converges the honest barriers), and a membership flapper is
//! evicted without stalling the honest slot loop. Honest nodes must keep
//! byte-identical chain digests with an in-memory engine run under the
//! identical [`Behavior`] placement — the honest-subset parity contract.

use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_net::harness::{discover_ports, discover_tcp_ports};
use tldag_net::runtime::NodeOutcome;
use tldag_net::{judge, AdversaryPlacement, Deployment, LoopbackCluster, NetNodeConfig, Verdict};
use tldag_obs::http_get;
use tldag_sim::NodeId;

/// A founders-only deployment under `placements`, and its member configs
/// on fresh loopback ports with the 2.5 s serving tail every test here
/// starts from.
fn deploy(
    seed: u64,
    founders: usize,
    slots: u64,
    pop: bool,
    placements: &[AdversaryPlacement],
) -> (Deployment, Vec<NetNodeConfig>) {
    let mut deployment = Deployment::new(seed, founders, slots);
    deployment.node.pop = pop;
    deployment.adversaries = placements.to_vec();
    let addrs = discover_ports(founders).expect("probe ports");
    let mut configs = deployment.member_configs(&addrs);
    for c in &mut configs {
        c.linger = Duration::from_millis(2500);
    }
    (deployment, configs)
}

/// The outcomes judged against the engine reference under the same
/// placement. Honest chains must match it block for block; the adversary's
/// canonical chain is out of scope for the verdict.
fn honest_verdict(deployment: &Deployment, outcomes: &[NodeOutcome]) -> Verdict {
    let reference = deployment.reference();
    let verdict = judge(
        deployment,
        &reference,
        outcomes.iter().map(NodeOutcome::report),
    );
    assert!(
        verdict.honest_parity(),
        "an honest node diverged from the engine reference:\n{verdict}"
    );
    verdict
}

#[test]
fn equivocator_is_detected_and_honest_parity_holds() {
    // Node 3 mines a second, genuinely signed block per slot from slot 2
    // on and gossips both digests. Honest receivers must notice the
    // conflicting pair, discard it, re-pull the canonical digest, and
    // finish with chains identical to the engine reference — including
    // the PoP verification counters, which the equivocation must not
    // perturb (the adversary's canonical chain stays conformant).
    let placements = [AdversaryPlacement {
        node: NodeId(3),
        behavior: Behavior::Equivocate,
        slot: 2,
    }];
    let (deployment, mut configs) = deploy(41_007, 4, 9, true, &placements);
    for c in &mut configs {
        c.slot_timeout = Duration::from_secs(20);
    }

    let verdict = honest_verdict(&deployment, &LoopbackCluster::run(configs));
    let (conflicts, pulls) = (verdict.net.digest_conflicts, verdict.net.conflict_pulls);
    assert!(
        conflicts >= 1 && pulls >= 1,
        "honest nodes must detect the equivocation and re-pull \
(conflicts {conflicts}, pulls {pulls})"
    );
    assert!(
        verdict.degraded.is_empty(),
        "nodes {:?} timed out a barrier — pull recovery failed",
        verdict.degraded
    );
    assert!(
        verdict.wire_pop.0 > 0,
        "the workload must run PoP verifications"
    );
    assert!(
        verdict.pop_parity(),
        "PoP counters must match the engine under the same placement:\n{verdict}"
    );
}

#[test]
fn selfish_bans_land_on_the_engines_slot_in_lockstep() {
    // Node 4 keeps generating and gossiping but serves silence, so honest
    // validators record timeout offenses and ban it — and from then on
    // discard its gossip. Which of its digests a chain still accepts
    // depends on the ban landing on exactly the engine's slot: slot-t
    // digests fold *before* the slot-t PoP, gated by the blacklist as of
    // slot t-1. Folding after the PoP, or ungated at the next generation,
    // diverges every honest chain (first at slot 7 on this seed).
    let placements = [AdversaryPlacement {
        node: NodeId(4),
        behavior: Behavior::Selfish,
        slot: 0,
    }];
    let (deployment, mut configs) = deploy(17, 5, 12, true, &placements);
    for c in &mut configs {
        c.slot_timeout = Duration::from_secs(20);
    }

    let verdict = honest_verdict(&deployment, &LoopbackCluster::run(configs));
    assert!(
        verdict.wire_pop.0 > 0,
        "the workload must run PoP verifications"
    );
    assert!(
        verdict.pop_parity(),
        "PoP counters must match the engine under the same placement:\n{verdict}"
    );
}

#[test]
fn digest_liar_is_named_in_the_journal() {
    // Node 3 gossips corrupted digests for its own slots from slot 2 on.
    // Honest nodes must (a) re-pull and converge, (b) keep honest parity,
    // and (c) name the liar in their live journal — scraped over HTTP
    // *while the cluster runs*, the same evidence `tldag status` and the
    // forensics path consume. PoP mode, so digest gossip fans out to
    // every generator: node 0 observes the conflicting pair no matter
    // where the liar sits in the radio topology.
    let metrics_addr = discover_tcp_ports(1).expect("probe metrics port")[0];
    let placements = [AdversaryPlacement {
        node: NodeId(3),
        behavior: Behavior::DigestLie,
        slot: 2,
    }];
    let (deployment, mut configs) = deploy(52_118, 4, 8, true, &placements);
    for c in &mut configs {
        c.slot_timeout = Duration::from_secs(20);
        // Stretch the serving tail so the scraper below reliably
        // observes a live listener even if it starts polling late.
        c.linger = Duration::from_millis(4000);
    }
    configs[0].metrics_addr = Some(metrics_addr);

    // Scrape between spawn and join: the journal must be read mid-run
    // (the HTTP listener dies with the node thread).
    let cluster = LoopbackCluster::spawn(configs);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut journal = String::new();
    let mut named = false;
    while Instant::now() < deadline && !named {
        if let Ok(text) = http_get(metrics_addr, "/journal", Duration::from_secs(1)) {
            named = text.contains("conflicting digests from n3")
                && text.contains("peer flagged as adversarial");
            journal = text;
        }
        if !named {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    let outcomes: Vec<NodeOutcome> = cluster.join().into_iter().map(|(o, _)| o).collect();

    assert!(
        named,
        "node 0's journal must name n3 as adversarial; last scrape:\n{journal}"
    );
    let verdict = honest_verdict(&deployment, &outcomes);
    assert!(
        verdict.net.conflict_pulls >= 1,
        "the lie must trigger DigestReq pull recovery"
    );
    assert!(
        verdict.degraded.is_empty(),
        "nodes {:?} timed out a barrier",
        verdict.degraded
    );
}

/// A flapper goes dark mid-run, is evicted by liveness, then spams rejoin
/// announcements the honest roster must refuse. The honest nodes finish
/// every slot; the flapper's chain stops where it went dark. No parity is
/// asserted — the flapper forks from the reference by construction (the
/// engine has no liveness eviction), which is exactly why the cluster
/// verdict scopes to the honest subset.
fn flapper_run(seed: u64, window: u64, pop: bool) {
    let slots = 9;
    let flapper = AdversaryPlacement {
        node: NodeId(3),
        behavior: Behavior::Flapper,
        slot: 3,
    };
    let (_, mut configs) = deploy(seed, 4, slots, pop, &[flapper]);
    for c in &mut configs {
        c.window = window;
        if c.id == flapper.node {
            // Bounds the rejoin-spam phase (2x slot_timeout), and is
            // still generous for the three honest slots it executes.
            // Wide enough that eviction news + at least one refused
            // rejoin land even on a loaded CI runner.
            c.slot_timeout = Duration::from_secs(6);
            c.linger = Duration::from_millis(200);
        } else {
            c.evict_after = Some(Duration::from_millis(600));
            c.slot_timeout = Duration::from_secs(30);
        }
    }

    let outcomes = LoopbackCluster::run(configs);
    for honest in &outcomes[..3] {
        assert_eq!(
            honest.run.chain_len, slots,
            "honest node {} must finish every slot past the eviction",
            honest.run.node
        );
    }
    assert!(
        outcomes[3].run.chain_len < slots,
        "the flapper went dark and must not have a full chain (len {})",
        outcomes[3].run.chain_len
    );
    let evictions: u64 = outcomes.iter().map(|o| o.stats.evictions).sum();
    assert!(
        evictions >= 1,
        "an honest node must evict the dark flapper (got {evictions})"
    );
    let rejections: u64 = outcomes.iter().map(|o| o.stats.flap_rejections).sum();
    assert!(
        rejections >= 1,
        "rejoin spam from an evicted id must be refused (got {rejections})"
    );
}

#[test]
fn flapper_is_evicted_without_stalling_lockstep() {
    flapper_run(63_229, 1, false);
}

#[test]
fn flapper_is_evicted_without_stalling_the_pipelined_window() {
    flapper_run(63_230, 4, true);
}
