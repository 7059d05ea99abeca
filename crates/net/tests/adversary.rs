//! Byzantine behaviors over real loopback sockets: an equivocator and a
//! digest liar are detected from conflicting `SlotDigest` gossip (pull
//! recovery re-converges the honest barriers), and a membership flapper is
//! evicted without stalling the honest slot loop. Honest nodes must keep
//! byte-identical chain digests with an in-memory engine run under the
//! identical [`Behavior`] placement — the honest-subset parity contract.

use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::network::TldagNetwork;
use tldag_net::harness::{discover_ports, discover_tcp_ports};
use tldag_net::runtime::NodeOutcome;
use tldag_net::{AdversaryPlacement, Deployment, LoopbackCluster, NetNodeConfig};
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
    deployment.pop = pop;
    deployment.adversaries = placements.to_vec();
    let addrs = discover_ports(founders).expect("probe ports");
    let mut configs = deployment.member_configs(&addrs);
    for c in &mut configs {
        c.linger = Duration::from_millis(2500);
    }
    (deployment, configs)
}

/// Honest chains must match the engine reference block for block; the
/// adversary's canonical chain is out of scope for the verdict.
fn assert_honest_parity(outcomes: &[NodeOutcome], reference: &TldagNetwork, honest: &[u32]) {
    for &id in honest {
        assert_eq!(
            outcomes[id as usize].run.chain_digest,
            reference.chain_digest(NodeId(id)),
            "honest node n{id} diverged from the engine reference"
        );
    }
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

    let outcomes = LoopbackCluster::run(configs);
    let reference = deployment.reference();

    assert_honest_parity(&outcomes, &reference, &[0, 1, 2]);
    let conflicts: u64 = outcomes.iter().map(|o| o.stats.digest_conflicts).sum();
    let pulls: u64 = outcomes.iter().map(|o| o.stats.conflict_pulls).sum();
    assert!(
        conflicts >= 1 && pulls >= 1,
        "honest nodes must detect the equivocation and re-pull \
(conflicts {conflicts}, pulls {pulls})"
    );
    for o in &outcomes {
        assert!(
            !o.run.degraded,
            "node {} timed out a barrier — pull recovery failed",
            o.run.node
        );
    }
    let wire_attempts: u64 = outcomes.iter().map(|o| o.run.pop_attempts).sum();
    let wire_successes: u64 = outcomes.iter().map(|o| o.run.pop_successes).sum();
    let (ref_attempts, ref_successes) = reference.pop_counters();
    assert!(wire_attempts > 0, "the workload must run PoP verifications");
    assert_eq!(
        (wire_attempts, wire_successes),
        (ref_attempts, ref_successes),
        "PoP counters must match the engine under the same placement"
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

    let outcomes = LoopbackCluster::run(configs);
    let reference = deployment.reference();

    assert_honest_parity(&outcomes, &reference, &[0, 1, 2, 3]);
    let wire_attempts: u64 = outcomes.iter().map(|o| o.run.pop_attempts).sum();
    let wire_successes: u64 = outcomes.iter().map(|o| o.run.pop_successes).sum();
    assert!(wire_attempts > 0, "the workload must run PoP verifications");
    assert_eq!(
        (wire_attempts, wire_successes),
        reference.pop_counters(),
        "PoP counters must match the engine under the same placement"
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
    assert_honest_parity(&outcomes, &deployment.reference(), &[0, 1, 2]);
    let pulls: u64 = outcomes.iter().map(|o| o.stats.conflict_pulls).sum();
    assert!(pulls >= 1, "the lie must trigger DigestReq pull recovery");
    for o in &outcomes {
        assert!(!o.run.degraded, "node {} timed out a barrier", o.run.node);
    }
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
