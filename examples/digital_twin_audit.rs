//! Digital-twin audit: the paper's motivating scenario (Sec. I).
//!
//! A factory digital twin consumes telemetry from machine-mounted sensors.
//! Before trusting a historical reading for a maintenance decision, the
//! operator audits it: retrieve the block, check the sample's Merkle
//! inclusion proof against the signed root, and run Proof-of-Path so that
//! γ + 1 independent nodes vouch the block was never rewritten. The second
//! half of the demo shows the audit catching a tampered sensor.
//!
//! Run with: `cargo run --example digital_twin_audit`

use tldag::core::attack::Behavior;
use tldag::core::config::ProtocolConfig;
use tldag::core::network::TldagNetwork;
use tldag::core::workload::VerificationWorkload;
use tldag::crypto::merkle::MerkleTree;
use tldag::sim::engine::GenerationSchedule;
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};

fn main() {
    // A production cell: 20 sensor nodes across the factory floor.
    let mut rng = DetRng::seed_from(7);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes: 20,
            side_m: 250.0,
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let cfg = ProtocolConfig::paper_default()
        .with_body_bits(8 * 256)
        .with_gamma(4)
        .with_difficulty(6);
    let mut plant = TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(20), 7);
    plant.set_verification_workload(VerificationWorkload::Disabled);
    plant.run_slots(30);

    // --- Audit 1: an honest vibration sensor (n4), reading from slot 3. ---
    let sensor = NodeId(4);
    let operator = NodeId(0);
    let block_id = plant.node(sensor).store().get(3).expect("slot-3 block").id;

    println!("== audit of {block_id} (honest sensor) ==");
    let report = plant.run_pop(operator, block_id, true);
    println!(
        "  PoP: {:?}, {} vouching nodes, {} messages",
        report.outcome.as_ref().map(|_| "consensus"),
        report.distinct_nodes,
        report.metrics.total_messages()
    );

    // The operator can additionally audit one sample inside the body with a
    // Merkle inclusion proof — no need to trust the transport.
    let fetch = tldag::core::pop::messages::Request::Fetch(block_id);
    let Some(tldag::core::pop::messages::Reply::Block(block)) = plant.node(sensor).respond(&fetch)
    else {
        panic!("honest sensor serves its block");
    };
    let chunk_bytes = plant.config().merkle_chunk_bytes;
    let chunks: Vec<&[u8]> = block.body.payload.chunks(chunk_bytes).collect();
    let tree = MerkleTree::build(chunks.iter());
    let proof = tree.proof(0).expect("payload has at least one chunk");
    let sample_ok = proof.verify(&block.header.root, chunks[0]);
    println!("  sample[0] Merkle inclusion vs signed root: {sample_ok}");

    // --- Audit 2: a compromised sensor that rewrote its history. ---
    let rogue = NodeId(9);
    let rogue_block = plant.node(rogue).store().get(3).expect("slot-3 block").id;
    plant.set_behavior(rogue, Behavior::CorruptStore);

    println!("\n== audit of {rogue_block} (tampered store) ==");
    let report = plant.run_pop(operator, rogue_block, false);
    match report.outcome {
        Ok(()) => println!("  UNEXPECTED: tampering went unnoticed"),
        Err(e) => println!("  audit rejected the block: {e}"),
    }

    // --- Audit 3: the tampered node cannot hide behind silence either. ---
    plant.set_behavior(rogue, Behavior::Unresponsive);
    let report = plant.run_pop(operator, rogue_block, false);
    match report.outcome {
        Ok(()) => println!("  UNEXPECTED: silent node verified"),
        Err(e) => println!("  silent sensor also fails the audit: {e}"),
    }

    println!("\nconclusion: decisions based on {block_id} are safe; {rogue_block} is not.");
}
