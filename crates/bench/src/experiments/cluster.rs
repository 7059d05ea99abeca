//! What the loopback-cluster experiments (`fig12`–`fig15`) share: free
//! ports, the engine reference a wire run is compared with, and the
//! transport-counter table.

use crate::report::{Cell, Table};
use crate::row;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::replay_reference_schedule;
use tldag_net::membership::ChurnEvent;
use tldag_net::runtime::{deployment_protocol_config, deployment_topology};
use tldag_net::{AdversaryPlacement, NetStats};
use tldag_sim::engine::GenerationSchedule;

/// Discovers `n` distinct loopback UDP ports by binding and releasing.
pub(super) fn discover_ports(n: usize) -> Vec<std::net::SocketAddr> {
    let sockets: Vec<std::net::UdpSocket> = (0..n)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe"))
        .collect();
    sockets
        .iter()
        .map(|s| s.local_addr().expect("probe addr"))
        .collect()
}

/// The engine reference for one deployment: same seed, same topology, the
/// membership schedule and adversary cast replayed through the same helper
/// the cluster harness uses — one definition of the reference, no drift
/// between the parity checks.
pub(super) fn reference_run(
    seed: u64,
    founders: usize,
    gamma: usize,
    slots: u64,
    events: &[ChurnEvent],
    placements: &[AdversaryPlacement],
) -> TldagNetwork {
    let topology = deployment_topology(seed, founders, 300.0);
    let cfg = deployment_protocol_config(gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(cfg, topology, schedule, seed);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: founders as u64,
    });
    replay_reference_schedule(&mut net, events, placements, founders, seed, slots);
    net
}

/// The transport counters of each sweep point: one row per counter, one
/// column per labelled point.
pub(super) fn net_table(name: &str, points: Vec<(String, NetStats)>) -> Table {
    let mut table = Table::new(name, "transport counters, merged across every endpoint");
    let fields: Vec<_> = points.iter().map(|(_, net)| net.fields()).collect();
    for (i, (counter, _)) in NetStats::default().fields().into_iter().enumerate() {
        let mut row = row!["counter" => counter];
        let values = points.iter().zip(&fields);
        row.extend(values.map(|((label, _), f)| (label.as_str(), Cell::Int(f[i].1))));
        table.push(row);
    }
    table
}
