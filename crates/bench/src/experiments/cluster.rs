//! The transport-counter table the loopback-cluster experiments
//! (`fig12`–`fig15`) share. The clusters themselves — free ports, member
//! configs, node threads and the engine reference a wire run is compared
//! with — come from [`tldag_net::harness`].

use crate::report::{Cell, Table};
use crate::row;
use tldag_net::NetStats;

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
