//! Unit-disk IoT network topologies built with the paper's placement rule.
//!
//! Sec. VI of the paper: *"The physical network consists of 50 wireless IoT
//! nodes [...]. All nodes have a communication range of 50 meters. To ensure a
//! connected network, we place nodes one by one. That is, we start by randomly
//! placing a node in the center of the said area. A new node is then added to
//! the area with the condition that it is always placed randomly within the
//! communication range of an already deployed node."*
//!
//! [`Topology::random_connected`] implements exactly that procedure;
//! [`Topology::from_edges`] builds the hand-drawn topologies of Figs. 3–6 for
//! unit tests.

use crate::geometry::Point;
use crate::rng::DetRng;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a physical node (index into the topology's node list).
///
/// # Example
///
/// ```
/// use tldag_sim::NodeId;
///
/// let id = NodeId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Parameters of the random deployment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopologyConfig {
    /// Number of nodes, |V|.
    pub nodes: usize,
    /// Side length of the square deployment area, in meters.
    pub side_m: f64,
    /// Radio range, in meters.
    pub range_m: f64,
    /// Maximum placement attempts per node before relaxing to any position in
    /// range of the chosen anchor (guards against pathological rejection).
    pub max_attempts: usize,
}

impl TopologyConfig {
    /// The paper's evaluation setting: 50 nodes, 50 m range. The paper says
    /// "an area of 1000 square meters"; a literal 31.6 m × 31.6 m square would
    /// make the graph nearly complete, contradicting the 17–26-hop consensus
    /// paths of Sec. VI-B, so we read it as a 1000 m × 1000 m square (see
    /// DESIGN.md §1).
    pub fn paper_default() -> Self {
        TopologyConfig {
            nodes: 50,
            side_m: 1000.0,
            range_m: 50.0,
            max_attempts: 64,
        }
    }

    /// A small topology for fast unit tests.
    pub fn small(nodes: usize) -> Self {
        TopologyConfig {
            nodes,
            side_m: 200.0,
            range_m: 50.0,
            max_attempts: 64,
        }
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An undirected unit-disk graph `G(V, E)` with node positions.
#[derive(Clone, Debug)]
pub struct Topology {
    positions: Vec<Point>,
    adjacency: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds a connected topology with the paper's incremental placement.
    ///
    /// The first node sits at the center of the area; each subsequent node is
    /// placed uniformly at random inside the radio range of a uniformly chosen
    /// already-placed anchor node (rejecting positions outside the area).
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes == 0`.
    pub fn random_connected(config: &TopologyConfig, rng: &mut DetRng) -> Self {
        assert!(config.nodes > 0, "topology needs at least one node");
        let mut positions: Vec<Point> = Vec::with_capacity(config.nodes);
        positions.push(Point::new(config.side_m / 2.0, config.side_m / 2.0));
        while positions.len() < config.nodes {
            let anchor = positions[rng.index(positions.len())];
            let mut placed = None;
            for _ in 0..config.max_attempts {
                // Uniform point in the disk of radius `range_m` around anchor:
                // r = R√u gives area-uniform radius.
                let r = config.range_m * rng.unit_f64().sqrt();
                let theta = rng.range_f64(0.0, std::f64::consts::TAU);
                let candidate = Point::new(anchor.x + r * theta.cos(), anchor.y + r * theta.sin());
                if candidate.in_square(config.side_m) {
                    placed = Some(candidate);
                    break;
                }
            }
            // The anchor itself is inside the area, so falling back to the
            // anchor's position keeps the graph connected in the (vanishingly
            // rare) case where every sampled point landed outside.
            positions.push(placed.unwrap_or(anchor));
        }
        Self::from_positions(positions, config.range_m)
    }

    /// Builds a topology from explicit positions and a radio range.
    pub fn from_positions(positions: Vec<Point>, range_m: f64) -> Self {
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if positions[i].in_range(&positions[j], range_m) {
                    adjacency[i].push(NodeId(j as u32));
                    adjacency[j].push(NodeId(i as u32));
                }
            }
        }
        Topology {
            positions,
            adjacency,
        }
    }

    /// Builds a topology from an explicit edge list (positions are synthetic).
    /// Used to reproduce the hand-drawn examples in Figs. 3–6 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= nodes` or is a self-loop.
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
        for &(a, b) in edges {
            assert!(a != b, "self-loop {a}-{b}");
            assert!(
                (a as usize) < nodes && (b as usize) < nodes,
                "edge {a}-{b} out of bounds"
            );
            if !adjacency[a as usize].contains(&NodeId(b)) {
                adjacency[a as usize].push(NodeId(b));
                adjacency[b as usize].push(NodeId(a));
            }
        }
        let positions = (0..nodes).map(|i| Point::new(i as f64, 0.0)).collect();
        Topology {
            positions,
            adjacency,
        }
    }

    /// Number of nodes |V|.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The neighbor set `N(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adjacency[id.index()]
    }

    /// Degree `|N(i)|`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adjacency[id.index()].len()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    /// True if `a` and `b` share an edge.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].contains(&b)
    }

    /// Total number of undirected edges |E|.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether the graph is connected (trivially true for ≤1 nodes).
    pub fn is_connected(&self) -> bool {
        if self.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([NodeId(0)]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.len()
    }

    /// BFS hop distances from `source`; `None` for unreachable nodes.
    pub(crate) fn hop_distances(&self, source: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.len()];
        dist[source.index()] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in self.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Graph diameter in hops (`None` if disconnected).
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for src in self.node_ids() {
            for d in self.hop_distances(src) {
                best = best.max(d?);
            }
        }
        Some(best)
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.adjacency.iter().map(Vec::len).sum::<usize>() as f64 / self.len() as f64
    }

    /// Adds a node at `position`, wiring edges to every existing node within
    /// `range_m`. Returns the new node's id. Supports the dynamic-membership
    /// extension (paper Sec. VII future work).
    pub fn add_node(&mut self, position: Point, range_m: f64) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        let mut edges = Vec::new();
        for existing in 0..self.positions.len() {
            if self.positions[existing].in_range(&position, range_m) {
                edges.push(NodeId(existing as u32));
            }
        }
        for &nb in &edges {
            self.adjacency[nb.index()].push(id);
        }
        self.positions.push(position);
        self.adjacency.push(edges);
        id
    }

    /// Disconnects a node from the graph (its id remains valid so historical
    /// references stay resolvable, but it has no edges). Models a node
    /// leaving the network.
    pub fn isolate_node(&mut self, id: NodeId) {
        let neighbors = std::mem::take(&mut self.adjacency[id.index()]);
        for nb in neighbors {
            self.adjacency[nb.index()].retain(|&n| n != id);
        }
    }

    /// BFS parent array rooted at `source`: `parents[v]` is `v`'s predecessor
    /// on a shortest path from `source` (`None` for the source itself and for
    /// unreachable nodes). Used to attribute multi-hop message relaying.
    pub fn shortest_path_parents(&self, source: NodeId) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.len()];
        let mut seen = vec![false; self.len()];
        seen[source.index()] = true;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    parents[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_connected_for_many_seeds() {
        let config = TopologyConfig::paper_default();
        for seed in 0..20 {
            let mut rng = DetRng::seed_from(seed);
            let topo = Topology::random_connected(&config, &mut rng);
            assert_eq!(topo.len(), 50);
            assert!(topo.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn edges_respect_radio_range() {
        let config = TopologyConfig::paper_default();
        let mut rng = DetRng::seed_from(11);
        let topo = Topology::random_connected(&config, &mut rng);
        for a in topo.node_ids() {
            for &b in topo.neighbors(a) {
                assert!(
                    topo.position(a).in_range(&topo.position(b), config.range_m),
                    "{a}-{b} out of range"
                );
            }
        }
    }

    #[test]
    fn all_positions_inside_area() {
        let config = TopologyConfig::paper_default();
        let mut rng = DetRng::seed_from(13);
        let topo = Topology::random_connected(&config, &mut rng);
        for id in topo.node_ids() {
            assert!(topo.position(id).in_square(config.side_m));
        }
    }

    #[test]
    fn same_seed_same_topology() {
        let config = TopologyConfig::small(20);
        let t1 = Topology::random_connected(&config, &mut DetRng::seed_from(5));
        let t2 = Topology::random_connected(&config, &mut DetRng::seed_from(5));
        for id in t1.node_ids() {
            assert_eq!(t1.neighbors(id), t2.neighbors(id));
            assert_eq!(t1.position(id), t2.position(id));
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let config = TopologyConfig::small(30);
        let topo = Topology::random_connected(&config, &mut DetRng::seed_from(17));
        for a in topo.node_ids() {
            for &b in topo.neighbors(a) {
                assert!(topo.are_neighbors(b, a), "asymmetric edge {a}-{b}");
            }
        }
    }

    #[test]
    fn fig3_topology_from_edges() {
        // Fig. 3: N(A)={B}, N(B)={A,C,D}, N(C)={B,D}, N(D)={B,C}
        // A=0, B=1, C=2, D=3.
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(topo.degree(NodeId(1)), 3);
        assert_eq!(topo.degree(NodeId(2)), 2);
        assert_eq!(topo.degree(NodeId(3)), 2);
        assert!(topo.is_connected());
        assert_eq!(topo.edge_count(), 4);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let topo = Topology::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(topo.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        Topology::from_edges(2, &[(1, 1)]);
    }

    #[test]
    fn hop_distances_on_a_path_graph() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = topo.hop_distances(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(topo.diameter(), Some(3));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!topo.is_connected());
        assert_eq!(topo.diameter(), None);
    }

    #[test]
    fn single_node_topology() {
        let topo = Topology::from_edges(1, &[]);
        assert!(topo.is_connected());
        assert_eq!(topo.diameter(), Some(0));
        assert_eq!(topo.mean_degree(), 0.0);
    }

    #[test]
    fn add_node_wires_in_range_edges() {
        let mut topo = Topology::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(40.0, 0.0),
                Point::new(200.0, 0.0),
            ],
            50.0,
        );
        let id = topo.add_node(Point::new(20.0, 0.0), 50.0);
        assert_eq!(id, NodeId(3));
        assert!(topo.are_neighbors(id, NodeId(0)));
        assert!(topo.are_neighbors(id, NodeId(1)));
        assert!(!topo.are_neighbors(id, NodeId(2)));
        assert!(topo.are_neighbors(NodeId(0), id), "edges are symmetric");
    }

    #[test]
    fn isolate_node_removes_all_edges() {
        let mut topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
        topo.isolate_node(NodeId(1));
        assert_eq!(topo.degree(NodeId(1)), 0);
        assert!(!topo.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!topo.are_neighbors(NodeId(2), NodeId(1)));
        // Untouched edges survive.
        assert!(topo.are_neighbors(NodeId(2), NodeId(3)));
    }

    #[test]
    fn shortest_path_parents_trace_back_to_source() {
        let topo = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let parents = topo.shortest_path_parents(NodeId(0));
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], Some(NodeId(0)));
        assert_eq!(
            parents[4],
            Some(NodeId(0)),
            "direct edge beats the long way"
        );
        // Walk from 3 back to 0: 3 → (2 or 4) → ... terminates at source.
        let mut at = NodeId(3);
        let mut hops = 0;
        while let Some(p) = parents[at.index()] {
            at = p;
            hops += 1;
            assert!(hops < 5, "must terminate");
        }
        assert_eq!(at, NodeId(0));
        assert_eq!(hops, 2);
    }

    #[test]
    fn multihop_paths_exist_in_paper_topology() {
        // The paper's consensus paths traverse 17-26 nodes, so the deployment
        // must be multi-hop. Check diameter is well above 1.
        let config = TopologyConfig::paper_default();
        let mut any_multihop = false;
        for seed in 0..5 {
            let topo = Topology::random_connected(&config, &mut DetRng::seed_from(seed));
            if topo.diameter().unwrap_or(0) >= 5 {
                any_multihop = true;
            }
        }
        assert!(any_multihop, "paper-scale topologies should be multi-hop");
    }
}
