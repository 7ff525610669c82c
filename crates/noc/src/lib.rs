//! 2D-mesh network-on-chip timing model for the WiSync simulator.
//!
//! The paper's baseline interconnect is a 2D mesh with 4 cycles/hop and
//! 128-bit links (Table 1). This crate models:
//!
//! - [`Mesh`] topology: node coordinates, XY routing distance, and
//!   point-to-point latency,
//! - memory-controller placement (4 controllers at the mesh edges),
//! - the virtual-tree broadcast of Baseline+ ([`Mesh::broadcast_latency`],
//!   after Krishna et al., "Towards the ideal on-chip fabric for 1-to-many
//!   and many-to-1 communication" \[22\]),
//! - link-traffic accounting for utilization reports.
//!
//! The model is transaction-level: a message's latency is its hop count
//! times the per-hop latency plus a serialization term, and congestion is
//! modeled where it matters for synchronization — at the protocol
//! endpoints (see `wisync-mem`) — rather than per-flit in the routers.
//!
//! # Examples
//!
//! ```
//! use wisync_noc::{Mesh, NodeId};
//!
//! let mesh = Mesh::new(64, 4);
//! // 64 cores form an 8x8 mesh.
//! assert_eq!(mesh.side(), 8);
//! // Corner to corner: 14 hops of 4 cycles each.
//! let lat = mesh.latency(NodeId(0), NodeId(63));
//! assert_eq!(lat, 14 * 4);
//! ```

use std::fmt;

mod nodeset;

pub use nodeset::NodeSet;

/// Identifies one node (core + caches + transceiver) in the manycore.
///
/// Nodes are numbered row-major across the mesh: node `i` sits at
/// coordinates `(i % side, i / side)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the raw index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> NodeId {
        NodeId(v)
    }
}

/// Mesh coordinates `(x, y)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..side`.
    pub x: usize,
    /// Row, `0..side`.
    pub y: usize,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A 2D mesh of `n` nodes with XY (dimension-ordered) routing.
///
/// `n` must be a perfect square (the paper sweeps 16, 32, 64, 128, 256;
/// non-square counts like 32 and 128 are laid out on the smallest
/// enclosing rectangle, see [`Mesh::new`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mesh {
    nodes: usize,
    width: usize,
    height: usize,
    hop_latency: u64,
    /// `(x, y)` of every node, so distance queries look coordinates up
    /// instead of dividing by the width on every message.
    xy: Box<[(u32, u32)]>,
}

impl Mesh {
    /// Creates a mesh for `nodes` nodes with the given per-hop latency in
    /// cycles.
    ///
    /// The mesh is as square as possible: width is `ceil(sqrt(nodes))`
    /// rounded to cover all nodes, height is `ceil(nodes / width)`. A
    /// 64-node mesh is 8x8; a 128-node mesh is 12x11 (last row partially
    /// filled).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `hop_latency == 0`.
    pub fn new(nodes: usize, hop_latency: u64) -> Self {
        assert!(nodes > 0, "mesh must have at least one node");
        assert!(hop_latency > 0, "hop latency must be positive");
        let width = (nodes as f64).sqrt().ceil() as usize;
        let height = nodes.div_ceil(width);
        let xy = (0..nodes)
            .map(|i| {
                let axis = |v: usize| u32::try_from(v).expect("mesh coordinate fits u32");
                (axis(i % width), axis(i / width))
            })
            .collect();
        Mesh {
            nodes,
            width,
            height,
            hop_latency,
            xy,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the mesh is empty (never true; meshes have ≥1 node).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mesh width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Side length for square meshes; for rectangular layouts this is the
    /// width.
    pub fn side(&self) -> usize {
        self.width
    }

    /// Per-hop latency in cycles.
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.nodes, "node {node} out of range");
        let (x, y) = self.xy[node.0];
        Coord {
            x: x as usize,
            y: y as usize,
        }
    }

    /// Manhattan (XY-routing) hop count between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.xy[a.0];
        let (bx, by) = self.xy[b.0];
        u64::from(ax.abs_diff(bx)) + u64::from(ay.abs_diff(by))
    }

    /// One-way point-to-point latency in cycles between two nodes.
    ///
    /// Zero-hop (same node) messages still cost one hop of latency for
    /// network injection/ejection, matching the local/remote asymmetry in
    /// Table 1's round-trip numbers.
    #[inline]
    pub fn latency(&self, a: NodeId, b: NodeId) -> u64 {
        let h = self.hops(a, b);
        if h == 0 {
            self.hop_latency
        } else {
            h * self.hop_latency
        }
    }

    /// Average hop count over all ordered node pairs, a cheap proxy for
    /// expected network latency used by analytic models and tests.
    pub fn mean_hops(&self) -> f64 {
        let mut total = 0u64;
        for a in 0..self.nodes {
            for b in 0..self.nodes {
                total += self.hops(NodeId(a), NodeId(b));
            }
        }
        total as f64 / (self.nodes as f64 * self.nodes as f64)
    }

    /// Latency for a one-to-all broadcast using the Baseline+ virtual-tree
    /// support (flit replication at router crossbars, Krishna et al.
    /// \[22\]).
    ///
    /// A tree broadcast completes when the farthest leaf receives the
    /// flit: the maximum hop distance from `src` to any node, times the
    /// hop latency. This is the best case for a mesh (replication is free
    /// at each router), which makes Baseline+ a strong comparator, as in
    /// the paper.
    pub fn broadcast_latency(&self, src: NodeId) -> u64 {
        let c = self.coord(src);
        let dx = c.x.max(self.width - 1 - c.x);
        // Height of the rectangle actually containing nodes.
        let used_rows = self.nodes.div_ceil(self.width);
        let dy = c.y.max(used_rows - 1 - c.y);
        ((dx + dy) as u64).max(1) * self.hop_latency
    }

    /// Latency for an all-to-one reduction toward `dst` over the tree:
    /// same distance bound as the broadcast (messages flow leaf-to-root).
    pub fn reduction_latency(&self, dst: NodeId) -> u64 {
        self.broadcast_latency(dst)
    }

    /// The nodes hosting the 4 memory controllers, placed at the corners
    /// of the mesh (paper: "connected to 4 mem controllers").
    ///
    /// Meshes with fewer than 4 nodes reuse node 0.
    pub fn memory_controllers(&self) -> [NodeId; 4] {
        let last = self.nodes - 1;
        let top_right = (self.width - 1).min(last);
        let bottom_left = (self.width * (self.height - 1)).min(last);
        [
            NodeId(0),
            NodeId(top_right),
            NodeId(bottom_left),
            NodeId(last),
        ]
    }

    /// The memory controller closest to `node` (ties break to the lowest
    /// node id), and the hop distance to it.
    pub fn nearest_memory_controller(&self, node: NodeId) -> (NodeId, u64) {
        let mut best = (NodeId(0), u64::MAX);
        for mc in self.memory_controllers() {
            let h = self.hops(node, mc);
            if h < best.1 {
                best = (mc, h);
            }
        }
        best
    }

    /// Home L2 bank for a physical address: line-granular round-robin
    /// across all banks (one bank per node), the standard
    /// statically-interleaved S-NUCA mapping.
    pub fn home_bank(&self, line_addr: u64) -> NodeId {
        NodeId((line_addr % self.nodes as u64) as usize)
    }

    /// Iterates over all node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_layout() {
        let m = Mesh::new(64, 4);
        assert_eq!(m.width(), 8);
        assert_eq!(m.height(), 8);
        assert_eq!(m.len(), 64);
        assert_eq!(m.coord(NodeId(0)), Coord { x: 0, y: 0 });
        assert_eq!(m.coord(NodeId(63)), Coord { x: 7, y: 7 });
        assert_eq!(m.coord(NodeId(9)), Coord { x: 1, y: 1 });
    }

    #[test]
    fn rectangular_layout_covers_all_nodes() {
        for n in [16usize, 32, 64, 128, 256] {
            let m = Mesh::new(n, 4);
            assert!(m.width() * m.height() >= n, "n={n}");
            // Every node has valid coordinates.
            for i in 0..n {
                let c = m.coord(NodeId(i));
                assert!(c.x < m.width() && c.y < m.height());
            }
        }
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let m = Mesh::new(64, 4);
        for a in 0..64 {
            for b in 0..64 {
                assert_eq!(m.hops(NodeId(a), NodeId(b)), m.hops(NodeId(b), NodeId(a)));
            }
        }
        // Triangle inequality on a sample.
        let (a, b, c) = (NodeId(3), NodeId(42), NodeId(60));
        assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
    }

    #[test]
    fn latency_scales_with_hop_latency() {
        let slow = Mesh::new(64, 6);
        let fast = Mesh::new(64, 2);
        let (a, b) = (NodeId(0), NodeId(63));
        assert_eq!(slow.latency(a, b) / fast.latency(a, b), 3);
    }

    #[test]
    fn local_latency_is_one_hop() {
        let m = Mesh::new(64, 4);
        assert_eq!(m.latency(NodeId(5), NodeId(5)), 4);
    }

    #[test]
    fn broadcast_reaches_farthest_corner() {
        let m = Mesh::new(64, 4);
        // From a corner the farthest node is 14 hops away.
        assert_eq!(m.broadcast_latency(NodeId(0)), 56);
        // From the center it is cheaper.
        let center = NodeId(8 * 4 + 4);
        assert!(m.broadcast_latency(center) < 56);
        assert_eq!(m.reduction_latency(NodeId(0)), 56);
    }

    #[test]
    fn broadcast_latency_grows_with_mesh() {
        let small = Mesh::new(16, 4);
        let big = Mesh::new(256, 4);
        assert!(big.broadcast_latency(NodeId(0)) > small.broadcast_latency(NodeId(0)));
    }

    #[test]
    fn memory_controllers_are_distinct_corners() {
        let m = Mesh::new(64, 4);
        let mcs = m.memory_controllers();
        assert_eq!(mcs, [NodeId(0), NodeId(7), NodeId(56), NodeId(63)]);
        let (mc, h) = m.nearest_memory_controller(NodeId(9));
        assert_eq!(mc, NodeId(0));
        assert_eq!(h, 2);
    }

    #[test]
    fn home_bank_covers_all_banks() {
        let m = Mesh::new(16, 4);
        let mut hit = [false; 16];
        for line in 0..64u64 {
            hit[m.home_bank(line).as_usize()] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn mean_hops_reasonable() {
        let m = Mesh::new(64, 4);
        // Analytic mean hop distance of an 8x8 mesh is 2*(8-1/8)/3 ≈ 5.25.
        let mh = m.mean_hops();
        assert!((mh - 5.25).abs() < 0.01, "mean hops {mh}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        Mesh::new(16, 4).coord(NodeId(16));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        Mesh::new(0, 4);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Coord { x: 1, y: 2 }.to_string(), "(1,2)");
    }

    #[test]
    fn iter_yields_all() {
        let m = Mesh::new(16, 4);
        assert_eq!(m.iter().count(), 16);
        assert_eq!(m.iter().last(), Some(NodeId(15)));
    }
}
