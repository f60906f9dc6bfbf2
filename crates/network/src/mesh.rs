//! Wormhole-routed 2D mesh (Section 5.3 of the paper).

use dirext_kernel::{Resource, Time};
use dirext_trace::NodeId;

use crate::{Envelope, Network, TrafficStats};

/// A wormhole-routed 2D mesh with dimension-order (X then Y) routing.
///
/// The paper's meshes are "wormhole-routed with two phases (routing +
/// transfer), and are clocked at the same frequency as the processors
/// (100 MHz)" with link widths of 64, 32, and 16 bits. We model:
///
/// * a per-hop header latency of `router_delay` cycles (the two phases),
/// * a body occupancy of `ceil(8 * bytes / link_bits)` cycles (one flit per
///   link cycle),
/// * per-link contention: the head flit waits for each link to become free,
///   and while the body streams through a link that link is unavailable to
///   other messages. This captures wormhole head-of-line blocking at
///   message granularity, which is what saturates the 16-bit mesh in
///   Table 3.
///
/// # Example
///
/// ```
/// use dirext_kernel::Time;
/// use dirext_network::{Envelope, MeshNetwork, Network, TrafficClass};
/// use dirext_trace::NodeId;
///
/// let mut mesh = MeshNetwork::new(4, 4, 64);
/// // 1 hop, 40-byte message on 64-bit links: 2 (router) + 5 (flits).
/// let arrival = mesh.send(
///     Time::ZERO,
///     Envelope::new(NodeId(0), NodeId(1), 40, TrafficClass::Data),
/// );
/// assert_eq!(arrival, Time::from_cycles(7));
/// ```
#[derive(Debug)]
pub struct MeshNetwork {
    link_bits: u32,
    router_delay: u64,
    /// One `Resource` per unidirectional link. Links are indexed by
    /// `(from_router * 4) + direction`.
    links: Vec<Resource>,
    /// Precomputed X-Y routes for every `(src, dst)` pair. Dimension-order
    /// routes are static, so `send` only walks an arena slice instead of
    /// re-deriving the path (which previously needed a recycled scratch
    /// `Vec` to stay allocation-free).
    routes: RouteTable,
    traffic: TrafficStats,
    name: String,
}

/// All `(src, dst)` routes of a grid, stored back-to-back in one hop arena.
///
/// `spans[src * nodes + dst]` is the `(offset, len)` of that pair's link
/// sequence inside `hops`. Built once at construction; `send` is then a
/// pure table walk with zero per-message work beyond the links themselves.
#[derive(Debug)]
struct RouteTable {
    hops: Vec<u32>,
    spans: Vec<(u32, u16)>,
    nodes: usize,
}

impl RouteTable {
    /// Stores `route(src, dst, path)`'s derivation for every pair of
    /// `nodes` endpoints.
    fn new(nodes: usize, mut route: impl FnMut(usize, usize, &mut Vec<usize>)) -> Self {
        let mut hops = Vec::new();
        let mut spans = Vec::with_capacity(nodes * nodes);
        let mut path = Vec::new();
        for src in 0..nodes {
            for dst in 0..nodes {
                path.clear();
                route(src, dst, &mut path);
                spans.push((hops.len() as u32, path.len() as u16));
                hops.extend(path.iter().map(|&l| l as u32));
            }
        }
        RouteTable { hops, spans, nodes }
    }

    /// The links of the `src -> dst` route, in traversal order.
    #[inline]
    fn hops(&self, src: usize, dst: usize) -> &[u32] {
        let (off, len) = self.spans[src * self.nodes + dst];
        &self.hops[off as usize..off as usize + len as usize]
    }
}

/// Walks a message's head flit over `hops` (link indices relative to
/// `base`), starting at `head`: it waits for each link, then spends `delay`
/// cycles routing, while the body keeps the link busy for `delay + flits`.
/// Returns when the head leaves the last link.
#[inline]
fn walk(
    links: &mut [Resource],
    base: usize,
    hops: &[u32],
    delay: u64,
    flits: u64,
    head: Time,
) -> Time {
    let mut head = head;
    for &link in hops {
        let start = links[base + link as usize].acquire(head, Time::from_cycles(delay + flits));
        head = start + Time::from_cycles(delay);
    }
    head
}

/// Direction of a unidirectional mesh link out of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn idx(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }
}

/// Appends the X-Y (dimension-order) route `from -> to` on a `cols`-wide
/// grid of routers to `path`, mapping each hop through
/// `link_of(router, dir)`.
fn grid_route(
    cols: usize,
    from: usize,
    to: usize,
    path: &mut Vec<usize>,
    link_of: impl Fn(usize, Dir) -> usize,
) {
    let (mut x, mut y) = (from % cols, from / cols);
    let (dx, dy) = (to % cols, to / cols);
    while x != dx {
        let dir = if dx > x { Dir::East } else { Dir::West };
        path.push(link_of(y * cols + x, dir));
        if dx > x {
            x += 1;
        } else {
            x -= 1;
        }
    }
    while y != dy {
        let dir = if dy > y { Dir::South } else { Dir::North };
        path.push(link_of(y * cols + x, dir));
        if dy > y {
            y += 1;
        } else {
            y -= 1;
        }
    }
}

impl MeshNetwork {
    /// Creates a `cols × rows` mesh with the given link width in bits.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `link_bits` is zero.
    pub fn new(cols: usize, rows: usize, link_bits: u32) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        assert!(link_bits > 0, "link width must be positive");
        assert!(
            cols * rows <= 256,
            "the flat mesh precomputes all-pairs routes and stops at 256 nodes; \
             use HierMeshNetwork for larger machines"
        );
        MeshNetwork {
            link_bits,
            router_delay: 2,
            links: vec![Resource::new(); cols * rows * 4],
            routes: RouteTable::new(cols * rows, |src, dst, path| {
                grid_route(cols, src, dst, path, |router, dir| router * 4 + dir.idx())
            }),
            traffic: TrafficStats::new(),
            name: format!("mesh{cols}x{rows}-{link_bits}bit"),
        }
    }

    /// The paper's 16-node mesh (4×4) with the given link width (64, 32 or
    /// 16 bits in Section 5.3).
    pub fn paper_mesh(link_bits: u32) -> Self {
        Self::new(4, 4, link_bits)
    }

    /// Body occupancy of a message in link cycles (flits).
    fn flits(&self, bytes: u32) -> u64 {
        Envelope::flits_on(bytes, self.link_bits)
    }

    /// The arena-stored route for a pair (reads what `send` will walk).
    #[cfg(test)]
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        self.routes
            .hops(src.idx(), dst.idx())
            .iter()
            .map(|&l| l as usize)
            .collect()
    }
}

impl Network for MeshNetwork {
    fn send(&mut self, now: Time, env: Envelope) -> Time {
        if env.is_local() {
            return now;
        }
        self.traffic.record(&env);
        let flits = self.flits(env.bytes);
        let hops = self.routes.hops(env.src.idx(), env.dst.idx());
        let head = walk(&mut self.links, 0, hops, self.router_delay, flits, now);
        head + Time::from_cycles(flits)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A hierarchical two-level wormhole mesh for machines past the flat
/// mesh's route-table budget: nodes are grouped into 4×4 clusters (each an
/// ordinary wormhole mesh), and the clusters themselves form a 2D mesh of
/// *express links* between cluster gateways (each cluster's local node 0).
///
/// An inter-cluster message rides its source cluster's mesh to the
/// gateway, crosses the cluster grid on express links (dimension-order,
/// like any mesh), and descends the destination cluster's mesh. Express
/// hops charge a higher per-hop router delay (longer, pipelined wires)
/// but the same link width, so wide machines keep the flit model of
/// Section 5.3. 1024 nodes = 64 clusters = an 8×8 express grid.
///
/// Routes are precomputed per level, like [`MeshNetwork`]'s: one table of
/// the `cluster_size²` router pairs inside a cluster (every cluster shares
/// it, offset by the cluster's first link) and one of the `clusters²`
/// gateway pairs on the express grid — 256 + 4096 pairs at 1024 nodes,
/// where an all-pairs table would need a million. `send` walks at most
/// three table slices and never allocates.
#[derive(Debug)]
pub struct HierMeshNetwork {
    /// Intra-cluster mesh width (4 for full clusters); row count follows
    /// from `cluster_size`.
    ccols: usize,
    /// Cluster-grid width; row count follows from the cluster count.
    gcols: usize,
    cluster_size: usize,
    link_bits: u32,
    /// Per-hop header latency inside a cluster.
    router_delay: u64,
    /// Per-hop header latency on an express link.
    express_delay: u64,
    /// Intra-cluster links first (`(cluster * cluster_size + router) * 4 +
    /// dir`), then express links (`express_base + grid_router * 4 + dir`).
    links: Vec<Resource>,
    express_base: usize,
    /// Routes between the routers of one cluster, as cluster 0's links;
    /// cluster `c`'s are `c * cluster_size * 4` further on.
    intra: RouteTable,
    /// Routes between cluster gateways on the express grid.
    express: RouteTable,
    traffic: TrafficStats,
    name: String,
}

impl HierMeshNetwork {
    /// Creates a hierarchical mesh covering `nodes` processors with the
    /// given link width in bits.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `link_bits` is zero.
    pub fn new(nodes: usize, link_bits: u32) -> Self {
        assert!(nodes > 0, "a network needs nodes");
        assert!(link_bits > 0, "link width must be positive");
        let cluster_size = nodes.min(16);
        let clusters = nodes.div_ceil(cluster_size);
        let ccols = (cluster_size as f64).sqrt().ceil() as usize;
        let gcols = (clusters as f64).sqrt().ceil() as usize;
        let grows = clusters.div_ceil(gcols.max(1));
        let express_base = clusters * cluster_size * 4;
        let mut net = HierMeshNetwork {
            ccols,
            gcols,
            cluster_size,
            link_bits,
            router_delay: 2,
            express_delay: 4,
            links: vec![Resource::new(); express_base + gcols * grows * 4],
            express_base,
            intra: RouteTable::new(0, |_, _, _| {}),
            express: RouteTable::new(0, |_, _, _| {}),
            traffic: TrafficStats::new(),
            name: format!("hmesh{gcols}x{grows}x{cluster_size}-{link_bits}bit"),
        };
        net.intra = RouteTable::new(cluster_size, |from, to, path| {
            grid_route(net.ccols, from, to, path, |router, dir| {
                router * 4 + dir.idx()
            })
        });
        net.express = RouteTable::new(clusters, |from, to, path| {
            grid_route(net.gcols, from, to, path, |router, dir| {
                net.express_base + router * 4 + dir.idx()
            })
        });
        net
    }

    fn flits(&self, bytes: u32) -> u64 {
        Envelope::flits_on(bytes, self.link_bits)
    }

    /// A node's cluster and its router within the cluster.
    fn locate(&self, n: NodeId) -> (usize, usize) {
        (n.idx() / self.cluster_size, n.idx() % self.cluster_size)
    }

    /// Derives the full route directly: intra-cluster ascent to the
    /// gateway, express traversal of the cluster grid, intra-cluster
    /// descent. Same-cluster traffic never touches an express link. The
    /// oracle for the route tables.
    #[cfg(test)]
    fn route_into(&self, src: NodeId, dst: NodeId, path: &mut Vec<usize>) {
        let ((sc, sl), (dc, dl)) = (self.locate(src), self.locate(dst));
        let intra = |cluster: usize| {
            move |router: usize, dir: Dir| (cluster * self.cluster_size + router) * 4 + dir.idx()
        };
        if sc == dc {
            grid_route(self.ccols, sl, dl, path, intra(sc));
            return;
        }
        grid_route(self.ccols, sl, 0, path, intra(sc));
        let express_start = path.len();
        grid_route(self.gcols, sc, dc, path, |router, dir| {
            self.express_base + router * 4 + dir.idx()
        });
        debug_assert!(path.len() > express_start, "distinct clusters need hops");
        grid_route(self.ccols, 0, dl, path, intra(dc));
    }

    /// The route `send` walks for a pair, read from the tables the same
    /// way.
    #[cfg(test)]
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        let ((sc, sl), (dc, dl)) = (self.locate(src), self.locate(dst));
        let leg = |base: usize, hops: &[u32]| hops.iter().map(|&l| base + l as usize).collect();
        let stride = self.cluster_size * 4;
        if sc == dc {
            return leg(sc * stride, self.intra.hops(sl, dl));
        }
        let mut path: Vec<usize> = leg(sc * stride, self.intra.hops(sl, 0));
        path.extend(self.express.hops(sc, dc).iter().map(|&l| l as usize));
        path.extend(leg(dc * stride, self.intra.hops(0, dl)));
        path
    }
}

impl Network for HierMeshNetwork {
    fn send(&mut self, now: Time, env: Envelope) -> Time {
        if env.is_local() {
            return now;
        }
        self.traffic.record(&env);
        let flits = self.flits(env.bytes);
        let ((sc, sl), (dc, dl)) = (self.locate(env.src), self.locate(env.dst));
        let stride = self.cluster_size * 4;
        let (intra, express) = (&self.intra, &self.express);
        let mut leg = |base: usize, hops: &[u32], delay: u64, head: Time| {
            walk(&mut self.links, base, hops, delay, flits, head)
        };
        let head = if sc == dc {
            leg(sc * stride, intra.hops(sl, dl), self.router_delay, now)
        } else {
            let up = leg(sc * stride, intra.hops(sl, 0), self.router_delay, now);
            let across = leg(0, express.hops(sc, dc), self.express_delay, up);
            leg(dc * stride, intra.hops(0, dl), self.router_delay, across)
        };
        head + Time::from_cycles(flits)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficClass;
    use proptest::prelude::*;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    fn env(src: u16, dst: u16, bytes: u32) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), bytes, TrafficClass::Data)
    }

    #[test]
    fn flit_count_rounds_up() {
        let mesh = MeshNetwork::paper_mesh(64);
        assert_eq!(mesh.flits(40), 5); // 320 bits / 64
        assert_eq!(mesh.flits(8), 1);
        assert_eq!(mesh.flits(9), 2); // 72 bits -> 2 flits
        let narrow = MeshNetwork::paper_mesh(16);
        assert_eq!(narrow.flits(40), 20);
    }

    #[test]
    fn route_arena_matches_fresh_derivation() {
        for dims in [(4usize, 4usize), (3, 5), (1, 7)] {
            let mesh = MeshNetwork::new(dims.0, dims.1, 32);
            for src in 0..dims.0 * dims.1 {
                for dst in 0..dims.0 * dims.1 {
                    let mut fresh = Vec::new();
                    grid_route(dims.0, src, dst, &mut fresh, |router, dir| {
                        router * 4 + dir.idx()
                    });
                    let route = mesh.route(NodeId(src as u16), NodeId(dst as u16));
                    assert_eq!(route, fresh, "{dims:?} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn hier_route_tables_match_fresh_derivation() {
        for nodes in [5usize, 16, 48, 64, 256, 1000, 1024] {
            let net = HierMeshNetwork::new(nodes, 32);
            let mut fresh = Vec::new();
            for src in 0..nodes {
                for dst in 0..nodes {
                    let (s, d) = (NodeId(src as u16), NodeId(dst as u16));
                    fresh.clear();
                    net.route_into(s, d, &mut fresh);
                    assert_eq!(net.route(s, d), fresh, "{nodes} nodes: {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn xy_route_lengths() {
        let mesh = MeshNetwork::paper_mesh(64);
        // Node 0 = (0,0); node 15 = (3,3): 6 hops.
        assert_eq!(mesh.route(NodeId(0), NodeId(15)).len(), 6);
        assert_eq!(mesh.route(NodeId(0), NodeId(3)).len(), 3);
        assert_eq!(mesh.route(NodeId(5), NodeId(5)).len(), 0);
        // Route back differs in links but not in length.
        assert_eq!(mesh.route(NodeId(15), NodeId(0)).len(), 6);
    }

    #[test]
    fn uncontended_latency() {
        let mut mesh = MeshNetwork::paper_mesh(64);
        // 0 -> 15: 6 hops * 2 cycles + 5 flits = 17.
        assert_eq!(mesh.send(t(0), env(0, 15, 40)), t(17));
    }

    #[test]
    fn contention_on_shared_link_delays_second_message() {
        let mut mesh = MeshNetwork::paper_mesh(16);
        // Both messages cross the same first link (0 -> 1 eastbound).
        let a = mesh.send(t(0), env(0, 1, 40));
        let b = mesh.send(t(0), env(0, 1, 40));
        assert!(b > a, "second message must queue behind the first");
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut mesh = MeshNetwork::paper_mesh(16);
        let a = mesh.send(t(0), env(0, 1, 40));
        let b = mesh.send(t(0), env(15, 14, 40));
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn narrower_links_are_slower() {
        let mut wide = MeshNetwork::paper_mesh(64);
        let mut narrow = MeshNetwork::paper_mesh(16);
        let a = wide.send(t(0), env(0, 15, 40));
        let b = narrow.send(t(0), env(0, 15, 40));
        assert!(b > a);
    }

    #[test]
    fn hier_mesh_same_cluster_matches_flat_mesh() {
        // 16 nodes = one full cluster: the hierarchy degenerates to 4x4.
        let mut hier = HierMeshNetwork::new(16, 64);
        let mut flat = MeshNetwork::paper_mesh(64);
        for (s, d) in [(0u16, 15u16), (3, 12), (5, 5), (15, 0)] {
            assert_eq!(
                hier.send(t(0), env(s, d, 40)),
                flat.send(t(0), env(s, d, 40)),
                "{s}->{d}"
            );
        }
    }

    #[test]
    fn hier_mesh_scales_to_1024_nodes() {
        let mut hier = HierMeshNetwork::new(1024, 64);
        assert_eq!(hier.name(), "hmesh8x8x16-64bit");
        // Same cluster: purely local mesh hops.
        let near = hier.send(t(0), env(0, 15, 40));
        assert_eq!(near, t(17)); // 6 hops * 2 + 5 flits, as on the flat 4x4
                                 // Node 0 is cluster 0's gateway: no ascent, 14 express hops
                                 // (corner to corner of the 8x8 grid), 6-hop descent.
        let gw = hier.send(t(0), env(0, 1023, 40));
        assert_eq!(gw, t(14 * 4 + 6 * 2 + 5));
        // Opposite corners of the machine (fresh network, so the gateway
        // send above cannot contend): 6-hop ascent, 14 express hops,
        // 6-hop descent.
        let far = HierMeshNetwork::new(1024, 64).send(t(0), env(15, 1023, 40));
        assert_eq!(far, t(6 * 2 + 14 * 4 + 6 * 2 + 5));
        assert!(far > near);
    }

    #[test]
    fn hier_mesh_express_links_contend() {
        let mut hier = HierMeshNetwork::new(64, 16);
        // Two messages from cluster 0 to cluster 3 share the gateway path.
        let a = hier.send(t(0), env(0, 48, 40));
        let b = hier.send(t(0), env(1, 49, 40));
        let solo = HierMeshNetwork::new(64, 16).send(t(0), env(1, 49, 40));
        assert!(b > solo || a < b, "shared express links must serialize");
    }

    #[test]
    fn hier_mesh_routes_are_deterministic() {
        let mut a = HierMeshNetwork::new(256, 32);
        let mut b = HierMeshNetwork::new(256, 32);
        for i in 0..200u16 {
            let (s, d) = (i % 256, (i * 37 + 11) % 256);
            assert_eq!(
                a.send(t(i as u64), env(s, d, 40)),
                b.send(t(i as u64), env(s, d, 40))
            );
        }
    }

    proptest! {
        /// Any route under X-Y routing has Manhattan-distance length and
        /// delivery never precedes departure.
        #[test]
        fn routes_are_manhattan(src in 0u16..16, dst in 0u16..16, bytes in 1u32..200) {
            let mut mesh = MeshNetwork::paper_mesh(32);
            let (sx, sy) = (src % 4, src / 4);
            let (dx, dy) = (dst % 4, dst / 4);
            let dist = (sx.abs_diff(dx) + sy.abs_diff(dy)) as usize;
            prop_assert_eq!(mesh.route(NodeId(src), NodeId(dst)).len(), dist);
            let arrival = mesh.send(t(100), env(src, dst, bytes));
            prop_assert!(arrival >= t(100));
        }
    }
}
