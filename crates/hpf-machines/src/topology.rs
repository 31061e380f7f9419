//! The [`Topology`] trait and its four concrete interconnects.
//!
//! A topology answers the three questions the discrete-event network
//! model asks: *how many link-occupancy slots are there* ([`Topology::link_slots`]),
//! *which slot does a traversed link occupy* ([`Topology::link_index`]),
//! and *which links does a message cross* ([`Topology::route_links`]).
//! The DES asks without allocating: its healthy walk takes a route's
//! slots from [`Topology::route_into`], its fault walk takes the route's
//! links from [`Topology::route_links_into`] (faults name links), and
//! `link_index` needs no scratch memory either.
//! Routes may pass through **switch vertices** — vertex ids `>=
//! nodes()` (the fat tree's leaf and root switches); compute nodes are
//! always vertices `0..nodes()`.
//!
//! Every implementation's route enumeration is shortest-path (verified
//! against a BFS oracle by proptests below) and deterministic: the same
//! `(from, to)` always yields the same link sequence, which is what keeps
//! the simulator's f64 association order — and therefore every golden —
//! bit-stable.

use crate::error::TopologyError;
use machine::{FaultPlan, Hypercube, TopologyDesc};

/// Routing/occupancy view of one interconnect instance.
pub trait Topology: Send + Sync {
    /// Short topology label (e.g. `"hypercube"`, `"torus3d"`).
    fn kind(&self) -> &'static str;

    /// Compute-node count (vertices `0..nodes()`).
    fn nodes(&self) -> usize;

    /// Total vertex count including switch vertices.
    fn vertices(&self) -> usize {
        self.nodes()
    }

    /// Number of link-occupancy slots the DES must allocate.
    fn link_slots(&self) -> usize;

    /// Occupancy slot of the link joining *adjacent* vertices `a`, `b`.
    fn link_index(&self, a: usize, b: usize) -> usize;

    /// The links a message from node `a` to node `b` traverses, in
    /// order, as `(from, to)` vertex pairs. Empty when `a == b`.
    fn route_links(&self, a: usize, b: usize) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        self.route_links_into(a, b, &mut links);
        links
    }

    /// Append the links of the `a -> b` route to `out`, as
    /// [`Topology::route_links`] lists them, without allocating.
    fn route_links_into(&self, a: usize, b: usize, out: &mut Vec<(usize, usize)>);

    /// Append the occupancy slots of the `a -> b` route to `out`, in
    /// traversal order: exactly `route_links(a, b)` mapped through
    /// `link_index`, computed on the fly without allocating.
    fn route_into(&self, a: usize, b: usize, out: &mut Vec<usize>);

    /// Vertices adjacent to vertex `v` (switch vertices included).
    fn vertex_neighbors(&self, v: usize) -> Vec<usize>;

    /// Whether `a` and `b` are vertices joined by a link.
    fn is_link(&self, a: usize, b: usize) -> bool {
        a < self.vertices() && b < self.vertices() && self.vertex_neighbors(a).contains(&b)
    }

    /// Hop count of the `a -> b` route.
    fn hops(&self, a: usize, b: usize) -> usize {
        self.route_links(a, b).len()
    }

    /// Maximum hop count over all node pairs.
    fn diameter(&self) -> usize;
}

/// Check that every link fault of `plan` names a link of `topo`. A fault
/// on a pair of vertices that are not adjacent could never be crossed by
/// a message, so the plan is rejected instead of silently doing nothing.
pub fn check_link_faults(topo: &dyn Topology, plan: &FaultPlan) -> Result<(), TopologyError> {
    for f in &plan.link_faults {
        if !topo.is_link(f.a, f.b) {
            return Err(TopologyError::NoSuchLink {
                topology: topo.kind(),
                a: f.a,
                b: f.b,
            });
        }
    }
    Ok(())
}

/// Build the topology for a machine description, validating the node
/// count against the occupancy-model bounds that used to be hard
/// assertions in the DES network tables.
pub fn build_topology(
    desc: &TopologyDesc,
    nodes: usize,
) -> Result<Box<dyn Topology>, TopologyError> {
    let invalid = |reason: String| TopologyError::InvalidNodes {
        machine: desc.label().to_string(),
        nodes,
        reason,
    };
    if nodes == 0 {
        return Err(invalid("at least one node".into()));
    }
    match desc {
        TopologyDesc::Hypercube => {
            if nodes > 1024 {
                return Err(invalid(
                    "hypercube link tables are sized for at most 1024 nodes".into(),
                ));
            }
            Ok(Box::new(HypercubeTopo::fitting(nodes)))
        }
        TopologyDesc::Torus { dims } => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(invalid(format!("torus extents {dims:?} must be positive")));
            }
            let product: usize = dims.iter().product();
            if product != nodes {
                return Err(invalid(format!(
                    "torus extents {dims:?} hold {product} nodes"
                )));
            }
            if nodes > 4096 {
                return Err(invalid(
                    "torus link tables are sized for at most 4096 nodes".into(),
                ));
            }
            Ok(Box::new(TorusTopo { dims: dims.clone() }))
        }
        TopologyDesc::FatTree { radix } => {
            if *radix == 0 {
                return Err(invalid("fat-tree radix must be positive".into()));
            }
            if nodes > 4096 {
                return Err(invalid(
                    "fat-tree link tables are sized for at most 4096 nodes".into(),
                ));
            }
            Ok(Box::new(FatTreeTopo {
                nodes,
                radix: *radix,
            }))
        }
        TopologyDesc::Crossbar => {
            if nodes > 1024 {
                return Err(invalid(
                    "crossbar port tables are sized for at most 1024 nodes".into(),
                ));
            }
            Ok(Box::new(CrossbarTopo { nodes }))
        }
    }
}

/// Binary hypercube with e-cube routing — the iPSC/860 Direct-Connect
/// network. Link indexing matches the DES's flat occupancy table
/// (`min(a,b) * dim + crossed-dimension`) bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct HypercubeTopo {
    pub cube: Hypercube,
}

impl HypercubeTopo {
    pub fn fitting(nodes: usize) -> Self {
        HypercubeTopo {
            cube: Hypercube::fitting(nodes),
        }
    }
}

impl Topology for HypercubeTopo {
    fn kind(&self) -> &'static str {
        "hypercube"
    }

    fn nodes(&self) -> usize {
        self.cube.nodes()
    }

    fn link_slots(&self) -> usize {
        self.cube.nodes() * (self.cube.dim as usize).max(1)
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        a.min(b) * (self.cube.dim as usize).max(1) + (a ^ b).trailing_zeros() as usize
    }

    /// E-cube order: the set bits of `a ^ b`, lowest first.
    fn route_links_into(&self, a: usize, b: usize, out: &mut Vec<(usize, usize)>) {
        let mut cur = a;
        let mut diff = a ^ b;
        while diff != 0 {
            let next = cur ^ (1 << diff.trailing_zeros());
            out.push((cur, next));
            cur = next;
            diff &= diff - 1;
        }
    }

    fn route_into(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        let dim = (self.cube.dim as usize).max(1);
        let mut cur = a;
        let mut diff = a ^ b;
        while diff != 0 {
            let d = diff.trailing_zeros() as usize;
            let next = cur ^ (1 << d);
            out.push(cur.min(next) * dim + d);
            cur = next;
            diff &= diff - 1;
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.cube.dim)
            .map(|d| self.cube.neighbor(v, d))
            .collect()
    }

    fn hops(&self, a: usize, b: usize) -> usize {
        self.cube.hops(a, b) as usize
    }

    fn diameter(&self) -> usize {
        self.cube.dim as usize
    }
}

/// k-ary torus/mesh with dimension-ordered routing: each dimension is
/// resolved in turn, stepping in whichever wrap direction is shorter
/// (ties step `+1`). Dimension 0 varies fastest in the node numbering.
#[derive(Debug, Clone)]
pub struct TorusTopo {
    pub dims: Vec<usize>,
}

impl TorusTopo {
    /// The neighbor of `v` one step along dimension `d` (with
    /// wraparound): `+1` when `up`, else `-1`.
    fn step(&self, v: usize, d: usize, up: bool) -> usize {
        let (e, stride) = (self.dims[d], self.dims[..d].iter().product::<usize>());
        let c = v / stride % e;
        let next = if up { (c + 1) % e } else { (c + e - 1) % e };
        v - c * stride + next * stride
    }

    /// Canonical occupancy slot of the link between adjacent `u`, `w`
    /// along dimension `d`: the endpoint whose `+1` step crosses the
    /// link owns the slot (extent-2 rings collapse both directions onto
    /// one physical link, keyed by the lower endpoint).
    fn link_of(&self, u: usize, w: usize, d: usize) -> usize {
        let owner = if self.dims[d] == 2 {
            u.min(w)
        } else if self.step(u, d, true) == w {
            u
        } else {
            w
        };
        owner * self.dims.len() + d
    }
}

impl Topology for TorusTopo {
    fn kind(&self) -> &'static str {
        if self.dims.len() == 2 {
            "torus2d"
        } else {
            "torus3d"
        }
    }

    fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn link_slots(&self) -> usize {
        self.nodes() * self.dims.len()
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        let mut stride = 1;
        for (d, &e) in self.dims.iter().enumerate() {
            if a / stride % e != b / stride % e {
                return self.link_of(a, b, d);
            }
            stride *= e;
        }
        panic!("link_index of identical vertices")
    }

    /// Dimension-ordered: each axis, walked as a coordinate and a stride,
    /// is resolved in turn in its shorter wrap direction (ties go +1).
    fn route_links_into(&self, a: usize, b: usize, out: &mut Vec<(usize, usize)>) {
        let mut cur = a;
        let mut stride = 1;
        for &e in &self.dims {
            let mut c = cur / stride % e;
            let target = b / stride % e;
            while c != target {
                let fwd = (target + e - c) % e;
                let next_c = if fwd <= e - fwd {
                    (c + 1) % e
                } else {
                    (c + e - 1) % e
                };
                let next = cur - c * stride + next_c * stride;
                out.push((cur, next));
                cur = next;
                c = next_c;
            }
            stride *= e;
        }
    }

    /// [`Topology::route_links_into`] with each link keyed by its slot.
    fn route_into(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        let ndims = self.dims.len();
        let mut cur = a;
        let mut stride = 1;
        for (d, &e) in self.dims.iter().enumerate() {
            let mut c = cur / stride % e;
            let target = b / stride % e;
            while c != target {
                let fwd = (target + e - c) % e;
                // Shorter wrap direction; ties go +1. The endpoint whose +1
                // step crosses the link owns its slot; extent-2 rings key
                // both directions by the lower endpoint.
                let (next_c, plus) = if fwd <= e - fwd {
                    ((c + 1) % e, true)
                } else {
                    ((c + e - 1) % e, false)
                };
                let next = cur - c * stride + next_c * stride;
                let owner = if e == 2 {
                    cur.min(next)
                } else if plus {
                    cur
                } else {
                    next
                };
                out.push(owner * ndims + d);
                cur = next;
                c = next_c;
            }
            stride *= e;
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for d in 0..self.dims.len() {
            if self.dims[d] < 2 {
                continue;
            }
            let (up, down) = (self.step(v, d, true), self.step(v, d, false));
            out.push(up);
            if down != up {
                out.push(down);
            }
        }
        out
    }

    fn diameter(&self) -> usize {
        self.dims.iter().map(|e| e / 2).sum()
    }
}

/// Two-level fat tree with up/down routing. Vertices: compute nodes
/// `0..n`, leaf switches `n..n+s` (each serving `radix` consecutive
/// nodes), and one root switch `n+s`. A message climbs to its leaf
/// switch, crosses the root if the destination hangs off another leaf,
/// and descends — 2 hops intra-leaf, 4 inter-leaf. The single up-link
/// per leaf switch is the shared (thin) resource the occupancy model
/// serializes on.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeTopo {
    pub nodes: usize,
    pub radix: usize,
}

impl FatTreeTopo {
    fn switches(&self) -> usize {
        self.nodes.div_ceil(self.radix)
    }

    fn leaf_of(&self, node: usize) -> usize {
        self.nodes + node / self.radix
    }

    fn root(&self) -> usize {
        self.nodes + self.switches()
    }
}

impl Topology for FatTreeTopo {
    fn kind(&self) -> &'static str {
        "fat-tree"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn vertices(&self) -> usize {
        self.nodes + self.switches() + 1
    }

    /// One down-link per node plus one up-link per leaf switch.
    fn link_slots(&self) -> usize {
        self.nodes + self.switches()
    }

    fn link_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = (a.min(b), a.max(b));
        if hi == self.root() {
            // leaf switch <-> root: slot n + switch index.
            self.nodes + (lo - self.nodes)
        } else {
            // node <-> its leaf switch: slot = node id.
            debug_assert_eq!(self.leaf_of(lo), hi);
            lo
        }
    }

    fn route_links_into(&self, a: usize, b: usize, out: &mut Vec<(usize, usize)>) {
        if a == b {
            return;
        }
        let (la, lb) = (self.leaf_of(a), self.leaf_of(b));
        if la == lb {
            out.extend([(a, la), (la, b)]);
        } else {
            let root = self.root();
            out.extend([(a, la), (la, root), (root, lb), (lb, b)]);
        }
    }

    /// Node down-links are keyed by the node, leaf up-links by the leaf
    /// switch vertex.
    fn route_into(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        if a == b {
            return;
        }
        let (la, lb) = (self.leaf_of(a), self.leaf_of(b));
        if la == lb {
            out.extend([a, b]);
        } else {
            out.extend([a, la, lb, b]);
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        if v < self.nodes {
            vec![self.leaf_of(v)]
        } else if v < self.root() {
            let first = (v - self.nodes) * self.radix;
            let mut out: Vec<usize> = (first..(first + self.radix).min(self.nodes)).collect();
            out.push(self.root());
            out
        } else {
            (self.nodes..self.root()).collect()
        }
    }

    fn diameter(&self) -> usize {
        if self.switches() > 1 {
            4
        } else if self.nodes > 1 {
            2
        } else {
            0
        }
    }
}

/// Idealized crossbar (a modern multicore node): every pair of nodes is
/// one hop apart and the only contended resource is the receiver port —
/// `link_index` is the destination, so concurrent senders to one
/// receiver serialize while disjoint pairs stream in parallel.
#[derive(Debug, Clone, Copy)]
pub struct CrossbarTopo {
    pub nodes: usize,
}

impl Topology for CrossbarTopo {
    fn kind(&self) -> &'static str {
        "crossbar"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn link_slots(&self) -> usize {
        self.nodes
    }

    fn link_index(&self, _a: usize, b: usize) -> usize {
        b
    }

    fn route_links_into(&self, a: usize, b: usize, out: &mut Vec<(usize, usize)>) {
        if a != b {
            out.push((a, b));
        }
    }

    fn route_into(&self, a: usize, b: usize, out: &mut Vec<usize>) {
        if a != b {
            out.push(b);
        }
    }

    fn vertex_neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.nodes).filter(|&o| o != v).collect()
    }

    fn diameter(&self) -> usize {
        usize::from(self.nodes > 1)
    }
}

/// Test oracle: `route_into` appends exactly the slots of `route_links`
/// mapped through `link_index`, and leaves what `out` held before.
#[cfg(test)]
fn check_route_into(topo: &dyn Topology, a: usize, b: usize) {
    let expect: Vec<usize> = topo
        .route_links(a, b)
        .into_iter()
        .map(|(u, v)| topo.link_index(u, v))
        .collect();
    let mut out = vec![usize::MAX];
    topo.route_into(a, b, &mut out);
    assert_eq!(
        out[0],
        usize::MAX,
        "{}: route_into cleared its buffer",
        topo.kind()
    );
    assert_eq!(out[1..], expect[..], "{} {a}->{b}", topo.kind());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breadth-first distance between two vertices using only
    /// `vertex_neighbors` — the oracle the routing implementations are
    /// checked against.
    fn bfs_distance(topo: &dyn Topology, a: usize, b: usize) -> Option<usize> {
        let n = topo.vertices();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[a] = 0;
        queue.push_back(a);
        while let Some(v) = queue.pop_front() {
            if v == b {
                return Some(dist[v]);
            }
            for w in topo.vertex_neighbors(v) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// A route must be a connected walk from `a` to `b` whose length
    /// equals the BFS shortest-path distance, with every traversed link
    /// mapping to an in-bounds occupancy slot.
    fn check_routes(topo: &dyn Topology) {
        for a in 0..topo.nodes() {
            for b in 0..topo.nodes() {
                let links = topo.route_links(a, b);
                if a == b {
                    assert!(links.is_empty(), "{}: self-route not empty", topo.kind());
                    continue;
                }
                let mut cur = a;
                for &(from, to) in &links {
                    assert_eq!(from, cur, "{}: disconnected route {a}->{b}", topo.kind());
                    assert!(
                        topo.vertex_neighbors(from).contains(&to),
                        "{}: {from}->{to} not an edge",
                        topo.kind()
                    );
                    let slot = topo.link_index(from, to);
                    assert!(
                        slot < topo.link_slots(),
                        "{}: slot {slot} out of bounds ({})",
                        topo.kind(),
                        topo.link_slots()
                    );
                    // The slot must be direction-independent: one
                    // physical link, one occupancy row — except on the
                    // crossbar, where the "link" is the receiver port.
                    if topo.kind() != "crossbar" {
                        assert_eq!(slot, topo.link_index(to, from), "{}", topo.kind());
                    }
                    cur = to;
                }
                assert_eq!(cur, b, "{}: route {a}->{b} ends elsewhere", topo.kind());
                let oracle = bfs_distance(topo, a, b).expect("connected");
                assert_eq!(
                    links.len(),
                    oracle,
                    "{}: route {a}->{b} not shortest",
                    topo.kind()
                );
                assert_eq!(topo.hops(a, b), links.len());
                assert!(links.len() <= topo.diameter(), "{}", topo.kind());
            }
        }
    }

    #[test]
    fn hypercube_matches_bfs_oracle() {
        for dim in 0..5u32 {
            check_routes(&HypercubeTopo {
                cube: Hypercube { dim },
            });
        }
    }

    #[test]
    fn hypercube_link_index_matches_des_table_layout() {
        let t = HypercubeTopo::fitting(8);
        // min(a,b)*dim + crossed dimension — the DES flat-table formula.
        assert_eq!(t.link_index(2, 3), 2 * 3);
        assert_eq!(t.link_index(3, 2), 2 * 3);
        assert_eq!(t.link_index(5, 1), 3 + 2); // min(1,5)*dim + crossed dim 2
    }

    /// Up to 1024 nodes every hypercube link maps inside `link_slots`,
    /// the same slot from either end, and distinct links never share a
    /// slot (`nodes * dim / 2` of them; the rest of the table is unused).
    #[test]
    fn hypercube_link_slots_are_distinct_up_to_1024_nodes() {
        for dim in 1u32..=10 {
            let t = HypercubeTopo {
                cube: Hypercube { dim },
            };
            let mut seen = std::collections::HashSet::new();
            for a in 0..t.nodes() {
                for b in t.vertex_neighbors(a) {
                    let i = t.link_index(a, b);
                    assert!(i < t.link_slots(), "dim {dim}: link ({a},{b}) -> {i}");
                    assert_eq!(i, t.link_index(b, a), "must be undirected");
                    seen.insert(i);
                }
            }
            assert_eq!(seen.len(), t.nodes() * dim as usize / 2, "dim {dim}");
        }
    }

    #[test]
    fn fat_tree_routes_are_up_down() {
        let t = FatTreeTopo {
            nodes: 10,
            radix: 4,
        };
        assert_eq!(t.route_links(0, 3).len(), 2); // same leaf
        assert_eq!(t.route_links(0, 9).len(), 4); // via root
        check_routes(&t);
    }

    #[test]
    fn crossbar_is_single_hop() {
        let t = CrossbarTopo { nodes: 7 };
        check_routes(&t);
        assert_eq!(t.link_index(3, 5), 5);
        assert_eq!(t.link_index(2, 5), 5); // receiver-port serialization
    }

    #[test]
    fn torus_extent_two_collapses_to_one_link() {
        let t = TorusTopo { dims: vec![2, 2] };
        check_routes(&t);
        // Both directions across an extent-2 ring share one slot.
        assert_eq!(t.link_index(0, 1), t.link_index(1, 0));
    }

    /// Every backend at every node count to 16 and a spread of larger
    /// ones up to 128, every pair: `route_into` is `route_links` mapped
    /// through `link_index`.
    #[test]
    fn route_into_matches_route_links_up_to_128_nodes() {
        for n in (1..=16usize).chain([24, 27, 32, 48, 64, 100, 128]) {
            let mut topos: Vec<Box<dyn Topology>> = vec![
                Box::new(TorusTopo {
                    dims: crate::registry::balanced_dims3(n),
                }),
                Box::new(FatTreeTopo { nodes: n, radix: 4 }),
                Box::new(FatTreeTopo { nodes: n, radix: 3 }),
                Box::new(CrossbarTopo { nodes: n }),
            ];
            if n.is_power_of_two() {
                topos.push(Box::new(HypercubeTopo::fitting(n)));
            }
            for topo in &topos {
                for a in 0..n {
                    for b in 0..n {
                        check_route_into(topo.as_ref(), a, b);
                    }
                }
            }
        }
        for dims in [vec![2, 3, 4], vec![5, 5], vec![3, 1, 7], vec![8, 4, 4]] {
            let topo = TorusTopo { dims };
            for a in 0..topo.nodes() {
                for b in 0..topo.nodes() {
                    check_route_into(&topo, a, b);
                }
            }
        }
    }

    #[test]
    fn link_faults_must_name_real_links() {
        let cube = HypercubeTopo::fitting(8);
        assert!(check_link_faults(&cube, &FaultPlan::link_down(0, 4)).is_ok());
        assert_eq!(
            check_link_faults(&cube, &FaultPlan::link_down(0, 3)),
            Err(TopologyError::NoSuchLink {
                topology: "hypercube",
                a: 0,
                b: 3
            })
        );
        assert!(check_link_faults(&cube, &FaultPlan::degraded_link(0, 99, 2.0)).is_err());
        // The fat tree's links join nodes to switch vertices.
        let tree = FatTreeTopo { nodes: 8, radix: 4 };
        assert!(check_link_faults(&tree, &FaultPlan::link_down(0, 8)).is_ok());
        assert!(check_link_faults(&tree, &FaultPlan::link_down(0, 1)).is_err());
        // Loss and node faults name no link.
        assert!(check_link_faults(&tree, &FaultPlan::lossy(0.5)).is_ok());
    }

    #[test]
    fn build_topology_validates_bounds() {
        assert!(build_topology(&TopologyDesc::Hypercube, 8).is_ok());
        assert!(matches!(
            build_topology(&TopologyDesc::Hypercube, 2048),
            Err(TopologyError::InvalidNodes { .. })
        ));
        assert!(matches!(
            build_topology(&TopologyDesc::Torus { dims: vec![2, 3] }, 7),
            Err(TopologyError::InvalidNodes { .. })
        ));
        assert!(matches!(
            build_topology(&TopologyDesc::Crossbar, 0),
            Err(TopologyError::InvalidNodes { .. })
        ));
    }
}

#[cfg(test)]
mod topology_properties {
    use super::*;
    use proptest::prelude::*;

    fn bfs(topo: &dyn Topology, a: usize, b: usize) -> usize {
        let mut dist = vec![usize::MAX; topo.vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[a] = 0;
        queue.push_back(a);
        while let Some(v) = queue.pop_front() {
            for w in topo.vertex_neighbors(v) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist[b]
    }

    fn route_is_shortest(topo: &dyn Topology, a: usize, b: usize) {
        let links = topo.route_links(a, b);
        let mut cur = a;
        for &(from, to) in &links {
            assert_eq!(from, cur);
            let slot = topo.link_index(from, to);
            assert!(slot < topo.link_slots());
            cur = to;
        }
        assert_eq!(cur, b);
        assert_eq!(links.len(), bfs(topo, a, b));
    }

    proptest! {
        /// Every backend topology's route enumeration yields shortest
        /// paths matching the BFS oracle on random small instances.
        #[test]
        fn routes_match_bfs_oracle(
            dim in 0u32..5,
            d1 in 1usize..5, d2 in 1usize..5, d3 in 1usize..4,
            ft_nodes in 1usize..20, radix in 1usize..6,
            xbar in 1usize..17,
            pair in (0usize..4096, 0usize..4096),
        ) {
            let topos: Vec<Box<dyn Topology>> = vec![
                Box::new(HypercubeTopo { cube: Hypercube { dim } }),
                Box::new(TorusTopo { dims: vec![d1, d2, d3] }),
                Box::new(FatTreeTopo { nodes: ft_nodes, radix }),
                Box::new(CrossbarTopo { nodes: xbar }),
            ];
            for topo in &topos {
                let a = pair.0 % topo.nodes();
                let b = pair.1 % topo.nodes();
                route_is_shortest(topo.as_ref(), a, b);
            }
        }

        /// At 4096 nodes, sampled pairs: `route_into` is `route_links`
        /// mapped through `link_index` on all four backends.
        #[test]
        fn route_into_matches_route_links_at_4096_nodes(
            pair in (0usize..4096, 0usize..4096),
        ) {
            let topos: Vec<Box<dyn Topology>> = vec![
                Box::new(HypercubeTopo::fitting(4096)),
                Box::new(TorusTopo { dims: crate::registry::balanced_dims3(4096) }),
                Box::new(TorusTopo { dims: vec![64, 64] }),
                Box::new(FatTreeTopo { nodes: 4096, radix: 4 }),
                Box::new(CrossbarTopo { nodes: 4096 }),
            ];
            for topo in &topos {
                super::check_route_into(topo.as_ref(), pair.0, pair.1);
            }
        }
    }
}
