//! Switched-network topology: switches, links, routing, and ground-truth
//! no-load end-to-end latency.

use crate::arch::Architecture;
use crate::error::ClusterError;
use crate::node::{Node, NodeId};
use crate::LatencyProvider;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifier of a switch within a [`Cluster`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// The id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// A network switch. Forwarding through a switch costs [`Switch::hop_latency`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Switch {
    /// Dense switch identifier.
    pub id: SwitchId,
    /// Number of ports (descriptive; not enforced).
    pub ports: u32,
    /// Per-hop forwarding latency in seconds.
    pub hop_latency: f64,
    /// Human-readable label, e.g. `"3Com #05"`.
    pub label: String,
}

/// A bidirectional inter-switch link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint switch.
    pub a: SwitchId,
    /// The other endpoint switch.
    pub b: SwitchId,
    /// Link bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Link propagation/serialisation setup latency in seconds.
    pub latency: f64,
}

/// Pre-computed routing information for a pair of nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInfo {
    /// Fixed latency component: both NICs, every switch hop, every link setup.
    pub base_latency: f64,
    /// Bottleneck bandwidth along the path (min of both NICs and all links),
    /// in bytes/second.
    pub bottleneck_bw: f64,
    /// Number of switches traversed.
    pub switch_hops: u32,
    /// Indices (into [`Cluster::links`]) of the inter-switch links used, in
    /// path order. Used by the simulator for link-contention accounting.
    pub link_indices: Vec<u32>,
}

impl PathInfo {
    /// No-load end-to-end latency of a `bytes`-byte message over this path:
    /// fixed base latency plus serialisation at the bottleneck bandwidth.
    #[inline]
    pub fn latency(&self, bytes: u64) -> f64 {
        serialised(self.base_latency, self.bottleneck_bw, bytes as f64)
    }
}

/// Fixed base latency plus serialisation of `bytes` at bandwidth `bw`.
#[inline]
fn serialised(base: f64, bw: f64, bytes: f64) -> f64 {
    base + bytes / bw
}

/// Intra-node communication: a tiny loopback latency, very high bandwidth.
const LOOPBACK: PathInfo = PathInfo {
    base_latency: 1e-6,
    bottleneck_bw: 1e9,
    switch_hops: 0,
    link_indices: Vec::new(),
};

/// An immutable heterogeneous cluster: nodes attached to a connected graph of
/// switches. Built via [`crate::ClusterBuilder`]; all-pairs switch routes and
/// the walks over them are pre-computed at construction time.
#[derive(Debug, Clone)]
pub struct Cluster {
    name: String,
    nodes: Vec<Node>,
    switches: Vec<Switch>,
    links: Vec<Link>,
    /// `routes[a * S + b]` = (link index sequence) between switches a and b.
    routes: Vec<Vec<u32>>,
    /// `port[n]` = node n's port: nodes with the same switch and bit-equal
    /// NIC latency and bandwidth share one, because a walk reads nothing
    /// else of a node.
    port: Vec<u32>,
    /// Number of distinct ports, `P`.
    ports: usize,
    /// `walks[p * P + q]` = `(base latency, bottleneck bandwidth)` of the
    /// walk from port p to port q.
    walks: Vec<(f64, f64)>,
}

impl Cluster {
    /// Cluster name (e.g. `"centurion"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never the case for built clusters).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, indexed by `NodeId`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All switches, indexed by `SwitchId`.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// All inter-switch links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range (programmer error: node ids are only
    /// created by this crate or validated at API boundaries).
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterator over all node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Ids of all nodes of the given architecture.
    pub fn nodes_by_arch(&self, arch: Architecture) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.arch == arch)
            .map(|n| n.id)
            .collect()
    }

    /// The stored switch route between two nodes' switches.
    fn route(&self, na: &Node, nb: &Node) -> &[u32] {
        &self.routes[na.switch.index() * self.switches.len() + nb.switch.index()]
    }

    /// The one walk over a route: `(base latency, bottleneck bandwidth)`
    /// between two nodes. Only [`Cluster::assemble`] calls it, once per
    /// ordered port pair; [`Cluster::path`] and [`Cluster::no_load_latency`]
    /// read its result from `walks`, so every latency has the bits this
    /// fold gives.
    fn walk(&self, a: NodeId, b: NodeId) -> (f64, f64) {
        let na = self.node(a);
        let nb = self.node(b);
        let route = self.route(na, nb);

        let mut base = na.nic_latency + nb.nic_latency;
        let mut bw = na.nic_bandwidth.min(nb.nic_bandwidth);
        // Every switch on the path forwards once. The path visits
        // `route.len() + 1` switches (endpoints' switches included).
        base += self.switches[na.switch.index()].hop_latency;
        let mut cur = na.switch;
        for &li in route {
            let link = &self.links[li as usize];
            base += link.latency;
            bw = bw.min(link.bandwidth);
            cur = if link.a == cur { link.b } else { link.a };
            base += self.switches[cur.index()].hop_latency;
        }
        debug_assert_eq!(cur, nb.switch, "route must terminate at b's switch");
        (base, bw)
    }

    /// The tabulated walk between two nodes: two port loads and a table
    /// load.
    #[inline]
    fn walked(&self, a: NodeId, b: NodeId) -> (f64, f64) {
        self.walks[self.port[a.index()] as usize * self.ports + self.port[b.index()] as usize]
    }

    /// Node `id`'s port, the key of [`Cluster::port_latency`]; `None` off
    /// the cluster.
    #[inline]
    pub fn port(&self, id: NodeId) -> Option<u32> {
        self.port.get(id.index()).copied()
    }

    /// No-load latency between two *distinct* nodes on ports `from` and
    /// `to` for a message of `bytes` bytes (a float, as a compiled plan
    /// stores it): one table load. [`Cluster::no_load_latency`] is this
    /// after two port loads, so both give the same bits. A port off the
    /// table costs `+∞`.
    #[inline]
    pub fn port_latency(&self, from: u32, to: u32, bytes: f64) -> f64 {
        match self.walks.get(from as usize * self.ports + to as usize) {
            Some(&(base, bw)) if (to as usize) < self.ports => serialised(base, bw, bytes),
            _ => f64::INFINITY,
        }
    }

    /// A node's latency to itself: the loopback path.
    #[inline]
    pub fn loopback_latency(bytes: f64) -> f64 {
        serialised(LOOPBACK.base_latency, LOOPBACK.bottleneck_bw, bytes)
    }

    /// Routing information between two (distinct) nodes.
    ///
    /// For `a == b` (intra-node communication) a degenerate path with a tiny
    /// loopback latency and very high bandwidth is returned.
    pub fn path(&self, a: NodeId, b: NodeId) -> PathInfo {
        if a == b {
            return LOOPBACK;
        }
        let (base_latency, bottleneck_bw) = self.walked(a, b);
        let route = self.route(self.node(a), self.node(b));
        PathInfo {
            base_latency,
            bottleneck_bw,
            switch_hops: route.len() as u32 + 1,
            link_indices: route.to_vec(),
        }
    }

    /// Ground-truth no-load end-to-end latency (seconds) between two nodes
    /// for a message of `bytes` bytes: [`PathInfo::latency`] of
    /// [`Cluster::path`], without building the path (eq. 6 asks once per
    /// message group).
    pub fn no_load_latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        if a == b {
            return Self::loopback_latency(bytes as f64);
        }
        let (from, to) = (self.port[a.index()], self.port[b.index()]);
        self.port_latency(from, to, bytes as f64)
    }

    /// Maximum over minimum pairwise no-load latency at a representative
    /// message size — the "latency spread" figure the paper quotes (§6):
    /// up to ~13 % for Centurion, up to ~54 % for Orange Grove.
    pub fn latency_spread(&self, bytes: u64) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for a in self.node_ids() {
            for b in self.node_ids() {
                if a == b {
                    continue;
                }
                let l = self.no_load_latency(a, b, bytes);
                min = min.min(l);
                max = max.max(l);
            }
        }
        if min.is_finite() && min > 0.0 {
            max / min - 1.0
        } else {
            0.0
        }
    }

    /// Render the topology as a Graphviz DOT document: switches as boxes,
    /// nodes as ellipses grouped per switch (architecture-labelled), links
    /// with bandwidth/latency annotations.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{", self.name);
        let _ = writeln!(out, "  layout=neato; overlap=false;");
        for sw in &self.switches {
            let _ = writeln!(out, "  sw{} [shape=box,label=\"{}\"];", sw.id.0, sw.label);
        }
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  n{} [label=\"n{} ({})\"];",
                n.id.0,
                n.id.0,
                n.arch.label()
            );
            let _ = writeln!(out, "  n{} -- sw{};", n.id.0, n.switch.0);
        }
        for l in &self.links {
            let _ = writeln!(
                out,
                "  sw{} -- sw{} [label=\"{:.0} MB/s, {:.1} ms\"];",
                l.a.0,
                l.b.0,
                l.bandwidth / 1e6,
                l.latency * 1e3
            );
        }
        out.push_str("}\n");
        out
    }

    /// Finish a validated cluster: route every switch pair, intern each
    /// node into its port `(switch, NIC latency bits, NIC bandwidth bits)`,
    /// and walk each ordered port pair once. Parameters must be finite and
    /// positive, so equal bits mean equal walks.
    pub(crate) fn assemble(
        name: String,
        nodes: Vec<Node>,
        switches: Vec<Switch>,
        links: Vec<Link>,
    ) -> Result<Cluster, ClusterError> {
        let routes = Self::compute_routes(&switches, &links)?;
        let mut ids = BTreeMap::new();
        let mut reps = Vec::new();
        let port = nodes
            .iter()
            .map(|n| {
                let key = (n.switch, n.nic_latency.to_bits(), n.nic_bandwidth.to_bits());
                *ids.entry(key).or_insert_with(|| {
                    reps.push(n.id);
                    reps.len() as u32 - 1
                })
            })
            .collect();
        let mut cluster = Cluster {
            name,
            nodes,
            switches,
            links,
            routes,
            port,
            ports: reps.len(),
            walks: Vec::new(),
        };
        cluster.walks = reps
            .iter()
            .flat_map(|&a| reps.iter().map(move |&b| (a, b)))
            .map(|(a, b)| cluster.walk(a, b))
            .collect();
        Ok(cluster)
    }

    /// Breadth-first all-pairs routes over the switch graph.
    fn compute_routes(switches: &[Switch], links: &[Link]) -> Result<Vec<Vec<u32>>, ClusterError> {
        let s = switches.len();
        let mut adj: Vec<Vec<(usize, u32)>> = vec![Vec::new(); s];
        for (li, l) in links.iter().enumerate() {
            if l.a.index() >= s || l.b.index() >= s {
                return Err(ClusterError::BadLink { a: l.a, b: l.b });
            }
            adj[l.a.index()].push((l.b.index(), li as u32));
            adj[l.b.index()].push((l.a.index(), li as u32));
        }
        let mut routes = vec![Vec::new(); s * s];
        for src in 0..s {
            let mut prev: Vec<Option<(usize, u32)>> = vec![None; s];
            let mut seen = vec![false; s];
            seen[src] = true;
            let mut q = VecDeque::new();
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(v, li) in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        prev[v] = Some((u, li));
                        q.push_back(v);
                    }
                }
            }
            for dst in 0..s {
                if dst == src {
                    continue;
                }
                if !seen[dst] {
                    return Err(ClusterError::Unreachable {
                        from: SwitchId(src as u32),
                        to: SwitchId(dst as u32),
                    });
                }
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let (p, li) = prev[cur].expect("seen node must have prev");
                    path.push(li);
                    cur = p;
                }
                path.reverse();
                routes[src * s + dst] = path;
            }
        }
        Ok(routes)
    }
}

impl LatencyProvider for Cluster {
    fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        self.no_load_latency(a, b, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClusterBuilder;

    fn two_switch() -> Cluster {
        ClusterBuilder::new("t")
            .switch(24, 5e-6, "s0")
            .switch(24, 5e-6, "s1")
            .link(SwitchId(0), SwitchId(1), 12.5e6, 4e-6)
            .nodes(
                2,
                Architecture::Alpha,
                533,
                1,
                1.0,
                SwitchId(0),
                12.5e6,
                35e-6,
            )
            .nodes(
                2,
                Architecture::IntelPII,
                400,
                2,
                0.85,
                SwitchId(1),
                12.5e6,
                35e-6,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn same_switch_latency_is_lower_than_cross_switch() {
        let c = two_switch();
        let same = c.no_load_latency(NodeId(0), NodeId(1), 1024);
        let cross = c.no_load_latency(NodeId(0), NodeId(2), 1024);
        assert!(same < cross, "same={same} cross={cross}");
    }

    #[test]
    fn latency_is_symmetric_for_symmetric_nics() {
        let c = two_switch();
        for &(a, b) in &[(0, 1), (0, 2), (1, 3)] {
            let ab = c.no_load_latency(NodeId(a), NodeId(b), 4096);
            let ba = c.no_load_latency(NodeId(b), NodeId(a), 4096);
            assert!((ab - ba).abs() < 1e-15);
        }
    }

    #[test]
    fn latency_grows_linearly_with_size_beyond_base() {
        let c = two_switch();
        let l1 = c.no_load_latency(NodeId(0), NodeId(2), 0);
        let l2 = c.no_load_latency(NodeId(0), NodeId(2), 12_500_000);
        // 12.5 MB at 12.5 MB/s = 1 second of serialisation.
        assert!((l2 - l1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_path_is_loopback() {
        let c = two_switch();
        let p = c.path(NodeId(1), NodeId(1));
        assert!(p.latency(1024) < 1e-4);
        assert_eq!(p.switch_hops, 0);
    }

    #[test]
    fn nodes_by_arch_filters() {
        let c = two_switch();
        assert_eq!(c.nodes_by_arch(Architecture::Alpha).len(), 2);
        assert_eq!(c.nodes_by_arch(Architecture::Sparc).len(), 0);
    }

    #[test]
    fn path_counts_switch_hops() {
        let c = two_switch();
        assert_eq!(c.path(NodeId(0), NodeId(1)).switch_hops, 1);
        assert_eq!(c.path(NodeId(0), NodeId(2)).switch_hops, 2);
        assert_eq!(c.path(NodeId(0), NodeId(2)).link_indices, vec![0]);
    }

    /// Every ordered pair, loopback included: `no_load_latency` and
    /// `path().latency` read the port table, yet must give the bits a
    /// direct walk gives, and `path()` must still hand out the stored
    /// route.
    fn assert_table_is_walk(c: &Cluster) {
        for a in c.node_ids() {
            for b in c.node_ids() {
                let path = c.path(a, b);
                let (base, bw, route, hops) = if a == b {
                    (LOOPBACK.base_latency, LOOPBACK.bottleneck_bw, &[][..], 0)
                } else {
                    let (base, bw) = c.walk(a, b);
                    let route = c.route(c.node(a), c.node(b));
                    (base, bw, route, route.len() as u32 + 1)
                };
                assert_eq!((&path.link_indices[..], path.switch_hops), (route, hops));
                for bytes in [0, 1, 1 << 10, 64 << 10, 1 << 30] {
                    let want = serialised(base, bw, bytes as f64).to_bits();
                    assert_eq!(
                        c.no_load_latency(a, b, bytes).to_bits(),
                        want,
                        "{a}->{b} {bytes} B"
                    );
                    assert_eq!(path.latency(bytes).to_bits(), want, "{a}->{b} {bytes} B");
                }
            }
        }
    }

    #[test]
    fn the_port_table_is_the_walk_bit_for_bit() {
        use crate::presets::{centurion, orange_grove, two_switch_demo};
        for (c, ports) in [
            (centurion(), 8),
            (orange_grove(), 5),
            (two_switch_demo(), 2),
        ] {
            assert_eq!(
                (c.ports, c.walks.len()),
                (ports, ports * ports),
                "{}",
                c.name()
            );
            assert_table_is_walk(&c);
        }
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let err = ClusterBuilder::new("d")
            .switch(8, 5e-6, "a")
            .switch(8, 5e-6, "b")
            .nodes(
                1,
                Architecture::Alpha,
                533,
                1,
                1.0,
                SwitchId(0),
                12.5e6,
                35e-6,
            )
            .nodes(
                1,
                Architecture::Alpha,
                533,
                1,
                1.0,
                SwitchId(1),
                12.5e6,
                35e-6,
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, ClusterError::Unreachable { .. }));
    }

    mod properties {
        use super::*;
        use crate::presets::{centurion, orange_grove};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Paths are symmetric when both endpoints have identical NICs
            /// (all presets do), and the bottleneck bandwidth never exceeds
            /// either NIC's.
            #[test]
            fn path_symmetry_and_bottleneck(a in 0u32..28, b in 0u32..28) {
                prop_assume!(a != b);
                let c = orange_grove();
                let pa = c.path(NodeId(a), NodeId(b));
                let pb = c.path(NodeId(b), NodeId(a));
                prop_assert!((pa.base_latency - pb.base_latency).abs() < 1e-15);
                prop_assert!((pa.bottleneck_bw - pb.bottleneck_bw).abs() < 1e-9);
                prop_assert!(pa.bottleneck_bw <= c.node(NodeId(a)).nic_bandwidth);
                prop_assert!(pa.bottleneck_bw <= c.node(NodeId(b)).nic_bandwidth);
                prop_assert!(pa.switch_hops >= 1);
            }

            /// The end-to-end latency is strictly increasing in message size
            /// and strictly positive, on the big preset.
            #[test]
            fn latency_monotone_in_size(a in 0u32..128, b in 0u32..128, s in 0u64..1_000_000) {
                prop_assume!(a != b);
                let c = centurion();
                let l0 = c.no_load_latency(NodeId(a), NodeId(b), s);
                let l1 = c.no_load_latency(NodeId(a), NodeId(b), s + 1024);
                prop_assert!(l0 > 0.0);
                prop_assert!(l1 > l0);
            }

            /// A random switch tree whose nodes draw their NIC from 1–4
            /// kinds, so ports both merge across nodes and split within
            /// one switch: the table still answers every ordered pair
            /// with the walk's bits. The kinds are a 2×2 grid, so two of
            /// them can differ in latency alone or in bandwidth alone.
            fn the_port_table_is_the_walk_on_generated_clusters(seed in 0u64..u64::MAX) {
                use rand::{rngs::StdRng, RngExt, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed);
                let switches = rng.random_range(1u32..6);
                let bws = [rng.random_range(1e6..1e8), rng.random_range(1e6..1e8)];
                let lats = [rng.random_range(1e-6..1e-4), rng.random_range(1e-6..1e-4)];
                let nics: Vec<(f64, f64)> = (0..rng.random_range(1usize..5))
                    .map(|k| (bws[k % 2], lats[k / 2]))
                    .collect();
                let mut b = ClusterBuilder::new("generated");
                for s in 0..switches {
                    b = b.switch(24, rng.random_range(1e-6..1e-5), format!("s{s}"));
                    if s > 0 {
                        let up = SwitchId(rng.random_range(0..s));
                        b = b.link(up, SwitchId(s), rng.random_range(1e6..1e9), rng.random_range(1e-6..1e-5));
                    }
                }
                for _ in 0..rng.random_range(2..24) {
                    let (bw, lat) = nics[rng.random_range(0..nics.len())];
                    let sw = SwitchId(rng.random_range(0..switches));
                    b = b.nodes(1, Architecture::Alpha, 533, 1, 1.0, sw, bw, lat);
                }
                let c = b.build().unwrap();
                prop_assert!(c.ports <= nics.len() * switches as usize);
                assert_table_is_walk(&c);
            }
        }
    }

    #[test]
    fn dot_export_covers_all_elements() {
        let c = two_switch();
        let dot = c.to_dot();
        assert!(dot.starts_with("graph"));
        for i in 0..c.len() {
            assert!(dot.contains(&format!("n{i} ")), "node {i} missing");
        }
        assert!(dot.contains("sw0 [shape=box"));
        assert!(dot.contains("sw0 -- sw1") || dot.contains("sw1 -- sw0"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn latency_spread_positive_for_heterogeneous_topology() {
        let c = two_switch();
        assert!(c.latency_spread(1024) > 0.0);
    }
}
