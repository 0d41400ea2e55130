//! A serialisable cluster description, so users can define their own
//! federated clusters in JSON and feed them to the CLI and experiments.

use crate::arch::Architecture;
use crate::builder::ClusterBuilder;
use crate::error::ClusterError;
use crate::topology::{Cluster, SwitchId};
use serde::{Deserialize, Serialize};

/// One switch in a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// Port count (descriptive).
    pub ports: u32,
    /// Per-hop forwarding latency, seconds.
    pub hop_latency: f64,
    /// Human-readable label.
    pub label: String,
}

/// One inter-switch link in a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// First endpoint (index into `switches`).
    pub a: u32,
    /// Second endpoint (index into `switches`).
    pub b: u32,
    /// Bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Setup latency, seconds.
    pub latency: f64,
}

/// A homogeneous group of nodes attached to one switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeGroupSpec {
    /// How many identical nodes.
    pub count: u32,
    /// Architecture.
    pub arch: Architecture,
    /// Clock in MHz (descriptive).
    pub clock_mhz: u32,
    /// CPUs per node.
    pub cpus: u32,
    /// Relative speed (reference = 1.0).
    pub speed: f64,
    /// Switch the group hangs off (index into `switches`).
    pub switch: u32,
    /// NIC bandwidth, bytes/second.
    pub nic_bandwidth: f64,
    /// NIC latency, seconds.
    pub nic_latency: f64,
}

/// A complete, durable cluster description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Cluster name.
    pub name: String,
    /// Switches, in id order.
    pub switches: Vec<SwitchSpec>,
    /// Inter-switch links.
    pub links: Vec<LinkSpec>,
    /// Node groups (node ids are assigned in group order).
    pub groups: Vec<NodeGroupSpec>,
}

impl ClusterSpec {
    /// Build the cluster this spec describes.
    pub fn build(&self) -> Result<Cluster, ClusterError> {
        let mut b = ClusterBuilder::new(self.name.clone());
        for sw in &self.switches {
            b = b.switch(sw.ports, sw.hop_latency, sw.label.clone());
        }
        for l in &self.links {
            b = b.link(SwitchId(l.a), SwitchId(l.b), l.bandwidth, l.latency);
        }
        for g in &self.groups {
            b = b.nodes(
                g.count,
                g.arch,
                g.clock_mhz,
                g.cpus,
                g.speed,
                SwitchId(g.switch),
                g.nic_bandwidth,
                g.nic_latency,
            );
        }
        b.build()
    }

    /// Extract the spec of an existing cluster (adjacent identical nodes on
    /// the same switch collapse into one group). `spec.build()` of the
    /// result reproduces the cluster exactly.
    pub fn from_cluster(cluster: &Cluster) -> Self {
        let switches = cluster
            .switches()
            .iter()
            .map(|sw| SwitchSpec {
                ports: sw.ports,
                hop_latency: sw.hop_latency,
                label: sw.label.clone(),
            })
            .collect();
        let links = cluster
            .links()
            .iter()
            .map(|l| LinkSpec {
                a: l.a.0,
                b: l.b.0,
                bandwidth: l.bandwidth,
                latency: l.latency,
            })
            .collect();
        let mut groups: Vec<NodeGroupSpec> = Vec::new();
        for n in cluster.nodes() {
            let same = groups.last().is_some_and(|g: &NodeGroupSpec| {
                g.arch == n.arch
                    && g.clock_mhz == n.clock_mhz
                    && g.cpus == n.cpus
                    && g.speed == n.speed
                    && g.switch == n.switch.0
                    && g.nic_bandwidth == n.nic_bandwidth
                    && g.nic_latency == n.nic_latency
            });
            if same {
                groups.last_mut().expect("checked above").count += 1;
            } else {
                groups.push(NodeGroupSpec {
                    count: 1,
                    arch: n.arch,
                    clock_mhz: n.clock_mhz,
                    cpus: n.cpus,
                    speed: n.speed,
                    switch: n.switch.0,
                    nic_bandwidth: n.nic_bandwidth,
                    nic_latency: n.nic_latency,
                });
            }
        }
        ClusterSpec {
            name: cluster.name().to_string(),
            switches,
            links,
            groups,
        }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialisation cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::presets::{centurion, orange_grove, two_switch_demo};

    #[test]
    fn spec_roundtrips_every_preset() {
        for cluster in [centurion(), orange_grove(), two_switch_demo()] {
            let spec = ClusterSpec::from_cluster(&cluster);
            let rebuilt = spec.build().expect("spec must rebuild");
            assert_eq!(rebuilt.len(), cluster.len(), "{}", cluster.name());
            assert_eq!(rebuilt.switches().len(), cluster.switches().len());
            assert_eq!(rebuilt.links().len(), cluster.links().len());
            // Same topology: identical pairwise latencies.
            for a in cluster.node_ids() {
                let b = NodeId((a.0 + 3) % cluster.len() as u32);
                if a == b {
                    continue;
                }
                assert_eq!(
                    rebuilt.no_load_latency(a, b, 4096),
                    cluster.no_load_latency(a, b, 4096)
                );
            }
        }
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        let spec = ClusterSpec::from_cluster(&orange_grove());
        let back = ClusterSpec::from_json(&spec.to_json()).unwrap();
        // Float text formatting may shift the last ULP; require a
        // serialisation fixpoint and semantically equivalent topology.
        assert_eq!(
            back.to_json(),
            ClusterSpec::from_json(&back.to_json()).unwrap().to_json()
        );
        assert_eq!(back.name, spec.name);
        assert_eq!(back.switches.len(), spec.switches.len());
        assert_eq!(back.groups, spec.groups);
        let a = spec.build().unwrap();
        let b = back.build().unwrap();
        for x in a.node_ids() {
            let y = NodeId((x.0 + 5) % a.len() as u32);
            if x == y {
                continue;
            }
            let la = a.no_load_latency(x, y, 2048);
            let lb = b.no_load_latency(x, y, 2048);
            assert!((la - lb).abs() / la < 1e-12, "{x}->{y}: {la} vs {lb}");
        }
    }

    #[test]
    fn groups_collapse_identical_neighbours() {
        let spec = ClusterSpec::from_cluster(&two_switch_demo());
        // 4 Alphas on sw0 + 4 Intels on sw1 -> exactly two groups.
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].count, 4);
        assert_eq!(spec.groups[1].count, 4);
    }

    #[test]
    fn invalid_spec_is_rejected_at_build() {
        let mut spec = ClusterSpec::from_cluster(&two_switch_demo());
        spec.groups[0].switch = 99;
        assert!(spec.build().is_err());
    }

    /// The JSON parser reads `1e999` as `inf`, which passes a `> 0` check:
    /// each physical parameter spelled that way must still be refused.
    #[test]
    fn an_infinite_parameter_is_rejected_at_build() {
        const MARK: f64 = 4242.4242;
        let edits: [fn(&mut ClusterSpec); 6] = [
            |s| s.switches[0].hop_latency = MARK,
            |s| s.links[0].bandwidth = MARK,
            |s| s.links[0].latency = MARK,
            |s| s.groups[0].speed = MARK,
            |s| s.groups[0].nic_bandwidth = MARK,
            |s| s.groups[0].nic_latency = MARK,
        ];
        for edit in edits {
            let mut spec = ClusterSpec::from_cluster(&two_switch_demo());
            edit(&mut spec);
            let json = spec.to_json().replace("4242.4242", "1e999");
            let spec = ClusterSpec::from_json(&json).expect("1e999 parses");
            assert!(
                matches!(spec.build(), Err(ClusterError::NonPositiveParameter(_))),
                "{json}"
            );
        }
    }
}
