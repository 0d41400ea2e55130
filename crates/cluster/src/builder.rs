//! Fluent construction of [`Cluster`] values.

use crate::arch::Architecture;
use crate::error::ClusterError;
use crate::node::{Node, NodeId};
use crate::topology::{Cluster, Link, Switch, SwitchId};

/// Builder for [`Cluster`]. Switches must be declared before the nodes and
/// links that reference them; [`ClusterBuilder::build`] validates physical
/// parameters and switch-graph connectivity.
///
/// ```
/// use cbes_cluster::{Architecture, ClusterBuilder, SwitchId};
/// let cluster = ClusterBuilder::new("demo")
///     .switch(24, 5e-6, "edge-0")
///     .switch(24, 5e-6, "edge-1")
///     .link(SwitchId(0), SwitchId(1), 12.5e6, 4e-6)
///     .nodes(4, Architecture::Alpha, 533, 1, 1.0, SwitchId(0), 12.5e6, 35e-6)
///     .nodes(4, Architecture::IntelPII, 400, 2, 0.85, SwitchId(1), 12.5e6, 35e-6)
///     .build()
///     .unwrap();
/// assert_eq!(cluster.len(), 8);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    name: String,
    nodes: Vec<Node>,
    switches: Vec<Switch>,
    links: Vec<Link>,
}

impl ClusterBuilder {
    /// Start building a cluster with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ClusterBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a switch; returns the builder. Switch ids are assigned
    /// sequentially from 0 in declaration order.
    pub fn switch(mut self, ports: u32, hop_latency: f64, label: impl Into<String>) -> Self {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(Switch {
            id,
            ports,
            hop_latency,
            label: label.into(),
        });
        self
    }

    /// Declare a bidirectional inter-switch link.
    pub fn link(mut self, a: SwitchId, b: SwitchId, bandwidth: f64, latency: f64) -> Self {
        self.links.push(Link {
            a,
            b,
            bandwidth,
            latency,
        });
        self
    }

    /// Declare `count` identical nodes attached to `switch`.
    #[allow(clippy::too_many_arguments)]
    pub fn nodes(
        mut self,
        count: u32,
        arch: Architecture,
        clock_mhz: u32,
        cpus: u32,
        speed: f64,
        switch: SwitchId,
        nic_bandwidth: f64,
        nic_latency: f64,
    ) -> Self {
        for _ in 0..count {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                id,
                arch,
                clock_mhz,
                cpus,
                speed,
                switch,
                nic_bandwidth,
                nic_latency,
            });
        }
        self
    }

    /// Validate and finish: checks non-empty node set, finite positive
    /// physical parameters, valid switch references, and switch-graph
    /// connectivity (routes and the walks over them are pre-computed here).
    pub fn build(self) -> Result<Cluster, ClusterError> {
        if self.nodes.is_empty() {
            return Err(ClusterError::Empty);
        }
        for sw in &self.switches {
            positive(sw.hop_latency, "switch hop_latency")?;
        }
        for l in &self.links {
            positive(l.bandwidth, "link bandwidth")?;
            positive(l.latency, "link latency")?;
        }
        for n in &self.nodes {
            if n.switch.index() >= self.switches.len() {
                return Err(ClusterError::UnknownSwitch(n.switch));
            }
            positive(n.speed, "node speed")?;
            positive(n.nic_bandwidth, "nic bandwidth")?;
            positive(n.nic_latency, "nic latency")?;
            if n.cpus == 0 {
                return Err(ClusterError::NonPositiveParameter("cpus"));
            }
        }
        Cluster::assemble(self.name, self.nodes, self.switches, self.links)
    }
}

/// A physical parameter must be finite and > 0: `inf` would make every
/// latency through it `inf`, and NaN fails every comparison.
fn positive(x: f64, what: &'static str) -> Result<(), ClusterError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(ClusterError::NonPositiveParameter(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cluster_is_rejected() {
        assert_eq!(
            ClusterBuilder::new("e")
                .switch(8, 1e-6, "s")
                .build()
                .unwrap_err(),
            ClusterError::Empty
        );
    }

    #[test]
    fn bad_switch_reference_is_rejected() {
        let err = ClusterBuilder::new("b")
            .switch(8, 1e-6, "s")
            .nodes(1, Architecture::Alpha, 533, 1, 1.0, SwitchId(9), 1e6, 1e-6)
            .build()
            .unwrap_err();
        assert_eq!(err, ClusterError::UnknownSwitch(SwitchId(9)));
    }

    #[test]
    fn non_positive_parameters_are_rejected() {
        let err = ClusterBuilder::new("p")
            .switch(8, 1e-6, "s")
            .nodes(1, Architecture::Alpha, 533, 1, 0.0, SwitchId(0), 1e6, 1e-6)
            .build()
            .unwrap_err();
        assert_eq!(err, ClusterError::NonPositiveParameter("node speed"));

        let err = ClusterBuilder::new("p")
            .switch(8, 1e-6, "s")
            .nodes(1, Architecture::Alpha, 533, 0, 1.0, SwitchId(0), 1e6, 1e-6)
            .build()
            .unwrap_err();
        assert_eq!(err, ClusterError::NonPositiveParameter("cpus"));
    }

    #[test]
    fn single_switch_cluster_builds() {
        let c = ClusterBuilder::new("one")
            .switch(24, 5e-6, "only")
            .nodes(
                3,
                Architecture::Sparc,
                500,
                1,
                0.65,
                SwitchId(0),
                12.5e6,
                35e-6,
            )
            .build()
            .unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.name(), "one");
        assert_eq!(c.switches().len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let c = ClusterBuilder::new("d")
            .switch(24, 5e-6, "s")
            .nodes(
                5,
                Architecture::Alpha,
                533,
                1,
                1.0,
                SwitchId(0),
                12.5e6,
                35e-6,
            )
            .build()
            .unwrap();
        for (i, n) in c.nodes().iter().enumerate() {
            assert_eq!(n.id.index(), i);
        }
    }
}
