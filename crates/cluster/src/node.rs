//! Compute nodes.

use crate::arch::Architecture;
use crate::topology::SwitchId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a compute node within a [`crate::Cluster`].
///
/// Node ids are dense indices assigned in insertion order by the builder.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A compute node: architecture, clock, CPU count, relative speed, and its
/// attachment point (switch + NIC characteristics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Dense node identifier.
    pub id: NodeId,
    /// Hardware architecture.
    pub arch: Architecture,
    /// Nominal clock frequency in MHz (descriptive only; performance is
    /// captured by [`Node::speed`]).
    pub clock_mhz: u32,
    /// Number of CPUs. Multiple application processes can share a node; the
    /// simulator time-shares the CPUs among them.
    pub cpus: u32,
    /// Relative compute speed of one CPU of this node; the reference
    /// architecture (Alpha 533) is 1.0. Used as `Speed_j` in paper eq. 5.
    pub speed: f64,
    /// Switch this node's NIC is cabled to.
    pub switch: SwitchId,
    /// NIC bandwidth in bytes/second.
    pub nic_bandwidth: f64,
    /// NIC send/receive latency in seconds (one endpoint's share of the
    /// no-load end-to-end latency).
    pub nic_latency: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
