//! Error types for cluster construction and queries.

use crate::topology::SwitchId;
use std::fmt;

/// Errors raised while building or querying a [`crate::Cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node referenced a switch id that was never declared.
    UnknownSwitch(SwitchId),
    /// A link referenced an undeclared switch.
    BadLink {
        /// One link endpoint.
        a: SwitchId,
        /// The other link endpoint.
        b: SwitchId,
    },
    /// The switch graph is disconnected: no path between the two switches.
    Unreachable {
        /// Source switch.
        from: SwitchId,
        /// Unreachable destination switch.
        to: SwitchId,
    },
    /// The cluster has no nodes.
    Empty,
    /// A physical parameter (bandwidth, latency, speed...) was not a
    /// finite positive number.
    NonPositiveParameter(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownSwitch(s) => write!(f, "unknown switch {s}"),
            ClusterError::BadLink { a, b } => {
                write!(f, "link references undeclared switch ({a} - {b})")
            }
            ClusterError::Unreachable { from, to } => {
                write!(f, "no path between switches {from} and {to}")
            }
            ClusterError::Empty => write!(f, "cluster has no nodes"),
            ClusterError::NonPositiveParameter(p) => {
                write!(f, "parameter `{p}` must be finite and positive")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = ClusterError::Unreachable {
            from: SwitchId(1),
            to: SwitchId(2),
        };
        assert!(e.to_string().contains("sw1"));
        assert!(e.to_string().contains("sw2"));
        assert!(ClusterError::Empty.to_string().contains("no nodes"));
        assert!(ClusterError::NonPositiveParameter("bandwidth")
            .to_string()
            .contains("bandwidth"));
    }
}
