//! Service-level errors.

use std::fmt;

/// Errors raised by [`crate::CbesService`] request handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No profile registered under the given application name.
    UnknownApp(String),
    /// A mapping's arity does not match the application's process count.
    ArityMismatch {
        /// Processes in the registered profile.
        expected: usize,
        /// Entries in the offending mapping.
        got: usize,
    },
    /// A comparison request contained no mappings.
    EmptyRequest,
    /// A mapping referenced a node outside the cluster.
    BadNode(u32),
    /// A mapping placed more ranks on a node than it has CPUs.
    Oversubscribed {
        /// The oversubscribed node.
        node: u32,
        /// Ranks the mapping placed there.
        ranks: usize,
        /// CPUs the node actually has.
        cpus: u32,
    },
    /// A mapping assigned a process to a node currently classified `Down`
    /// (unmappable under the health policy).
    NodeDown(u32),
    /// A load observation covered a different number of nodes than the
    /// cluster has.
    LoadArityMismatch {
        /// Nodes in the cluster.
        expected: usize,
        /// Nodes in the offending measurement sweep.
        got: usize,
    },
    /// A load observation carried a non-finite value for the given node.
    NonFiniteLoad(u32),
    /// A profile eqs. 5–8 cannot evaluate was refused at registration.
    InvalidProfile {
        /// The profile's name.
        app: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownApp(name) => write!(f, "no profile registered for `{name}`"),
            ServiceError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "mapping has {got} entries but profile has {expected} processes"
                )
            }
            ServiceError::EmptyRequest => write!(f, "mapping comparison request is empty"),
            ServiceError::BadNode(n) => write!(f, "mapping references unknown node n{n}"),
            ServiceError::Oversubscribed { node, ranks, cpus } => {
                write!(
                    f,
                    "mapping places {ranks} ranks on node n{node} which has {cpus} CPUs"
                )
            }
            ServiceError::NodeDown(n) => {
                write!(f, "mapping assigns a process to down node n{n}")
            }
            ServiceError::LoadArityMismatch { expected, got } => {
                write!(
                    f,
                    "load observation covers {got} nodes but the cluster has {expected}"
                )
            }
            ServiceError::NonFiniteLoad(n) => {
                write!(f, "load observation for node n{n} is not a finite number")
            }
            ServiceError::InvalidProfile { app, reason } => {
                write!(f, "profile `{app}` is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(ServiceError::UnknownApp("lu".into())
            .to_string()
            .contains("`lu`"));
        assert!(ServiceError::ArityMismatch {
            expected: 8,
            got: 4
        }
        .to_string()
        .contains("8 processes"));
    }
}
