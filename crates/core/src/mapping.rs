//! Application-to-node mappings (paper eq. 1–3).

use cbes_cluster::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A mapping `M`: process (rank) `i` runs on node `assign[i]`.
///
/// The paper's experiments use injective mappings (one process per node),
/// but multiple ranks may legally share a node — the simulator time-shares
/// CPUs and the evaluator accounts for it via the CPU-availability term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mapping {
    assign: Vec<NodeId>,
}

impl Mapping {
    /// A mapping assigning rank `i` to `assign[i]`.
    pub fn new(assign: Vec<NodeId>) -> Self {
        Mapping { assign }
    }

    /// Number of processes (`n_M`).
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True for the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Node assigned to `rank`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "the caller keeps rank < len()")]
    pub fn node(&self, rank: usize) -> NodeId {
        self.assign[rank]
    }

    /// The assignment as a slice, indexed by rank.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assign
    }

    /// Iterator over `(rank, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.assign.iter().copied().enumerate()
    }

    /// True when no two ranks share a node.
    pub fn is_injective(&self) -> bool {
        let mut seen: Vec<NodeId> = self.assign.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == self.assign.len()
    }

    /// Ranks whose node differs between `self` and `other` (the processes a
    /// remapping would migrate). Panics if lengths differ.
    pub fn moved_ranks(&self, other: &Mapping) -> Vec<usize> {
        assert_eq!(self.len(), other.len(), "mappings must have equal arity");
        self.assign
            .iter()
            .zip(&other.assign)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect()
    }

    /// Replace the node of one rank (used by scheduler move operators).
    #[expect(clippy::indexing_slicing, reason = "the caller keeps rank < len()")]
    pub fn set(&mut self, rank: usize, node: NodeId) {
        self.assign[rank] = node;
    }

    /// Swap the nodes of two ranks.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.assign.swap(a, b);
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, n) in self.assign.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<NodeId>> for Mapping {
    fn from(v: Vec<NodeId>) -> Self {
        Mapping::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ids: &[u32]) -> Mapping {
        Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn injectivity_detection() {
        assert!(m(&[0, 1, 2]).is_injective());
        assert!(!m(&[0, 1, 0]).is_injective());
        assert!(m(&[]).is_injective());
    }

    #[test]
    fn moved_ranks_lists_differences() {
        let a = m(&[0, 1, 2, 3]);
        let b = m(&[0, 5, 2, 7]);
        assert_eq!(a.moved_ranks(&b), vec![1, 3]);
        assert!(a.moved_ranks(&a).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal arity")]
    fn moved_ranks_requires_equal_arity() {
        let _ = m(&[0, 1]).moved_ranks(&m(&[0]));
    }

    #[test]
    fn mutation_operators() {
        let mut x = m(&[0, 1, 2]);
        x.swap(0, 2);
        assert_eq!(x.as_slice(), &[NodeId(2), NodeId(1), NodeId(0)]);
        x.set(1, NodeId(9));
        assert_eq!(x.node(1), NodeId(9));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(m(&[0, 3]).to_string(), "[n0 n3]");
    }
}
