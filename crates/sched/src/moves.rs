//! Shared search-state machinery: an injective assignment of ranks to pool
//! nodes plus the neighbourhood move operators used by the annealing and
//! genetic schedulers.

use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use rand::rngs::StdRng;
use rand::RngExt;

/// Search state: `assigned[r]` is the node of rank `r`; `spare` holds the
/// pool nodes currently unused. Together they always partition the pool, so
/// both move operators are O(1) and trivially reversible.
#[derive(Debug, Clone)]
pub struct SearchState {
    assigned: Vec<NodeId>,
    spare: Vec<NodeId>,
}

/// A reversible neighbourhood move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Swap the nodes of two ranks (changes which rank talks from where,
    /// leaving the node set fixed).
    Swap {
        /// First rank.
        a: usize,
        /// Second rank.
        b: usize,
    },
    /// Replace rank `rank`'s node with spare node `spare_idx` (changes the
    /// node set itself).
    Replace {
        /// The rank whose node is replaced.
        rank: usize,
        /// Index into the spare list.
        spare_idx: usize,
    },
}

impl SearchState {
    /// A random injective assignment of `n` ranks drawn from `pool`
    /// (partial Fisher–Yates).
    ///
    /// # Panics
    /// Panics if the pool is smaller than `n` (validated upstream).
    pub fn random(pool: &[NodeId], n: usize, rng: &mut StdRng) -> Self {
        assert!(pool.len() >= n, "pool too small");
        let mut nodes = pool.to_vec();
        for i in 0..n {
            let j = rng.random_range(i..nodes.len());
            nodes.swap(i, j);
        }
        let spare = nodes.split_off(n);
        SearchState {
            assigned: nodes,
            spare,
        }
    }

    /// The current assignment as a [`Mapping`].
    pub fn mapping(&self) -> Mapping {
        Mapping::new(self.assigned.clone())
    }

    /// The current assignment slice.
    pub fn assigned(&self) -> &[NodeId] {
        &self.assigned
    }

    /// Currently unused pool nodes.
    pub fn spare(&self) -> &[NodeId] {
        &self.spare
    }

    /// Propose a random move: a rank-swap with probability `swap_prob`
    /// (always, when no spare nodes exist), otherwise a node replacement.
    pub fn propose(&self, swap_prob: f64, rng: &mut StdRng) -> Move {
        let n = self.assigned.len();
        let do_swap = self.spare.is_empty() || n >= 2 && rng.random_range(0.0..1.0) < swap_prob;
        if do_swap && n >= 2 {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            Move::Swap { a, b }
        } else {
            Move::Replace {
                rank: rng.random_range(0..n),
                spare_idx: rng.random_range(0..self.spare.len()),
            }
        }
    }

    /// Apply a move in place. Applying the same move again undoes it.
    pub fn apply(&mut self, mv: Move) {
        match mv {
            Move::Swap { a, b } => self.assigned.swap(a, b),
            Move::Replace { rank, spare_idx } => {
                std::mem::swap(&mut self.assigned[rank], &mut self.spare[spare_idx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn pool(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn is_partition(s: &SearchState, pool: &[NodeId]) -> bool {
        let mut all: Vec<NodeId> = s.assigned().iter().chain(s.spare()).copied().collect();
        all.sort_unstable();
        let mut p = pool.to_vec();
        p.sort_unstable();
        all == p
    }

    #[test]
    fn random_state_is_injective_partition() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = pool(10);
        for _ in 0..50 {
            let s = SearchState::random(&p, 6, &mut rng);
            assert!(s.mapping().is_injective());
            assert!(is_partition(&s, &p));
            assert_eq!(s.spare().len(), 4);
        }
    }

    #[test]
    fn moves_preserve_partition_and_are_involutive() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = pool(8);
        let mut s = SearchState::random(&p, 5, &mut rng);
        for _ in 0..200 {
            let before = s.assigned().to_vec();
            let mv = s.propose(0.5, &mut rng);
            s.apply(mv);
            assert!(is_partition(&s, &p));
            assert!(s.mapping().is_injective());
            s.apply(mv);
            assert_eq!(s.assigned(), &before[..], "move must be involutive");
            s.apply(mv); // leave the state perturbed for the next round
        }
    }

    #[test]
    fn full_pool_forces_swaps() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = pool(4);
        let s = SearchState::random(&p, 4, &mut rng);
        assert!(s.spare().is_empty());
        for _ in 0..20 {
            assert!(matches!(s.propose(0.0, &mut rng), Move::Swap { .. }));
        }
    }

    #[test]
    fn random_states_vary_with_seed() {
        let p = pool(12);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let s1 = SearchState::random(&p, 8, &mut r1);
        let s2 = SearchState::random(&p, 8, &mut r2);
        assert_ne!(s1.assigned(), s2.assigned());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For any pool size, assignment arity, seed, and move count,
            /// the state stays an injective partition of the pool.
            #[test]
            fn moves_always_preserve_invariants(
                pool_n in 2u32..24,
                n_frac in 0.1f64..1.0,
                seed in 0u64..1000,
                moves in 0usize..64,
                swap_prob in 0.0f64..1.0,
            ) {
                let pool: Vec<NodeId> = (0..pool_n).map(NodeId).collect();
                let n = ((pool_n as f64 * n_frac) as usize).clamp(1, pool_n as usize);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut s = SearchState::random(&pool, n, &mut rng);
                for _ in 0..moves {
                    let mv = s.propose(swap_prob, &mut rng);
                    s.apply(mv);
                    prop_assert!(s.mapping().is_injective());
                    let mut all: Vec<NodeId> =
                        s.assigned().iter().chain(s.spare()).copied().collect();
                    all.sort_unstable();
                    let mut p = pool.clone();
                    p.sort_unstable();
                    prop_assert_eq!(all, p);
                }
            }
        }
    }

    #[test]
    fn random_covers_the_mapping_space() {
        // Every pool node should appear in some random 2-of-4 assignment.
        let p = pool(4);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = BTreeSet::new();
        for _ in 0..100 {
            let s = SearchState::random(&p, 2, &mut rng);
            seen.extend(s.assigned().iter().copied());
        }
        assert_eq!(seen.len(), 4);
    }
}
