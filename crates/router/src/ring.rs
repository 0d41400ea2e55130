//! The consistent-hash ring placing `(cluster, app)` keys on instances.
//!
//! Each instance contributes `vnodes` points to a 64-bit ring; a key
//! hashed with [`cbes_server::route_key_hash`] is owned by the first
//! point at or clockwise after it. Replicas are the next *distinct*
//! instances around the ring, so a key's failover set never repeats an
//! instance. Consistent hashing keeps most keys in place when the tier
//! grows or shrinks — only the keys adjacent to the moved points change
//! owner — and virtual nodes smooth the per-instance share.

/// Virtual nodes per instance; enough to keep per-instance key shares
/// within a few percent of even for small tiers.
pub const DEFAULT_VNODES: usize = 128;

/// Hash of one ring-point label: FNV-1a over the `(instance, vnode)`
/// pair, finished with a splitmix64-style mix — FNV alone avalanches
/// poorly on short structured input, which skews point spacing. Only
/// ring placement uses this; request keys use
/// [`cbes_server::route_key_hash`].
fn point_hash(instance: usize, vnode: usize) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for v in [instance as u64, 0x5eed, vnode as u64] {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    mix(h)
}

/// splitmix64 finalizer: FNV-1a's high bits avalanche poorly on short
/// input, so both ring points and looked-up keys get mixed before
/// being compared on the ring. The wire-visible
/// [`cbes_server::route_key_hash`] stays plain FNV-1a; mixing is a ring
/// implementation detail applied consistently to both sides.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A consistent-hash ring over `instances` seeded instances.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, instance)` sorted by point.
    points: Vec<(u64, usize)>,
    instances: usize,
}

impl HashRing {
    /// A ring of `instances` instances with [`DEFAULT_VNODES`] points
    /// each.
    pub fn new(instances: usize) -> HashRing {
        let mut points: Vec<(u64, usize)> = (0..instances)
            .flat_map(|i| (0..DEFAULT_VNODES).map(move |v| (point_hash(i, v), i)))
            .collect();
        points.sort_unstable();
        HashRing { points, instances }
    }

    /// Number of instances on the ring.
    pub fn len(&self) -> usize {
        self.instances
    }

    /// True when the ring has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances == 0
    }

    /// The instance owning `key_hash`: the first ring point at or after
    /// it, wrapping at the top of the hash space.
    pub fn primary(&self, key_hash: u64) -> Option<usize> {
        self.candidates(key_hash, 1).into_iter().next()
    }

    /// Up to `count` distinct instances for `key_hash`, in preference
    /// order: the primary first, then successive distinct instances
    /// clockwise around the ring (the failover replicas).
    pub fn candidates(&self, key_hash: u64, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count.min(self.instances));
        if self.points.is_empty() || count == 0 {
            return out;
        }
        let key = mix(key_hash);
        // Walk clockwise from the key, wrapping to the first point.
        let (before, from) = self
            .points
            .split_at(self.points.partition_point(|&(point, _)| point < key));
        for &(_, instance) in from.iter().chain(before) {
            if !out.contains(&instance) {
                out.push(instance);
                if out.len() == count.min(self.instances) {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_server::route_key_hash;

    #[test]
    fn placement_is_deterministic_and_covers_all_instances() {
        let ring = HashRing::new(3);
        let mut owned = [0usize; 3];
        for i in 0..1000 {
            let h = route_key_hash("centurion", &format!("app-{i}"));
            let p = ring.primary(h).expect("non-empty ring always places");
            assert_eq!(ring.primary(h), Some(p), "placement is stable");
            owned[p] += 1;
        }
        for (i, n) in owned.iter().enumerate() {
            assert!(
                *n > 150,
                "instance {i} owns only {n}/1000 keys — ring is badly skewed"
            );
        }
    }

    #[test]
    fn candidates_are_distinct_and_lead_with_the_primary() {
        let ring = HashRing::new(4);
        let h = route_key_hash("centurion", "lu");
        let cands = ring.candidates(h, 3);
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0], ring.primary(h).expect("ring is non-empty"));
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "candidates never repeat an instance");
    }

    #[test]
    fn candidate_count_is_bounded_by_the_tier() {
        let ring = HashRing::new(2);
        assert_eq!(ring.candidates(42, 5).len(), 2);
        let empty = HashRing::new(0);
        assert!(empty.primary(42).is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn growing_the_tier_moves_few_keys() {
        let three = HashRing::new(3);
        let four = HashRing::new(4);
        let mut moved = 0;
        const KEYS: usize = 2000;
        for i in 0..KEYS {
            let h = route_key_hash("centurion", &format!("app-{i}"));
            if three.primary(h) != four.primary(h) {
                moved += 1;
            }
        }
        // Consistent hashing moves ~1/4 of keys when going 3 → 4;
        // rehashing everything would move ~3/4.
        assert!(
            moved < KEYS / 2,
            "{moved}/{KEYS} keys moved — not consistent"
        );
    }
}
