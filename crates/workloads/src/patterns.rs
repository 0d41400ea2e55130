//! Reusable communication-pattern builders.
//!
//! Every builder appends a *collectively consistent* set of operations to
//! all ranks of a [`Program`] — matching sends and receives are always
//! generated together, so composed programs are deadlock-free by
//! construction (verified by the simulator tests).

use cbes_mpisim::{Op, Program};

/// Near-square factorisation of `n` into a 2-D process grid `(px, py)` with
/// `px ≤ py` and `px · py = n`.
pub fn grid2d(n: usize) -> (usize, usize) {
    assert!(n > 0, "grid of zero processes");
    let mut px = (n as f64).sqrt() as usize;
    while px > 1 && !n.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), n / px.max(1))
}

/// Ring exchange: every rank sends `bytes` to its successor and receives
/// from its predecessor (one `SendRecv` per rank).
pub fn ring(prog: &mut Program, bytes: u64) {
    let n = prog.num_ranks();
    if n < 2 {
        return;
    }
    for r in 0..n {
        prog.push(
            r,
            Op::SendRecv {
                to: (r + 1) % n,
                bytes,
                from: (r + n - 1) % n,
            },
        );
    }
}

/// Four-direction halo exchange on a `(px, py)` grid (non-periodic): +x,
/// -x, +y, -y phases of `SendRecv`/`Send`/`Recv` pairs. Edge ranks skip the
/// missing neighbour.
pub fn halo2d(prog: &mut Program, px: usize, py: usize, bytes: u64) {
    let n = prog.num_ranks();
    assert_eq!(px * py, n, "grid must cover all ranks");
    let at = |x: usize, y: usize| y * px + x;
    // Two phases per axis so every op pairs up without deadlock: first
    // even-x send right, then odd-x send right, mirrored by receives.
    for y in 0..py {
        for x in 0..px {
            let r = at(x, y);
            let east = (x + 1 < px).then(|| at(x + 1, y));
            let west = (x > 0).then(|| at(x - 1, y));
            match (east, west) {
                (Some(e), Some(w)) => prog.push(
                    r,
                    Op::SendRecv {
                        to: e,
                        bytes,
                        from: w,
                    },
                ),
                (Some(e), None) => prog.push(r, Op::Send { to: e, bytes }),
                (None, Some(w)) => prog.push(r, Op::Recv { from: w }),
                (None, None) => {}
            }
            // Reverse direction.
            match (west, east) {
                (Some(w), Some(e)) => prog.push(
                    r,
                    Op::SendRecv {
                        to: w,
                        bytes,
                        from: e,
                    },
                ),
                (Some(w), None) => prog.push(r, Op::Send { to: w, bytes }),
                (None, Some(e)) => prog.push(r, Op::Recv { from: e }),
                (None, None) => {}
            }
        }
    }
    for y in 0..py {
        for x in 0..px {
            let r = at(x, y);
            let north = (y + 1 < py).then(|| at(x, y + 1));
            let south = (y > 0).then(|| at(x, y - 1));
            match (north, south) {
                (Some(nn), Some(s)) => prog.push(
                    r,
                    Op::SendRecv {
                        to: nn,
                        bytes,
                        from: s,
                    },
                ),
                (Some(nn), None) => prog.push(r, Op::Send { to: nn, bytes }),
                (None, Some(s)) => prog.push(r, Op::Recv { from: s }),
                (None, None) => {}
            }
            match (south, north) {
                (Some(s), Some(nn)) => prog.push(
                    r,
                    Op::SendRecv {
                        to: s,
                        bytes,
                        from: nn,
                    },
                ),
                (Some(s), None) => prog.push(r, Op::Send { to: s, bytes }),
                (None, Some(nn)) => prog.push(r, Op::Recv { from: nn }),
                (None, None) => {}
            }
        }
    }
}

/// Pairwise-exchange all-to-all: `n-1` rounds, in round `s` rank `r`
/// exchanges `bytes` with `(r + s) mod n` via `SendRecv`.
pub fn alltoall(prog: &mut Program, bytes: u64) {
    let n = prog.num_ranks();
    for s in 1..n {
        for r in 0..n {
            let to = (r + s) % n;
            let from = (r + n - s) % n;
            prog.push(r, Op::SendRecv { to, bytes, from });
        }
    }
}

/// Binomial-tree broadcast of `bytes` from `root`.
pub fn bcast(prog: &mut Program, root: usize, bytes: u64) {
    let n = prog.num_ranks();
    if n < 2 {
        return;
    }
    // Work in the rotated space where root = 0.
    let abs = |v: usize| (v + root) % n;
    let mut mask = 1usize;
    while mask < n {
        for v in 0..n {
            let r = abs(v);
            if v < mask && v + mask < n {
                prog.push(
                    r,
                    Op::Send {
                        to: abs(v + mask),
                        bytes,
                    },
                );
            } else if v >= mask && v < 2 * mask {
                prog.push(
                    r,
                    Op::Recv {
                        from: abs(v - mask),
                    },
                );
            }
        }
        mask <<= 1;
    }
}

/// Binomial-tree reduction of `bytes` to `root` (mirror of [`bcast`]).
pub fn reduce(prog: &mut Program, root: usize, bytes: u64) {
    let n = prog.num_ranks();
    if n < 2 {
        return;
    }
    let abs = |v: usize| (v + root) % n;
    // Highest power of two < 2n covering all ranks.
    let mut mask = 1usize;
    while mask < n {
        mask <<= 1;
    }
    mask >>= 1;
    while mask >= 1 {
        for v in 0..n {
            let r = abs(v);
            if v < mask && v + mask < n {
                prog.push(
                    r,
                    Op::Recv {
                        from: abs(v + mask),
                    },
                );
            } else if v >= mask && v < 2 * mask {
                prog.push(
                    r,
                    Op::Send {
                        to: abs(v - mask),
                        bytes,
                    },
                );
            }
        }
        mask >>= 1;
    }
}

/// All-reduce of `bytes`: reduction to rank 0 followed by broadcast.
pub fn allreduce(prog: &mut Program, bytes: u64) {
    reduce(prog, 0, bytes);
    bcast(prog, 0, bytes);
}

/// Append `seconds` of computation to every rank.
pub fn compute_all(prog: &mut Program, seconds: f64) {
    prog.push_all(Op::Compute { seconds });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::load::LoadState;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::NodeId;
    use cbes_mpisim::{simulate, SimConfig};

    fn run(prog: &Program) -> f64 {
        let c = two_switch_demo();
        let n = prog.num_ranks();
        let mapping: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        simulate(
            &c,
            prog,
            &mapping,
            &LoadState::idle(c.len()),
            &SimConfig::default().noiseless(),
        )
        .expect("pattern must be deadlock-free")
        .wall_time
    }

    #[test]
    fn grid2d_factorises_near_square() {
        assert_eq!(grid2d(1), (1, 1));
        assert_eq!(grid2d(8), (2, 4));
        assert_eq!(grid2d(16), (4, 4));
        assert_eq!(grid2d(121), (11, 11));
        assert_eq!(grid2d(7), (1, 7));
        assert_eq!(grid2d(128), (8, 16));
    }

    #[test]
    fn ring_runs_without_deadlock() {
        let mut p = Program::new(6);
        for _ in 0..5 {
            ring(&mut p, 2048);
        }
        assert!(run(&p) > 0.0);
    }

    #[test]
    fn halo2d_runs_without_deadlock() {
        let mut p = Program::new(8);
        let (px, py) = grid2d(8);
        for _ in 0..3 {
            halo2d(&mut p, px, py, 4096);
        }
        assert!(run(&p) > 0.0);
    }

    #[test]
    fn alltoall_exchanges_all_pairs() {
        let mut p = Program::new(5);
        alltoall(&mut p, 128);
        // Each rank sends n-1 = 4 messages.
        let sent: Vec<u64> = p
            .procs
            .iter()
            .flatten()
            .filter_map(|o| match *o {
                Op::Send { bytes, .. } | Op::SendRecv { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 5 * 4);
        assert_eq!(sent.iter().sum::<u64>(), 5 * 4 * 128);
        assert!(run(&p) > 0.0);
    }

    #[test]
    fn bcast_reaches_every_rank() {
        for n in [2usize, 3, 4, 7, 8] {
            for root in [0usize, 1, n - 1] {
                let mut p = Program::new(n);
                bcast(&mut p, root, 512);
                // Every non-root rank receives exactly once.
                for (r, ops) in p.procs.iter().enumerate() {
                    let recvs = ops.iter().filter(|o| matches!(o, Op::Recv { .. })).count();
                    assert_eq!(recvs, usize::from(r != root), "n={n} root={root} r={r}");
                }
                assert!(run(&p) > 0.0, "n={n} root={root}");
            }
        }
    }

    #[test]
    fn reduce_collects_from_every_rank() {
        for n in [2usize, 3, 5, 8] {
            let mut p = Program::new(n);
            reduce(&mut p, 0, 512);
            let sends: usize = p
                .procs
                .iter()
                .map(|ops| ops.iter().filter(|o| matches!(o, Op::Send { .. })).count())
                .sum();
            assert_eq!(sends, n - 1, "n={n}");
            assert!(run(&p) > 0.0, "n={n}");
        }
    }

    #[test]
    fn allreduce_composes_reduce_and_bcast() {
        let mut p = Program::new(6);
        allreduce(&mut p, 64);
        assert!(run(&p) > 0.0);
        let count = p
            .procs
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Send { .. } | Op::SendRecv { .. }))
            .count();
        assert_eq!(count, 2 * 5);
    }

    #[test]
    fn patterns_compose_into_one_program() {
        let mut p = Program::new(8);
        let (px, py) = grid2d(8);
        for _ in 0..3 {
            compute_all(&mut p, 0.01);
            halo2d(&mut p, px, py, 2048);
            allreduce(&mut p, 64);
            ring(&mut p, 1024);
            alltoall(&mut p, 256);
        }
        assert_eq!(p.validate(), Ok(()));
        assert!(run(&p) > 0.03);
    }
}
