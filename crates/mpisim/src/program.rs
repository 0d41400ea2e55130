//! The simulated program model: per-rank operation sequences.

use serde::{Deserialize, Serialize};

/// One operation in a rank's program. Programs use blocking, standard-mode
/// point-to-point semantics (eager/buffered sends) plus barriers; collective
/// operations are lowered to these primitives by `cbes-workloads`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Execute application code costing `seconds` on the reference
    /// (speed 1.0) architecture.
    Compute {
        /// Nominal duration on the reference architecture.
        seconds: f64,
    },
    /// Post a standard-mode send of `bytes` to rank `to`. The sender pays
    /// CPU overhead and continues (eager buffering); the payload travels
    /// through the network model.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Blocking receive of the next message from rank `from`.
    Recv {
        /// Source rank.
        from: usize,
    },
    /// Combined exchange: post the send, then receive — the deadlock-free
    /// halo-exchange primitive (MPI_Sendrecv).
    SendRecv {
        /// Destination rank for the outgoing payload.
        to: usize,
        /// Outgoing payload size in bytes.
        bytes: u64,
        /// Source rank for the incoming payload.
        from: usize,
    },
    /// Global barrier across all ranks.
    Barrier,
    /// Phase marker: subsequent events belong to segment `id`.
    Segment(u32),
}

/// A complete simulated application: one [`Op`] sequence per rank.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    /// Per-rank operation sequences; `procs.len()` is the process count.
    pub procs: Vec<Vec<Op>>,
}

impl Program {
    /// An empty program with `n` ranks.
    pub fn new(n: usize) -> Self {
        Program {
            procs: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.procs.len()
    }

    /// Append an op to one rank's program.
    pub fn push(&mut self, rank: usize, op: Op) {
        self.procs[rank].push(op);
    }

    /// Append an op to every rank's program.
    pub fn push_all(&mut self, op: Op) {
        for p in &mut self.procs {
            p.push(op);
        }
    }

    /// Total op count over all ranks.
    pub fn total_ops(&self) -> usize {
        self.procs.iter().map(|p| p.len()).sum()
    }

    /// Validate that all peer ranks referenced by sends/receives exist and
    /// no rank messages itself. Returns the offending `(rank, op_index)` on
    /// failure.
    pub fn validate(&self) -> Result<(), (usize, usize)> {
        let n = self.num_ranks();
        for (rank, ops) in self.procs.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                let bad = match *op {
                    Op::Send { to, .. } => to >= n || to == rank,
                    Op::Recv { from } => from >= n || from == rank,
                    Op::SendRecv { to, from, .. } => {
                        to >= n || from >= n || to == rank || from == rank
                    }
                    Op::Compute { seconds } => seconds.is_nan() || seconds < 0.0,
                    _ => false,
                };
                if bad {
                    return Err((rank, i));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_totals() {
        let mut p = Program::new(2);
        p.push(0, Op::Compute { seconds: 1.0 });
        p.push(0, Op::Send { to: 1, bytes: 100 });
        p.push(1, Op::Recv { from: 0 });
        p.push_all(Op::Barrier);
        assert_eq!(p.num_ranks(), 2);
        assert_eq!(p.total_ops(), 5);
    }

    #[test]
    fn validate_catches_bad_peers() {
        let mut p = Program::new(2);
        p.push(0, Op::Send { to: 5, bytes: 1 });
        assert_eq!(p.validate(), Err((0, 0)));

        let mut p = Program::new(2);
        p.push(1, Op::Recv { from: 1 });
        assert_eq!(p.validate(), Err((1, 0)));

        let mut p = Program::new(2);
        p.push(0, Op::Compute { seconds: f64::NAN });
        assert_eq!(p.validate(), Err((0, 0)));
    }

    #[test]
    fn validate_accepts_well_formed_programs() {
        let mut p = Program::new(3);
        p.push(
            0,
            Op::SendRecv {
                to: 1,
                bytes: 10,
                from: 2,
            },
        );
        p.push(1, Op::Recv { from: 0 });
        p.push(2, Op::Send { to: 0, bytes: 10 });
        assert_eq!(p.validate(), Ok(()));
    }
}
