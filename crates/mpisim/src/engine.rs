//! The discrete-event execution engine.
//!
//! A sequential DES in the classic "advance the minimum-clock runnable
//! process" style: at every step the rank whose next action starts earliest
//! (in virtual time) executes exactly one operation. This guarantees that
//! operations *start* in globally non-decreasing virtual-time order, which
//! keeps the link-contention accounting causal.

use crate::error::SimError;
use crate::noise::Noise;
use crate::program::{Op, Program};
use crate::SimConfig;
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, NodeId};
use cbes_trace::{RankTrace, Trace, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Per-rank accounting produced by a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankStats {
    /// Own-code computation time (`X_i`).
    pub x: f64,
    /// Message-passing overhead (`O_i`).
    pub o: f64,
    /// Blocked time (`B_i`).
    pub b: f64,
    /// Completion time of the rank.
    pub end: f64,
}

/// The result of simulating one program run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end execution time — the "measured" time of the experiments.
    pub wall_time: f64,
    /// Full execution trace (empty event streams when tracing is disabled).
    pub trace: Trace,
    /// Per-rank accounting, indexed by rank.
    pub stats: Vec<RankStats>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ready,
    /// Receive posted, waiting for a matching message; `since` is the time
    /// the wait started (overhead already paid).
    WaitRecv {
        from: usize,
        since: f64,
    },
    /// Arrived at a barrier at time `since`.
    WaitBarrier {
        since: f64,
    },
    Done,
}

struct ProcState {
    pc: usize,
    clock: f64,
    status: Status,
    stats: RankStats,
    events: Vec<TraceEvent>,
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    arrival: f64,
    bytes: u64,
}

/// Pre-resolved per-rank-pair routing and load information.
struct PairInfo {
    base_latency: f64,
    bottleneck_bw: f64,
    load_factor: f64,
    /// Inter-switch links on the path: `(link index, bandwidth)`.
    links: Vec<(u32, f64)>,
    src_node: NodeId,
    dst_node: NodeId,
    src_nic_bw: f64,
    dst_nic_bw: f64,
}

/// Execute `program` on `cluster` under `mapping` and background `load`.
///
/// `mapping[r]` is the node rank `r` runs on; several ranks may share a node
/// (its CPUs are then time-shared). Returns the wall time, per-rank stats
/// and (unless disabled) a full trace.
pub fn simulate(
    cluster: &Cluster,
    program: &Program,
    mapping: &[NodeId],
    load: &LoadState,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let n = program.num_ranks();
    if mapping.len() != n {
        return Err(SimError::MappingMismatch {
            ranks: n,
            mapping: mapping.len(),
        });
    }
    if load.len() < cluster.len() {
        return Err(SimError::LoadMismatch {
            nodes: cluster.len(),
            load: load.len(),
        });
    }
    for &m in mapping {
        if m.index() >= cluster.len() {
            return Err(SimError::BadNode(m.0));
        }
    }
    if let Err((rank, op)) = program.validate() {
        return Err(SimError::BadProgram { rank, op });
    }
    Engine::new(cluster, program, mapping, load, config).run()
}

struct Engine<'a> {
    program: &'a Program,
    config: &'a SimConfig,
    n: usize,
    procs: Vec<ProcState>,
    /// `channels[from * n + to]`.
    channels: Vec<VecDeque<Msg>>,
    pairs: Vec<PairInfo>,
    /// Effective CPU speed of each rank (node speed × arch factor × CPU
    /// share × availability); divides compute and overhead durations.
    cpu_speed: Vec<f64>,
    /// Full-duplex NICs: independent transmit and receive occupancy.
    nic_tx_busy: Vec<f64>,
    nic_rx_busy: Vec<f64>,
    /// Full-duplex links: one occupancy slot per direction (a→b, b→a).
    link_busy: Vec<[f64; 2]>,
    rng: StdRng,
    compute_noise: Noise,
    net_noise: Noise,
    barrier_arrived: usize,
    trace_on: bool,
    mapping_nodes: Vec<NodeId>,
}

impl<'a> Engine<'a> {
    fn new(
        cluster: &'a Cluster,
        program: &'a Program,
        mapping: &'a [NodeId],
        load: &'a LoadState,
        config: &'a SimConfig,
    ) -> Self {
        let n = program.num_ranks();
        // Static CPU sharing: ranks per node determine each rank's share.
        let mut per_node = vec![0u32; cluster.len()];
        for &m in mapping {
            per_node[m.index()] += 1;
        }
        let cpu_speed = mapping
            .iter()
            .map(|&m| {
                let node = cluster.node(m);
                let share = (node.cpus as f64 / per_node[m.index()] as f64).min(1.0);
                node.speed * config.arch_factor(node.arch) * share * load.cpu_avail(m)
            })
            .collect();
        let mut pairs = Vec::with_capacity(n * n);
        for s in 0..n {
            for r in 0..n {
                let (a, b) = (mapping[s], mapping[r]);
                let p = cluster.path(a, b);
                pairs.push(PairInfo {
                    base_latency: p.base_latency,
                    bottleneck_bw: p.bottleneck_bw,
                    load_factor: config.load_adjuster.factor(load, a, b),
                    links: p
                        .link_indices
                        .iter()
                        .map(|&li| (li, cluster.links()[li as usize].bandwidth))
                        .collect(),
                    src_node: a,
                    dst_node: b,
                    src_nic_bw: cluster.node(a).nic_bandwidth,
                    dst_nic_bw: cluster.node(b).nic_bandwidth,
                });
            }
        }
        let procs = (0..n)
            .map(|r| ProcState {
                pc: 0,
                clock: 0.0,
                // A rank with an empty program is done before it starts.
                status: if program.procs[r].is_empty() {
                    Status::Done
                } else {
                    Status::Ready
                },
                stats: RankStats::default(),
                events: Vec::new(),
            })
            .collect();
        Engine {
            program,
            config,
            n,
            procs,
            channels: (0..n * n).map(|_| VecDeque::new()).collect(),
            pairs,
            cpu_speed,
            nic_tx_busy: vec![0.0; cluster.len()],
            nic_rx_busy: vec![0.0; cluster.len()],
            link_busy: vec![[0.0; 2]; cluster.links().len()],
            rng: StdRng::seed_from_u64(config.seed),
            compute_noise: Noise::new(config.compute_noise),
            net_noise: Noise::new(config.net_noise),
            barrier_arrived: 0,
            trace_on: config.collect_trace,
            mapping_nodes: mapping.to_vec(),
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        loop {
            match self.pick_next() {
                Pick::Proc(r) => self.step(r),
                Pick::AllDone => break,
                Pick::Stuck => {
                    let blocked = (0..self.n)
                        .filter(|&r| self.procs[r].status != Status::Done)
                        .collect();
                    return Err(SimError::Deadlock { blocked });
                }
            }
        }
        let wall_time = self
            .procs
            .iter()
            .map(|p| p.stats.end)
            .fold(0.0f64, f64::max);
        let ranks = self
            .procs
            .iter_mut()
            .enumerate()
            .map(|(r, p)| RankTrace {
                rank: r,
                node: self.mapping_nodes[r],
                events: std::mem::take(&mut p.events),
                end: p.stats.end,
            })
            .collect();
        let stats = self.procs.iter().map(|p| p.stats).collect();
        Ok(SimResult {
            wall_time,
            trace: Trace { ranks, wall_time },
            stats,
        })
    }

    /// Choose the rank whose next action starts earliest in virtual time.
    fn pick_next(&mut self) -> Pick {
        let mut best: Option<(f64, usize)> = None;
        let mut all_done = true;
        for r in 0..self.n {
            let p = &self.procs[r];
            let start = match p.status {
                Status::Done => continue,
                Status::Ready => p.clock,
                Status::WaitRecv { from, since } => {
                    all_done = false;
                    match self.channels[from * self.n + r].front() {
                        Some(m) => m.arrival.max(since),
                        None => continue,
                    }
                }
                Status::WaitBarrier { .. } => {
                    all_done = false;
                    continue;
                }
            };
            all_done = false;
            if best.is_none_or(|(t, _)| start < t) {
                best = Some((start, r));
            }
        }
        match best {
            Some((_, r)) => Pick::Proc(r),
            None if all_done => Pick::AllDone,
            None => Pick::Stuck,
        }
    }

    /// Execute one step (one op, or the completion of a pending wait) for
    /// rank `r`.
    fn step(&mut self, r: usize) {
        if let Status::WaitRecv { from, since } = self.procs[r].status {
            self.complete_recv(r, from, since);
            return;
        }
        let op = self.program.procs[r][self.procs[r].pc];
        match op {
            Op::Compute { seconds } => {
                let f = self.compute_noise.factor(&mut self.rng);
                let dur = seconds / self.cpu_speed[r] * f;
                let start = self.procs[r].clock;
                self.record(r, TraceEvent::Compute { start, dur });
                let p = &mut self.procs[r];
                p.stats.x += dur;
                p.clock += dur;
                self.advance(r);
            }
            Op::Send { to, bytes } => {
                self.do_send(r, to, bytes);
                self.advance(r);
            }
            Op::Recv { from } => {
                self.pay_overhead(r, self.config.recv_overhead);
                let since = self.procs[r].clock;
                if self.channels[from * self.n + r].front().is_some() {
                    self.complete_recv(r, from, since);
                } else {
                    self.procs[r].status = Status::WaitRecv { from, since };
                }
            }
            Op::SendRecv { to, bytes, from } => {
                self.do_send(r, to, bytes);
                self.pay_overhead(r, self.config.recv_overhead);
                let since = self.procs[r].clock;
                if self.channels[from * self.n + r].front().is_some() {
                    self.complete_recv(r, from, since);
                } else {
                    self.procs[r].status = Status::WaitRecv { from, since };
                }
            }
            Op::Barrier => {
                let since = self.procs[r].clock;
                self.procs[r].status = Status::WaitBarrier { since };
                self.barrier_arrived += 1;
                if self.barrier_arrived == self.n {
                    self.release_barrier();
                }
            }
            Op::Segment(id) => {
                let t = self.procs[r].clock;
                self.record(r, TraceEvent::Segment { t, id });
                self.advance(r);
            }
        }
    }

    /// Pay CPU-scaled messaging overhead and account it as `O_i`.
    fn pay_overhead(&mut self, r: usize, nominal: f64) {
        let dur = nominal / self.cpu_speed[r];
        let start = self.procs[r].clock;
        self.record(r, TraceEvent::Overhead { start, dur });
        let p = &mut self.procs[r];
        p.stats.o += dur;
        p.clock += dur;
    }

    /// Post a send: pay overhead, route the payload through the network
    /// model, enqueue the message with its computed arrival time.
    fn do_send(&mut self, r: usize, to: usize, bytes: u64) {
        let nominal = self.config.send_overhead + bytes as f64 * self.config.per_byte_overhead;
        self.pay_overhead(r, nominal);
        let t0 = self.procs[r].clock;
        self.record(r, TraceEvent::Send { t: t0, to, bytes });
        let arrival = self.route(r, to, bytes, t0);
        self.channels[r * self.n + to].push_back(Msg { arrival, bytes });
        // A rank waiting on this channel can now be scheduled; nothing to do
        // here — `pick_next` re-examines channel fronts every step.
    }

    /// Network transit: base latency (load-adjusted) plus serialisation at
    /// the bottleneck, with optional contention on NICs and links.
    fn route(&mut self, s: usize, rr: usize, bytes: u64, t0: f64) -> f64 {
        let pair = &self.pairs[s * self.n + rr];
        let ser = bytes as f64 / pair.bottleneck_bw;
        let noise = self.net_noise.factor(&mut self.rng);
        if !self.config.contention || pair.src_node == pair.dst_node {
            return t0 + (pair.base_latency * pair.load_factor + ser) * noise;
        }
        // Earliest time every resource on the path is free; each resource is
        // then occupied only for ITS OWN serialisation time (cut-through
        // style), so a fast backbone link is not convoyed behind slow NICs.
        // NICs and links are full duplex: the sender's transmit side, the
        // receiver's receive side, and one direction of each link.
        let dir = usize::from(s > rr);
        let mut start = t0
            .max(self.nic_tx_busy[pair.src_node.index()])
            .max(self.nic_rx_busy[pair.dst_node.index()]);
        for &(li, _) in &pair.links {
            start = start.max(self.link_busy[li as usize][dir]);
        }
        let bytes_f = bytes as f64;
        self.nic_tx_busy[pair.src_node.index()] = start + bytes_f / pair.src_nic_bw;
        self.nic_rx_busy[pair.dst_node.index()] = start + bytes_f / pair.dst_nic_bw;
        for &(li, bw) in &pair.links {
            self.link_busy[li as usize][dir] = start + bytes_f / bw;
        }
        start + (pair.base_latency * pair.load_factor + ser) * noise
    }

    /// Finish a (possibly waiting) receive: match the front message, account
    /// blocked time, deliver.
    fn complete_recv(&mut self, r: usize, from: usize, since: f64) {
        let msg = self.channels[from * self.n + r]
            .pop_front()
            .expect("complete_recv requires a pending message");
        let resume = since.max(msg.arrival);
        if resume > since {
            self.record(
                r,
                TraceEvent::Blocked {
                    start: since,
                    dur: resume - since,
                },
            );
            self.procs[r].stats.b += resume - since;
        }
        self.record(
            r,
            TraceEvent::Recv {
                t: resume,
                from,
                bytes: msg.bytes,
            },
        );
        self.procs[r].clock = resume;
        self.procs[r].status = Status::Ready;
        self.advance(r);
    }

    /// All ranks arrived: release the barrier at the latest arrival plus the
    /// synchronisation cost.
    fn release_barrier(&mut self) {
        let mut t_rel = 0.0f64;
        for p in &self.procs {
            if let Status::WaitBarrier { since } = p.status {
                t_rel = t_rel.max(since);
            }
        }
        t_rel += self.config.barrier_cost;
        for r in 0..self.n {
            if let Status::WaitBarrier { since } = self.procs[r].status {
                if t_rel > since {
                    self.record(
                        r,
                        TraceEvent::Blocked {
                            start: since,
                            dur: t_rel - since,
                        },
                    );
                    self.procs[r].stats.b += t_rel - since;
                }
                self.procs[r].clock = t_rel;
                self.procs[r].status = Status::Ready;
                self.advance(r);
            }
        }
        self.barrier_arrived = 0;
    }

    /// Move past the current op; mark the rank done at the end of its
    /// program.
    fn advance(&mut self, r: usize) {
        let p = &mut self.procs[r];
        p.pc += 1;
        if p.pc >= self.program.procs[r].len() {
            p.status = Status::Done;
            p.stats.end = p.clock;
        }
    }

    #[inline]
    fn record(&mut self, r: usize, e: TraceEvent) {
        if self.trace_on {
            self.procs[r].events.push(e);
        }
    }
}

enum Pick {
    Proc(usize),
    AllDone,
    Stuck,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::Architecture;

    fn idle(c: &Cluster) -> LoadState {
        LoadState::idle(c.len())
    }

    fn cfg() -> SimConfig {
        SimConfig::default().noiseless()
    }

    /// Rank 0 computes then sends; rank 1 receives.
    fn ping(bytes: u64, comp: f64) -> Program {
        let mut p = Program::new(2);
        p.push(0, Op::Compute { seconds: comp });
        p.push(0, Op::Send { to: 1, bytes });
        p.push(1, Op::Recv { from: 0 });
        p
    }

    #[test]
    fn compute_time_scales_with_node_speed() {
        let c = two_switch_demo();
        let mut p = Program::new(1);
        p.push(0, Op::Compute { seconds: 2.0 });
        // Node 0: Alpha speed 1.0. Node 4: Intel speed 0.85.
        let fast = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg()).unwrap();
        let slow = simulate(&c, &p, &[NodeId(4)], &idle(&c), &cfg()).unwrap();
        assert!((fast.wall_time - 2.0).abs() < 1e-9);
        assert!((slow.wall_time - 2.0 / 0.85).abs() < 1e-9);
    }

    #[test]
    fn receiver_blocks_until_message_arrives() {
        let c = two_switch_demo();
        let r = simulate(
            &c,
            &ping(1024, 1.0),
            &[NodeId(0), NodeId(1)],
            &idle(&c),
            &cfg(),
        )
        .unwrap();
        // Rank 1 spent ~1 s blocked (sender computed first).
        assert!(r.stats[1].b > 0.9, "b = {}", r.stats[1].b);
        assert!(r.wall_time > 1.0);
        assert!(r.wall_time < 1.01);
    }

    #[test]
    fn cross_switch_mapping_is_slower() {
        let c = two_switch_demo();
        // Many messages so the latency difference is visible.
        let mut p = Program::new(2);
        for _ in 0..200 {
            p.push(0, Op::Send { to: 1, bytes: 4096 });
            p.push(1, Op::Recv { from: 0 });
        }
        let near = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap();
        let far = simulate(&c, &p, &[NodeId(0), NodeId(4)], &idle(&c), &cfg()).unwrap();
        assert!(
            far.wall_time > near.wall_time,
            "far {} near {}",
            far.wall_time,
            near.wall_time
        );
    }

    #[test]
    fn cpu_load_slows_execution() {
        let c = two_switch_demo();
        let mut p = Program::new(1);
        p.push(0, Op::Compute { seconds: 1.0 });
        let mut loaded = idle(&c);
        loaded.set_cpu_avail(NodeId(0), 0.5);
        let idle_r = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg()).unwrap();
        let load_r = simulate(&c, &p, &[NodeId(0)], &loaded, &cfg()).unwrap();
        assert!((load_r.wall_time / idle_r.wall_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_ranks_share_a_single_cpu() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        p.push_all(Op::Compute { seconds: 1.0 });
        // Node 0 is a 1-CPU Alpha: two ranks -> half speed each.
        let shared = simulate(&c, &p, &[NodeId(0), NodeId(0)], &idle(&c), &cfg()).unwrap();
        assert!((shared.wall_time - 2.0).abs() < 1e-9);
        // Node 4 is a 2-CPU Intel: two ranks -> full per-CPU speed.
        let dual = simulate(&c, &p, &[NodeId(4), NodeId(4)], &idle(&c), &cfg()).unwrap();
        assert!((dual.wall_time - 1.0 / 0.85).abs() < 1e-9);
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        let c = two_switch_demo();
        let mut p = Program::new(3);
        p.push(0, Op::Compute { seconds: 0.5 });
        p.push(1, Op::Compute { seconds: 1.5 });
        p.push(2, Op::Compute { seconds: 1.0 });
        p.push_all(Op::Barrier);
        p.push_all(Op::Compute { seconds: 0.1 });
        let r = simulate(
            &c,
            &p,
            &[NodeId(0), NodeId(1), NodeId(2)],
            &idle(&c),
            &cfg(),
        )
        .unwrap();
        // Everyone leaves the barrier at ~1.5 and computes 0.1 more.
        for s in &r.stats {
            assert!((s.end - 1.6).abs() < 1e-3, "end {}", s.end);
        }
        // Rank 0 blocked ~1.0 in the barrier.
        assert!((r.stats[0].b - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sendrecv_exchange_does_not_deadlock() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        for _ in 0..10 {
            p.push(
                0,
                Op::SendRecv {
                    to: 1,
                    bytes: 1024,
                    from: 1,
                },
            );
            p.push(
                1,
                Op::SendRecv {
                    to: 0,
                    bytes: 1024,
                    from: 0,
                },
            );
        }
        let r = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap();
        assert!(r.wall_time > 0.0 && r.wall_time < 0.1);
    }

    #[test]
    fn head_to_head_recv_deadlock_is_detected() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        p.push(0, Op::Recv { from: 1 });
        p.push(1, Op::Recv { from: 0 });
        let err = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                blocked: vec![0, 1]
            }
        );
    }

    #[test]
    fn same_seed_is_bitwise_reproducible() {
        let c = two_switch_demo();
        let cfgn = SimConfig::default().with_seed(33);
        let p = ping(64 * 1024, 0.2);
        let a = simulate(&c, &p, &[NodeId(0), NodeId(4)], &idle(&c), &cfgn).unwrap();
        let b = simulate(&c, &p, &[NodeId(0), NodeId(4)], &idle(&c), &cfgn).unwrap();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.trace, b.trace);
        let d = simulate(
            &c,
            &p,
            &[NodeId(0), NodeId(4)],
            &idle(&c),
            &SimConfig::default().with_seed(34),
        )
        .unwrap();
        assert_ne!(a.wall_time, d.wall_time);
    }

    #[test]
    fn stats_match_trace_totals() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        for _ in 0..5 {
            p.push(0, Op::Compute { seconds: 0.01 });
            p.push(0, Op::Send { to: 1, bytes: 2048 });
            p.push(1, Op::Compute { seconds: 0.005 });
            p.push(1, Op::Recv { from: 0 });
        }
        let r = simulate(&c, &p, &[NodeId(0), NodeId(5)], &idle(&c), &cfg()).unwrap();
        for (rank, s) in r.stats.iter().enumerate() {
            let (x, o, b) = r.trace.ranks[rank].totals();
            assert!((x - s.x).abs() < 1e-12);
            assert!((o - s.o).abs() < 1e-12);
            assert!((b - s.b).abs() < 1e-12);
        }
    }

    #[test]
    fn contention_serialises_concurrent_transfers() {
        let c = two_switch_demo();
        // Two big simultaneous transfers into the same destination NIC.
        let mut p = Program::new(3);
        p.push(
            0,
            Op::Send {
                to: 2,
                bytes: 1_000_000,
            },
        );
        p.push(
            1,
            Op::Send {
                to: 2,
                bytes: 1_000_000,
            },
        );
        p.push(2, Op::Recv { from: 0 });
        p.push(2, Op::Recv { from: 1 });
        let with = simulate(
            &c,
            &p,
            &[NodeId(0), NodeId(1), NodeId(2)],
            &idle(&c),
            &cfg(),
        )
        .unwrap();
        let without = simulate(
            &c,
            &p,
            &[NodeId(0), NodeId(1), NodeId(2)],
            &idle(&c),
            &SimConfig {
                contention: false,
                ..cfg()
            },
        )
        .unwrap();
        assert!(
            with.wall_time > without.wall_time * 1.3,
            "with {} without {}",
            with.wall_time,
            without.wall_time
        );
    }

    #[test]
    fn mapping_mismatch_is_rejected() {
        let c = two_switch_demo();
        let p = ping(8, 0.0);
        let err = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg()).unwrap_err();
        assert!(matches!(err, SimError::MappingMismatch { .. }));
    }

    #[test]
    fn bad_node_is_rejected() {
        let c = two_switch_demo();
        let p = ping(8, 0.0);
        let err = simulate(&c, &p, &[NodeId(0), NodeId(99)], &idle(&c), &cfg()).unwrap_err();
        assert_eq!(err, SimError::BadNode(99));
    }

    #[test]
    fn arch_factors_modulate_speed() {
        let c = two_switch_demo();
        let mut p = Program::new(1);
        p.push(0, Op::Compute { seconds: 1.0 });
        let mut cfg_slow = cfg();
        cfg_slow.arch_factors.insert(Architecture::Alpha, 0.5);
        let base = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg()).unwrap();
        let slow = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg_slow).unwrap();
        assert!((slow.wall_time / base.wall_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_can_be_disabled() {
        let c = two_switch_demo();
        let mut cfg2 = cfg();
        cfg2.collect_trace = false;
        let r = simulate(
            &c,
            &ping(1024, 0.1),
            &[NodeId(0), NodeId(1)],
            &idle(&c),
            &cfg2,
        )
        .unwrap();
        assert!(r.trace.ranks.iter().all(|rt| rt.events.is_empty()));
        assert!(r.wall_time > 0.0);
        assert!(r.stats[0].x > 0.0);
    }

    #[test]
    fn messages_between_a_pair_are_delivered_in_fifo_order() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        // Two differently-sized messages on the same channel; the receiver
        // must see them in send order regardless of transfer times.
        p.push(
            0,
            Op::Send {
                to: 1,
                bytes: 500_000,
            },
        ); // slow transfer
        p.push(0, Op::Send { to: 1, bytes: 8 }); // fast transfer
        p.push(1, Op::Recv { from: 0 });
        p.push(1, Op::Recv { from: 0 });
        let r = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap();
        let recvs: Vec<u64> = r.trace.ranks[1]
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recv { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(recvs, vec![500_000, 8], "FIFO per channel");
    }

    #[test]
    fn consecutive_barriers_work() {
        let c = two_switch_demo();
        let mut p = Program::new(4);
        for _ in 0..5 {
            p.push_all(Op::Barrier);
        }
        let mapping: Vec<NodeId> = (0..4).map(NodeId).collect();
        let r = simulate(&c, &p, &mapping, &idle(&c), &cfg()).unwrap();
        // Five barrier releases at 25 us each.
        assert!((r.wall_time - 5.0 * 25e-6).abs() < 1e-9, "{}", r.wall_time);
    }

    #[test]
    fn pre_sent_messages_do_not_block_the_receiver() {
        let c = two_switch_demo();
        let mut p = Program::new(2);
        p.push(0, Op::Send { to: 1, bytes: 64 });
        // Receiver computes long enough for the message to be waiting.
        p.push(1, Op::Compute { seconds: 1.0 });
        p.push(1, Op::Recv { from: 0 });
        let r = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap();
        assert_eq!(r.stats[1].b, 0.0, "message was already there");
    }

    #[test]
    fn empty_program_completes_instantly() {
        let c = two_switch_demo();
        let p = Program::new(3);
        let mapping: Vec<NodeId> = (0..3).map(NodeId).collect();
        let r = simulate(&c, &p, &mapping, &idle(&c), &cfg()).unwrap();
        assert_eq!(r.wall_time, 0.0);
    }

    #[test]
    fn load_state_too_small_is_rejected() {
        let c = two_switch_demo();
        let p = ping(8, 0.0);
        let err =
            simulate(&c, &p, &[NodeId(0), NodeId(1)], &LoadState::idle(2), &cfg()).unwrap_err();
        assert!(matches!(err, SimError::LoadMismatch { .. }));
    }

    #[test]
    fn nic_load_inflates_message_latency() {
        let c = two_switch_demo();
        let mut loaded = idle(&c);
        loaded.set_nic_load(NodeId(1), 0.8);
        let p = ping(1024, 0.0);
        let quiet = simulate(&c, &p, &[NodeId(0), NodeId(1)], &idle(&c), &cfg()).unwrap();
        let busy = simulate(&c, &p, &[NodeId(0), NodeId(1)], &loaded, &cfg()).unwrap();
        assert!(
            busy.wall_time > quiet.wall_time * 1.2,
            "busy {} quiet {}",
            busy.wall_time,
            quiet.wall_time
        );
    }

    #[test]
    fn segments_are_recorded() {
        let c = two_switch_demo();
        let mut p = Program::new(1);
        p.push(0, Op::Compute { seconds: 0.1 });
        p.push(0, Op::Segment(1));
        p.push(0, Op::Compute { seconds: 0.2 });
        let r = simulate(&c, &p, &[NodeId(0)], &idle(&c), &cfg()).unwrap();
        assert!(r.trace.ranks[0]
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Segment { id: 1, .. })));
    }
}
