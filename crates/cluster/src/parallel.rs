//! Shared substrate of the real-thread engines.
//!
//! The [`sharded`](crate::sharded) and
//! [`sharded_optimistic`](crate::sharded_optimistic) engines run the same
//! mechanism — node simulators on worker threads meeting at quantum
//! barriers — and differ only in what happens inside a window. This module
//! holds everything both of them use:
//!
//! * `ArrivalTable` — the pure switch transit table, built once by
//!   [`Sim`](crate::Sim) from its switch and chaos overlay;
//! * `ParallelConfig` — the run configuration `Sim` hands to either
//!   engine;
//! * `prologue` — the run setup: resume checks, worker clamp, policy,
//!   first quantum edge, and seed routing;
//! * `route_seed_frags` — routes a snapshot's cut-in-flight fragments;
//! * `run_shards` — scoped spawn and join: each worker builds its own
//!   shard's node simulators from a `ShardSource` on its own thread, and
//!   the join maps quantum-cap overflow and assembles the rank-ordered
//!   [`ParallelNodeResult`]s;
//! * `advance_to_edge` and `catch_up` — the node-advance loop and the
//!   wake-up fast-forward both engines share;
//! * `partition` and `busy_work`.
//!
//! # Examples
//!
//! ```
//! use aqs_cluster::{EngineKind, Sim};
//! use aqs_core::SyncConfig;
//! use aqs_node::{ProgramBuilder, Rank, Tag};
//!
//! let a = ProgramBuilder::new(Rank::new(0)).send(Rank::new(1), 64, Tag::new(0)).build();
//! let b = ProgramBuilder::new(Rank::new(1)).recv(Some(Rank::new(0)), Tag::new(0)).build();
//! let report = Sim::new(vec![a, b])
//!     .engine(EngineKind::Sharded)
//!     .shards(2)
//!     .sync(SyncConfig::ground_truth())
//!     .run();
//! assert_eq!(report.stragglers.count(), 0);
//! assert_eq!(report.messages_received, 1);
//! ```

use crate::sim::{EngineKind, SimError, SimSwitch};
use crate::snapshot::{FragSnap, ResumeSeed};
use aqs_core::{QuantumPolicy, SyncConfig};
use aqs_net::{ChaosOverlay, FatTreeFabric, NicModel, NodeId, StragglerStats};
use aqs_node::{
    Action, CpuModel, MessageId, MessageMeta, NodeExecutor, Program, Rank, RegionRecord, SendTarget,
};
use aqs_time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Precomputed switch transit: the per-packet lookup is one indexed load of
/// a nanosecond count (dense matrix) or a pure SoA computation (fabric) —
/// no enum dispatch over trait objects, no bounds assert, no allocation.
///
/// Only pure models exist here: transit is a function of
/// `(src, dst, bytes, departure)` alone, so worker threads compute arrivals
/// without sharing mutable switch state and call order cannot change any
/// result. The store-and-forward switch is absent — its per-egress queue
/// would serialize every route call behind a lock.
pub(crate) enum ArrivalTable {
    /// Perfect switch: zero transit, nothing to look up.
    Perfect,
    /// Dense `n × n` row-major transit nanoseconds.
    Dense { n: usize, nanos: Vec<u64> },
    /// The fat-tree fabric: transit is a pure function of
    /// `(src, dst, bytes, departure)`, so per-worker slices can route their
    /// own racks' traffic in any order with bit-identical results.
    Fabric(FatTreeFabric),
    /// Chaos middleware over another table: the inner table computes the
    /// base transit and the overlay adds its seeded fault delay — pure, so
    /// cross-M identity survives fault injection. The overlay cannot be
    /// folded into a dense matrix: its delay depends on `bytes` and
    /// `departure`, not just `(src, dst)`.
    Chaos(ChaosOverlay, Box<ArrivalTable>),
}

impl ArrivalTable {
    /// Builds the table for `n` nodes from a switch [`Sim::validate`]
    /// accepted for a real-thread engine (so never store-and-forward, and a
    /// latency matrix has at least `n` ports).
    ///
    /// [`Sim::validate`]: crate::Sim
    pub(crate) fn new(switch: SimSwitch, overlay: Option<ChaosOverlay>, n: usize) -> Self {
        let base = match switch {
            SimSwitch::Perfect => ArrivalTable::Perfect,
            SimSwitch::LatencyMatrix(m) => {
                let mut nanos = Vec::with_capacity(n * n);
                for src in 0..n {
                    for dst in 0..n {
                        nanos.push(
                            m.latency(NodeId::new(src as u32), NodeId::new(dst as u32))
                                .as_nanos(),
                        );
                    }
                }
                ArrivalTable::Dense { n, nanos }
            }
            SimSwitch::Fabric(cfg) => ArrivalTable::Fabric(FatTreeFabric::new(cfg, n)),
            SimSwitch::StoreAndForward(_) => {
                unreachable!("rejected by Sim::validate before dispatch")
            }
        };
        match overlay {
            Some(o) => ArrivalTable::Chaos(o, Box::new(base)),
            None => base,
        }
    }

    #[inline]
    pub(crate) fn transit_nanos(
        &self,
        src: usize,
        dst: usize,
        bytes: u32,
        departure: SimTime,
    ) -> u64 {
        match self {
            ArrivalTable::Perfect => 0,
            ArrivalTable::Dense { n, nanos } => nanos[src * n + dst],
            ArrivalTable::Fabric(f) => {
                f.transit_nanos(src as u32, dst as u32, bytes, departure.as_nanos())
            }
            ArrivalTable::Chaos(overlay, inner) => {
                inner.transit_nanos(src, dst, bytes, departure)
                    + overlay.extra_nanos(src as u32, dst as u32, bytes, departure.as_nanos())
            }
        }
    }
}

/// Configuration of a real-thread run, assembled by
/// [`Sim`](crate::Sim) from its own setters.
pub(crate) struct ParallelConfig {
    pub(crate) sync: SyncConfig,
    pub(crate) nic: NicModel,
    pub(crate) cpu: CpuModel,
    pub(crate) arrivals: ArrivalTable,
    /// Real host nanoseconds of busy-work burned per simulated operation —
    /// emulates the execution cost of the node simulator itself.
    pub(crate) host_work_per_op: f64,
    /// Hard cap on quanta (the deadlock guard).
    pub(crate) max_quanta: u64,
    /// Execute every node every quantum instead of consulting the active
    /// set: the differential baseline active-set runs must match bit for
    /// bit.
    pub(crate) full_sweep: bool,
}

/// Per-node outcome of a real-thread run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParallelNodeResult {
    /// Rank.
    pub rank: Rank,
    /// Simulated completion time.
    pub finish_sim: SimTime,
    /// Operations retired.
    pub ops: u64,
    /// Messages fully received.
    pub messages_received: u64,
    /// Closed timed regions.
    #[serde(skip)]
    pub regions: Vec<RegionRecord>,
}

impl ParallelNodeResult {
    /// The outcome of `exec`, finished at `finish_sim` unless its program
    /// recorded its own finish time. Consumes the executor so its region
    /// records move into the result instead of being copied.
    pub(crate) fn of(exec: NodeExecutor, finish_sim: SimTime) -> Self {
        Self {
            rank: exec.rank(),
            finish_sim: exec.finish_time().unwrap_or(finish_sim),
            ops: exec.ops_executed(),
            messages_received: exec.messages_received(),
            regions: exec.into_regions(),
        }
    }
}

/// Initial state of one node simulator: a fresh executor at sim time zero,
/// or a restored executor at the snapshot's cut point. Built one node at a
/// time by [`ShardSource::build`] on the worker that will run it.
pub(crate) struct NodeInit {
    pub(crate) exec: NodeExecutor,
    pub(crate) sim: SimTime,
    pub(crate) msg_seq: u64,
    /// Remainder (ns) of an op cut at the quantum edge; 0 means none.
    pub(crate) pending_ns: u64,
    pub(crate) done: bool,
}

/// Everything a real-thread run starts from, fresh or resumed.
pub(crate) struct RunStart {
    /// Worker (= shard) count, clamped to `[1, n]`.
    pub(crate) m: usize,
    /// The policy, with its resumed state loaded.
    pub(crate) policy: Box<dyn QuantumPolicy>,
    /// Start of the first quantum.
    pub(crate) q_start: SimTime,
    /// End of the first quantum in sim ns.
    pub(crate) q_end0: u64,
    /// Quanta completed before the run (nonzero only on resume).
    pub(crate) quanta: u64,
    /// Packets routed before the run, the seed fragments included.
    pub(crate) total_packets: u64,
    /// Stragglers recorded before the run, the seed snaps included.
    pub(crate) stragglers: StragglerStats,
    /// Nodes whose program had already finished.
    pub(crate) n_done: u64,
}

/// Default worker count: the host's available parallelism.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Balanced contiguous partition of `n` nodes over `m` shards: the first
/// `n % m` shards get one extra node.
pub(crate) fn partition(n: usize, m: usize) -> Vec<Range<usize>> {
    let base = n / m;
    let rem = n % m;
    let mut ranges = Vec::with_capacity(m);
    let mut start = 0;
    for s in 0..m {
        let len = base + usize::from(s < rem);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// The run setup both engines share: checks a resume seed against the
/// cluster — its node count and every node's executor state, so a corrupt
/// snapshot is a typed error before any worker spawns — clamps the worker
/// count, builds the policy (loading its resumed state), fixes the first
/// quantum edge, and routes the seed's in-flight fragments into `sink` (see
/// [`route_seed_frags`]). The node simulators themselves are built later,
/// by each worker for its own shard (see [`run_shards`]).
///
/// `programs` have passed [`Sim`](crate::Sim)'s validation: at least two,
/// program *i* for rank *i*.
pub(crate) fn prologue(
    programs: &[Program],
    config: &ParallelConfig,
    workers: Option<usize>,
    resume: Option<&ResumeSeed>,
    sink: impl FnMut(usize, SimTime, &FragSnap),
) -> Result<RunStart, SimError> {
    let n = programs.len();
    let m = workers.unwrap_or_else(default_workers).clamp(1, n);
    let policy = config.sync.build();
    let q0 = policy.initial_quantum();
    let mut start = RunStart {
        m,
        policy,
        q_start: SimTime::ZERO,
        q_end0: q0.as_nanos(),
        quanta: 0,
        total_packets: 0,
        stragglers: StragglerStats::default(),
        n_done: 0,
    };
    let Some(s) = resume else {
        return Ok(start);
    };
    if s.nodes.len() != n {
        return Err(SimError::snapshot_format(format!(
            "snapshot has {} nodes, simulation has {n}",
            s.nodes.len()
        )));
    }
    start
        .policy
        .load_state(&s.policy_state)
        .map_err(SimError::snapshot_format)?;
    start.q_start = s.q_start;
    start.q_end0 = (s.q_start + s.q_len).as_nanos();
    start.quanta = s.quanta;
    let (routed, snapped) = route_seed_frags(s, &config.nic, &config.arrivals, n, sink)?;
    start.total_packets = s.total_packets + routed;
    start.stragglers = s.stragglers;
    start.stragglers.merge(&snapped);
    for (i, (program, ns)) in programs.iter().zip(&s.nodes).enumerate() {
        ns.exec
            .check(program)
            .map_err(|e| SimError::snapshot_format(format!("node {i}: {e}")))?;
        start.n_done += u64::from(ns.done);
    }
    Ok(start)
}

/// Routes the snapshot's cut-in-flight fragments ahead of the first resumed
/// quantum, handing each fan-out copy to `sink` as
/// `(dst, effective arrival, fragment)`.
///
/// The effective arrival is `max(arrival, q_start)` — the *same* rule the
/// uninterrupted run applied at route time, because every captured fragment
/// departed during the quantum that ended at the cut, so the sender's
/// `q_end` then equals the resumed run's `q_start` now. The straggler
/// records this snapping produces are therefore bit-identical to the
/// uninterrupted run's, for any policy.
///
/// Returns the number of copies routed and the stragglers recorded. A
/// sender or unicast receiver outside the cluster is a
/// [`SimError::SnapshotFormat`].
pub(crate) fn route_seed_frags(
    seed: &ResumeSeed,
    nic: &NicModel,
    arrivals: &ArrivalTable,
    n: usize,
    mut sink: impl FnMut(usize, SimTime, &FragSnap),
) -> Result<(u64, StragglerStats), SimError> {
    let mut count = 0u64;
    let mut stragglers = StragglerStats::default();
    for pf in &seed.frags {
        let src = pf.src as usize;
        if src >= n {
            return Err(SimError::snapshot_format(format!(
                "in-flight fragment from node {src}, but the cluster has {n} nodes"
            )));
        }
        let frag = &pf.frag;
        let base = nic.earliest_arrival(frag.departure);
        let deliver_to = |t: usize| {
            let arrival = base
                + SimDuration::from_nanos(arrivals.transit_nanos(
                    src,
                    t,
                    frag.bytes,
                    frag.departure,
                ));
            let eff = if arrival < seed.q_start {
                stragglers.record(seed.q_start - arrival);
                seed.q_start
            } else {
                arrival
            };
            sink(t, eff, frag);
            count += 1;
        };
        let dst = match frag.dst {
            Some(r) if r as usize >= n => {
                return Err(SimError::snapshot_format(format!(
                    "in-flight fragment for node {r}, but the cluster has {n} nodes"
                )));
            }
            Some(r) => SendTarget::Rank(Rank::new(r)),
            None => SendTarget::All,
        };
        for_each_target(dst, src, n, deliver_to);
    }
    Ok((count, stragglers))
}

/// Advances one node simulator from `sim` to the window edge — the inner
/// loop both engines share. An op that straddles the edge carries its
/// remainder in `pending_ns` (0 = none; [`Action::Advance`] durations are
/// never zero). Each NIC fragment of a send is handed to `send` as
/// `(dst, departure, meta, frag_index, frag_bytes)`: the sharded engine
/// routes it in place, the optimistic engine captures it for its leader.
///
/// Returns `(lag_ns, wake_ns)`: the node's idle tail before the edge (0 when
/// busy to the edge) and the first instant it can act on its own:
///
/// * busy — `edge + pending_ns`, the end of the op it is in, or its own
///   position when a send's serialization carried it past the edge
///   (`edge` itself when it is free to poll at the edge);
/// * a timer's deadline;
/// * `u64::MAX` when only a delivery can wake it (blocked or finished).
///
/// A node parked busy until its wake is not executed in the windows it
/// sleeps through; [`catch_up`] charges that span to its op when it wakes.
#[inline]
pub(crate) fn advance_to_edge(
    exec: &mut NodeExecutor,
    sim: &mut SimTime,
    pending_ns: &mut u64,
    msg_seq: &mut u64,
    edge: SimTime,
    config: &ParallelConfig,
    mut send: impl FnMut(SendTarget, SimTime, MessageMeta, u32, u32),
) -> (u64, u64) {
    while *sim < edge {
        if *pending_ns != 0 {
            let remaining = SimDuration::from_nanos(*pending_ns);
            let step = remaining.min(edge - *sim);
            *sim += step;
            *pending_ns = (remaining - step).as_nanos();
            continue; // a remainder left means the edge was reached mid-op
        }
        match exec.next_action(*sim) {
            Action::Advance { dur, ops, idle } => {
                if !idle && config.host_work_per_op > 0.0 && ops > 0 {
                    busy_work(ops as f64 * config.host_work_per_op);
                }
                *pending_ns = dur.as_nanos();
            }
            Action::Send { dst, bytes, tag } => {
                let nic = &config.nic;
                let frag_count = nic.fragment_count(bytes);
                let meta = MessageMeta {
                    id: MessageId {
                        src: exec.rank(),
                        seq: *msg_seq,
                    },
                    tag,
                    bytes,
                    frag_count,
                };
                *msg_seq += 1;
                for k in 0..frag_count {
                    let sz = nic.fragment_size(bytes, k);
                    *sim += nic.serialization_delay(sz);
                    send(dst, *sim, meta, k, sz);
                }
            }
            Action::WaitUntil(t) if t < edge => *sim = t,
            Action::WaitUntil(t) => {
                let lag_ns = (edge - *sim).as_nanos();
                *sim = edge;
                return (lag_ns, t.as_nanos());
            }
            Action::Blocked | Action::Finished => {
                let lag_ns = (edge - *sim).as_nanos();
                *sim = edge;
                return (lag_ns, u64::MAX);
            }
        }
    }
    // Busy to the edge: a remainder is left only when the loop stopped at
    // the edge, so this is the op's end, or the node's own position at or
    // past the edge.
    (0, sim.as_nanos() + *pending_ns)
}

/// Fast-forwards a woken node whose `sim` lags `start`, the start of the
/// window it executes in. The windows it slept through were either idle
/// (nothing pending: only a delivery or a timer could wake it) or spent
/// inside one op (parked busy until its end, see [`advance_to_edge`]). The
/// full sweep would have dragged it to every edge since, consuming exactly
/// the skipped span from the op's remainder; doing that in one step lands
/// in the identical state.
#[inline]
pub(crate) fn catch_up(sim: &mut SimTime, pending_ns: &mut u64, start: SimTime) {
    if *sim >= start {
        return;
    }
    let skipped = (start - *sim).as_nanos();
    #[allow(unused_mut)]
    let mut consume = *pending_ns != 0;
    #[cfg(feature = "fault-inject")]
    if crate::fault::armed(crate::fault::Fault::BusyCatchUpSkip) {
        // Armed bug: the parked op is not charged for the skipped span.
        consume = false;
    }
    if consume {
        // A busy node wakes no later than its op's end.
        debug_assert!(
            *pending_ns >= skipped,
            "parked op ends at +{} ns but woke {skipped} ns late",
            *pending_ns
        );
        *pending_ns = pending_ns.saturating_sub(skipped);
    }
    *sim = start;
}

/// Fan-out targets of one send: its rank, or every node but the sender.
#[inline]
pub(crate) fn for_each_target(dst: SendTarget, src: usize, n: usize, mut f: impl FnMut(usize)) {
    match dst {
        SendTarget::Rank(r) => f(r.index()),
        SendTarget::All => (0..n).filter(|&t| t != src).for_each(f),
    }
}

/// One worker's share of the run's inputs: its shard's programs (taken
/// from the run's program list) and, on resume, the seed holding their
/// restored states.
pub(crate) struct ShardSource<'a> {
    /// Global index of the shard's first node.
    pub(crate) base: usize,
    programs: &'a mut [Program],
    seed: Option<&'a ResumeSeed>,
    cpu: CpuModel,
}

impl<'a> ShardSource<'a> {
    /// Number of nodes in the shard.
    pub(crate) fn len(&self) -> usize {
        self.programs.len()
    }

    /// Builds the shard's node simulators, in rank order, on the calling
    /// thread: fresh executors at time zero, or — on resume — executors
    /// restored at the cut from states [`prologue`] already checked.
    pub(crate) fn build(self) -> impl Iterator<Item = NodeInit> + 'a {
        let (base, cpu, seed) = (self.base, self.cpu, self.seed);
        self.programs.iter_mut().enumerate().map(move |(l, slot)| {
            let rank = slot.rank();
            let program = std::mem::replace(slot, Program::new(rank, Vec::new()));
            match seed {
                None => NodeInit {
                    exec: NodeExecutor::new(program, cpu),
                    sim: SimTime::ZERO,
                    msg_seq: 0,
                    pending_ns: 0,
                    done: false,
                },
                Some(s) => {
                    let ns = &s.nodes[base + l];
                    NodeInit {
                        exec: NodeExecutor::restore(program, cpu, ns.exec.clone()),
                        sim: s.q_start,
                        msg_seq: ns.msg_seq,
                        pending_ns: ns.pending.map_or(0, |d| d.as_nanos()),
                        done: ns.done,
                    }
                }
            }
        })
    }
}

/// What [`run_shards`] hands back once every worker has joined.
pub(crate) struct ShardsJoined<T> {
    /// Wall-clock from `start` to the join.
    pub(crate) wall: Duration,
    /// Simulated completion time (max across nodes).
    pub(crate) sim_end: SimTime,
    /// Per-node results, in rank order.
    pub(crate) per_node: Vec<ParallelNodeResult>,
    /// Each worker's own extra output, in shard order.
    pub(crate) extras: Vec<T>,
}

/// The run epilogue both engines share: spawns one scoped worker per shard
/// — `worker(w, source)` with shard `w`'s [`ShardSource`], from which the
/// worker builds its own nodes — joins them in shard order, and maps a
/// raised `overflow` flag to [`SimError::QuantumCapExceeded`]. Shards are
/// contiguous and joined in order, so flattening their results yields rank
/// order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shards<T: Send>(
    ranges: &[Range<usize>],
    mut programs: Vec<Program>,
    seed: Option<&ResumeSeed>,
    config: &ParallelConfig,
    start: Instant,
    overflow: &AtomicBool,
    engine: EngineKind,
    worker: impl Fn(usize, ShardSource<'_>) -> (Vec<ParallelNodeResult>, T) + Sync,
) -> Result<ShardsJoined<T>, SimError> {
    let n = programs.len();
    let joined: Vec<(Vec<ParallelNodeResult>, T)> = std::thread::scope(|scope| {
        let worker = &worker;
        let mut rest: &mut [Program] = &mut programs;
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(w, range)| {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let source = ShardSource {
                    base: range.start,
                    programs: mine,
                    seed,
                    cpu: config.cpu,
                };
                scope.spawn(move || worker(w, source))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    if overflow.load(Ordering::Acquire) {
        return Err(SimError::QuantumCapExceeded {
            engine,
            max_quanta: config.max_quanta,
        });
    }
    let wall = start.elapsed();
    let mut per_node = Vec::with_capacity(n);
    let mut extras = Vec::with_capacity(ranges.len());
    for (results, extra) in joined {
        per_node.extend(results);
        extras.push(extra);
    }
    let sim_end = per_node
        .iter()
        .map(|r| r.finish_sim)
        .max()
        .expect("at least two nodes");
    Ok(ShardsJoined {
        wall,
        sim_end,
        per_node,
        extras,
    })
}

/// Burns approximately `ns` nanoseconds of real CPU time.
pub(crate) fn busy_work(ns: f64) {
    if ns < 1.0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos(ns as u64);
    let mut x = 0x9E3779B97F4A7C15u64;
    while Instant::now() < deadline {
        // A few hundred cheap iterations between clock reads.
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::PendingFrag;
    use aqs_node::{MessageId, MessageMeta, Tag};

    /// A seed cut at `q_start` carrying one 64-byte fragment per
    /// `(src, dst, departure)`.
    fn seed(q_start: SimTime, frags: &[(u32, Option<u32>, SimTime)]) -> ResumeSeed {
        let frags = frags
            .iter()
            .map(|&(src, dst, departure)| PendingFrag {
                src,
                frag: FragSnap {
                    departure,
                    dst,
                    bytes: 64,
                    meta: MessageMeta {
                        id: MessageId {
                            src: Rank::new(src),
                            seq: 0,
                        },
                        tag: Tag::new(0),
                        bytes: 64,
                        frag_count: 1,
                    },
                    frag_index: 0,
                },
            })
            .collect();
        ResumeSeed {
            q_start,
            q_len: SimDuration::from_micros(1),
            policy_state: Vec::new(),
            quanta: 1,
            total_packets: 0,
            stragglers: StragglerStats::default(),
            nodes: Vec::new(),
            frags,
        }
    }

    /// Routes `seed` over a perfect switch in a 4-node cluster, collecting
    /// every `(dst, effective arrival)` the sink receives; the returned
    /// count must match the sink's.
    fn route(seed: &ResumeSeed) -> Result<(Vec<(usize, SimTime)>, StragglerStats), SimError> {
        let mut sunk = Vec::new();
        let nic = NicModel::paper_default();
        let (count, stragglers) =
            route_seed_frags(seed, &nic, &ArrivalTable::Perfect, 4, |t, eff, _| {
                sunk.push((t, eff));
            })?;
        assert_eq!(count, sunk.len() as u64);
        Ok((sunk, stragglers))
    }

    #[test]
    fn seed_router_rejects_out_of_range_nodes() {
        let cut = SimTime::from_micros(10);
        for frag in [(4, Some(0), cut), (0, Some(4), cut)] {
            let err = route(&seed(cut, &[frag])).unwrap_err();
            assert!(
                matches!(err, SimError::SnapshotFormat { .. }),
                "{frag:?}: {err:?}"
            );
        }
    }

    #[test]
    fn seed_router_fans_broadcasts_out_and_snaps_early_arrivals_to_the_cut() {
        let cut = SimTime::from_micros(10);
        // A broadcast departing at the cut arrives one NIC latency later at
        // every node but its sender.
        let (sunk, stragglers) = route(&seed(cut, &[(1, None, cut)])).expect("routes");
        let late = cut + SimDuration::from_micros(1);
        assert_eq!(sunk, vec![(0, late), (2, late), (3, late)]);
        assert_eq!(stragglers.count(), 0);
        // A fragment that would arrive 4 µs before the cut is delivered at
        // the cut and recorded as a straggler of that delay.
        let early = cut - SimDuration::from_micros(5);
        let (sunk, stragglers) = route(&seed(cut, &[(0, Some(2), early)])).expect("routes");
        assert_eq!(sunk, vec![(2, cut)]);
        assert_eq!(stragglers.count(), 1);
        assert_eq!(stragglers.max_delay(), SimDuration::from_micros(4));
    }
}
