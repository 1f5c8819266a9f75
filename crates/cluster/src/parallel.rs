//! Shared substrate of the real-thread engines.
//!
//! The [`sharded`](crate::sharded) and
//! [`sharded_optimistic`](crate::sharded_optimistic) engines run node
//! simulators on worker threads and meet at quantum barriers. This module
//! holds what both of them use:
//!
//! * [`ParallelSwitch`] — the pure switch models a worker may route through
//!   without sharing mutable state;
//! * [`ParallelConfig`] — the run configuration the [`Sim`](crate::Sim)
//!   builder hands to either engine;
//! * [`ParallelNodeResult`] — the per-node outcome both engines report;
//! * the barrier leader's state (policy, counters, recorder) and the
//!   `q_end` stop sentinel it publishes;
//! * `busy_work`, which burns real CPU time per simulated op to emulate a
//!   node simulator's own execution cost.
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

use aqs_core::{QuantumPolicy, SyncConfig};
use aqs_net::{ChaosOverlay, FatTreeFabric, LatencyMatrixSwitch, LinkLoad, NicModel};
use aqs_node::{CpuModel, Rank, RegionRecord};
use aqs_time::SimTime;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Switch models available to the real-thread engines.
///
/// Only pure models are offered: their transit delay is a function of
/// `(src, dst, bytes, departure)` alone, so worker threads can compute
/// arrivals without sharing mutable switch state — and call order cannot
/// change any result. [`aqs_net::StoreAndForwardSwitch`] is deliberately
/// absent — its per-egress queue would re-serialize every route call behind
/// a lock, and its result would depend on thread timing.
#[derive(Clone, Debug, Default)]
pub enum ParallelSwitch {
    /// Infinite bandwidth, zero transit delay (the paper's evaluation
    /// switch).
    #[default]
    Perfect,
    /// Fixed per-(src, dst) latency, as in the deterministic engine's
    /// [`LatencyMatrixSwitch`].
    LatencyMatrix(LatencyMatrixSwitch),
    /// The modeled fat-tree fabric: pure epoch-keyed transit (see
    /// [`FatTreeFabric`]), safe under any routing order.
    Fabric(FatTreeFabric),
    /// Chaos middleware over another pure model: the wrapped switch computes
    /// the base transit and the [`ChaosOverlay`] adds its seeded fault delay
    /// on top. The overlay is itself a pure function of
    /// `(src, dst, bytes, departure)`, so the determinism guarantee holds.
    Chaos(ChaosOverlay, Box<ParallelSwitch>),
}

/// Configuration of a real-thread run.
///
/// The `with_*` setters are **order-independent**: each one stores a single
/// field and derives nothing, so any permutation of the same calls builds
/// the same configuration.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Synchronization policy.
    pub sync: SyncConfig,
    /// NIC timing model.
    pub nic: NicModel,
    /// CPU timing model.
    pub cpu: CpuModel,
    /// Switch timing model.
    pub switch: ParallelSwitch,
    /// Real host nanoseconds of busy-work burned per simulated operation —
    /// emulates the execution cost of the node simulator itself. Zero runs
    /// the functional simulation at full speed.
    pub host_work_per_op: f64,
    /// Hard cap on quanta (guards against deadlocked workloads, which the
    /// real-thread engines cannot otherwise detect). `u64::MAX` by default.
    pub max_quanta: u64,
    /// Forces the sharded engines to execute every node every quantum
    /// instead of consulting the active-set wake wheel. A debug/differential
    /// mode: the full sweep is the legacy pre-active-set behavior and the
    /// oracle baseline that active-set runs must match bit for bit. Ignored
    /// by engines without active-set scheduling.
    pub full_sweep: bool,
}

impl ParallelConfig {
    /// Creates a configuration with the paper-default NIC/CPU models, the
    /// perfect switch, and no busy-work.
    pub fn new(sync: SyncConfig) -> Self {
        Self {
            sync,
            nic: NicModel::paper_default(),
            cpu: CpuModel::default(),
            switch: ParallelSwitch::default(),
            host_work_per_op: 0.0,
            max_quanta: u64::MAX,
            full_sweep: false,
        }
    }

    /// Sets the busy-work factor (host ns per simulated op).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn with_host_work_per_op(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be >= 0, got {factor}"
        );
        self.host_work_per_op = factor;
        self
    }

    /// Sets the quantum cap.
    pub fn with_max_quanta(mut self, max: u64) -> Self {
        self.max_quanta = max;
        self
    }

    /// Sets the switch model.
    pub fn with_switch(mut self, switch: ParallelSwitch) -> Self {
        self.switch = switch;
        self
    }

    /// Forces the full-sweep (non-active-set) execution path in the sharded
    /// engines. See [`ParallelConfig::full_sweep`].
    pub fn with_full_sweep(mut self, full_sweep: bool) -> Self {
        self.full_sweep = full_sweep;
        self
    }
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

/// Stop sentinel published through `q_end`.
pub(crate) const Q_END_STOP: u64 = u64::MAX;

/// State only the barrier leader touches, via
/// [`TreeBarrier::arrive`](aqs_sync::TreeBarrier::arrive) — no mutex:
/// exclusivity comes from the barrier protocol itself.
pub(crate) struct LeaderState<R> {
    pub(crate) policy: Box<dyn QuantumPolicy>,
    /// Quanta completed (including the stop round, matching the old
    /// centralized counter).
    pub(crate) quanta: u64,
    /// Packets routed over the whole run (sum of the per-worker slots).
    pub(crate) total_packets: u64,
    /// Start of the current quantum in sim ns (the previous `q_end_nanos`).
    pub(crate) q_start_nanos: u64,
    /// Current quantum end in sim ns, mirrored into the engine's shared
    /// `q_end`.
    pub(crate) q_end_nanos: u64,
    pub(crate) max_quanta: u64,
    /// Observability recorder. Leader-exclusive like the rest of this
    /// struct, so recording needs no lock and stays off the packet path.
    pub(crate) rec: R,
    /// Scratch lanes for sample assembly, reused across quanta.
    pub(crate) waits: Vec<u64>,
    pub(crate) lags: Vec<u64>,
    /// Per-link load merge scratch (sharded engine with a fabric switch and
    /// recording enabled; empty — and untouched — otherwise).
    pub(crate) link_load: LinkLoad,
    /// Per-shard active-node merge scratch (sharded engine with recording
    /// enabled; empty — and untouched — otherwise).
    pub(crate) shard_actives: Vec<u64>,
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
