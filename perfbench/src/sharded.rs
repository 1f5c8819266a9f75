//! The two sharded-engine workloads: `incast_256k` (idle-heavy, dominated by
//! setup and memory) and `allreduce_1k` (every node active, dominated by
//! routing, mailboxes and barrier rounds).
//!
//! One iteration is what a user runs: build the workload's programs, run
//! them with `Sim::try_run` on the sharded engine with two workers, drop
//! the report. Iterations repeat until the time budget is spent. Before the
//! timed section, one reference run with a single worker fixes the expected
//! outcome; every timed iteration must reproduce it exactly.

use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Report, FNV_BASIS};
use aqs_cluster::{EngineKind, RunReport, Sim};
use aqs_core::SyncConfig;
use aqs_node::Program;
use aqs_obs::ObsConfig;
use aqs_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Kind {
    Incast,
    Allreduce,
}

/// The exact simulated outcome every run of one input must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outcome {
    sim_end_ns: u64,
    packets: u64,
    messages: u64,
    stragglers: u64,
    quanta: u64,
    nodes_executed: u64,
}

/// Workload shape. `incast_256k` reuses the active-set tier of
/// `shard_scaling`: 24 frontends, each issuing 64 sequential waves of
/// 64-way RPC fan-out, so under 1 % of the nodes are busy in any quantum.
struct Shape {
    nodes: usize,
    waves: usize,
}

const INCAST_FRONTS: usize = 24;
const INCAST_FANOUT: usize = 64;
const INCAST_REQUEST_BYTES: u64 = 2_048;
const INCAST_RESPONSE_BYTES: u64 = 16_384;
const INCAST_SERVICE_OPS: u64 = 50_000;
const INCAST_QUANTUM_US: u64 = 5;
const SHARDS: usize = 2;
/// Fewest timed iterations per run, however long each takes.
const MIN_ITERATIONS: usize = 3;
/// Ring of the flight recorder attached in the traced `allreduce_1k` run.
/// Its whole-run histograms do not depend on it; a short ring keeps the
/// recorder's per-node lanes small.
const RECORD_RING: usize = 64;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Incast => "incast_256k",
            Kind::Allreduce => "allreduce_1k",
        }
    }

    fn shape(self, smoke: bool) -> Shape {
        match (self, smoke) {
            (Kind::Incast, false) => Shape {
                nodes: 262_144,
                waves: 64,
            },
            (Kind::Incast, true) => Shape {
                nodes: 4_096,
                waves: 2,
            },
            (Kind::Allreduce, false) => Shape {
                nodes: 1_024,
                waves: 0,
            },
            (Kind::Allreduce, true) => Shape {
                nodes: 64,
                waves: 0,
            },
        }
    }

    fn build(self, shape: &Shape, seed: u64) -> Vec<Program> {
        match self {
            Kind::Incast => {
                aqs_workloads::rpc_incast(
                    shape.nodes,
                    INCAST_FRONTS,
                    shape.waves,
                    INCAST_FANOUT,
                    INCAST_REQUEST_BYTES,
                    INCAST_RESPONSE_BYTES,
                    INCAST_SERVICE_OPS,
                    seed,
                )
                .programs
            }
            Kind::Allreduce => {
                Workload::parse("ml-allreduce")
                    .expect("ml-allreduce is a known workload")
                    .build(shape.nodes, seed)
                    .programs
            }
        }
    }

    fn sim(self, programs: Vec<Program>, shards: usize) -> Sim {
        let sync = match self {
            Kind::Incast => SyncConfig::fixed_micros(INCAST_QUANTUM_US),
            Kind::Allreduce => SyncConfig::paper_dyn1(),
        };
        Sim::new(programs)
            .engine(EngineKind::Sharded)
            .shards(shards)
            .sync(sync)
    }

    fn params(self, shape: &Shape) -> Vec<(&'static str, String)> {
        let mut p = vec![
            ("nodes", shape.nodes.to_string()),
            ("engine", format!("sharded, shards({SHARDS})")),
        ];
        match self {
            Kind::Incast => p.extend([
                (
                    "program",
                    format!(
                        "rpc_incast fronts={INCAST_FRONTS} waves={} fanout={INCAST_FANOUT} \
                         request_bytes={INCAST_REQUEST_BYTES} \
                         response_bytes={INCAST_RESPONSE_BYTES} \
                         service_ops={INCAST_SERVICE_OPS}",
                        shape.waves
                    ),
                ),
                ("policy", format!("fixed:{INCAST_QUANTUM_US}us")),
            ]),
            Kind::Allreduce => p.extend([
                ("program", "ml-allreduce (default parameters)".to_string()),
                ("policy", "dyn1".to_string()),
            ]),
        }
        p
    }
}

/// How one iteration is instrumented. The traced run cycles through these
/// so that tracing and recording overheads are measured against plain
/// iterations of the same process.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    Recorded,
}

struct Iteration {
    mode: Mode,
    wall: f64,
    build: f64,
    try_run: f64,
    engine_loop: f64,
    pool_heap_allocs: u64,
    /// Flight-recorder barrier wait summed over node lanes, host ns.
    barrier_wait_lane_ns: u64,
    outcome: Option<Outcome>,
}

fn outcome(report: &RunReport) -> Option<Outcome> {
    let r = report.detail.as_sharded()?;
    Some(Outcome {
        sim_end_ns: r.sim_end.as_nanos(),
        packets: r.total_packets,
        messages: r.messages_received_total(),
        stragglers: r.stragglers.count(),
        quanta: r.total_quanta,
        nodes_executed: r.nodes_executed,
    })
}

fn iterate(kind: Kind, shape: &Shape, seed: u64, mode: Mode, run: u64, tr: &Tracer) -> Iteration {
    let off = Tracer::new(false);
    let tr = if mode == Mode::Traced { tr } else { &off };
    let root = tr.open("bench.iteration", SpanId::NONE, run);
    let t0 = Instant::now();
    let programs = black_box(tr.span("workloads.build", root, run, || kind.build(shape, seed)));
    let t1 = Instant::now();
    let mut sim = kind.sim(programs, SHARDS);
    if mode == Mode::Recorded {
        sim = sim.record(ObsConfig::new().with_ring_capacity(RECORD_RING));
    }
    let result = tr.span("cluster.try_run", root, run, || sim.try_run());
    let t2 = Instant::now();
    let mut it = Iteration {
        mode,
        wall: 0.0,
        build: (t1 - t0).as_secs_f64(),
        try_run: (t2 - t1).as_secs_f64(),
        engine_loop: 0.0,
        pool_heap_allocs: 0,
        barrier_wait_lane_ns: 0,
        outcome: None,
    };
    match result {
        Ok(report) => {
            it.engine_loop = report.wall_clock.as_secs_f64();
            if let Some(r) = report.detail.as_sharded() {
                it.pool_heap_allocs = r.pool_heap_allocs;
            }
            if let Some(rec) = &report.obs {
                it.barrier_wait_lane_ns = rec.barrier_wait_hist().sum();
            }
            it.outcome = outcome(&report);
            tr.span("cluster.teardown", root, run, || drop(black_box(report)));
        }
        Err(e) => println!("{} iteration {run}: {e}", kind.name()),
    }
    it.wall = t0.elapsed().as_secs_f64();
    tr.close(root);
    it
}

pub fn run(kind: Kind, args: &Args, tr: &Tracer) -> Report {
    let shape = kind.shape(args.smoke);
    let mut report = Report {
        nodes: shape.nodes as u64,
        params: kind.params(&shape),
        ..Report::default()
    };

    // Untimed reference: one worker, same input.
    let programs = kind.build(&shape, args.seed);
    report.input_digest = programs.iter().fold(FNV_BASIS, crate::digest);
    let reference = kind
        .sim(programs, 1)
        .try_run()
        .ok()
        .as_ref()
        .and_then(outcome);
    report.check(
        format!("{}: shards(1) reference run completes", kind.name()),
        reference.is_some(),
    );

    let cycle: &[Mode] = match (args.trace, kind) {
        (false, _) => &[Mode::Plain],
        (true, Kind::Incast) => &[Mode::Traced, Mode::Plain],
        // The recorder stays off on incast_256k: its per-node lanes cost
        // two orders of magnitude more than the run itself at 256k nodes.
        (true, Kind::Allreduce) => &[Mode::Traced, Mode::Plain, Mode::Recorded],
    };
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    while iters.len() < MIN_ITERATIONS * cycle.len() || start.elapsed() < args.seconds {
        let mode = cycle[iters.len() % cycle.len()];
        let it = iterate(kind, &shape, args.seed, mode, iters.len() as u64, tr);
        report.attempted += 1;
        if it.outcome.is_none() || it.outcome != reference {
            report.failed += 1;
            println!(
                "{} iteration {}: outcome {:?} differs from shards(1) reference {:?}",
                kind.name(),
                iters.len(),
                it.outcome,
                reference
            );
        }
        iters.push(it);
    }
    report.check(
        format!(
            "{}: every shards({SHARDS}) outcome equals the shards(1) reference",
            kind.name()
        ),
        report.failed == 0,
    );

    let Some(out) = reference else {
        return report;
    };
    let pick = |f: &dyn Fn(&Iteration) -> f64, modes: &[Mode]| -> Vec<f64> {
        iters
            .iter()
            .filter(|i| modes.contains(&i.mode))
            .map(f)
            .collect()
    };
    let unrecorded = [Mode::Plain, Mode::Traced];
    if !args.trace {
        let walls = pick(&|i| i.wall, &[Mode::Plain]);
        let setup = pick(&|i| i.build + i.try_run - i.engine_loop, &[Mode::Plain]);
        report.metric("wall_s", median(&walls));
        report.metric("setup_s", median(&setup));
        report.metric("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        report.metric("job_p50_s", median(&walls));
        report.metric("job_p90_s", quantile(&walls, 0.9));
        println!(
            "  runs timed: {}, wall_s quartiles {:.4} {:.4} {:.4}, range {:.4}..{:.4}",
            walls.len(),
            quantile(&walls, 0.25),
            median(&walls),
            quantile(&walls, 0.75),
            quantile(&walls, 0.0),
            quantile(&walls, 1.0)
        );
        return report;
    }

    let engine_loop = median(&pick(&|i| i.engine_loop, &unrecorded));
    let loop_ns = engine_loop * 1e9;
    let n_quanta = (shape.nodes as u64 * out.quanta) as f64;
    report.metric(
        "workloads.build_s",
        median(&pick(&|i| i.build, &unrecorded)),
    );
    report.metric(
        "cluster.outside_loop_s",
        median(&pick(&|i| i.try_run - i.engine_loop, &unrecorded)),
    );
    report.metric("cluster.loop_s", engine_loop);
    report.metric("cluster.nodes_executed", out.nodes_executed as f64);
    report.metric("cluster.active_ratio", out.nodes_executed as f64 / n_quanta);
    report.metric(
        "cluster.ns_per_node_exec",
        loop_ns / out.nodes_executed as f64,
    );
    report.metric("cluster.quanta", out.quanta as f64);
    report.metric("cluster.packets", out.packets as f64);
    report.metric("core.stragglers", out.stragglers as f64);
    report.metric("cluster.ns_per_packet", loop_ns / out.packets as f64);
    report.metric(
        "sync.pool_heap_allocs",
        median(&pick(&|i| i.pool_heap_allocs as f64, &unrecorded)),
    );
    let recorded_loop = pick(&|i| i.engine_loop, &[Mode::Recorded]);
    if !recorded_loop.is_empty() {
        // The recorder repeats each worker's wait once per node of its
        // shard, so the lane sum divided by the node count is the
        // node-weighted mean wait of one worker.
        let shares = pick(
            &|i| i.barrier_wait_lane_ns as f64 / shape.nodes as f64 / (i.engine_loop * 1e9),
            &[Mode::Recorded],
        );
        report.metric("sync.barrier_wait_share", median(&shares));
        report.metric("obs.record_overhead", median(&recorded_loop) / engine_loop);
    }
    let traced = median(&pick(&|i| i.wall, &[Mode::Traced]));
    let plain = median(&pick(&|i| i.wall, &[Mode::Plain]));
    report.metric("trace.overhead_s", traced - plain);
    println!(
        "  traced wall_s {traced:.6} - untraced wall_s {plain:.6} = tracing overhead {:.6} s",
        traced - plain
    );
    report
}
