//! The aqs benchmark: end-to-end and per-layer metrics for three workloads,
//! driven only through the simulator's public API.
//!
//! ```text
//! aqs-perfbench --workload <incast_256k|allreduce_1k|serve_fig6> --seed <n>
//!               --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//!               [--provenance <json>]
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics", "nodes"}`. With
//! `--trace 0` the metrics are the end-to-end set measured with tracing off;
//! with `--trace 1` they are the per-layer set, and the span trace is written
//! to `<out>/trace-<workload>-<seed>.json`. `perfbench/run.py` builds this
//! binary, adds the process's peak RSS, and prints the final result line.
//! `perfbench/README.md` defines every metric.

mod serve;
mod sharded;
mod stats;
mod trace;

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics this binary reports with `--trace 0`; `run.py` adds
/// `peak_rss_mb`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
];

/// Per-layer metrics this binary reports with `--trace 1`; `run.py` adds
/// `cluster.rss_bytes_per_node`. A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 24] = [
    ("workloads.build_s", "s"),
    ("cluster.outside_loop_s", "s"),
    ("cluster.loop_s", "s"),
    ("cluster.nodes_executed", "count"),
    ("cluster.active_ratio", "ratio"),
    ("cluster.ns_per_node_exec", "ns"),
    ("cluster.quanta", "count"),
    ("cluster.packets", "count"),
    ("core.stragglers", "count"),
    ("cluster.ns_per_packet", "ns"),
    ("sync.pool_heap_allocs", "count"),
    ("sync.barrier_wait_share", "ratio"),
    ("obs.record_overhead", "ratio"),
    ("trace.overhead_s", "s"),
    ("cluster.det_run_s", "s"),
    ("cluster.step_snapshot_s", "s"),
    ("cluster.chunk_overhead", "ratio"),
    ("cluster.fingerprint_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.bytes_per_job", "bytes"),
    ("journal.append_s", "s"),
    ("journal.appends_per_job", "count"),
    ("serve.overhead_s", "s"),
];

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: later changes must pass on it too.
pub const HELD_OUT_SEED: u64 = 20_261_017;

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `value`'s debug form into an FNV-1a digest, one value at a time so
/// that digesting 262,144 programs never holds them all as text.
pub fn digest(hash: u64, value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(hash, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub provenance: Value,
}

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: simulation runs or served jobs.
    pub attempted: u64,
    /// Attempted operations that failed, were rejected, or whose outputs
    /// did not match the reference.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// `(name, value)`; units come from [`END_TO_END`] and [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulated nodes per run, for per-node memory (0 where it means nothing).
    pub nodes: u64,
    /// Digest of the generated inputs, to show that the seed reaches them.
    pub input_digest: u64,
    /// Workload parameters, for the provenance record.
    pub params: Vec<(&'static str, String)>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            println!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aqs-perfbench --workload <incast_256k|allreduce_1k|serve_fig6> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>] \
         [--provenance <json>]\n(default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
        out: PathBuf::from("perfbench/out"),
        provenance: Value::Object(Vec::new()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = it.next()?,
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = Duration::from_secs_f64(it.next()?.parse().ok()?),
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => args.out = PathBuf::from(it.next()?),
            "--provenance" => args.provenance = serde_json::from_str(&it.next()?).ok()?,
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let tracer = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "incast_256k" => sharded::run(sharded::Kind::Incast, &args, &tracer),
        "allreduce_1k" => sharded::run(sharded::Kind::Allreduce, &args, &tracer),
        "serve_fig6" => match serve::run(&args, &tracer) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_fig6: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    };

    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "workload {} seed {} smoke {} available_parallelism {parallelism} input_digest {:016x}",
        args.workload, args.seed, args.smoke, report.input_digest
    );
    for (k, v) in &report.params {
        println!("  param {k} = {v}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  error_rate {error_rate} ({} failed of {} attempted; {} output checks, {} failed)",
        report.failed,
        report.attempted,
        report.checks.len(),
        report.checks.iter().filter(|(_, ok)| !ok).count()
    );
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let measured = report.metrics.iter().find(|m| m.0 == name);
        let value = measured.map_or(0.0, |m| m.1);
        let note = if measured.is_some() {
            ""
        } else {
            "  (not measured on this workload)"
        };
        println!("  {name:<28} {value:>16.6} {unit}{note}");
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }

    if args.trace {
        for (name, (self_s, count)) in tracer.self_times() {
            println!("  self-time {name:<26} {self_s:>12.6} s over {count} spans");
        }
        let meta = provenance(&args, &report, parallelism);
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(meta)));
        if let Err(e) = written {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  trace written to {}", path.display());
    }

    let correct = report.correct();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(report.attempted)),
        ("failed".to_string(), Value::U64(report.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
        ("nodes".to_string(), Value::U64(report.nodes)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host and input record stored in the trace file: what `run.py` passed in
/// (nproc, rustc, git rev) plus what only this process knows.
fn provenance(args: &Args, report: &Report, parallelism: usize) -> Value {
    let mut fields = match &args.provenance {
        Value::Object(f) => f.clone(),
        _ => Vec::new(),
    };
    let params = report
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
        .collect();
    fields.extend([
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::U64(args.seed)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        (
            "available_parallelism".to_string(),
            Value::U64(parallelism as u64),
        ),
        (
            "input_digest".to_string(),
            Value::Str(format!("{:016x}", report.input_digest)),
        ),
        ("params".to_string(), Value::Object(params)),
    ]);
    Value::Object(fields)
}
