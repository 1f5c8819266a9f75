//! `serve_fig6`: the 8-node column of the paper's Fig. 6 grid (five NAS
//! kernels × six quantum policies, `mini` scale) served as case jobs by an
//! in-process `aqs_serve::Server` with two workers and a fresh journal.
//!
//! Two closed-loop clients each submit a job, wait for it, and take the
//! next, until the campaign's 30 jobs are done. Campaigns repeat until the
//! time budget is spent; each starts a server on a fresh journal and stops
//! it afterwards. Every served outcome must equal a direct `Sim::try_run` of
//! the same spec, made before the timed section.
//!
//! The traced run also replays each job directly through `jobs::run_case`
//! with a checkpoint hook that times snapshot encode, decode and the journal
//! append, which splits a job's latency into its layers.

use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Report, FNV_BASIS};
use aqs_cluster::SimSnapshot;
use aqs_serve::jobs::{build_sim, outcome_value, run_case};
use aqs_serve::journal::to_hex;
use aqs_serve::protocol::{get_bool, get_str, get_u64, obj};
use aqs_serve::{client, CaseJob, Journal, ServeConfig, Server};
use serde_json::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const KERNELS: [&str; 5] = ["ep", "is", "cg", "mg", "lu"];
const POLICIES: [&str; 6] = [
    "truth",
    "fixed:10",
    "fixed:100",
    "fixed:1000",
    "dyn1",
    "dyn2",
];
const NODES: usize = 8;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Fewest campaigns per run: 4 × 30 jobs leaves at least ten samples
/// beyond the 90th percentile.
const MIN_CAMPAIGNS: usize = 4;
/// Extra server starts per run. A start (journal open included) takes well
/// under a millisecond, so its median needs more samples than there are
/// campaigns.
const SETUP_SAMPLES: usize = 16;

/// The campaign's jobs in submission order: every kernel × policy pair,
/// kernel-major. Each carries the run's seed, which drives per-node
/// host-speed jitter and so every simulated timing. The order is fixed: a
/// seeded order would change which jobs run side by side, and with it the
/// latency tail, from seed to seed.
fn campaign_jobs(seed: u64, scale: &str) -> Vec<CaseJob> {
    KERNELS
        .iter()
        .flat_map(|k| {
            POLICIES.iter().map(move |p| CaseJob {
                workload: k.to_string(),
                nodes: NODES,
                policy: p.to_string(),
                seed,
                scale: scale.to_string(),
                inject_panic: false,
            })
        })
        .collect()
}

fn submit_request(job: &CaseJob) -> Value {
    obj(vec![
        ("op", Value::Str("submit".into())),
        ("workload", Value::Str(job.workload.clone())),
        ("nodes", Value::U64(job.nodes as u64)),
        ("policy", Value::Str(job.policy.clone())),
        ("seed", Value::U64(job.seed)),
        ("scale", Value::Str(job.scale.clone())),
    ])
}

/// Submits one job and waits for its terminal record; the outcome object,
/// or why there is none.
fn serve_one(
    addr: &str,
    job: &CaseJob,
    tr: &Tracer,
    parent: SpanId,
    run: u64,
) -> Result<Value, String> {
    let resp = tr
        .span("serve.submit", parent, run, || {
            client::request(addr, &submit_request(job))
        })
        .map_err(|e| format!("submit: {e}"))?;
    if get_bool(&resp, "ok") != Some(true) {
        return Err(format!("submit rejected: {resp:?}"));
    }
    let id = get_u64(&resp, "job").ok_or("submit response has no job id")?;
    let wait = obj(vec![
        ("op", Value::Str("wait".into())),
        ("job", Value::U64(id)),
    ]);
    let done = tr
        .span("serve.wait", parent, run, || client::request(addr, &wait))
        .map_err(|e| format!("wait: {e}"))?;
    let record = done
        .get("job_record")
        .ok_or("wait response has no job record")?;
    match get_str(record, "state") {
        Some("done") => record
            .get("outcome")
            .cloned()
            .ok_or_else(|| "done record has no outcome".to_string()),
        _ => Err(format!("job ended {record:?}")),
    }
}

/// Starts a server with two workers on the journal at `journal`, which the
/// caller has removed so that the server starts with no jobs.
fn start_server(journal: &Path) -> std::io::Result<Server> {
    Server::start(ServeConfig {
        workers: WORKERS,
        journal: journal.to_path_buf(),
        ..ServeConfig::default()
    })
}

struct Campaign {
    traced: bool,
    setup: f64,
    wall: f64,
    /// `(job index, submit→done seconds, outcome)`.
    jobs: Vec<(usize, f64, Result<Value, String>)>,
}

fn campaign(
    jobs: &[CaseJob],
    journal: &Path,
    traced: bool,
    index: u64,
    tr: &Tracer,
) -> Result<Campaign, String> {
    let off = Tracer::new(false);
    let tr = if traced { tr } else { &off };
    let root = tr.open("serve.campaign", SpanId::NONE, index);
    let t0 = Instant::now();
    let server = tr
        .span("serve.start", root, index, || start_server(journal))
        .map_err(|e| format!("server start: {e}"))?;
    let setup = t0.elapsed().as_secs_f64();
    let addr = server.addr().to_string();

    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let t1 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(job) = jobs.get(i) else { break };
                let run = index * 1_000 + i as u64;
                let span = tr.open("serve.job", root, run);
                let t = Instant::now();
                let outcome = serve_one(&addr, job, tr, span, run);
                let latency = t.elapsed().as_secs_f64();
                tr.close(span);
                done.lock()
                    .expect("client lock poisoned")
                    .push((i, latency, outcome));
            });
        }
    });
    let wall = t1.elapsed().as_secs_f64();
    tr.span("serve.stop", root, index, || server.stop());
    tr.close(root);
    let _ = std::fs::remove_file(journal);
    Ok(Campaign {
        traced,
        setup,
        wall,
        jobs: done.into_inner().expect("client lock poisoned"),
    })
}

/// One job replayed directly through `run_case`, split into layers.
#[derive(Default)]
struct Replay {
    /// Monolithic `Sim::try_run` of the spec, timed next to the replay so
    /// that both see the same host speed.
    det_run: f64,
    total: f64,
    build: f64,
    stepping: f64,
    fingerprint: f64,
    encode: f64,
    decode: f64,
    append: f64,
    appends: u64,
    bytes: u64,
}

fn replay(
    job: &CaseJob,
    chunk_quanta: u64,
    journal: &mut Journal,
    tr: &Tracer,
    parent: SpanId,
    run: u64,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let t = Instant::now();
    let sim = tr.span("workloads.build", parent, run, || build_sim(job))?;
    r.build = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(tr.span("cluster.fingerprint", parent, run, || sim.fingerprint()));
    let per_fingerprint = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(tr.span("cluster.try_run", parent, run, || sim.try_run()))
        .map_err(|e| format!("direct run: {e}"))?;
    r.det_run = t.elapsed().as_secs_f64();

    let mut append = |rec: Value, r: &mut Replay| -> Result<(), String> {
        let t = Instant::now();
        tr.span("journal.append", parent, run, || journal.append(&rec))
            .map_err(|e| format!("journal append: {e}"))?;
        r.append += t.elapsed().as_secs_f64();
        r.appends += 1;
        Ok(())
    };
    // The records the server writes around a job: submit, a snapshot per
    // chunk, done.
    append(
        obj(vec![
            ("ev", Value::Str("submit".into())),
            ("job", Value::U64(run)),
        ]),
        &mut r,
    )?;
    let case = tr.open("serve.run_case", parent, run);
    let start = Instant::now();
    let mut gap_start = start;
    let mut hook_time = 0.0;
    let mut chunks = 0u64;
    let mut hook_err = None;
    let outcome = run_case(job, None, chunk_quanta, 0, &|| false, &mut |snap| {
        let entered = Instant::now();
        tr.record("cluster.step_snapshot", case, run, gap_start, entered);
        chunks += 1;
        let t = Instant::now();
        let bytes = tr.span("snapshot.encode", case, run, || snap.to_bytes());
        r.encode += t.elapsed().as_secs_f64();
        r.bytes += bytes.len() as u64;
        let t = Instant::now();
        let decoded = tr.span("snapshot.decode", case, run, || {
            SimSnapshot::from_bytes(&bytes)
        });
        r.decode += t.elapsed().as_secs_f64();
        if decoded.map_or(true, |d| d.quanta() != snap.quanta()) {
            hook_err = Some("snapshot does not survive to_bytes/from_bytes".to_string());
        }
        let t = Instant::now();
        let rec = obj(vec![
            ("ev", Value::Str("snapshot".into())),
            ("job", Value::U64(run)),
            ("quanta", Value::U64(snap.quanta())),
            ("bytes", Value::Str(to_hex(&bytes))),
        ]);
        r.append += t.elapsed().as_secs_f64();
        let appended = append(rec, &mut r);
        let left = Instant::now();
        hook_time += (left - entered).as_secs_f64();
        gap_start = left;
        appended
    });
    let end = Instant::now();
    tr.record("cluster.step_snapshot", case, run, gap_start, end);
    tr.close(case);
    r.total = (end - start).as_secs_f64();
    if let Some(e) = hook_err {
        return Err(e);
    }
    let outcome = outcome.map_err(|e| format!("run_case: {e:?}"))?;
    append(
        obj(vec![
            ("ev", Value::Str("done".into())),
            ("job", Value::U64(run)),
            ("outcome", outcome),
        ]),
        &mut r,
    )?;
    // run_case builds the Sim itself before its first step.
    r.stepping = (r.total - hook_time - r.build).max(0.0);
    r.fingerprint = per_fingerprint * (chunks + 1) as f64;
    Ok(r)
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Report, String> {
    let scale = if args.smoke { "tiny" } else { "mini" };
    let jobs = campaign_jobs(args.seed, scale);
    let mut report = Report {
        input_digest: crate::digest(FNV_BASIS, &jobs),
        params: vec![
            (
                "jobs",
                format!("{} kernels x {} policies", KERNELS.len(), POLICIES.len()),
            ),
            ("kernels", KERNELS.join(",")),
            ("policies", POLICIES.join(",")),
            ("nodes", NODES.to_string()),
            ("scale", scale.to_string()),
            ("engine", "deterministic, checkpointed chunks".to_string()),
            ("server_workers", WORKERS.to_string()),
            (
                "clients",
                format!("{CLIENTS} closed-loop (submit, then wait)"),
            ),
            (
                "chunk_quanta",
                ServeConfig::default().chunk_quanta.to_string(),
            ),
        ],
        ..Report::default()
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let journal: PathBuf = args.out.join(format!("serve-{}.journal", args.seed));

    // Untimed reference: each spec run monolithically, the way `repro_all`
    // runs it.
    let mut reference = Vec::with_capacity(jobs.len());
    let (mut quanta, mut packets, mut stragglers) = (0u64, 0u64, 0u64);
    for job in &jobs {
        let ok = build_sim(job)?.try_run().ok().map(|r| {
            quanta += r.total_quanta;
            packets += r.total_packets;
            stragglers += r.stragglers.count();
            outcome_value(&r)
        });
        report.check(
            format!(
                "serve_fig6: direct run of {} {} completes",
                job.workload, job.policy
            ),
            ok.is_some(),
        );
        reference.push(ok);
    }

    let _ = std::fs::remove_file(&journal);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let server = start_server(&journal).map_err(|e| format!("server start: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        server.stop();
        let _ = std::fs::remove_file(&journal);
    }

    let start = Instant::now();
    let mut campaigns: Vec<Campaign> = Vec::new();
    let min = if args.smoke { 1 } else { MIN_CAMPAIGNS } * if args.trace { 2 } else { 1 };
    while campaigns.len() < min || start.elapsed() < args.seconds {
        let traced = args.trace && campaigns.len().is_multiple_of(2);
        let c = campaign(&jobs, &journal, traced, campaigns.len() as u64, tr)?;
        for (i, _, outcome) in &c.jobs {
            report.attempted += 1;
            let matches = matches!((outcome, &reference[*i]), (Ok(got), Some(want)) if got == want);
            if !matches {
                report.failed += 1;
                println!(
                    "serve_fig6 campaign {} job {i} ({} {}): served {outcome:?}, direct {:?}",
                    campaigns.len(),
                    jobs[*i].workload,
                    jobs[*i].policy,
                    reference[*i]
                );
            }
        }
        campaigns.push(c);
    }
    report.check(
        "serve_fig6: every served outcome equals the direct Sim::try_run of its spec",
        report.failed == 0,
    );

    let plain: Vec<&Campaign> = campaigns.iter().filter(|c| !c.traced).collect();
    if !args.trace {
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|c| c.jobs.iter().map(|j| j.1))
            .collect();
        let walls: Vec<f64> = plain.iter().map(|c| c.wall).collect();
        setups.extend(plain.iter().map(|c| c.setup));
        report.metric("wall_s", median(&walls));
        report.metric("setup_s", median(&setups));
        report.metric(
            "jobs_per_s",
            latencies.len() as f64 / walls.iter().sum::<f64>(),
        );
        report.metric("job_p50_s", median(&latencies));
        report.metric("job_p90_s", quantile(&latencies, 0.9));
        println!(
            "  campaigns {}, jobs timed {} ({} beyond p90)",
            walls.len(),
            latencies.len(),
            latencies.len() / 10
        );
        return Ok(report);
    }

    // Traced split: replay every job directly, outside the server.
    let replay_path = args.out.join(format!("replay-{}.journal", args.seed));
    let _ = std::fs::remove_file(&replay_path);
    let (mut replay_journal, _) =
        Journal::open(&replay_path).map_err(|e| format!("{}: {e}", replay_path.display()))?;
    let chunk_quanta = ServeConfig::default().chunk_quanta;
    let replay_root = tr.open("bench.replay", SpanId::NONE, 0);
    let mut replays = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        replays.push(replay(
            job,
            chunk_quanta,
            &mut replay_journal,
            tr,
            replay_root,
            i as u64,
        )?);
    }
    tr.close(replay_root);
    drop(replay_journal);
    let _ = std::fs::remove_file(&replay_path);

    let n = jobs.len() as f64;
    let mean = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    let det_total: f64 = replays.iter().map(|r| r.det_run).sum();
    let stepping_total: f64 = replays.iter().map(|r| r.stepping).sum();
    // Served latency of each job (median over plain campaigns) less its
    // direct replay.
    let overhead: Vec<f64> = (0..jobs.len())
        .map(|i| {
            let served: Vec<f64> = plain
                .iter()
                .flat_map(|c| c.jobs.iter().filter(|j| j.0 == i).map(|j| j.1))
                .collect();
            median(&served) - replays[i].total
        })
        .collect();

    report.metric("workloads.build_s", mean(&|r| r.build));
    report.metric("cluster.quanta", quanta as f64);
    report.metric("cluster.packets", packets as f64);
    report.metric("core.stragglers", stragglers as f64);
    report.metric(
        "cluster.ns_per_packet",
        det_total * 1e9 / packets.max(1) as f64,
    );
    report.metric("cluster.det_run_s", det_total / n);
    report.metric("cluster.step_snapshot_s", stepping_total / n);
    report.metric("cluster.chunk_overhead", stepping_total / det_total);
    report.metric("cluster.fingerprint_s", mean(&|r| r.fingerprint));
    report.metric("snapshot.encode_s", mean(&|r| r.encode));
    report.metric("snapshot.decode_s", mean(&|r| r.decode));
    report.metric("snapshot.bytes_per_job", mean(&|r| r.bytes as f64));
    report.metric("journal.append_s", mean(&|r| r.append));
    report.metric("journal.appends_per_job", mean(&|r| r.appends as f64));
    report.metric("serve.overhead_s", median(&overhead));

    let traced_walls: Vec<f64> = campaigns
        .iter()
        .filter(|c| c.traced)
        .map(|c| c.wall)
        .collect();
    let plain_walls: Vec<f64> = plain.iter().map(|c| c.wall).collect();
    let (traced, untraced) = (median(&traced_walls), median(&plain_walls));
    report.metric("trace.overhead_s", traced - untraced);
    println!(
        "  traced wall_s {traced:.6} - untraced wall_s {untraced:.6} = tracing overhead {:.6} s",
        traced - untraced
    );
    Ok(report)
}
