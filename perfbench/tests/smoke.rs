//! Smoke test of the benchmark itself: every workload at tiny size, with
//! tracing off and on, on the default and the held-out seed. Each run must
//! pass every output check, report every metric of its mode, and (traced)
//! write a trace file that parses; the two seeds must generate different
//! inputs.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["incast_256k", "allreduce_1k", "serve_fig6"];
const SEEDS: [u64; 2] = [1, 20_261_017];

struct Run {
    result: Value,
    digest: String,
}

fn run(workload: &str, seed: u64, trace: bool, out: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_aqs-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    let digest = stdout
        .split_whitespace()
        .skip_while(|w| *w != "input_digest")
        .nth(1)
        .expect("input digest printed")
        .to_string();
    Run { result, digest }
}

fn metric_names(result: &Value) -> Vec<String> {
    match result.get("metrics") {
        Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_workload_passes_its_checks_in_both_modes_and_seeds() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for seed in SEEDS {
            for trace in [false, true] {
                let r = run(workload, seed, trace, &out);
                assert_eq!(r.result.get("correct"), Some(&Value::Bool(true)));
                assert_eq!(r.result.get("failed"), Some(&Value::U64(0)));
                let names = metric_names(&r.result);
                let expected = if trace {
                    ["workloads.build_s", "cluster.loop_s", "serve.overhead_s"].as_slice()
                } else {
                    ["wall_s", "setup_s", "jobs_per_s", "job_p50_s", "job_p90_s"].as_slice()
                };
                for name in expected {
                    assert!(names.iter().any(|n| n == name), "{workload}: no {name}");
                }
                if trace {
                    let path = out.join(format!("trace-{workload}-{seed}.json"));
                    let text = std::fs::read_to_string(&path).expect("trace written");
                    let doc: Value = serde_json::from_str(&text).expect("trace is JSON");
                    match doc.get("traceEvents") {
                        Some(Value::Array(events)) => assert!(!events.is_empty()),
                        other => panic!("{workload}: traceEvents missing: {other:?}"),
                    }
                }
                digests.push(r.digest);
            }
        }
        assert_eq!(digests[0], digests[1], "{workload}: same seed, same inputs");
        assert_ne!(
            digests[0], digests[2],
            "{workload}: the held-out seed must change the generated inputs"
        );
    }
}
