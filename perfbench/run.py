#!/usr/bin/env python3
"""Benchmark entry point.

Builds the benchmark binary from source (`perfbench/Cargo.toml`, a package of
its own that depends on the repository's crates by path), runs one workload
in a child process, and prints the result as one JSON object on the last
line of stdout. The child's peak resident memory, read from `wait4`, is added
as `peak_rss_mb` (tracing off) or `cluster.rss_bytes_per_node` (tracing on).

    python3 perfbench/run.py --workload incast_256k --seed 1 --seconds 20 --trace 0

Run it from the repository root. `CARGO_TARGET_DIR` chooses the build
directory (default `.bench_build`). `--smoke` runs tiny sizes in seconds.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

WORKLOADS = ("incast_256k", "allreduce_1k", "serve_fig6")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run that has not ended by then is hung: kill it rather than wait.
CHILD_TIMEOUT_S = 170


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(args):
    why = "unknown"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for w in json.load(f)["workloads"]:
                if w["name"] == args.workload:
                    why = w["why"]
    except (OSError, ValueError, KeyError):
        pass
    git_rev = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        git_rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": git_rev,
        "why": why,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    cmd = [
        os.path.join(target, "release", "aqs-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(BENCH_DIR, "out"),
        "--provenance", json.dumps(prov),
    ]
    if args.smoke:
        cmd.append("--smoke")
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: no result (exit code {child.returncode})", file=sys.stderr)
        return 1
    peak_rss_bytes = usage.ru_maxrss * 1024  # Linux reports KiB
    nodes = result.pop("nodes")
    if args.trace:
        per_node = peak_rss_bytes / nodes if nodes else 0.0
        result["metrics"]["cluster.rss_bytes_per_node"] = {"value": per_node, "unit": "bytes"}
    else:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_bytes / 1e6, "unit": "MB"}
    print(json.dumps(result))
    return 0 if child.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
