#!/usr/bin/env python3
"""The dinefd benchmark: one command for every workload and metric.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload extract-posthoc --seed 1 --seconds 28 --trace 0

It builds the benchmark package (`perfbench/Cargo.toml`, a workspace of its
own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload for
about `--seconds` seconds as a series of fresh processes, so that each
process's peak memory is that of the workload alone.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
pass instead and reports the per-layer metrics. Every operation's output is
checked; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records
the host. Workloads, metrics and predictions are described in
`perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("extract-posthoc", "extract-wide", "verify", "live-soak")

# Set-up repetitions per run for `verify`, whose set-up is timed on its own.
# The other workloads take `setup_s` from every call of their entry point.
VERIFY_SETUP_REPS = 101

# Invocations a run pools at least, by (mode, workload): a verify pass
# takes 10-14 s, so that its proof time is never a single sample, and
# live-soak's detection percentiles need two invocations' trials.
AT_LEAST = {("run", "verify"): 2, ("trace", "live-soak"): 2}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_kop": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "host.tick.calls": "count",
    "host.tick.self_s": "s",
    "host.dx.calls": "count",
    "host.dx.self_s": "s",
    "host.ping.calls": "count",
    "host.ping.self_s": "s",
    "host.ack.calls": "count",
    "host.ack.self_s": "s",
    "host.start_s": "s",
    "dining.calls": "count",
    "dining.self_s": "s",
    "fd.queries": "count",
    "fd.query_s": "s",
    "fd.queries_per_step": "ratio",
    "detector.obs_suspicion": "count",
    "detector.obs_dxphase": "count",
    "detector.useful_ratio": "ratio",
    "detector.fold_s": "s",
    "detector.extract_s": "s",
    "sim.self_s": "s",
    "sim.events_pending_max": "count",
    "sim.timer_fires": "count",
    "sim.barrier_wait_s": "s",
    "sim.msgs_per_envelope": "ratio",
    "setup.nodes_s": "s",
    "setup.world_s": "s",
    "setup.node_bytes": "bytes",
    "analyze.lints_s": "s",
    "analyze.kinduct_s": "s",
    "analyze.sat_conflicts": "count",
    "analyze.sat_decisions": "count",
    "analyze.cnf_clauses": "count",
    "explore.states": "count",
    "explore.transitions": "count",
    "explore.self_s": "s",
    "fuzz.executions": "count",
    "fuzz.coverage_states": "count",
    "fuzz.self_s": "s",
    "fuzz.execs_per_s": "1/s",
    "live.frames_delivered": "count",
    "live.frames_forwarded": "count",
    "live.frames_dropped": "count",
    "live.handler_s": "s",
    "live.transport_cpu_s": "s",
    "live.detect_ms_p50": "ms",
    "live.detect_ms_p90": "ms",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "dinefd-perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds: it tells apart
    uncommitted changes and checkouts without git metadata."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_record():
    def command(*cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout with uncommitted changes to tracked files is not its commit.
    commit = command("git", "rev-parse", "HEAD") or "none"
    if command("git", "status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "rustc": command("rustc", "--version") or "unknown",
        "commit": commit,
        "source_sha256": source_digest(),
        "profile": "release (debug = line-tables-only)",
    }


def invoke(binary, mode, workload, seed, reps=None):
    cmd = [binary, mode, workload, "--seed", str(seed)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"`{' '.join(cmd)}` exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(binary, mode, workload, seed, seconds, at_least=1):
    """Invokes `mode` with the same seed until the next invocation would
    overrun `seconds` (at least `at_least` times); returns every
    invocation's result."""
    results, start = [], time.monotonic()
    while True:
        results.append(invoke(binary, mode, workload, seed))
        elapsed = time.monotonic() - start
        if len(results) >= at_least and elapsed + elapsed / len(results) > seconds:
            return results


def pooled(results, name):
    return [v for r in results for v in r["samples"].get(name, [])]


def percentile(values, p):
    values = sorted(values)
    rank = p * (len(values) - 1)
    lo, hi = int(rank), min(int(rank) + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            fail(f"run from the root of a dinefd source checkout ({needed} is missing)")

    binary = build()
    w, seed = args.workload, args.seed
    results = []
    if args.trace:
        results = repeat(binary, "trace", w, seed, args.seconds, AT_LEAST.get(("trace", w), 1))
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = pooled(results, name)
            metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        if w == "live-soak":
            detect = pooled(results, "live.detect_ms")
            for name, p in (("live.detect_ms_p50", 0.5), ("live.detect_ms_p90", 0.9)):
                metrics[name]["value"] = percentile(detect, p)
    else:
        if w == "verify":
            results.append(invoke(binary, "setup", w, seed, VERIFY_SETUP_REPS))
        results += repeat(binary, "run", w, seed, args.seconds, AT_LEAST.get(("run", w), 1))
        metrics = {
            name: {"value": statistics.median(pooled(results, name)), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    stale = any(r["stale_trace"] for r in results)
    if stale:
        print("perfbench: the traced run no longer reproduces the untraced run; "
              "layer numbers withheld", file=sys.stderr)
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit in PER_LAYER.items()}
    print(json.dumps({"host": host_record(), "workload": w, "seed": seed,
                      "invocations": len(results)}))
    print(json.dumps({
        "correct": failed == 0 and not stale and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
