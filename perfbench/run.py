#!/usr/bin/env python3
"""The repository benchmark: one workload run, measured end to end or per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload <synth_cold|rewrite_fresh|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the workload runner (``perfbench/``, a Cargo package of
its own that depends on the workspace crates by path) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs the workload in a
fresh process, and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the run's record: host block, counter fingerprint, sample counts and any
self-check problem.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, each in its own process: once
untraced, to get the base of ``telemetry.overhead_ratio``, then with the
engine's profile tree on; it reports the per-layer metrics of the traced
run, and the record carries every layer metric the runner measured.
``METRICS.md`` defines every metric. ``serve_mixed`` runs by hand only:
``BENCHMARK.json`` leaves it out until its figures are steady.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_cold", "rewrite_fresh", "serve_mixed")
# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def build():
    """Builds the runner; returns the binary's path."""
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "stp-perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources that make up the measured program."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            rel = os.path.relpath(name, ROOT)
            if rel.startswith(("perfbench/target", ".bench")):
                continue
            digest.update(rel.encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def host_block():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_revision": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_sha256": source_digest(),
        "profile": "release",
    }


def run_child(binary, workload, seed, seconds, traced):
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} run exited with code {out.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec, units = load_spec()
    binary = build()
    runs = [run_child(binary, args.workload, args.seed, args.seconds, False)]
    if args.trace:
        runs.append(run_child(binary, args.workload, args.seed, args.seconds, True))
    problems, errors = [], []
    for report in runs:
        problems += report["problems"]
        errors += report["errors"]

    if args.trace:
        base, traced = runs
        # Closed-loop workloads do a fixed amount of work, so wall time
        # shows the overhead; the open-loop one runs to a fixed schedule,
        # so its overhead shows in CPU time instead.
        key = "timed_cpu_s" if args.workload == "serve_mixed" else "timed_wall_s"
        values = dict(traced["metrics"])
        values.update(traced["layers"])
        values["telemetry.overhead_ratio"] = traced[key] / base[key] if base[key] > 0 else float("nan")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values = runs[0]["metrics"]
        wanted = [m["name"] for m in spec["end_to_end"]]
    metrics = {}
    for name in wanted:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} is missing or not finite: {value}")
            continue
        if not args.trace and value <= 0:
            problems.append(f"end-to-end metric {name} is {value}, not positive")
        metrics[name] = {"value": value, "unit": units[name]}

    last = runs[-1]
    record = {
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host_block(),
            "jobs": last["jobs"],
            "fingerprint": last["fingerprint"],
            "pinned": last["pinned"],
            "notes": last["notes"],
            "timed_wall_s": last["timed_wall_s"],
            "metrics": last["metrics"],
            "layers": last["layers"],
            "problems": problems,
            "errors": errors,
        }
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems and all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
