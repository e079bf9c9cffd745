#!/usr/bin/env python3
"""Build and run the doqlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the benchmark package
(`perfbench/Cargo.toml`) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), twice: `perfbench` with the system allocator,
which takes every time, and `perfbench_counts` with simnet's counting
allocator, which takes exact counts and allocations and times nothing.

`--trace 0` runs `perfbench --pass end-to-end` and prints the end-to-end
metrics.

`--trace 1` prints the per-layer metrics. It runs `perfbench --pass
spans` for `--seconds` (unit spans, and the tracing and telemetry
overheads), `perfbench_counts --pass counts` (a one-worker replica of the
campaign), and the layer micro-benchmarks, which depend on the seed
only: `perfbench --pass micro` for their times, `perfbench_counts --pass
micro` for their allocations. The spans and counts passes must produce
the same sample digest.

`--workload all` runs every workload BENCHMARK.json lists, one after the
other, and prefixes each workload's metrics with its name. The
micro-benchmarks run once and keep their unprefixed names.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
output check passed; 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The engine (`engine::env_*`) and the mobility campaign read these; any
# of them would silently resize or reshape a workload.
REFUSED_ENV = (
    "DOQLAB_THREADS",
    "DOQLAB_SEED",
    "DOQLAB_CLIENTS",
    "DOQLAB_REBIND_MS",
    "DOQLAB_STAGGER_MS",
)
BUILD_TIMEOUT_S = 850
# Everything after the build, per workload.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for extra in ([], ["--features", "count-allocs", "--bin", "perfbench_counts"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            die("build timed out", 1)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 1)


def run(binary, args, deadline):
    """Run one benchmark binary; return (exit code, digest, result)."""
    path = os.path.join(target_dir(), "release", binary)
    try:
        done = subprocess.run(
            [path] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        die(f"{binary} timed out", 1)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{binary} exited {done.returncode} without a result", 1)
    return done.returncode, digest, result


def merge(results):
    """Combine (exit code, result) pairs whose metric names are distinct."""
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for c, result in results:
        code = max(code, c)
        merged["correct"] = merged["correct"] and result["correct"]
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["metrics"].update(result["metrics"])
    return code, merged


def end_to_end(workload, seed, seconds, deadline):
    args = ["--pass", "end-to-end", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    code, _, result = run("perfbench", args, deadline)
    return code, result


def traced(workload, seed, seconds, deadline):
    """The workload's spans and counts passes, checked against each other."""
    common = ["--workload", workload, "--seed", str(seed)]
    spans = os.path.join(target_dir(), "perfbench", f"spans-{workload}-{seed}.tsv")
    code_s, digest_s, timed = run(
        "perfbench",
        ["--pass", "spans", "--seconds", str(seconds), "--spans-out", spans] + common,
        deadline,
    )
    code_c, digest_c, counted = run("perfbench_counts", ["--pass", "counts"] + common, deadline)
    print(f"spans digest {digest_s}, counts digest {digest_c}")
    code, result = merge([(code_s, timed), (code_c, counted)])
    if digest_s is None or digest_s != digest_c:
        result["correct"] = False
        result["failed"] += counted["attempted"]
        code = max(code, 1)
    return code, result


def micro(seed, deadline):
    """The layer micro-benchmarks: times, then allocation counts."""
    args = ["--pass", "micro", "--seed", str(seed)]
    results = []
    for binary in ("perfbench", "perfbench_counts"):
        code, _, result = run(binary, args, deadline)
        results.append((code, result))
    return merge(results)


def check_names(label, declared, result):
    names = set(result["metrics"])
    if names != declared:
        die(f"{label}: metrics differ from BENCHMARK.json: {sorted(names ^ declared)}", 1)


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    for var in REFUSED_ENV:
        if var in os.environ:
            die(f"{var} is set; it would change the workload, so the benchmark refuses to run")
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"run from a doqlab checkout: {needed} is missing")
    declared = {m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    build()
    chosen = workloads if a.workload == "all" else [a.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(chosen)
    results = []
    shared = set()
    if a.trace:
        results.append(micro(a.seed, deadline))
        shared = set(results[0][1]["metrics"])
    for w in chosen:
        if a.trace:
            code, result = traced(w, a.seed, a.seconds, deadline)
        else:
            code, result = end_to_end(w, a.seed, a.seconds, deadline)
        check_names(w, declared - shared, result)
        if len(chosen) > 1:
            result["metrics"] = {f"{w}/{k}": v for k, v in result["metrics"].items()}
        results.append((code, result))
    code, merged = merge(results)
    if len(chosen) == 1:
        check_names(a.workload, declared, merged)
    print(json.dumps(merged))
    sys.exit(code)


if __name__ == "__main__":
    main()
