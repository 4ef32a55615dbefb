#!/usr/bin/env python3
"""Build partir's benchmark binary and run one workload, or all of them.

One workload (from the repository root):

    python3 perfbench/run.py --workload spmv-ranks --seed 1 --seconds 10 --trace 0

prints the run's record line and then, as the last line, the result JSON
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Every workload, each in its own process, with a table of every metric:

    python3 perfbench/run.py --all --seed 1 --seconds 10 [--trace 0|1]

The benchmark binary (``perfbench/bench``) is built from this checkout
with ``cargo build --release`` into ``$CARGO_TARGET_DIR`` (default
``.bench_build``). ``PARTIR_*`` variables are removed from its environment
so none of them can change the measured program.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "bench", "Cargo.toml")
# A workload process that runs longer than this is stopped.
CHILD_TIMEOUT_S = 170


def workload_names():
    """The workloads BENCHMARK.json names, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None when the
    build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "partir-perfbench")


def source_digest():
    """SHA-256 over the program's sources, so a record names the code it
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/bench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance():
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "nproc": os.cpu_count(),
    }


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (record, result, result line) or
    None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARTIR_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload}: {e}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        record = json.loads(lines[-2])["perfbench_record"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        print(f"perfbench: {workload}: unreadable output: {e}", file=sys.stderr)
        return None
    return record, result, lines[-1]


def table(rows):
    """Every metric of every workload: name, value and unit."""
    out = []
    for record, result, _ in rows:
        out.append(f"== {record['workload']} (seed {record['seed']}, "
                   f"{record['samples']['ops']} ops, tail p{record['tail_percentile']:g}, "
                   f"correct={result['correct']}, failed {result['failed']}/{result['attempted']})")
        shown = dict(record["end_to_end_named"])
        shown.update(result["metrics"])
        for name, m in shown.items():
            out.append(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    return "\n".join(out)


def main():
    workloads = workload_names()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")

    binary = build()
    if binary is None:
        return 1
    prov = provenance()
    if args.all:
        rows = []
        for w in workloads:
            got = run_one(binary, w, args.seed, args.seconds, args.trace)
            if got is None:
                return 1
            got[0]["provenance"] = prov
            rows.append(got)
        print(table(rows))
        return 0 if all(r["correct"] for _, r, _ in rows) else 1

    got = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    record, _, result_line = got
    record["provenance"] = prov
    print(json.dumps({"perfbench_record": record}))
    print(result_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
