#!/usr/bin/env python3
"""Runs one NDSS benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload memo_eval|serve_zipf|ingest_mix \
        --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, untraced

Run from the repository root. The first run builds perfbench/ together with
the repository's src/ into $CARGO_TARGET_DIR (default .bench_build). Each
workload runs in its own process; correctness gates run before any timing
and a failure exits non-zero without a result. The output is a readable
table, a provenance line (host, build, seed, source), and last one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the workload runs untraced
and then traced, and the metrics are the per-layer ones from the traced run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("memo_eval", "serve_zipf", "ingest_mix")
RUN_TIMEOUT_S = 170  # per workload, both processes of a traced run together


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds ndss_perfbench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no NDSS sources at %s" % (ROOT / "src"))
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "ndss_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise SystemExit("perfbench: build step failed: %s" % " ".join(step))
    return out / "ndss_perfbench"


def run_binary(binary, workload, seed, seconds, trace, deadline=None):
    """Runs one workload process; returns its raw report. The process is
    killed once `deadline` (time.monotonic) passes."""
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d-%d" % (workload, os.getpid(), trace)
    work, report = runs / tag, runs / (tag + ".json")
    timeout = RUN_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            [str(binary), "--workload=" + workload, "--seed=%d" % seed,
             "--seconds=%d" % seconds, "--trace=%d" % trace,
             "--work-dir=" + str(work), "--out=" + str(report)],
            stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
        if done.returncode != 0:
            raise SystemExit(done.returncode)
        with open(report) as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s did not finish in time" % workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        report.unlink(missing_ok=True)


def provenance(raw, seed):
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    block = dict(raw["host"])
    block.update({
        "seed": seed,
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "source_sha256": digest.hexdigest()[:16],
    })
    return block


def table(workload, raw, values, samples):
    """Readable lines: every end-to-end metric by name and unit, under the
    workload's own names where it has them, with sample counts."""
    names = metrics.WORKLOAD_NAMES.get(workload, {})
    lines = ["%s (untraced)" % workload]
    for key, value in values.items():
        unit = metrics.END_TO_END_UNITS[key]
        alias = names.get(key)
        label = "%s = %s" % (alias[0], key) if alias else key
        unit = alias[1] if alias else unit
        count = " (n=%d)" % samples[key] if key in samples else ""
        lines.append("  %-44s %14.6g %s%s" % (label, value, unit, count))
    failed = metrics.failed_op_ratio(raw["attempted"], raw["failed"], raw["refused"])
    lines.append("  %-44s %14.6g failed ops / attempted ops (n=%d)" % (
        "failed_op_ratio", failed, raw["attempted"]))
    tail = metrics.tail_latency(raw)
    if tail is not None:
        label = "search_%s_ms" % tail[0] if workload == "serve_zipf" else "query_%s_ms" % tail[0]
        lines.append("  %-44s %14.6g ms (n=%d)" % (label, tail[1], tail[2]))
    return lines


def run_workload(binary, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    untraced = run_binary(binary, workload, seed, seconds, 0, deadline)
    values, samples = metrics.end_to_end(untraced)
    for line in table(workload, untraced, values, samples):
        print(line)
    raw = untraced
    if trace:
        raw = run_binary(binary, workload, seed, seconds, 1, deadline)
        values = metrics.per_layer(raw, untraced)
        units = metrics.PER_LAYER_UNITS
        print("%s (traced): per-layer" % workload)
        for key, value in values.items():
            print("  %-44s %14.6g %s" % (key, value, units[key]))
        print("  self time by span (ms):")
        for name, micros in sorted(metrics.self_times(raw["spans"]).items()):
            print("    %-42s %14.3f" % (name, micros / 1e3))
    else:
        units = metrics.END_TO_END_UNITS
    print("provenance: " + json.dumps(provenance(raw, seed), sort_keys=True))
    runs = [untraced, raw] if trace else [untraced]
    failed = sum(r["failed"] + r["refused"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = failed == 0 and all(r.get("verified", True) for r in runs)
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.workload == "all":
        results = {w: run_workload(binary, w, args.seed, args.seconds, args.trace)
                   for w in WORKLOADS}
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
