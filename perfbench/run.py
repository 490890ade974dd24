#!/usr/bin/env python3
"""Runs one acbm benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload offline-paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The script builds the driver
(perfbench/CMakeLists.txt, which compiles ../src) under the build root
(CARGO_TARGET_DIR, default .bench_build), runs the workload in one driver
process, adds the cross-run and cross-thread-count model checks, and prints
as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where metrics holds every end_to_end metric of BENCHMARK.json with
--trace 0, or every per_layer metric with --trace 1. Progress, the ladder
steps and the reconciliation lines go to stderr. --seconds defaults to
BENCHMARK.json's run_seconds. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("offline-paper", "serve-paper", "ingest-live")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise RuntimeError("acbm sources (src/) are missing from this checkout")
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "acbm_perfbench")


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def run_driver(exe, argv, threads, timeout):
    env = dict(os.environ, ACBM_THREADS=str(threads))
    proc = subprocess.run([exe] + argv, stdout=subprocess.PIPE,
                          stderr=sys.stderr, env=env, timeout=timeout,
                          text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver printed nothing: {argv}")
    return lines[-1]


class HashLedger:
    """model.art hashes verified in earlier runs of this build, by key."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as f:
                self.hashes = json.load(f)
        except (OSError, ValueError):
            self.hashes = {}

    def get(self, key):
        return self.hashes.get(key)

    def put(self, key, value):
        self.hashes[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.hashes, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def model_checks(args, exe, work, result, threads):
    """Cross-run and 1-vs-N thread identity of the workload's model.art."""
    failures = []
    got = result.get("model_hash", "")
    cache = os.path.join(args.build_root, "cache")
    os.makedirs(cache, exist_ok=True)
    ledger = HashLedger(os.path.join(cache, "model_hashes.json"))
    # offline-paper and serve-paper fit the same paper pipeline, so
    # they share a key: their model.art must match byte for byte.
    kind = "ingest" if args.workload == "ingest-live" else "paper"
    key = f"{file_hash(exe)}:{kind}:toy={int(args.toy)}"
    known = ledger.get(key)
    if known is not None:
        if known != got:
            failures.append(f"model.art {got} differs from an earlier run's "
                            f"{known} ({key})")
        return failures
    if kind == "paper" and threads != 1:
        # First run of this build: refit the same split at 1 thread.
        one = run_driver(exe, ["fit-hash", "--dir", work], 1,
                         DRIVER_TIMEOUT_S).strip()
        log(f"model.art at ACBM_THREADS=1: {one}, at {threads}: {got}")
        if one != got:
            failures.append(f"model.art differs between ACBM_THREADS=1 ({one}) "
                            f"and {threads} ({got})")
            return failures
    ledger.put(key, got)
    return failures


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy sizes (the self-test); not for measurements")
    ap.add_argument("--record", metavar="DIR",
                    help="also append the result to DIR/<workload>.jsonl "
                         "(the input format of perfbench/compare.py)")
    args = ap.parse_args()
    args.build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.monotonic()
    exe = build(args.build_root)
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    threads = max(1, min(4, os.cpu_count() or 1))
    work = os.path.join(args.build_root, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        argv = [args.workload, "--dir", work, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        if args.trace:
            argv.append("--trace")
        if args.toy:
            argv.append("--toy")
        result = json.loads(run_driver(exe, argv, threads, DRIVER_TIMEOUT_S))
        failures = list(result.get("failures", []))
        failures += model_checks(args, exe, work, result, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"driver did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']}: driver unit {got['unit']}"
                               f" != BENCHMARK.json unit {m['unit']}")
        if not math.isfinite(got["value"]):
            failures.append(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    out = {"correct": result["correct"] and not failures,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    line = json.dumps(out)
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        with open(os.path.join(args.record, f"{args.workload}.jsonl"), "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": out}) + "\n")
    log(f"{args.workload} seed {args.seed} done in {time.monotonic() - t0:.1f} s")
    print(line, flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
