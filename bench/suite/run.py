#!/usr/bin/env python3
"""Builds mipsbench from the sources in this checkout and runs one workload.

    python3 bench/suite/run.py --workload batch-flat --seed 1 --seconds 15 \
        --trace 0

The first run configures and builds the benchmark (and the library it
measures) under .bench_build/mipsbench; later runs reuse that build.  The
binary's metric lines are echoed, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end names (--trace 0) or its
per_layer names (--trace 1).  Each run's full result file, with the host
record, stays in .bench_build/mipsbench/out/ for compare.py.

    python3 bench/suite/run.py --smoke

runs every workload at tiny size, traced and untraced, checks that each
reports every metric BENCHMARK.json names, and checks that an injected
wrong answer fails the run.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "mipsbench")
BINARY = os.path.join(BUILD, "mipsbench")
OUT = os.path.join(BUILD, "out")
# Scratch for the compiler and the binary (catalog segments), so that a
# run writes nothing outside the checkout.
TMP = os.path.join(BUILD, "tmp")
WORKLOADS = ["batch-flat", "batch-skewed", "serve-newuser", "live-mutate"]
# Every run is meant to take at most 60 s, the traced ones included; one
# that takes longer is killed and fails.  The build is not counted.
RUN_TIMEOUT_S = 60
WRONG_ANSWER_EXIT = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def scratch_env():
    os.makedirs(TMP, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP)


def build():
    """Configures once and builds the mipsbench target; False on failure."""
    env = scratch_env()
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "mipsbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
            if done.returncode:
                log("mipsbench: build step failed:", " ".join(step))
                return False
    return True


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(workload, seed, seconds, trace, smoke=False, inject=False):
    """Runs the binary; returns (exit code, result dict or None)."""
    os.makedirs(OUT, exist_ok=True)
    env = scratch_env()
    tag = f"{workload}-s{seed}-t{int(trace)}" + ("-smoke" if smoke else "")
    result_path = os.path.join(OUT, tag + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json_out={result_path}",
           f"--tmp_dir={TMP}"]
    if trace:
        # One span file per workload, overwritten: a serve-newuser trace
        # holds about 20 MB of spans.
        trace_path = os.path.join(OUT, f"trace-{workload}.json")
        cmd += ["--trace", f"--trace_out={trace_path}"]
    if smoke:
        cmd.append("--smoke")
    if inject:
        cmd.append("--inject_mismatch")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"mipsbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stdout.write(proc.stdout)
    result = None
    if os.path.exists(result_path):
        with open(result_path) as f:
            result = json.load(f)
    return proc.returncode, result


def result_line(spec, result, trace):
    """The last-line result object, or None if a named metric is missing."""
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in names:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            log(f"mipsbench: {result['workload']} did not report "
                f"{entry['name']} in {entry['unit']}")
            return None
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def smoke(spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_binary(workload, 1, 0.3, trace, smoke=True)
            line = result_line(spec, result, trace) if result else None
            if code != 0 or line is None or not line["correct"]:
                log(f"smoke: {workload} trace={int(trace)} "
                    f"FAILED (exit {code})")
                ok = False
    code, result = run_binary("batch-flat", 1, 0.3, False, smoke=True,
                              inject=True)
    if code != WRONG_ANSWER_EXIT or result is None or result["correct"]:
        log("smoke: an injected wrong answer did not fail the run")
        ok = False
    log("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    spec = benchmark_spec()
    if args.smoke:
        return smoke(spec)
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if result is None or code not in (0, WRONG_ANSWER_EXIT):
        log(f"mipsbench: {args.workload} failed (exit {code})")
        return 1
    line = result_line(spec, result, bool(args.trace))
    if line is None:
        return 1
    print(json.dumps(line), flush=True)
    return 0 if code == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
