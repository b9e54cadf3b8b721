#!/usr/bin/env python3
"""Summarises mipsbench result files, or compares two sets of them.

    python3 bench/suite/compare.py DIR               # one set: spreads
    python3 bench/suite/compare.py BASE_DIR NEW_DIR  # two sets: verdicts
    python3 bench/suite/compare.py --trace DIR [DIR] # per-layer metrics

A directory holds result files as run.py leaves them in
.bench_build/mipsbench/out/ (one JSON per run).  For each workload and
metric the table gives the median and quartiles of the runs
(statistics.quantiles, n=4) and the spread: the quartile distance as a
share of the median.

With two sets each end-to-end metric gets a verdict against the bound
BENCHMARK.json fixes for it:

  worse       NEW fails more operations than BASE on the workload, or
              NEW's median is worse than BASE's by more than the bound;
  better      at least 10 runs paired by seed, NEW wins at least 9 of
              every 10 pairs (ties count for neither), NEW's median is
              better than BASE's by more than BASE's quartile distance,
              and NEW fails no more operations than BASE: the only
              verdict that supports a claimed gain;
  unresolved  neither, and a set's spread is wider than the bound (unless
              every NEW run beats every BASE run);
  same        within the bound.

Per-layer metrics have no bound; with --trace the table only shows the
medians and their change.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
HOST_KEYS = ("cpu", "nproc", "gemm_kernel", "build_type")


def load(directory, trace):
    """{workload: {metric: {seed: value}}}, {workload: failed operations}
    and the host records seen."""
    runs = {}
    failed = {}
    hosts = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or "metrics" not in result:
            continue
        if result.get("smoke") or bool(result.get("trace")) != trace:
            continue
        workload = result["workload"]
        failed[workload] = failed.get(workload, 0) + int(result["failed"])
        by_metric = runs.setdefault(workload, {})
        for name, metric in result["metrics"].items():
            by_metric.setdefault(name, {})[result["seed"]] = metric["value"]
        host = result.get("host", {})
        hosts.add(tuple(host.get(k, "?") for k in HOST_KEYS))
    return runs, failed, hosts


def summary(values):
    """(median, q1, q3, spread) of a list of run values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def fmt(value):
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4g}"
    return f"{value:.3e}"


def verdict(base, new, higher_is_better, bound, more_failures):
    """Verdict for one end-to-end metric; base/new map seed -> value.
    `more_failures`: NEW failed more operations than BASE on the
    workload."""
    sign = 1 if higher_is_better else -1
    med_a, q1_a, q3_a, spread_a = summary(list(base.values()))
    med_b, _, _, spread_b = summary(list(new.values()))
    if more_failures or sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    if (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
            and sign * (med_b - med_a) > q3_a - q1_a):
        return "better"
    all_better = all(sign * (b - a) > 0 for b in new.values()
                     for a in base.values())
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--trace", action="store_true",
                        help="per-layer metrics from traced runs")
    args = parser.parse_args()
    if len(args.dirs) > 2:
        parser.error("give one or two directories")
    with open(SPEC) as f:
        spec = json.load(f)
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = [(m["name"], m["better"] == "higher", m.get("bound"))
               for m in section]
    workloads = [w["name"] for w in spec["workloads"]]

    sets = [load(d, args.trace) for d in args.dirs]
    all_hosts = set().union(*(hosts for _, _, hosts in sets))
    if len(all_hosts) > 1:
        print("warning: results come from different hosts or kernels:",
              sorted(all_hosts), file=sys.stderr)

    if len(sets) == 1:
        runs, failed, _ = sets[0]
        print("| workload | metric | runs | median | q1 | q3 | spread "
              "| bound |")
        print("|---|---|---|---|---|---|---|---|")
        for workload in workloads:
            for name, _, bound in metrics:
                values = list(runs.get(workload, {}).get(name, {}).values())
                if not values:
                    continue
                med, q1, q3, spread = summary(values)
                print(f"| {workload} | {name} | {len(values)} | {fmt(med)} | "
                      f"{fmt(q1)} | {fmt(q3)} | {spread:.3f} | "
                      f"{'-' if bound is None else bound} |")
        for workload in workloads:
            if failed.get(workload):
                print(f"{workload}: {failed[workload]} failed operations")
        return 0

    (base, base_failed, _), (new, new_failed, _) = sets
    print("| workload | metric | base median [q1, q3] | new median [q1, q3] "
          "| change | verdict |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        for name, higher, bound in metrics:
            a = base.get(workload, {}).get(name, {})
            b = new.get(workload, {}).get(name, {})
            if not a or not b:
                continue
            med_a, q1_a, q3_a, _ = summary(list(a.values()))
            med_b, q1_b, q3_b, _ = summary(list(b.values()))
            change = (med_b - med_a) / abs(med_a) if med_a else float("nan")
            more_failures = (new_failed.get(workload, 0) >
                             base_failed.get(workload, 0))
            result = ("-" if bound is None else
                      verdict(a, b, higher, bound, more_failures))
            print(f"| {workload} | {name} | {fmt(med_a)} [{fmt(q1_a)}, "
                  f"{fmt(q3_a)}] | {fmt(med_b)} [{fmt(q1_b)}, {fmt(q3_b)}] | "
                  f"{change:+.3f} | {result} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
