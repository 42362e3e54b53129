#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

Usage:

    python3 perfsuite/compare_runs.py SET_A SET_B

SET_A and SET_B are directories of run records written by
`run.py --out DIR` (one JSON file per workload, seed and trace mode).
For every workload and metric present in both sets it prints the two
medians and their relative difference, and one verdict:

  exact      a tick, count, byte or ratio metric whose value is identical
             in every run of every seed the two sets share;
  DIFFERS    such a metric with two different values for one seed;
  agree      any other end-to-end metric whose medians differ by at most
             the bound the repository's BENCHMARK.json gives it;
  OUTSIDE    such a metric whose medians differ by more;
  -          any other metric (a per-layer wall time: no bound).

It also requires every run to be correct with the same failed count per
seed. The exit code is 1 when any line reads OUTSIDE or DIFFERS or a run
is incorrect, else 0.
"""

import argparse
import collections
import json
import pathlib
import statistics
import sys

EXACT_UNITS = {"tick", "count", "bytes", "ratio"}


def load(path):
    """Returns {(workload, trace): [record, ...]} for one set."""
    files = sorted(pathlib.Path(path).glob("*.json"))
    if not files:
        sys.exit(f"error: no run records (*.json) in {path}")
    runs = collections.defaultdict(list)
    for f in files:
        with open(f) as fh:
            record = json.load(fh)
        runs[(record["workload"], record["trace"])].append(record)
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    set_a, set_b = load(args.set_a), load(args.set_b)

    ok = True
    print(f"{'workload':14} {'trace':5} {'metric':36} {'median A':>14} "
          f"{'median B':>14} {'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(set_a) & set(set_b)):
        workload, trace = key
        runs_a, runs_b = set_a[key], set_b[key]
        for run in runs_a + runs_b:
            if not run["correct"]:
                print(f"{workload:14} {trace:5} run with seed {run['seed']} "
                      "is incorrect")
                ok = False
        failed = collections.defaultdict(set)
        for run in runs_a + runs_b:
            failed[run["seed"]].add(run["failed"])
        if any(len(v) > 1 for v in failed.values()):
            print(f"{workload:14} {trace:5} failed counts differ: "
                  f"{dict(failed)}")
            ok = False

        names = sorted(set().union(*(r["metrics"] for r in runs_a))
                       & set().union(*(r["metrics"] for r in runs_b)))
        for name in names:
            va = [r["metrics"][name]["value"] for r in runs_a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in runs_b
                  if name in r["metrics"]]
            unit = runs_a[0]["metrics"].get(name, {}).get("unit", "")
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / ma if ma else (0.0 if mb == ma else float("inf"))
            bound = ""
            if unit in EXACT_UNITS:
                by_seed = collections.defaultdict(set)
                for run in runs_a + runs_b:
                    if name in run["metrics"]:
                        by_seed[run["seed"]].add(run["metrics"][name]["value"])
                shared = {r["seed"] for r in runs_a} & {r["seed"] for r in runs_b}
                same = all(len(by_seed[s]) == 1 for s in shared)
                verdict = "exact" if same else "DIFFERS"
                ok = ok and same
            elif name in bounds and trace == 0:
                bound = f"{bounds[name]:.0%}"
                inside = abs(delta) <= bounds[name]
                verdict = "agree" if inside else "OUTSIDE"
                ok = ok and inside
            else:
                verdict = "-"
            print(f"{workload:14} {trace:5} {name:36} {ma:14.6g} {mb:14.6g} "
                  f"{delta:+8.2%} {bound:>6}  {verdict}")
    missing = set(set_a) ^ set(set_b)
    for workload, trace in sorted(missing):
        print(f"{workload:14} {trace:5} present in only one set")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
