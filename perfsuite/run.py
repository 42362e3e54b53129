#!/usr/bin/env python3
"""Builds the benchmark suite (Release) and runs its workloads.

Usage, from the root of the repository:

    python3 perfsuite/run.py --workload NAME|all [--seed S] [--seconds T]
                             [--trace 0|1] [--out DIR]

The first call configures and builds `amac_perfsuite` (this directory's
CMakeLists.txt, which links the repository's `amac` library) under
$CARGO_TARGET_DIR/perfsuite (default .bench_build/perfsuite); later calls
only let the build tool confirm it is up to date. Build output goes to
stderr, so the last line of stdout is always the suite's JSON result.

A single workload runs in this process's child and its output passes
through unchanged. `--workload all` runs every workload in its own process
(so peak RSS is per workload), prints their metric lines, and ends with one
JSON line whose metrics are keyed `<workload>.<metric>`. `--out DIR` keeps
each run's full metric record as DIR/<workload>.s<seed>.t<trace>.json, the
input compare_runs.py reads. The exit code is nonzero when a build fails or
any output check fails.
"""

import argparse
import fcntl
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["log_lease_rw", "log_paxos", "log_failover", "fuzz_soak",
             "wpaxos_grid"]
BINARY = "amac_perfsuite"


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfsuite"


def build():
    """Configures once, then builds; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"error: no CMakeLists.txt in {ROOT}; run from a full "
                 "checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Concurrent invocations in one checkout build once, one at a time.
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "--target", BINARY,
                        "-j", jobs], check=True, stdout=sys.stderr)
    return out / BINARY


def suite_command(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.out:
        name = f"{workload}.s{args.seed}.t{args.trace}.json"
        cmd += ["--json", str(pathlib.Path(args.out) / name)]
    return cmd


def run_all(binary, args):
    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(suite_command(binary, workload, args),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {workload} printed no result", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--out", help="directory for full metric records")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1
    if args.out:
        pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(binary, args)
    return subprocess.run(suite_command(binary, args.workload, args)).returncode


if __name__ == "__main__":
    sys.exit(main())
