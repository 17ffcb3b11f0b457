#!/usr/bin/env python3
"""hagcn benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 35 --trace 0

``--workload all`` runs every workload, each in a fresh process, and prints
one table. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md beside
this file for the workloads, metrics and units.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("desk_train", "ntu_train", "desk_eval")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
WORKLOAD_THREADS = {"desk_train": 1, "ntu_train": 2, "desk_eval": 1}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(msg, code=2):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    return code


def result_path(workload, seed, trace):
    return os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}.json")


def run_all(args):
    """Every workload in its own process; prints one summary table."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        if proc.returncode != 0:
            return fail(f"workload {name} exited {proc.returncode}")
        with open(result_path(name, args.seed, args.trace)) as f:
            summary[name] = json.load(f)
    print("\nworkload    metric                         value        unit  samples")
    for name, res in summary.items():
        for key, m in res["metrics"].items():
            if args.trace and not m["value"]:
                continue
            print(f"{name:11s} {key:30s} {m['value']:12.6g} {m['unit']:>5s}  "
                  f"{m.get('samples', '')}")
        print(f"{name:11s} checks: {res['checks_passed']} passed, "
              f"{len(res['check_failures'])} failed; error_rate "
              f"{res['failed']}/{res['attempted']}")
    ok = all(r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "metrics": {f"{w}.{k}": {"value": m["value"], "unit": m["unit"]}
                                  for w, r in summary.items()
                                  for k, m in r["metrics"].items()}}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hagcn", "cli.py")):
        return fail(f"no hagcn sources under {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    # BLAS reads its thread count when numpy loads it, so pin it first.
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    os.environ["HAGCN_THREADS"] = str(WORKLOAD_THREADS[args.workload])
    sys.path.insert(0, SRC)

    import bench
    return bench.run(args, ROOT, result_path(args.workload, args.seed, args.trace))


if __name__ == "__main__":
    sys.exit(main())
