#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and record the medians.

Each run gets a fresh, randomly named directory holding HEAD's
``perfbench/`` and one side's ``src/``: the parent's comes from ``git
archive REV src``, the change's is this checkout's working ``src/``. Pair i
runs the parent first when i is even and the change first when it is odd,
each run as ``perfbench/run.py --workload W --seed 1 --trace 0`` for
``BENCHMARK.json``'s ``run_seconds``. The record holds, per end-to-end
metric of ``BENCHMARK.json``, each side's values, median, IQR and win count
(pairs where that side was strictly better), and also whether
``final_loss`` stayed bitwise equal in every run, both ``src/`` sha256
values, the operations each side attempted and failed, and perfbench's
machine record. ``--record`` adds the workload to the JSON file (other
workloads already in it are kept):

    python3 tools/bench_pairs.py --against HEAD~1 --workload ntu_train \\
        --pairs 10 --record BENCH_<label>.json

``--compare A.json B.json`` runs nothing. For each workload and end-to-end
metric both records hold, it prints the change side's median in A and in B
and B's relative change, and flags a move past ``BENCHMARK.json``'s bound in
the metric's worse direction. Beside them it prints each file's own
parent-to-change relative change and pair wins (parent/change), because
only pairs run side by side inside one file support a claim: the medians of
two files measured at different times also carry the host's drift.

    python3 tools/bench_pairs.py --compare BENCH_17.json BENCH_18.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk_train", "ntu_train", "desk_eval")
SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", metavar="REV",
                   help="git revision whose src/ is the parent side")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--record", metavar="FILE",
                   help="JSON file to add the workload's summary to")
    p.add_argument("--work-dir", default=tempfile.gettempdir(),
                   help="where the per-run directories are made")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="diff two record files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        if args.against or args.workload or args.record:
            p.error("--compare takes no --against, --workload or --record")
        return args
    for flag in ("against", "workload", "record"):
        if getattr(args, flag) is None:
            p.error(f"--{flag} is required unless --compare is given")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _archive(rev, path) -> bytes:
    return subprocess.run(["git", "-C", ROOT, "archive", rev, path],
                          check=True, stdout=subprocess.PIPE).stdout


def _extract(archive: bytes, dest):
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(args, seconds, perfbench: bytes, parent_src: bytes,
             side) -> dict:
    """One perfbench run of one side in a fresh directory; its result JSON."""
    tree = tempfile.mkdtemp(prefix="bench-", dir=args.work_dir)
    try:
        _extract(perfbench, tree)
        if side == "parent":
            _extract(parent_src, tree)
        else:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tree, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", "1", "--trace", "0", "--seconds", str(seconds)]
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench {side} run exited {proc.returncode}")
        path = os.path.join(tree, ".perfbench_work", "results",
                            f"{args.workload}-seed1-trace0.json")
        with open(path) as f:
            return json.load(f)
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, end_to_end) -> dict:
    """Aggregate ``pairs``, a list of {"parent": result, "change": result}
    perfbench result dicts, over ``end_to_end``, BENCHMARK.json's metric
    list (name, better, bound)."""
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                  for s in SIDES}
        wins = {s: 0 for s in SIDES}
        for a, b in zip(values["parent"], values["change"]):
            if a != b:
                wins["change" if sign * (b - a) > 0 else "parent"] += 1
        med = {s: statistics.median(values[s]) for s in SIDES}
        rel = ((med["change"] - med["parent"]) / med["parent"]
               if med["parent"] else None)
        metrics[name] = {
            "better": m["better"], "bound": m["bound"],
            "relative_change": rel,
            **{s: {"median": med[s], "iqr": _iqr(values[s]),
                   "wins": wins[s], "values": values[s]} for s in SIDES},
        }
    losses = {struct.pack("<d", p[s]["metrics"]["final_loss"]["value"])
              for p in pairs for s in SIDES}
    first = pairs[0]
    return {
        "pairs": len(pairs),
        "final_loss_bitwise_equal": len(losses) == 1,
        "src_sha256": {s: first[s]["machine"]["src_sha256"] for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "machine": {k: v for k, v in first["change"]["machine"].items()
                    if k not in ("git_commit", "src_sha256")},
        "metrics": metrics,
    }


def print_summary(workload, summary):
    print(f"{workload}: {summary['pairs']} pairs, final_loss bitwise equal: "
          f"{summary['final_loss_bitwise_equal']}, failed "
          f"{summary['failed']['parent']}/{summary['failed']['change']}")
    print(f"  {'metric':12s} {'parent [IQR]':>22s} {'change [IQR]':>22s} "
          f"{'change':>8s} {'wins p/c':>9s} {'bound':>6s}")
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        rel = m["relative_change"]
        print(f"  {name:12s} {p['median']:11.5g} [{p['iqr']:8.3g}] "
              f"{c['median']:11.5g} [{c['iqr']:8.3g}] "
              f"{'n/a' if rel is None else f'{rel:+.1%}':>8s} "
              f"{p['wins']:4d}/{c['wins']:<4d} {m['bound']:6g}")


def _in_file(summary, name) -> tuple:
    """A record's own pairs for one metric: (relative change or None,
    parent wins, change wins, pairs)."""
    m = summary["metrics"][name]
    return (m["relative_change"], m["parent"]["wins"], m["change"]["wins"],
            summary["pairs"])


def compare(a, b, end_to_end) -> list:
    """One row per workload and end-to-end metric that records ``a`` and
    ``b`` both hold: (workload, metric, a's change-side median, b's, b's
    relative change or None, whether it moved past the bound in the worse
    direction, a's in-file pairs, b's in-file pairs; see ``_in_file``)."""
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        for m in end_to_end:
            name = m["name"]
            if name not in ma or name not in mb:
                continue
            va, vb = ma[name]["change"]["median"], mb[name]["change"]["median"]
            rel = (vb - va) / va if va else None
            sign = 1 if m["better"] == "lower" else -1
            rows.append((workload, name, va, vb, rel,
                         rel is not None and sign * rel > m["bound"],
                         _in_file(a["workloads"][workload], name),
                         _in_file(b["workloads"][workload], name)))
    return rows


def _rel(rel) -> str:
    return "n/a" if rel is None else f"{rel:+.1%}"


def print_compare(rows):
    print(f"{'workload':10s} {'metric':12s} {'A':>11s} {'B':>11s} "
          f"{'A to B':>8s} {'in A':>8s} {'wins p/c':>11s} {'in B':>8s} "
          f"{'wins p/c':>11s}")
    for workload, name, va, vb, rel, flagged, in_a, in_b in rows:
        pairs = "".join(f" {_rel(r):>8s} {f'{p}/{c} of {n}':>11s}"
                        for r, p, c, n in (in_a, in_b))
        print(f"{workload:10s} {name:12s} {va:11.5g} {vb:11.5g} "
              f"{_rel(rel):>8s}{pairs}"
              f"{'  WORSE PAST BOUND' if flagged else ''}")
    print("Only the in-file pairs (in A, in B) support a claim; A to B "
          "compares runs made at different times and carries the host's "
          "drift.")


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as f:
                records.append(json.load(f))
        print_compare(compare(*records, bench["end_to_end"]))
        return 0
    perfbench = _archive("HEAD", "perfbench")
    parent_src = _archive(args.against, "src")
    os.makedirs(args.work_dir, exist_ok=True)
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(args, bench["run_seconds"], perfbench,
                               parent_src, side)
                for side in order}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first) done", flush=True)
    summary = summarize(pairs, bench["end_to_end"])
    summary["against"] = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", args.against], check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip()
    print_summary(args.workload, summary)
    record = {}
    if os.path.exists(args.record):
        with open(args.record) as f:
            record = json.load(f)
    record.setdefault("workloads", {})[args.workload] = summary
    with open(args.record, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
