"""One benchmark run of one workload: set-up, measured iterations, checks.

Imported by run.py after the BLAS and HAGCN_THREADS environment is pinned,
because numpy fixes its BLAS thread count on import.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import hagcn
from hagcn import cli
from spans import Tracer, layer_metrics, pair_steps, per_layer_names, \
    tail_percentile, unit_of
from workloads import WORKLOADS, Checks, Env

# Spans the untraced run keeps: enough to time steps and eval batches.
TIMED = ("training.accumulate_gradients", "training.SGD.step",
         "network.Model.forward")

END_TO_END = (("setup_s", "s"), ("seqs_per_s", "1/s"), ("step_s_p50", "s"),
              ("final_loss", "nats"), ("peak_rss_mb", "MB"))

# Iterations per untraced run, whatever --seconds says: the second one is
# what the repeat-determinism checks compare against.
MIN_OPS = 2

# Set-up runs at least this often, and cheap set-ups (a few ms of cache
# writes) repeat until they have taken this long: the host's speed drifts
# over seconds, and a median over a longer window drifts less.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 400


# ---------------------------------------------------------------------------
# machine record


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(root):
    """sha256 over the package sources, for checkouts that are not git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_info(root, wl, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "hagcn_threads": int(os.environ["HAGCN_THREADS"]),
        "shards_per_step": wl.shards,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "workload": wl.name,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def _setups(wl, env, repeats, min_seconds=0.0, max_repeats=1):
    """Run set-up at least ``repeats`` times, and more (up to ``max_repeats``)
    until ``min_seconds`` are spent; every repeat must write the same bytes."""
    times, ref = [], None
    while len(times) < repeats or (sum(times) < min_seconds
                                   and len(times) < max_repeats):
        t0 = perf_counter()
        got = wl.setup(env)
        times.append(perf_counter() - t0)
        if ref is None:
            ref = got
        else:
            env.checks.expect(got == ref, f"set-up repeat wrote different files: "
                                          f"{sorted(k for k in ref if ref[k] != got.get(k))}")
    return times, ref


def _same_outputs(env, first, res, what):
    env.checks.expect(res.outputs and res.outputs == first.outputs,
                      f"{what} differ: "
                      f"{sorted(k for k in first.outputs if first.outputs[k] != res.outputs.get(k))}")


def timed_run(wl, env, seconds):
    setup_times, _ = _setups(wl, env, SETUP_REPEATS, SETUP_MIN_SECONDS,
                             SETUP_MAX_REPEATS)
    wl.check_setup(env)
    timer = Tracer(hagcn, names=TIMED)
    ops = []
    start = perf_counter()
    while True:
        with timer:
            wall = wl.op(env)
        res = wl.result(env, wall)
        if ops:
            _same_outputs(env, ops[0], res, "repeated outputs")
        ops.append(res)
        walls = [o.wall for o in ops]
        if (len(ops) >= MIN_OPS
                and perf_counter() - start + statistics.median(walls) > seconds):
            break
    if wl.kind == "train":
        steps = pair_steps(timer.spans)
        env.checks.expect(len(steps) == sum(o.steps for o in ops),
                          f"timed {len(steps)} steps, ran {sum(o.steps for o in ops)}")
    else:
        steps = [s.dur for s in timer.spans if s.name == "network.Model.forward"]
    pct, tail = tail_percentile(steps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "seqs_per_s": (statistics.median(o.seqs / o.wall for o in ops), len(ops)),
        "step_s_p50": (statistics.median(steps) if steps else 0.0, len(steps)),
        "final_loss": (ops[0].loss, len(ops)),
        "peak_rss_mb": (rss_mb, 1),
    }
    extra = {"ops": len(ops), "op_walls": walls, "setup_times": setup_times,
             "step_s_tail": tail, "step_s_tail_pct": pct, "steps": len(steps),
             "steps_per_op": len(steps) // len(ops)}
    return metrics, extra, sum(o.steps for o in ops)


def traced_run(wl, env, seconds):
    _, ref = _setups(wl, env, 1)
    tracer = Tracer(hagcn)
    tracer.phase = "setup"
    with tracer:
        got = wl.setup(env)
    env.checks.expect(got == ref, "traced set-up wrote different files")
    wl.check_setup(env)
    tracer.phase = "run"
    # The first iteration in a process runs slower (fresh allocations), so an
    # untraced warm-up iteration comes first and only later pairs are compared.
    first = wl.result(env, wl.op(env))
    plain, traced = [], []
    start = perf_counter()
    while True:
        with tracer:
            wall = wl.op(env)
        b = wl.result(env, wall)
        a = wl.result(env, wl.op(env))
        _same_outputs(env, first, b, "traced outputs")
        _same_outputs(env, first, a, "repeated outputs")
        plain.append(a.wall)
        traced.append(b.wall)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    left = tracer.leftover_wrappers()
    env.checks.expect(not left, f"wrappers left installed: {left[:5]}")
    values = layer_metrics(tracer.spans, len(traced),
                           int(os.environ["HAGCN_THREADS"]))
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {k: (values[k], len(traced)) for k in per_layer_names()}
    extra = {"ops": len(traced), "plain_walls": plain, "traced_walls": traced,
             "warmup_wall": first.wall, "spans": len(tracer.spans)}
    return metrics, extra, first.steps * (1 + 2 * len(traced))


def run(args, root, result_file):
    wl = WORKLOADS[args.workload]
    machine = machine_info(root, wl, args.seed)
    blas = machine["blas_threads"] or int(os.environ["OPENBLAS_NUM_THREADS"])
    if machine["hagcn_threads"] * blas > machine["nproc"]:
        print(f"perfbench: error: {machine['hagcn_threads']} shard threads x {blas} BLAS "
              f"threads exceeds {machine['nproc']} cores", file=sys.stderr)
        return 2
    print(f"perfbench {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("machine " + json.dumps(machine, sort_keys=True))

    work = os.path.join(root, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    env = Env(cli, work, args.seed, checks)
    try:
        body = traced_run if args.trace else timed_run
        metrics, extra, steps = body(wl, env, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(END_TO_END) if not args.trace else {k: unit_of(k)[0] for k in metrics}
    attempted = env.commands + steps
    failed = min(len(checks.failures), attempted)
    print(f"{'metric':34s} {'value':>14s} {'unit':>8s}  samples")
    for key, (value, n) in metrics.items():
        print(f"{key:34s} {value:14.6g} {units[key]:>8s}  {n}")
    if not args.trace:
        print(f"step tail: p{extra['step_s_tail_pct']} = {extra['step_s_tail']:.6g} s "
              f"over {extra['steps']} steps")
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for what in checks.failures:
        print(f"  FAILED: {what}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")

    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine,
        "correct": not checks.failures, "attempted": attempted, "failed": failed,
        "checks_passed": checks.passed, "check_failures": checks.failures,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "extra": extra,
    }
    os.makedirs(os.path.dirname(result_file), exist_ok=True)
    with open(result_file, "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, (v, _) in metrics.items()}}))
    return 0
