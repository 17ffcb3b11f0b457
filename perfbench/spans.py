"""Outside-in span tracing of the hagcn package.

``Tracer.install`` replaces public functions and methods of every hagcn
module with thin wrappers that record a span (name, start, end, parent) per
call; ``uninstall`` puts every original back. Nothing under ``src/`` is
edited: the wrappers are module and class attributes swapped at run time.

The autodiff engine builds backward closures inside ``tensor._make``. The
tracer also swaps that private hook so each closure is wrapped too. A
backward span keeps a link to the forward op span that created it (its
*origin*), so backward time is charged to the layer path that was active in
the forward pass.

Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import statistics
import threading
from time import perf_counter

import numpy as np

# Private functions wrapped by name when they exist: training-loop
# validation has no public entry point at this commit.
EXTRA_PRIVATE = {"training": ("_val_top1",)}

# Tensor functions that are not autodiff ops.
NON_OPS = {"as_tensor", "backward", "grad_check"}

SERIALIZE_READ = {"read_tensor", "read_string", "read_json_block",
                  "read_named_tensors", "load_tensor"}
SERIALIZE_WRITE = {"write_tensor", "write_string", "write_json_block",
                   "write_named_tensors", "save_tensor"}

_MARK = "__perfbench_traced__"


class Span:
    __slots__ = ("name", "path", "t0", "t1", "parent", "origin", "info",
                 "phase", "backward", "full")

    def __init__(self, name, parent, phase, path=None, origin=None,
                 backward=False):
        self.name = name
        self.path = path
        self.parent = parent
        self.origin = origin
        self.phase = phase
        self.backward = backward
        self.info = None
        self.full = None
        self.t0 = self.t1 = 0.0

    @property
    def dur(self):
        return self.t1 - self.t0


def _shape(x):
    return getattr(getattr(x, "data", x), "shape", ())


def _conv_info(args, kwargs, out):
    x = kwargs["x"] if "x" in kwargs else args[0]
    w = kwargs["w"] if "w" in kwargs else args[1]
    _, c_in, k_t, k_v = _shape(w)
    y = out.data.size
    return {"flops": 2 * y * c_in * k_t * k_v, "kt": k_t,
            "x": math.prod(_shape(x)), "w": math.prod(_shape(w)), "y": y}


def _matmul_info(args, kwargs, out):
    a = kwargs["a"] if "a" in kwargs else args[0]
    return {"flops": 2 * out.data.size * _shape(a)[-1]}


def _read_tensor_info(args, kwargs, arr):
    return {"bytes": arr.nbytes + 12 + 8 * arr.ndim}


def _write_tensor_info(args, kwargs, _):
    arr = np.asarray(kwargs["arr"] if "arr" in kwargs else args[1])
    return {"bytes": arr.size * 8 + 12 + 8 * arr.ndim}


ANNOTATE = {
    "tensor.conv2d": _conv_info,
    "tensor.matmul": _matmul_info,
    "serialize.read_tensor": _read_tensor_info,
    "serialize.write_tensor": _write_tensor_info,
}


def package_modules(package):
    """Import and return every submodule of ``package``, keyed by short name."""
    mods = {}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


class Tracer:
    """Span recorder installed over a package's public callables.

    ``names`` restricts wrapping to the given span names, with no backward
    closures; the untraced run uses that to time optimizer steps and eval
    batches without tracing anything else.
    """

    def __init__(self, package, names=None):
        self.modules = package_modules(package)
        self.names = None if names is None else set(names)
        self.spans = []
        self.phase = "run"
        self.paths = {}
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = None
        self._patches = []

    # -- span stacks --------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread with nothing open yet works for whatever span the
        # installing thread is blocked in (accumulate_gradients' pool).
        return self._main_stack[-1] if self._main_stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, method):
        tracer = self
        annotate = ANNOTATE.get(name)
        register = name == "network.Model.forward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            path = None
            if method:
                if register:
                    tracer._register_paths(args[0])
                path = tracer.paths.get(id(args[0]))
            span = Span(name, tracer._parent(stack), tracer.phase, path=path)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _wrap_backward(self, fn, origin):
        tracer = self

        def traced_backward(g):
            stack = tracer._stack()
            span = Span(origin.name if origin else "tensor.?",
                        tracer._parent(stack), tracer.phase,
                        origin=origin, backward=True)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                return fn(g)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced_backward

    def _register_paths(self, model):
        for i, block in enumerate(model.blocks):
            self.paths[id(block)] = f"blocks.{i}"

    # -- install / uninstall ------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, function, is_method) to wrap."""
        for short, mod in self.modules.items():
            extra = EXTRA_PRIVATE.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in extra):
                    if not inspect.isgeneratorfunction(obj):
                        yield f"{short}.{attr}", mod, attr, obj, False
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for mname, meth in list(vars(obj).items()):
                        if (mname.startswith("_") or not inspect.isfunction(meth)
                                or inspect.isgeneratorfunction(meth)):
                            continue
                        yield f"{short}.{attr}.{mname}", obj, mname, meth, True

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        self._main_ident = threading.get_ident()
        for name, owner, attr, fn, method in list(self._targets()):
            if self.names is not None and name not in self.names:
                continue
            wrapped = self._wrap(name, fn, method)
            self._patch(owner, attr, wrapped)
            if method:
                continue
            # names imported elsewhere with ``from .x import f``
            for mod in self.modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, alias, wrapped)
        if self.names is None:
            tensor = self.modules["tensor"]
            make = tensor._make
            tracer = self

            def traced_make(data, parents, backward_fn):
                out = make(data, parents, backward_fn)
                if out._backward is not None:
                    stack = tracer._stack()
                    origin = stack[-1] if stack else None
                    out._backward = tracer._wrap_backward(out._backward, origin)
                return out

            setattr(traced_make, _MARK, True)
            self._patch(tensor, "_make", traced_make)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self):
        """Names of package attributes still wrapped; empty after uninstall."""
        left = []
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, _MARK, False):
                    left.append(f"{short}.{attr}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    left.extend(f"{short}.{attr}.{m}" for m, v in vars(obj).items()
                                if getattr(v, _MARK, False))
        return left

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# turning spans into metrics


def pair_steps(spans):
    """Wall time of each optimizer step: accumulate_gradients start to the
    end of the SGD.step that follows it, on the calling thread."""
    accs = sorted((s for s in spans if s.name == "training.accumulate_gradients"),
                  key=lambda s: s.t0)
    steps = sorted((s for s in spans if s.name == "training.SGD.step"),
                   key=lambda s: s.t0)
    out = []
    j = 0
    for a in accs:
        while j < len(steps) and steps[j].t0 < a.t1:
            j += 1
        if j < len(steps):
            out.append(steps[j].t1 - a.t0)
            j += 1
    return out


def tail_percentile(samples, min_beyond=10):
    """Highest of p50/75/90/95/99 with at least ``min_beyond`` samples above
    it; falls back to p50 when there are too few samples. Returns (p, value).
    """
    xs = sorted(samples)
    n = len(xs)
    best = 50
    for p in (75, 90, 95, 99):
        if n - int(n * p / 100) >= min_beyond:
            best = p
    if n == 0:
        return best, 0.0
    if n == 1:
        return best, xs[0]
    return best, statistics.quantiles(xs, n=100, method="inclusive")[best - 1]


def _own_tags(s):
    name = s.name
    tags = {name}
    parent = s.parent.name if s.parent is not None else ""
    if name == "network.Block.forward" and s.path:
        tags.add("network.block." + s.path.split(".")[1])
    elif name == "attention.BranchCompression.forward":
        tags.add("attention.compression")
    elif name == "attention.HybridSpatialAttention.forward":
        tags.add("attention.spatial")
    elif name == "layers.BatchNorm.forward":
        tags.add("layers.batch_norm")
    elif name.startswith("serialize."):
        leaf = name.split(".", 1)[1]
        if leaf in SERIALIZE_READ:
            tags.add("serialize.read")
        elif leaf in SERIALIZE_WRITE:
            tags.add("serialize.write")
    elif name.startswith("tensor.") and name[7:] not in NON_OPS \
            and not name.startswith("tensor.Tensor."):
        if parent == "attention.SubsetAttention.final_mask" and name == "tensor.conv2d":
            tags.add("attention.ext_conv")
        elif parent == "attention.SubsetAttention.forward":
            if name == "tensor.conv2d":
                tags.add("attention.value_proj")
            elif name in ("tensor.matmul", "tensor.transpose"):
                tags.add("attention.aggregate")
        elif parent == "temporal.TemporalBranch.forward" and name == "tensor.conv2d":
            kt = (s.info or {}).get("kt", 1)
            tags.add("temporal.reduce" if kt == 1 else "temporal.dilated")
        elif parent == "network.Block.forward":
            tags.add("network.residual")
        elif parent == "network.Model.forward":
            tags.add("network.head")
    return tags


def _full_tags(s):
    if s is None:
        return frozenset()
    if s.full is None:
        s.full = frozenset(_own_tags(s)) | _full_tags(s.parent)
    return s.full


def _covered(spans):
    """Length of the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s.t0):
        if s.t1 > end:
            total += s.t1 - max(s.t0, end)
            end = s.t1
    return total


class _Sums:
    """Forward, backward, self time and counts per tag over a set of spans."""

    def __init__(self, spans):
        self.fwd = {}
        self.bwd = {}
        self.calls = {}
        self.flops = {}
        self.bytes = {}
        self.self_s = {}
        children = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        self.children = children
        for s in spans:
            if s.backward:
                origin = s.origin
                for tag in _full_tags(origin):
                    self.bwd[tag] = self.bwd.get(tag, 0.0) + s.dur
                info = origin.info if origin is not None else None
                if info and "flops" in info:
                    self.flops[s.name] = self.flops.get(s.name, 0) + 2 * info["flops"]
                if info and "x" in info:
                    nbytes = 8 * (2 * info["x"] + 2 * info["w"] + info["y"])
                    self.bytes[s.name] = self.bytes.get(s.name, 0) + nbytes
                continue
            inherited = _full_tags(s.parent)
            for tag in _own_tags(s):
                if tag not in inherited:
                    self.fwd[tag] = self.fwd.get(tag, 0.0) + s.dur
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.self_s[s.name] = (self.self_s.get(s.name, 0.0) + s.dur
                                   - _covered(children.get(id(s), ())))
            info = s.info
            if info:
                if "flops" in info:
                    self.flops[s.name] = self.flops.get(s.name, 0) + info["flops"]
                if "x" in info:
                    nbytes = 8 * (info["x"] + info["w"] + info["y"])
                    self.bytes[s.name] = self.bytes.get(s.name, 0) + nbytes
                if "bytes" in info:
                    self.bytes[s.name] = self.bytes.get(s.name, 0) + info["bytes"]


TENSOR_OPS = ("conv2d", "matmul", "batch_norm", "layer_norm", "tanh", "relu",
              "add", "mul", "sub", "tmean", "reshape", "transpose", "concat")
ATTENTION_PARTS = ("compression", "rd_mask", "ra_mask", "ext_conv",
                   "value_proj", "aggregate", "spatial")
MAX_BLOCKS = 10

# Layers that only run while setting up on some workloads; when the measured
# commands never reach them they are reported per traced set-up instead.
SETUP_SIDE = ("cli.prepare_s", "cli.train_s", "ingest.save_cache_s",
              "network.save_checkpoint_s", "serialize.write_s",
              "serialize.write_mb_per_s")


def _raw_metrics(spans, threads):
    """Per-layer totals over ``spans`` (not yet divided per iteration)."""
    t = _Sums(spans)
    m = {}
    for op in TENSOR_OPS:
        key = f"tensor.{op}"
        m[f"{key}.fwd_s"] = t.fwd.get(key, 0.0)
        m[f"{key}.bwd_s"] = t.bwd.get(key, 0.0)
        m[f"{key}.calls"] = t.calls.get(key, 0)
    m["tensor.backward.self_s"] = t.self_s.get("tensor.backward", 0.0)
    for op in ("conv2d", "matmul"):
        key = f"tensor.{op}"
        busy = t.fwd.get(key, 0.0) + t.bwd.get(key, 0.0)
        m[f"{key}.gflops_per_s"] = t.flops.get(key, 0) / busy / 1e9 if busy else 0.0
    m["tensor.conv2d.mbytes"] = t.bytes.get("tensor.conv2d", 0) / 1e6

    def fb(tag):
        m[f"{tag}.fwd_s"] = t.fwd.get(tag, 0.0)
        m[f"{tag}.bwd_s"] = t.bwd.get(tag, 0.0)

    for part in ATTENTION_PARTS:
        fb(f"attention.{part}")
    fb("temporal.reduce")
    fb("temporal.dilated")
    fb("layers.batch_norm")
    m["layers.batch_norm.stats_s"] = (t.self_s.get("layers.BatchNorm.forward", 0.0)
                                      + t.fwd.get("layers.BatchNorm.apply_stats", 0.0))
    for i in range(MAX_BLOCKS):
        fb(f"network.block.{i}")
    fb("network.residual")
    fb("network.head")
    m["network.save_checkpoint_s"] = t.fwd.get("network.save_checkpoint", 0.0)
    m["network.load_checkpoint_s"] = t.fwd.get("network.load_checkpoint", 0.0)

    # training loop
    run = [s for s in spans if not s.backward]
    accs = [s for s in run if s.name == "training.accumulate_gradients"]
    val_names = ("training._val_top1", "evaluation.score_dataset")
    m["training.assemble_s"] = sum(
        s.dur for s in run if s.name == "ingest.assemble_batch"
        and "training.train" in _full_tags(s)
        and not any(v in _full_tags(s) for v in val_names))
    m["training.forward_s"] = sum(
        s.dur for s in run if s.name == "network.Model.forward"
        and "training.accumulate_gradients" in _full_tags(s))
    m["training.backward_s"] = sum(
        s.dur for s in run if s.name == "tensor.backward"
        and "training.accumulate_gradients" in _full_tags(s))
    merge = 0.0
    busy = 0.0
    for a in accs:
        kids = t.children.get(id(a), ())
        ends = [k.t1 for k in kids if k.name == "tensor.backward"]
        if ends:
            merge += a.t1 - max(ends)
        busy += sum(k.dur for k in kids if k.name != "layers.BatchNorm.apply_stats")
    wall = sum(a.dur for a in accs)
    m["training.merge_s"] = merge
    m["training.sgd_s"] = t.fwd.get("training.SGD.step", 0.0)
    m["training.val_s"] = sum(
        s.dur for s in run if s.name in val_names
        and "training.train" in _full_tags(s.parent)
        and not any(v in _full_tags(s.parent) for v in val_names))
    m["training.shard_idle_share"] = 1.0 - busy / (threads * wall) if wall else 0.0

    m["ingest.load_cache_s"] = t.fwd.get("ingest.load_cache", 0.0)
    m["ingest.assemble_batch_s"] = t.fwd.get("ingest.assemble_batch", 0.0)
    m["ingest.save_cache_s"] = t.fwd.get("ingest.save_cache", 0.0)
    for kind, tensor_fn in (("read", "read_tensor"), ("write", "write_tensor")):
        secs = t.fwd.get(f"serialize.{kind}", 0.0)
        nbytes = t.bytes.get(f"serialize.{tensor_fn}", 0)
        m[f"serialize.{kind}_s"] = secs
        m[f"serialize.{kind}_mb_per_s"] = nbytes / 1e6 / secs if secs else 0.0
    m["evaluation.score_dataset_s"] = t.fwd.get("evaluation.score_dataset", 0.0)
    m["evaluation.ablation_s"] = t.fwd.get("evaluation.ablation_report", 0.0)
    m["evaluation.fuse_s"] = t.fwd.get("evaluation.fuse_scores", 0.0)
    for verb in ("prepare", "train", "eval", "fuse", "ablate"):
        m[f"cli.{verb}_s"] = t.fwd.get(f"cli.cmd_{verb}", 0.0)
    return m


# Metrics that are ratios or rates, not totals: never divided per iteration.
_RATES = ("gflops_per_s", "mb_per_s", "shard_idle_share")


def layer_metrics(spans, iterations, threads):
    """Per-layer metrics per measured iteration, plus set-up-side fallbacks.

    ``spans`` holds both the traced set-up (phase ``setup``, one set-up) and
    the traced iterations (phase ``run``).
    """
    run = [s for s in spans if s.phase == "run"]
    setup = [s for s in spans if s.phase == "setup"]
    per_run = _raw_metrics(run, threads)
    per_setup = _raw_metrics(setup, threads)
    out = {}
    for key, value in per_run.items():
        if not key.endswith(_RATES):
            value = value / iterations
        if not value and key in SETUP_SIDE:
            value = per_setup[key]
        out[key] = value
    steps = pair_steps(run)
    pct, tail = tail_percentile(steps)
    out["training.step_s_tail"] = tail
    out["training.step_s_tail_pct"] = pct if steps else 0
    out["training.step_count"] = len(steps)
    return out


def unit_of(key):
    """(unit, better) of a per-layer metric."""
    if key.endswith(".calls"):
        return "count", "lower"
    if key == "training.step_count":
        return "count", "higher"
    if key.endswith("_pct"):
        return "%", "higher"
    if key.endswith("gflops_per_s"):
        return "GFLOP/s", "higher"
    if key.endswith("mb_per_s"):
        return "MB/s", "higher"
    if key.endswith(".mbytes"):
        return "MB", "lower"
    if key.endswith(("_share", "_ratio")):
        return "ratio", "lower"
    return "s", "lower"


def per_layer_names():
    """Every per-layer metric name, in report order."""
    return list(layer_metrics([], 1, 1)) + ["trace.overhead_ratio"]
