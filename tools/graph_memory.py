#!/usr/bin/env python3
"""Print the MiB that backward closures hold after one training forward.

``--model desk`` builds the desk stack (channels 8, 8, 16, 16; strides 1, 1,
2, 1; 8 classes) on 16 synthetic sequences, one desk_train batch. ``--model
ntu`` builds the default NTU stack with 60 classes on 2 sequences, one
ntu_train shard. Sequences have 64 frames. The tool runs one training
forward and the loss, then walks the graph in the order ``backward`` would.
Every array a node's closure can reach (through its cells, default values,
nested functions, tuples and lists) is charged to the op that made
the closure, named by the closure's qualified name (``matmul`` for
``matmul.<locals>.back``). A view counts as its base array, each base counts
once, for the first op that reaches it, and parameter and buffer arrays are
not counted. The count is what the closures hold at the end of the forward
pass: every rebuilt array, a replay or a norm's x̂ rebuild, is cached on
its first call during the walk and held until the last closure that can
call it has run, and those cached arrays are not counted:

    python3 tools/graph_memory.py --model ntu

``--arrays N`` then lists the N largest groups of kept arrays, one row per
op, dtype and shape with the group's array count and MiB, so a reader can
see what is left to replay:

    python3 tools/graph_memory.py --model desk --arrays 12
"""

from __future__ import annotations

import argparse
import os
import sys
import types

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hagcn import tensor as T  # noqa: E402
from hagcn.graph import build_graph  # noqa: E402
from hagcn.ingest import assemble_batch  # noqa: E402
from hagcn.network import Model, ModelConfig  # noqa: E402
from hagcn.training import cross_entropy, make_synthetic  # noqa: E402

FRAMES = 64
# model -> (ModelConfig fields beside the graph, sequences in the batch)
MODELS = {
    "desk": ({"num_classes": 8, "channels": (8, 8, 16, 16),
              "strides": (1, 1, 2, 1), "dropout": 0.0}, 16),
    "ntu": ({"num_classes": 60}, 2),
}


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _reachable(fn):
    """Every object reachable from a closure through its cells, default
    values, nested functions, tuples and lists."""
    stack, seen = [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)


def _arrays(fn):
    """Every ndarray reachable from a closure."""
    return (obj for obj in _reachable(fn) if isinstance(obj, np.ndarray))


def kept_arrays(loss, skip=()):
    """``(op name, base array)`` for every array the closures of ``loss``'s
    graph hold, each base once, for the first op in backward order that
    reaches it, and none that shares a base with an array in ``skip``."""
    seen = {id(_base(arr)) for arr in skip}
    for node in reversed(T._topo(loss.node)):
        if node.backward is None:  # a leaf
            continue
        op = node.backward.__qualname__.split(".")[0]
        for arr in _arrays(node.backward):
            base = _base(arr)
            if id(base) not in seen:
                seen.add(id(base))
                yield op, base


def held_bytes(loss, skip=()) -> dict:
    """{op name: bytes} held by the closures of ``loss``'s graph, counting
    no array that shares a base with one in ``skip``."""
    held = {}
    for op, base in kept_arrays(loss, skip):
        held[op] = held.get(op, 0) + base.nbytes
    return held


def largest_arrays(loss, count: int, skip=()) -> list:
    """The ``count`` largest ``(op, dtype, shape)`` groups of kept arrays,
    as ``(op, dtype, shape, arrays, bytes)`` rows, most bytes first."""
    groups = {}
    for op, base in kept_arrays(loss, skip):
        key = (op, base.dtype.name, base.shape)
        arrays, nbytes = groups.get(key, (0, 0))
        groups[key] = (arrays + 1, nbytes + base.nbytes)
    rows = [key + value for key, value in groups.items()]
    return sorted(rows, key=lambda row: -row[4])[:count]


def training_loss(model, seqs):
    """One training forward of ``seqs`` and its mean cross entropy."""
    x, labels = assemble_batch(seqs, model.config.graph, max_frames=FRAMES)
    logits = model.forward(x, training=True, rng=np.random.default_rng(0),
                           stats_sink=[])
    return cross_entropy(logits, labels)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--model", default="desk", choices=sorted(MODELS))
    p.add_argument("--arrays", type=int, default=0, metavar="N",
                   help="also list the N largest groups of kept arrays")
    args = p.parse_args(argv)
    fields, count = MODELS[args.model]
    model = Model(ModelConfig(graph=build_graph("ntu25"), **fields), seed=0)
    seqs = make_synthetic(2, frames=FRAMES, seed=0)[:count]
    state = [p.data for _, p in model.named_params()]
    state += [b for _, b in model.named_buffers()]
    loss = training_loss(model, seqs)
    held = held_bytes(loss, skip=state)
    print(f"model {args.model}  {count} sequences of {FRAMES} frames")
    for op, nbytes in sorted(held.items(), key=lambda kv: -kv[1]):
        print(f"{op:<12} {nbytes / 2**20:8.1f} MiB")
    print(f"{'total':<12} {sum(held.values()) / 2**20:8.1f} MiB")
    if args.arrays > 0:
        print(f"\n{'op':<12} {'dtype':<8} {'shape':<20} {'count':>5} "
              f"{'MiB':>8}")
        for op, dtype, shape, arrays, nbytes in largest_arrays(
                loss, args.arrays, skip=state):
            print(f"{op:<12} {dtype:<8} {str(shape):<20} {arrays:>5} "
                  f"{nbytes / 2**20:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
