import ast
import importlib.util
import math
import os
import sys
import weakref

import numpy as np

from hagcn import network as N
from hagcn import tensor as T
from hagcn.graph import build_graph
from hagcn.tensor import Tensor
from hagcn.training import make_synthetic
from test_network import tiny_config, tiny_input

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "graph_memory.py")
spec = importlib.util.spec_from_file_location("graph_memory", TOOL)
gm = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gm)


def test_counts_each_base_once_and_skips_state():
    x = np.ones((6, 4))
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    # both products save a view of x for w's gradient; x counts once, whole
    y = T.add(T.matmul(Tensor(x[:3]), w), T.matmul(Tensor(x[3:]), w))
    assert gm.held_bytes(T.tsum(y), skip=[w.data]) == {"matmul": x.nbytes}


def test_tiny_model_charges_the_block_ops():
    model = N.Model(tiny_config(), seed=0)
    logits = model.forward(tiny_input(np.random.default_rng(0)),
                           training=True, stats_sink=[])
    held = gm.held_bytes(T.tsum(logits),
                         skip=[p.data for _, p in model.named_params()])
    for op in ("conv2d", "matmul", "batch_norm", "layer_norm", "tanh"):
        assert held[op] > 0


def test_prints_a_table_with_a_total(capsys):
    assert gm.main(["--model", "desk"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "model desk  16 sequences of 64 frames"
    assert lines[-1].split()[0] == "total" and float(lines[-1].split()[1]) > 0
    assert all(line.endswith(" MiB") for line in lines[1:])


def total_mib(capsys, model):
    assert gm.main(["--model", model]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total"
    return float(total[1])


def test_desk_batch_stays_under_100_mib(capsys):
    # 92.3 MiB with every replay, 141.5 MiB when the layer norms keep their
    # normalised inputs; the shapes are fixed, so the count is deterministic
    assert total_mib(capsys, "desk") < 100


def test_ntu_shard_stays_under_215_mib(capsys):
    # 210.4 MiB with every replay, 243.8 MiB when the layer norms keep theirs
    assert total_mib(capsys, "ntu") < 215


def test_arrays_lists_no_normalised_input(capsys):
    assert gm.main(["--model", "desk", "--arrays", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    head = lines.index("") + 1
    assert lines[head].split() == ["op", "dtype", "shape", "count", "MiB"]
    rows = []
    for line in lines[head + 1:]:
        op, dtype, rest = line.split(maxsplit=2)
        shape, count, mib = rest.rsplit(maxsplit=2)
        rows.append((op, ast.literal_eval(shape), int(count), float(mib)))
    assert len(rows) > 10 and rows[0][3] >= rows[-1][3]
    # a layer norm keeps its per-sample mean and ivar and conv weight
    # copies for the replay, no array the size of one (T, V) frame plane
    norm = [shape for op, shape, _, _ in rows if op == "layer_norm"]
    assert (32, 1, 1, 1) in norm
    assert all(math.prod(shape) < 32 * 25 for shape in norm), norm


def test_largest_arrays_groups_by_op_dtype_and_shape():
    x = np.ones((6, 4))
    w = Tensor(np.ones((4, 2)), requires_grad=True)
    y = T.add(T.matmul(Tensor(np.ones((3, 4))), w),
              T.matmul(Tensor(x[:3]), w))
    rows = gm.largest_arrays(T.tsum(y), 5, skip=[w.data])
    assert rows == [("matmul", "float64", (6, 4), 1, x.nbytes),
                    ("matmul", "float64", (3, 4), 1, 96)]
    assert gm.largest_arrays(T.tsum(y), 1, skip=[w.data]) == rows[:1]


def desk_model():
    fields, _ = gm.MODELS["desk"]
    return N.Model(N.ModelConfig(graph=build_graph("ntu25"), **fields), seed=0)


def desk_grads(keep_input_bn, seqs):
    """Gradients of a desk training step, and whether the input batch norm's
    output array outlives the forward; ``keep_input_bn`` clears that output's
    replay, so the convs reading it keep it."""
    model = desk_model()
    data_bn, refs = model.data_bn.forward, []

    def spy(*args, **kw):
        y = data_bn(*args, **kw)
        if keep_input_bn:
            y.replay = None
        refs.append(weakref.ref(y.data))
        return y

    model.data_bn.forward = spy
    loss = gm.training_loss(model, seqs)
    alive = refs[0]() is not None
    grads = T.backward(loss)
    return alive, [grads[p.node] for _, p in model.named_params()]


def test_desk_input_norm_output_dies_after_forward():
    seqs = make_synthetic(2, frames=16, seed=0)[:4]
    alive, got = desk_grads(False, seqs)
    assert not alive
    kept, want = desk_grads(True, seqs)
    assert kept
    assert len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


def compression_grads(monkeypatch, keep_conv, seqs):
    """Gradients of a desk training step, and which of every attention
    compression's conv output, normalised input x̂ and layer-norm output
    outlive the forward; ``keep_conv`` clears the conv outputs' replays,
    so each layer norm keeps its x̂."""
    model = desk_model()
    layer_norm, moments, refs = T.layer_norm, T._moments, []

    def norm_spy(x, *args, **kw):
        if keep_conv:
            x.replay = None
        y = layer_norm(x, *args, **kw)
        refs[-1][0] = weakref.ref(x.data)
        refs[-1].append(weakref.ref(y.data))
        return y

    def moments_spy(xd, axes, count):
        out = moments(xd, axes, count)
        if axes == (1, 2, 3):  # a layer norm's x̂ is its centred input
            refs.append([None, weakref.ref(out[1])])
        return out

    monkeypatch.setattr(T, "layer_norm", norm_spy)
    monkeypatch.setattr(T, "_moments", moments_spy)
    loss = gm.training_loss(model, seqs)
    monkeypatch.undo()
    alive = {name: any(r[i]() is not None for r in refs)
             for i, name in enumerate(("conv", "xhat", "norm"))}
    grads = T.backward(loss)
    return len(refs), alive, [grads[p.node] for _, p in model.named_params()]


def test_desk_compressions_keep_nothing_after_forward(monkeypatch):
    seqs = make_synthetic(2, frames=16, seed=0)[:4]
    count, alive, got = compression_grads(monkeypatch, False, seqs)
    # 4 blocks, 3 subsets, a distance and an angle compression each
    assert count == 24
    assert alive == {"conv": False, "xhat": False, "norm": False}
    _, kept, want = compression_grads(monkeypatch, True, seqs)
    assert kept == {"conv": False, "xhat": True, "norm": False}
    assert len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


def test_no_desk_closure_reaches_a_tensor():
    seqs = make_synthetic(2, frames=16, seed=0)[:4]
    loss = gm.training_loss(desk_model(), seqs)
    closures = [node.backward for node in T._topo(loss.node) if node.backward]
    assert len(closures) > 100
    assert not [fn.__qualname__ for fn in closures
                if any(isinstance(obj, Tensor) for obj in gm._reachable(fn))]


def test_every_desk_replay_rebuilds_its_output(monkeypatch):
    # every output the engine gives a replay, across a whole training
    # forward, rebuilds its data bit for bit, in a fresh array, from what
    # the graph keeps
    made, replayed = [], T._replayed

    def record(*args, **kw):
        out = replayed(*args, **kw)
        made.append((sys._getframe(1).f_code.co_name, out))
        return out

    monkeypatch.setattr(T, "_replayed", record)
    gm.training_loss(desk_model(), make_synthetic(2, frames=16, seed=0)[:4])
    ops = set()
    for op, out in made:
        if out.replay is not None:
            ops.add(op)
            again = out.replay()
            assert again.shape == out.data.shape, op
            assert again.tobytes() == out.data.tobytes(), op
            # fresh each call, so a reader may overwrite it
            assert not np.shares_memory(again, out.replay()), op
    assert {"conv2d", "batch_norm", "layer_norm", "relu", "transpose"} <= ops
