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


def test_desk_batch_stays_under_70_mib(capsys):
    # 64.2 MiB with every replay, 92.3 MiB when the temporal batch norms keep
    # their normalised inputs; the shapes are fixed, so the count is
    # deterministic
    assert total_mib(capsys, "desk") < 70


def test_ntu_shard_stays_under_150_mib(capsys):
    # 141.6 MiB with every replay, 210.4 MiB when the temporal batch norms
    # keep theirs
    assert total_mib(capsys, "ntu") < 150


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


def conv_norm_grads(monkeypatch, op, keep_conv, seqs):
    """Gradients of a desk training step, and which of every ``op`` norm's
    conv-output input, normalised input x̂ and output outlive the forward;
    ``keep_conv`` clears the conv outputs' replays, so each of those norms
    keeps its x̂."""
    model = desk_model()
    norm, moments, last, refs = getattr(T, op), T._moments, [], []

    def moments_spy(xd, axes, count):
        out = moments(xd, axes, count)
        last[:] = [weakref.ref(out[1])]  # a norm's x̂ is its centred input
        return out

    def norm_spy(x, *args, **kw):
        # in the desk model only conv outputs reach a norm with a replay
        conv = x.replay is not None
        if conv and keep_conv:
            x.replay = None
        y = norm(x, *args, **kw)
        if conv:
            refs.append((weakref.ref(x.data), last[0], weakref.ref(y.data)))
        return y

    monkeypatch.setattr(T, op, norm_spy)
    monkeypatch.setattr(T, "_moments", moments_spy)
    loss = gm.training_loss(model, seqs)
    monkeypatch.undo()
    alive = {name: any(r[i]() is not None for r in refs)
             for i, name in enumerate(("conv", "xhat", "norm"))}
    grads = T.backward(loss)
    return len(refs), alive, [grads[p.node] for _, p in model.named_params()]


def check_conv_norms_keep_nothing(monkeypatch, op, count):
    seqs = make_synthetic(2, frames=16, seed=0)[:4]
    got_count, alive, got = conv_norm_grads(monkeypatch, op, False, seqs)
    assert got_count == count
    assert alive == {"conv": False, "xhat": False, "norm": False}
    _, kept, want = conv_norm_grads(monkeypatch, op, True, seqs)
    assert kept == {"conv": False, "xhat": True, "norm": False}
    assert len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


def test_desk_compressions_keep_nothing_after_forward(monkeypatch):
    # 4 blocks, 3 subsets, a distance and an angle compression each
    check_conv_norms_keep_nothing(monkeypatch, "layer_norm", 24)


def test_desk_temporal_norms_keep_nothing_after_forward(monkeypatch):
    # 4 blocks, 4 branches, a bn_mid and a bn_out each
    check_conv_norms_keep_nothing(monkeypatch, "batch_norm", 32)


def test_no_desk_closure_reaches_a_tensor():
    seqs = make_synthetic(2, frames=16, seed=0)[:4]
    loss = gm.training_loss(desk_model(), seqs)
    closures = [node.backward for node in T._topo(loss.node) if node.backward]
    assert len(closures) > 100
    assert not [fn.__qualname__ for fn in closures
                if any(isinstance(obj, Tensor) for obj in gm._reachable(fn))]


def desk_replays(monkeypatch):
    """A desk training loss; per array the engine rebuilds once (``_once``:
    every replay and every norm's x̂), the helper that asked for it
    (``_replayed`` or ``_normalised``) and the list its kernel appends to on
    each run; and per output given a replay, the op that made it, the output
    and its replay's run list."""
    rebuilt, made = [], []
    once, replayed = T._once, T._replayed

    def counted_once(kernel, source):
        runs = []

        def counted(xd):
            runs.append(1)
            return kernel(xd)

        rebuilt.append((sys._getframe(1).f_code.co_name, runs))
        return once(counted, source)

    def record(out, kernel, source):
        count = len(rebuilt)
        out = replayed(out, kernel, source)
        if out.replay is not None:
            assert len(rebuilt) == count + 1
            made.append((sys._getframe(1).f_code.co_name, out, rebuilt[-1][1]))
        return out

    monkeypatch.setattr(T, "_once", counted_once)
    monkeypatch.setattr(T, "_replayed", record)
    loss = gm.training_loss(desk_model(), make_synthetic(2, frames=16,
                                                         seed=0)[:4])
    monkeypatch.undo()
    return loss, rebuilt, made


def test_every_desk_replay_rebuilds_its_output(monkeypatch):
    # every output the engine gives a replay, across a whole training
    # forward, rebuilds its data bit for bit from what the graph keeps, once:
    # a second call returns the same array, which no reader may write
    _, _, made = desk_replays(monkeypatch)
    ops = set()
    for op, out, runs in made:
        ops.add(op)
        again = out.replay()
        assert again.shape == out.data.shape, op
        assert again.tobytes() == out.data.tobytes(), op
        assert not again.flags.writeable, op
        assert out.replay() is again and runs == [1], op
    assert {"conv2d", "batch_norm", "layer_norm", "relu", "transpose"} <= ops


def test_desk_backward_runs_each_replay_kernel_at_most_once(monkeypatch):
    # the input batch norm's output is read by all of block 0's convs, each
    # bn_s output by four reduction convs, each compression by both operands
    # of the angle product, and each norm's x̂ by its gradient and its
    # output's replay, yet every rebuild, x̂ included, runs its kernel once
    loss, rebuilt, made = desk_replays(monkeypatch)
    T.backward(loss)
    assert max(len(runs) for _, runs in rebuilt) == 1
    assert {"_replayed", "_normalised"} == {h for h, runs in rebuilt if runs}
    ran = {op for op, _, runs in made if runs}
    assert {"conv2d", "batch_norm", "layer_norm", "relu", "transpose"} <= ran
