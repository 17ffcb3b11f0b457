import importlib.util
import os

import numpy as np

from hagcn import network as N
from hagcn import tensor as T
from hagcn.tensor import Tensor
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


def test_desk_batch_stays_under_150_mib(capsys):
    # 142.7 MiB while the temporal convs replay their inputs, 175.4 MiB when
    # they keep them; the shapes are fixed, so the count is deterministic
    assert gm.main(["--model", "desk"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total" and float(total[1]) < 150
