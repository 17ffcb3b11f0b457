"""Loss, optimizer, sharded accumulation, synthetic data and the loop."""

import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from hagcn import network as N
from hagcn import tensor as T
from hagcn import training as tr
from hagcn.errors import ConfigError, TrainingDiverged
from hagcn.graph import build_graph
from hagcn.ingest import MAX_FRAMES

from brute import randomize_layer
from test_network import tiny_config, tiny_graph


# -- cross entropy ----------------------------------------------------------

def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 2])
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(4), labels].mean()
    got = tr.cross_entropy(T.Tensor(logits), labels)
    assert abs(float(got.data) - want) < 1e-12


def test_cross_entropy_uniform_logits():
    loss = tr.cross_entropy(T.Tensor(np.zeros((5, 8))), np.zeros(5, dtype=int))
    assert abs(float(loss.data) - math.log(8)) < 1e-12


def test_cross_entropy_label_validation():
    logits = T.Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="lie in"):
        tr.cross_entropy(logits, [0, 1, 4])
    with pytest.raises(ValueError, match="lie in"):
        tr.cross_entropy(logits, [0, -1, 2])
    with pytest.raises(ValueError, match="3 labels"):
        tr.cross_entropy(logits, [0, 1])
    with pytest.raises(ValueError, match="N, num_classes"):
        tr.cross_entropy(T.Tensor(np.zeros(4)), [0])


def test_cross_entropy_gradient():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 4))
    labels = np.array([1, 0, 3, 2, 2])
    err = T.grad_check(lambda x: tr.cross_entropy(x, labels),
                       T.Tensor(x0, requires_grad=True))
    assert err < 1e-8


# -- schedule ---------------------------------------------------------------

def test_lr_schedule_steps_at_milestones():
    schedule = (0.1, (60, 90), 0.1)
    assert tr.lr_at(0, *schedule) == pytest.approx(0.1)
    assert tr.lr_at(59, *schedule) == pytest.approx(0.1)
    assert tr.lr_at(60, *schedule) == pytest.approx(0.01)
    assert tr.lr_at(89, *schedule) == pytest.approx(0.01)
    assert tr.lr_at(90, *schedule) == pytest.approx(0.001)
    assert tr.lr_at(5, base=1.0, milestones=(2, 4), factor=0.5) == \
        pytest.approx(0.25)


# -- optimizer --------------------------------------------------------------

class OneParam:
    """Minimal layer stand-in exposing one named parameter."""

    def __init__(self, name, value):
        self._items = [(name, T.Tensor(np.array(value), requires_grad=True))]

    def named_params(self):
        return list(self._items)


def sgd(layer, lr, momentum, weight_decay):
    """An SGD with its fixed constants overridden on the instance."""
    opt = tr.SGD(layer, lr)
    opt.momentum = momentum
    opt.weight_decay = weight_decay
    return opt


def test_sgd_recipe_constants():
    opt = tr.SGD(OneParam("w", [1.0]), 0.1)
    assert (opt.momentum, opt.weight_decay) == (0.9, 1e-4)
    assert opt.SKIP_DECAY == ("gamma", "beta", "alpha")


def test_sgd_plain_step_with_decay():
    layer = OneParam("w", [2.0])
    opt = sgd(layer, lr=0.5, momentum=0.0, weight_decay=0.1)
    p = layer._items[0][1]
    opt.step({"w": np.array([1.0])})
    # g = 1 + 0.1*2 = 1.2; p = 2 - 0.5*1.2
    np.testing.assert_allclose(p.data, [1.4], atol=1e-15)


def test_sgd_skips_decay_for_norm_and_alpha():
    for leaf in ("gamma", "beta", "alpha"):
        layer = OneParam(f"blocks.0.bn.{leaf}", [2.0])
        opt = sgd(layer, lr=0.5, momentum=0.0, weight_decay=0.1)
        p = layer._items[0][1]
        opt.step({f"blocks.0.bn.{leaf}": np.array([1.0])})
        np.testing.assert_allclose(p.data, [1.5], atol=1e-15)


def test_sgd_decays_biases():
    layer = OneParam("blocks.0.spatial.subsets.0.val_b", [2.0])
    opt = sgd(layer, lr=0.5, momentum=0.0, weight_decay=0.1)
    p = layer._items[0][1]
    opt.step({"blocks.0.spatial.subsets.0.val_b": np.array([1.0])})
    np.testing.assert_allclose(p.data, [1.4], atol=1e-15)


def test_sgd_nesterov_two_steps_hand_computed():
    layer = OneParam("w", [1.0])
    opt = sgd(layer, lr=0.1, momentum=0.9, weight_decay=0.0)
    p = layer._items[0][1]
    # step 1: v = 1, update = g + mu*v = 1.9, p = 1 - 0.19
    opt.step({"w": np.array([1.0])})
    np.testing.assert_allclose(p.data, [0.81], atol=1e-15)
    # step 2: v = 0.9 + 0.5 = 1.4, update = 0.5 + 1.26 = 1.76
    opt.step({"w": np.array([0.5])})
    np.testing.assert_allclose(p.data, [0.81 - 0.176], atol=1e-15)


def test_sgd_skips_params_without_grad():
    layer = OneParam("w", [3.0])
    opt = tr.SGD(layer, lr=0.5)
    opt.step({"other": np.array([1.0])})
    np.testing.assert_allclose(layer._items[0][1].data, [3.0])


def test_sgd_state_round_trip():
    model = N.Model(tiny_config(), seed=0)
    opt = tr.SGD(model, lr=0.1)
    for name in opt.velocity:
        opt.velocity[name][...] = 0.25
    state = {n: a.copy() for n, a in opt.state_tensors()}
    fresh = tr.SGD(model, lr=0.1)
    fresh.load_state(state)
    for name in fresh.velocity:
        np.testing.assert_array_equal(fresh.velocity[name], 0.25)
    with pytest.raises(ConfigError, match="names"):
        fresh.load_state({"velocity.bogus": np.zeros(1)})


# -- sharding ---------------------------------------------------------------

def test_shard_batch_sizes():
    x = np.arange(50.0).reshape(5, 10)
    y = np.arange(5)
    assert len(tr.shard_batch(x, y, 0)) == 1
    shards = tr.shard_batch(x, y, 2)
    assert [len(s[1]) for s in shards] == [2, 2, 1]
    np.testing.assert_array_equal(shards[2][0], x[4:])
    with pytest.raises(ValueError, match="non-negative"):
        tr.shard_batch(x, y, -1)


def _fresh_model(dropout=0.0):
    model = N.Model(tiny_config(dropout=dropout), seed=42)
    randomize_layer(model, np.random.default_rng(43))
    return model


def _batch(n=6):
    rng = np.random.default_rng(44)
    x = rng.standard_normal((n, 1, 3, 12, 5))
    y = rng.integers(0, 4, size=n)
    return x, y


def test_single_shard_matches_direct_backward():
    x, y = _batch()
    a = _fresh_model()
    b = _fresh_model()

    loss_a, _, grads = tr.accumulate_gradients(
        a, tr.shard_batch(x, y, 0), np.random.default_rng(1), threads=1)

    sink = []
    logits = b.forward(x, training=True, rng=np.random.default_rng(99),
                       stats_sink=sink)
    loss_b = tr.cross_entropy(logits, y)
    grads_b = T.backward(loss_b)
    for layer, mean, var in sink:
        layer.apply_stats(mean, var)

    assert loss_a == float(loss_b.data)
    gb = dict(b.named_params())
    assert set(grads) == set(gb)
    for name, g in grads.items():
        assert g.tobytes() == grads_b[gb[name].node].tobytes(), name
    for (_, ba), (_, bb) in zip(a.named_buffers(), b.named_buffers()):
        assert ba.tobytes() == bb.tobytes()


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_thread_count_does_not_change_results(dropout):
    x, y = _batch()
    outs = []
    for threads in (1, 2):
        model = _fresh_model(dropout=dropout)
        opt = tr.SGD(model, lr=0.1)
        shards = tr.shard_batch(x, y, 2)
        loss, logits, grads = tr.accumulate_gradients(
            model, shards, np.random.default_rng(7), threads=threads)
        opt.step(grads)
        outs.append((loss, logits,
                     {n: p.data.copy() for n, p in model.named_params()},
                     {n: b.copy() for n, b in model.named_buffers()}))
    (l1, lg1, p1, b1), (l2, lg2, p2, b2) = outs
    assert l1 == l2
    assert lg1.tobytes() == lg2.tobytes()
    for name in p1:
        assert p1[name].tobytes() == p2[name].tobytes(), name
    for name in b1:
        assert b1[name].tobytes() == b2[name].tobytes(), name


def test_shards_run_in_the_callers_grad_mode():
    x, y = _batch()
    outs = []
    for threads in (1, 2):
        with T.no_grad():
            outs.append(tr.accumulate_gradients(
                _fresh_model(), tr.shard_batch(x, y, 2),
                np.random.default_rng(7), threads=threads))
    (l1, lg1, g1), (l2, lg2, g2) = outs
    assert l1 == l2
    assert lg1.tobytes() == lg2.tobytes()
    assert set(g1) == set(g2)
    for name in g1:
        assert g1[name].tobytes() == g2[name].tobytes(), name
    assert not g1  # no graph under no_grad, so no gradients


def test_sharded_loss_matches_batch_mean():
    x, y = _batch()
    model = _fresh_model()
    loss, _, _ = tr.accumulate_gradients(model, tr.shard_batch(x, y, 2),
                                         np.random.default_rng(0), threads=1)
    # per-shard means recombined with n_s/N weights equal the batch mean
    per_shard = []
    fresh = _fresh_model()
    for xs, ys in tr.shard_batch(x, y, 2):
        logits = fresh.forward(xs, training=True, stats_sink=[])
        per_shard.append(float(tr.cross_entropy(logits, ys).data) * len(ys))
    assert loss == pytest.approx(sum(per_shard) / len(y), abs=1e-12)


def test_accumulate_requires_shards():
    with pytest.raises(ValueError, match="shards"):
        tr.accumulate_gradients(_fresh_model(), [], None)


def test_thread_count_env_parsing(monkeypatch):
    monkeypatch.delenv("HAGCN_THREADS", raising=False)
    assert tr.thread_count() == 1
    monkeypatch.setenv("HAGCN_THREADS", "4")
    assert tr.thread_count() == 4
    monkeypatch.setenv("HAGCN_THREADS", "fast")
    with pytest.raises(ConfigError, match="integer"):
        tr.thread_count()
    monkeypatch.setenv("HAGCN_THREADS", "0")
    with pytest.raises(ConfigError, match="at least 1"):
        tr.thread_count()


# -- synthetic data ---------------------------------------------------------

def test_make_synthetic_shapes_and_labels():
    seqs = tr.make_synthetic(3, frames=20, seed=5)
    assert len(seqs) == 3 * 8
    labels = sorted({s.label for s in seqs})
    assert labels == list(range(8))
    for s in seqs:
        assert s.coords.shape == (1, 20, 25, 3)
        assert np.isfinite(s.coords).all()


def test_make_synthetic_is_seed_deterministic():
    a = tr.make_synthetic(2, frames=16, seed=9)
    b = tr.make_synthetic(2, frames=16, seed=9)
    c = tr.make_synthetic(2, frames=16, seed=10)
    for sa, sb in zip(a, b):
        assert sa.coords.tobytes() == sb.coords.tobytes()
    assert a[0].coords.tobytes() != c[0].coords.tobytes()


def test_templates_are_mutually_distinct():
    flat = [tr._template(c, 32).ravel() for c in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(flat[i] - flat[j]).max() > 0.05, (i, j)


def test_still_template_is_static():
    coords = tr._template(0, 16)
    for t in range(16):
        np.testing.assert_array_equal(coords[t], tr.REST_POSE)


def test_synthetic_split_draws_are_disjoint():
    train, val = tr.synthetic_split(per_train=2, per_val=2, frames=8, seed=3)
    assert len(train) == 16 and len(val) == 16
    assert train[0].coords.tobytes() != val[0].coords.tobytes()


def test_make_synthetic_class_range():
    with pytest.raises(ValueError, match="classes"):
        tr.make_synthetic(1, classes=9)


@pytest.mark.parametrize("per_class, frames, name", [
    (0, 16, "per_class"), (-1, 16, "per_class"), (2, 0, "frames")])
def test_make_synthetic_rejects_empty_draws(per_class, frames, name):
    with pytest.raises(ValueError, match=name):
        tr.make_synthetic(per_class, frames=frames)


# -- train config -----------------------------------------------------------

def test_train_config_round_trip():
    cfg = tr.TrainConfig(epochs=5, milestones=(2, 4), stream="bone")
    back = tr.TrainConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_train_config_validation():
    with pytest.raises(ConfigError, match="epochs"):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ConfigError, match="stream"):
        tr.TrainConfig(stream="flow")
    with pytest.raises(ConfigError, match="lr"):
        tr.TrainConfig(lr=0.0)
    for factor in (-1.0, 0.0):  # ascent or a frozen run after a milestone
        with pytest.raises(ConfigError, match="lr_factor"):
            tr.TrainConfig(lr_factor=factor, milestones=(1,))
    with pytest.raises(ConfigError, match="unknown"):
        tr.TrainConfig.from_dict({"epochs": 3, "optimizer": "adam"})


def test_train_config_holds_only_what_a_run_changes():
    # the SGD constants, augmentation and the noise are not settings
    assert {f.name for f in fields(tr.TrainConfig)} == {
        "epochs", "batch_size", "micro_batch", "lr", "milestones",
        "lr_factor", "seed", "stream", "max_frames"}


def test_train_config_bounds_max_frames():
    assert tr.TrainConfig(max_frames=MAX_FRAMES).max_frames == MAX_FRAMES
    for frames in (MAX_FRAMES + 1, 10**12):
        with pytest.raises(ConfigError,
                           match=f"max_frames must be at most {MAX_FRAMES}"):
            tr.TrainConfig.from_dict({"max_frames": frames})


def test_train_config_has_no_person_budget():
    # persons are fixed at ingest.MAX_PERSONS, so training and eval agree
    with pytest.raises(ConfigError, match="max_persons"):
        tr.TrainConfig.from_dict({"max_persons": 2})


# -- training loop ----------------------------------------------------------

def _loop_setup(num_classes=3, per_class=4, frames=12):
    cfg = N.ModelConfig(num_classes=num_classes, graph=build_graph("ntu25"),
                        channels=(8, 8), strides=(1, 1), dropout=0.0)
    model = N.Model(cfg, seed=11)
    seqs = tr.make_synthetic(per_class, frames=frames, seed=12,
                             classes=num_classes)
    tcfg = tr.TrainConfig(epochs=2, batch_size=6, lr=0.05, seed=13,
                          max_frames=frames)
    return model, seqs, tcfg


def test_train_loop_runs_and_reports():
    model, seqs, tcfg = _loop_setup()
    history, opt = tr.train(model, seqs, val_seqs=seqs[:6], config=tcfg,
                            threads=1)
    assert len(history) == 2
    for row in history:
        assert set(row) == set(tr.HISTORY_FIELDS)
        assert np.isfinite(row["train_loss"])
        assert 0.0 <= row["train_acc"] <= 1.0
        assert 0.0 <= row["val_acc"] <= 1.0
    assert isinstance(opt, tr.SGD)


def test_train_loop_is_deterministic():
    finals = []
    for _ in range(2):
        model, seqs, tcfg = _loop_setup()
        history, _ = tr.train(model, seqs, config=tcfg, threads=1)
        finals.append((history[-1]["train_loss"],
                       {n: p.data.copy() for n, p in model.named_params()}))
    (l1, p1), (l2, p2) = finals
    assert l1 == l2
    for name in p1:
        assert p1[name].tobytes() == p2[name].tobytes(), name


def test_train_divergence_guard(monkeypatch):
    model, seqs, tcfg = _loop_setup()
    monkeypatch.setattr(tr, "LOSS_CEILING", 1e-9)
    with pytest.raises(TrainingDiverged):
        tr.train(model, seqs, config=tcfg, threads=1)


def test_train_callback_sees_every_epoch():
    model, seqs, tcfg = _loop_setup()
    seen = []
    tr.train(model, seqs, config=tcfg, threads=1,
             callback=lambda e, m, o, row: seen.append(e))
    assert seen == [0, 1]


def test_history_csv_round_trip(tmp_path):
    rows = [{"epoch": 0, "lr": 0.1, "train_loss": 1.25, "train_acc": 0.5,
             "val_acc": 0.75},
            {"epoch": 1, "lr": 0.1, "train_loss": 0.8,
             "train_acc": 0.625, "val_acc": 0.875}]
    path = tmp_path / "history.csv"
    tr.write_history(path, rows)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert len(back) == 2
    assert int(back[0]["epoch"]) == 0
    assert float(back[1]["train_loss"]) == 0.8
    assert float(back[0]["val_acc"]) == 0.75
