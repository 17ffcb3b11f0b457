"""Block/model assembly, config handling and checkpoint round trips."""

import io

import numpy as np
import pytest

from hagcn import network as N
from hagcn import tensor as T
from hagcn.errors import ConfigError, FormatError
from hagcn.graph import GraphSpec, build_graph
from hagcn.serialize import write_json_block, write_named_tensors

from brute import randomize_layer


def tiny_graph(extra_links=True):
    return GraphSpec(num_joints=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)),
                     hub_joints=(0, 4), extra_links=extra_links)


def tiny_config(**kw):
    base = dict(num_classes=4, graph=tiny_graph(), channels=(8, 16),
                strides=(1, 2), dropout=0.0)
    base.update(kw)
    return N.ModelConfig(**base)


def tiny_input(rng, n=2, m=2, t=12, v=5, c=3):
    return rng.standard_normal((n, m, c, t, v))


# -- parameter counts -------------------------------------------------------

def test_param_count_ntu_default_hybrid():
    model = N.Model(N.ModelConfig.ntu_default(num_classes=60), seed=0)
    assert model.param_count() == 1_422_544


def test_param_count_ntu_single_branch():
    cfg = N.ModelConfig.ntu_default(num_classes=60).single_branch("rd")
    model = N.Model(cfg, seed=0)
    assert model.param_count() == 1_347_418


def test_param_count_gap_is_attention_branch_cost():
    full = N.Model(N.ModelConfig.ntu_default(num_classes=60), seed=0)
    single = N.Model(N.ModelConfig.ntu_default(num_classes=60)
                     .single_branch("ra"), seed=0)
    assert full.param_count() - single.param_count() == 75_126


def test_param_count_matches_named_sum():
    model = N.Model(tiny_config(), seed=3)
    total = sum(t.data.size for _, t in model.named_params())
    assert model.param_count() == total


def test_ntu_default_stacks_ten_blocks():
    cfg = N.ModelConfig.ntu_default()
    assert len(cfg.channels) == 10
    assert cfg.channels == (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)
    assert cfg.strides == (1, 1, 1, 1, 2, 1, 1, 2, 1, 1)
    model = N.Model(cfg, seed=0)
    assert len(model.blocks) == 10


# -- block behavior ---------------------------------------------------------

def test_block_identity_residual_when_shape_preserved():
    rng = np.random.default_rng(0)
    blk = N.Block(8, 8, 1, tiny_graph(), rng)
    assert blk.res_w is None


def test_block_projected_residual_on_channel_change():
    rng = np.random.default_rng(0)
    blk = N.Block(8, 16, 1, tiny_graph(), rng)
    assert blk.res_w is not None
    assert blk.res_w.data.shape == (16, 8, 1, 1)


def test_block_projected_residual_on_stride():
    rng = np.random.default_rng(0)
    blk = N.Block(8, 8, 2, tiny_graph(), rng)
    assert blk.res_w is not None


def test_block_output_shape_and_stride():
    rng = np.random.default_rng(1)
    blk = N.Block(8, 16, 2, tiny_graph(), rng)
    x = T.Tensor(rng.standard_normal((3, 8, 12, 5)))
    y = blk.forward(x, training=False)
    assert y.data.shape == (3, 16, 6, 5)
    assert np.all(y.data >= 0.0)  # final ReLU


def test_block_residual_path_feeds_output():
    # zero the conv stacks; identity residual should pass ReLU(x) through
    rng = np.random.default_rng(2)
    blk = N.Block(8, 8, 1, tiny_graph(), rng)
    for name, p in blk.named_params():
        p.data[...] = 0.0
    x = T.Tensor(rng.standard_normal((2, 8, 6, 5)))
    y = blk.forward(x, training=False)
    np.testing.assert_array_equal(y.data, np.maximum(x.data, 0.0))


# -- model forward ----------------------------------------------------------

def test_eval_forward_returns_probabilities():
    rng = np.random.default_rng(4)
    model = N.Model(tiny_config(), seed=4)
    randomize_layer(model, np.random.default_rng(5))
    out = model.forward(tiny_input(rng), training=False)
    assert out.data.shape == (2, 4)
    assert np.all(out.data > 0.0)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_train_forward_returns_logits():
    rng = np.random.default_rng(6)
    model = N.Model(tiny_config(), seed=6)
    out = model.forward(tiny_input(rng), training=True,
                        rng=np.random.default_rng(0))
    assert out.data.shape == (2, 4)
    assert not np.allclose(out.data.sum(axis=1), 1.0)


def test_train_forward_requires_rng_for_dropout():
    rng = np.random.default_rng(7)
    model = N.Model(tiny_config(dropout=0.5), seed=7)
    with pytest.raises(ValueError, match="rng"):
        model.forward(tiny_input(rng), training=True)


def test_eval_forward_is_deterministic():
    rng = np.random.default_rng(8)
    model = N.Model(tiny_config(), seed=8)
    randomize_layer(model, np.random.default_rng(9))
    x = tiny_input(rng)
    a = model.forward(x, training=False)
    b = model.forward(x, training=False)
    assert a.data.tobytes() == b.data.tobytes()


def test_duplicated_person_matches_single_person_eval():
    # person features are averaged, so copies of one skeleton change nothing
    rng = np.random.default_rng(10)
    model = N.Model(tiny_config(), seed=10)
    randomize_layer(model, np.random.default_rng(11))
    one = rng.standard_normal((2, 1, 3, 12, 5))
    two = np.concatenate([one, one], axis=1)
    a = model.forward(one, training=False)
    b = model.forward(two, training=False)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_forward_input_validation():
    model = N.Model(tiny_config(), seed=0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="N, M, C, T, V"):
        model.forward(rng.standard_normal((2, 3, 12, 5)))
    with pytest.raises(ValueError, match="channels"):
        model.forward(rng.standard_normal((2, 1, 4, 12, 5)))
    with pytest.raises(ValueError, match="joints"):
        model.forward(rng.standard_normal((2, 1, 3, 12, 6)))


def test_mask_capture_targets_one_block():
    rng = np.random.default_rng(12)
    model = N.Model(tiny_config(), seed=12)
    masks = []
    model.forward(tiny_input(rng), training=False, mask_block=1,
                  mask_out=masks)
    assert len(masks) == 3  # one mask per adjacency subset
    for m in masks:
        # extension conv lifts masks to the block's output width
        assert m.shape == (2 * 2, 16, 5, 5)
        assert isinstance(m, np.ndarray)


def test_stats_sink_defers_running_stat_updates():
    rng = np.random.default_rng(13)
    model = N.Model(tiny_config(), seed=13)
    before = {k: v.copy() for k, v in model.named_buffers()}
    sink = []
    model.forward(tiny_input(rng), training=True,
                  rng=np.random.default_rng(0), stats_sink=sink)
    # data_bn plus 2 block-level norms and 4 branch-internal pairs per block
    per_block = 2 + 2 * 4
    assert len(sink) == 1 + per_block * len(model.blocks)
    for k, v in model.named_buffers():
        np.testing.assert_array_equal(v, before[k])
    for layer, mean, var in sink:
        layer.apply_stats(mean, var)
    changed = sum(1 for k, v in model.named_buffers()
                  if not np.array_equal(v, before[k]))
    assert changed > 0


def test_disable_choice_changes_eval_scores():
    rng = np.random.default_rng(14)
    model = N.Model(tiny_config(), seed=14)
    randomize_layer(model, np.random.default_rng(15))
    x = tiny_input(rng)
    base = model.forward(x, training=False, disable="none")
    no_rd = model.forward(x, training=False, disable="rd")
    assert not np.array_equal(base.data, no_rd.data)


# -- config -----------------------------------------------------------------

def test_config_validation_errors():
    g = tiny_graph()
    with pytest.raises(ConfigError, match="num_classes"):
        N.ModelConfig(num_classes=1, graph=g)
    with pytest.raises(ConfigError, match="equal length"):
        N.ModelConfig(num_classes=4, graph=g, channels=(8,), strides=(1, 2))
    with pytest.raises(ConfigError, match="attention"):
        N.ModelConfig(num_classes=4, graph=g, attention="full")
    with pytest.raises(ConfigError, match="divisible by 4"):
        N.ModelConfig(num_classes=4, graph=g, channels=(6,), strides=(1,))
    with pytest.raises(ConfigError, match="dropout"):
        N.ModelConfig(num_classes=4, graph=g, dropout=1.0)
    with pytest.raises(ConfigError, match="temporal_mode"):
        N.ModelConfig(num_classes=4, graph=g, temporal_mode="dense")
    # single-mode conv has no divisibility constraint
    N.ModelConfig(num_classes=4, graph=g, channels=(6,), strides=(1,),
                  temporal_mode="single")


def test_config_round_trip():
    cfg = tiny_config(attention="ra", extension_conv=False,
                      temporal_mode="single", dropout=0.25)
    back = N.ModelConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    np.testing.assert_array_equal(back.graph.subset_matrices(),
                                  cfg.graph.subset_matrices())


def test_config_from_dict_rejects_unknown_keys():
    d = tiny_config().to_dict()
    d["momentum"] = 0.9
    with pytest.raises(ConfigError, match="unknown"):
        N.ModelConfig.from_dict(d)


def test_config_from_dict_requires_core_keys():
    with pytest.raises(ConfigError, match="missing"):
        N.ModelConfig.from_dict({"num_classes": 4})


# -- checkpoints ------------------------------------------------------------

class FakeOptimizer:
    def __init__(self, items):
        self.items = items

    def state_tensors(self):
        return self.items


def test_checkpoint_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(16)
    model = N.Model(tiny_config(), seed=16)
    randomize_layer(model, np.random.default_rng(17))
    # push running stats away from init so buffers matter
    sink = []
    model.forward(tiny_input(rng), training=True,
                  rng=np.random.default_rng(0), stats_sink=sink)
    for layer, mean, var in sink:
        layer.apply_stats(mean, var)

    x = tiny_input(rng)
    want = model.forward(x, training=False).data

    path = tmp_path / "model.hagc"
    vel = [("velocity.fc_w", np.full((4, 16), 0.5))]
    N.save_checkpoint(path, model, epoch=7, optimizer=FakeOptimizer(vel))
    loaded, epoch, opt_state = N.load_checkpoint(path)

    assert epoch == 7
    assert set(opt_state) == {"velocity.fc_w"}
    np.testing.assert_array_equal(opt_state["velocity.fc_w"], vel[0][1])
    got = loaded.forward(x, training=False).data
    assert got.tobytes() == want.tobytes()
    for (name, a), (_, b) in zip(model.named_buffers(),
                                 loaded.named_buffers()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_preserves_config(tmp_path):
    cfg = tiny_config(attention="rd", extension_conv=False)
    model = N.Model(cfg, seed=18)
    path = tmp_path / "m.hagc"
    N.save_checkpoint(path, model)
    loaded, epoch, opt_state = N.load_checkpoint(path)
    assert epoch == 0
    assert opt_state == {}
    assert loaded.config.to_dict() == cfg.to_dict()


def test_checkpoint_magic_header(tmp_path):
    path = tmp_path / "m.hagc"
    N.save_checkpoint(path, N.Model(tiny_config(), seed=0))
    with open(path, "rb") as f:
        assert f.read(4) == b"HAGC"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hagc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        N.load_checkpoint(path)


def test_checkpoint_rejects_mismatched_params(tmp_path):
    hybrid = N.Model(tiny_config(), seed=0)
    single = N.Model(tiny_config(attention="rd"), seed=0)
    path = tmp_path / "m.hagc"
    # the header always says hybrid attention; the tensors come from a
    # single-branch model, then from the hybrid one with fc_b a class short
    for source, short, match in ((single, None, "parameter names"),
                                 (hybrid, "fc_b", "fc_b has shape")):
        with open(path, "wb") as f:
            f.write(N.CHECKPOINT_MAGIC)
            write_json_block(f, {"format_version": N.CHECKPOINT_VERSION,
                                 "config": hybrid.config.to_dict(),
                                 "epoch": 0})
            write_named_tensors(f, [(n, p.data[:-1] if n == short else p.data)
                                    for n, p in source.named_params()])
            write_named_tensors(f, source.named_buffers())
            write_named_tensors(f, [])
        with pytest.raises(FormatError, match=match):
            N.load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = N.Model(tiny_config(), seed=0)
    path = tmp_path / "m.hagc"
    with open(path, "wb") as f:
        f.write(N.CHECKPOINT_MAGIC)
        write_json_block(f, {"format_version": 99,
                             "config": model.config.to_dict(), "epoch": 0})
    with pytest.raises(FormatError, match="version"):
        N.load_checkpoint(path)


def test_checkpoint_rejects_malformed_header(tmp_path):
    config = tiny_config().to_dict()
    version = N.CHECKPOINT_VERSION
    path = tmp_path / "m.hagc"
    for header, match in (
            ([1, 2], "JSON object"),
            ({"format_version": version, "epoch": 0}, "config object"),
            ({"format_version": version, "config": "tiny"}, "config object"),
            ({"format_version": version, "config": config, "epoch": [3]},
             "epoch"),
            ({"format_version": version,
              "config": dict(config, graph="ntu25")}, "graph"),
            ({"format_version": version,
              "config": dict(config, channels=8)}, "wrong type")):
        with open(path, "wb") as f:
            f.write(N.CHECKPOINT_MAGIC)
            write_json_block(f, header)
        with pytest.raises(FormatError, match=match):
            N.load_checkpoint(path)


# -- gradients --------------------------------------------------------------

def test_tiny_model_grad_check():
    cfg = N.ModelConfig(num_classes=3, graph=tiny_graph(), channels=(8,),
                        strides=(1,), dropout=0.0)
    model = N.Model(cfg, seed=19)
    randomize_layer(model, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    x0 = rng.standard_normal((2, 1, 3, 6, 5))
    mix = rng.standard_normal((2, 3))

    def fn(x):
        probs = model.forward(x, training=False)
        return T.tsum(T.mul(probs, T.Tensor(mix)))

    err = T.grad_check(fn, T.Tensor(x0, requires_grad=True), eps=1e-5)
    assert err < 1e-6
