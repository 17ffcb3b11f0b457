"""Acceptance gate: one test per shipping requirement, in order.

Run ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
requirement:

1. parameter budget of the NTU-sized model,
2. improvement-ratio arithmetic on the reference evaluation figures,
3. finite-difference gradient suite over every layer and a 2-block model,
4. equivalence with brute-force direct-summation oracles,
5. desk-scale learning on the synthetic dataset plus stream fusion,
6. attention knockouts change trained-model predictions,
7. structural invariants across 100 random cases each,
8. format fidelity of the bundled fixtures and mask export.

Requirements 5 and 6 share one module-scoped training run (about eight
minutes on one CPU); everything else finishes in seconds.
"""

from pathlib import Path
import time

import numpy as np
import pytest

import brute
from hagcn import attention as A
from hagcn import evaluation as ev
from hagcn import network as N
from hagcn import tensor as T
from hagcn import training as tr
from hagcn.graph import build_graph, normalize_columns
from hagcn.ingest import parse_ntu_skeleton, parse_openpose_json
from hagcn.layers import BatchNorm
from hagcn.temporal import TemporalBranch, TemporalConv
from hagcn.tensor import Tensor, grad_check

from test_network import tiny_config, tiny_graph

FIXTURES = Path(__file__).parent / "fixtures"


# -- 1: parameter budget ------------------------------------------------------

def test_parameter_budget_within_tolerance():
    t0 = time.perf_counter()
    full = N.Model(N.ModelConfig.ntu_default(num_classes=60), seed=0)
    single = N.Model(N.ModelConfig.ntu_default(num_classes=60)
                     .single_branch("rd"), seed=0)
    n_full = full.param_count()
    n_single = single.param_count()
    elapsed = time.perf_counter() - t0
    assert abs(n_full - 1_420_000) <= 0.10 * 1_420_000, n_full
    assert abs(n_single - 1_340_000) <= 0.10 * 1_340_000, n_single
    assert 40_000 <= n_full - n_single <= 120_000, n_full - n_single
    assert elapsed < 1.0, f"model construction took {elapsed:.2f}s"


# -- 2: improvement-ratio arithmetic ------------------------------------------

# Reference evaluation figures bundled with the project: joint/bone top-1
# pairs for the attention variants against a shared baseline (last two rows
# compare the full hybrid model against its single-branch knockouts), plus
# the gain ratio as originally printed next to each pair and the ratio the
# rounded pair actually yields. Three printed ratios disagree with their own
# pairs' arithmetic; the gate pins the recomputed values and tracks the
# printed column as a known discrepancy via the strict xfail below.
_RATIO_ROWS = (
    # name                     acc    base   ref    refbase printed recomputed
    ("plus_attention",         93.9,  93.7,  93.5,  93.2,   0.67,   0.67),
    ("plus_attention_extended", 95.0, 93.7,  94.7,  93.2,   0.86,   0.87),
    ("distance_only",          95.6,  93.7,  95.2,  93.2,   0.95,   0.95),
    ("angle_only",             95.1,  93.7,  95.4,  93.2,   0.64,   0.64),
    ("hybrid_single_scale",    95.2,  93.7,  94.9,  93.2,   0.94,   0.88),
    ("hybrid_multi_scale",     95.8,  93.7,  95.5,  93.2,   0.88,   0.91),
    ("knockout_angle",         95.8,  86.6,  95.5,  93.6,   4.84,   4.84),
    ("knockout_distance",      95.8,  94.6,  95.5,  85.2,   0.12,   0.12),
)


def test_improvement_ratios_recompute_from_accuracy_pairs():
    agree = 0
    for name, acc, base, ref, ref_base, printed, recomputed in _RATIO_ROWS:
        r = round(ev.improvement_ratio(acc, base, ref, ref_base), 2)
        assert r == recomputed, f"{name}: got {r}, expected {recomputed}"
        agree += printed == recomputed
    # five of the eight printed ratios follow from their rounded pairs
    assert agree == 5


@pytest.mark.xfail(strict=True, reason="three printed ratios (0.86, 0.94, "
                   "0.88) do not follow from their own rounded accuracy "
                   "pairs, which yield 0.87, 0.88 and 0.91")
def test_improvement_ratios_match_printed_column_verbatim():
    for name, acc, base, ref, ref_base, printed, _ in _RATIO_ROWS:
        r = round(ev.improvement_ratio(acc, base, ref, ref_base), 2)
        assert r == printed, f"{name}: got {r}, printed value {printed}"


# -- 3: gradient suite ---------------------------------------------------------

def _input(seed, shape):
    return np.random.default_rng(seed + 200).standard_normal(shape)


def _randomized(make, seed):
    layer = make(np.random.default_rng(seed))
    brute.randomize_layer(layer, np.random.default_rng(seed + 100))
    return layer


def _case_compression(seed):
    layer = _randomized(lambda r: A.BranchCompression(3, 4, r), seed)
    return lambda t: layer.forward(t), _input(seed, (2, 3, 4, 5))


def _case_subset(seed):
    a_base = tiny_graph().subset_matrices()[1]
    layer = _randomized(lambda r: A.SubsetAttention(3, 4, a_base, r), seed)
    return lambda t: layer.forward(t)[0], _input(seed, (1, 3, 3, 5))


def _case_attention(branches, ext):
    def build(seed):
        layer = _randomized(
            lambda r: A.HybridSpatialAttention(3, 4, tiny_graph(), r,
                                               branches=branches,
                                               extension_conv=ext), seed)
        return lambda t: layer.forward(t), _input(seed, (1, 3, 3, 5))
    return build


def _case_temporal_branch(seed):
    layer = _randomized(lambda r: TemporalBranch(8, 2, dilation=3, stride=2,
                                                 rng=r), seed)
    return (lambda t: layer.forward(t, training=True, stats_sink=[]),
            _input(seed, (1, 8, 6, 4)))


def _case_temporal(mode, training, stride):
    def build(seed):
        layer = _randomized(lambda r: TemporalConv(8, stride=stride,
                                                   mode=mode, rng=r), seed)
        if training:
            fn = lambda t: layer.forward(t, training=True, stats_sink=[])
        else:
            fn = lambda t: layer.forward(t, training=False)
        return fn, _input(seed, (1, 8, 6, 4))
    return build


def _case_batch_norm(training):
    def build(seed):
        layer = _randomized(lambda r: BatchNorm(3), seed)
        if training:
            fn = lambda t: layer.forward(t, training=True, stats_sink=[])
        else:
            fn = lambda t: layer.forward(t, training=False)
        return fn, _input(seed, (2, 3, 4, 5))
    return build


def _case_block_train(seed):
    layer = _randomized(lambda r: N.Block(3, 8, 2, tiny_graph(), r), seed)
    return (lambda t: layer.forward(t, training=True, stats_sink=[]),
            _input(seed, (1, 3, 6, 5)))


def _case_block_eval(seed):
    # channel-preserving stride-1 block exercises the identity residual
    layer = _randomized(lambda r: N.Block(8, 8, 1, tiny_graph(), r), seed)
    return (lambda t: layer.forward(t, training=False),
            _input(seed, (1, 8, 6, 5)))


def _case_model(training):
    def build(seed):
        model = _randomized(lambda r: N.Model(tiny_config(), seed=seed), seed)
        shape = (2, 1, 3, 6, 5) if training else (1, 1, 3, 6, 5)
        x0 = _input(seed, shape)
        mix = np.random.default_rng(seed + 300).standard_normal(
            (shape[0], model.config.num_classes))
        if training:
            fn = lambda t: T.tsum(T.mul(
                model.forward(t, training=True, stats_sink=[]), Tensor(mix)))
        else:
            fn = lambda t: T.tsum(T.mul(
                model.forward(t, training=False), Tensor(mix)))
        return fn, x0
    return build


_GRAD_CASES = (
    ("branch_compression", _case_compression),
    ("subset_attention", _case_subset),
    ("spatial_hybrid", _case_attention("hybrid", True)),
    ("spatial_hybrid_no_extension", _case_attention("hybrid", False)),
    ("spatial_distance_only", _case_attention("rd", True)),
    ("spatial_angle_only", _case_attention("ra", True)),
    ("temporal_branch", _case_temporal_branch),
    ("temporal_multiscale_train", _case_temporal("multiscale", True, 2)),
    ("temporal_multiscale_eval", _case_temporal("multiscale", False, 1)),
    ("temporal_single_kernel", _case_temporal("single", True, 1)),
    ("batch_norm_train", _case_batch_norm(True)),
    ("batch_norm_eval", _case_batch_norm(False)),
    ("block_train", _case_block_train),
    ("block_eval_identity_residual", _case_block_eval),
    ("two_block_model_eval", _case_model(False)),
    ("two_block_model_train", _case_model(True)),
)


def test_gradient_suite_all_layers_and_tiny_model():
    t0 = time.perf_counter()
    for seed in range(5):
        for name, build in _GRAD_CASES:
            fn, x0 = build(seed)
            err = grad_check(fn, Tensor(x0, requires_grad=True))
            assert err <= 1e-4, f"{name} seed {seed}: max rel err {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- 4: brute-force oracle equivalence ----------------------------------------

def test_brute_force_oracle_equivalence():
    t0 = time.perf_counter()
    x = np.random.default_rng(4).standard_normal((1, 3, 3, 5))
    worst = 0.0
    for kw in (dict(), dict(extension_conv=False), dict(branches="rd"),
               dict(branches="ra")):
        layer = A.HybridSpatialAttention(3, 4, tiny_graph(),
                                         np.random.default_rng(11), **kw)
        brute.randomize_layer(layer, np.random.default_rng(12))
        got = layer.forward(Tensor(x)).data
        want = brute.spatial_attention(layer, x)
        worst = max(worst, float(np.abs(got - want).max()))

    layer = A.HybridSpatialAttention(3, 4, tiny_graph(),
                                     np.random.default_rng(13))
    brute.randomize_layer(layer, np.random.default_rng(14))
    for disable in ("rd", "ra"):
        got = layer.forward(Tensor(x), disable=disable).data
        want = brute.spatial_attention(layer, x, disable=disable)
        worst = max(worst, float(np.abs(got - want).max()))

    tconv = TemporalConv(8, stride=2, mode="multiscale",
                         rng=np.random.default_rng(15))
    brute.randomize_layer(tconv, np.random.default_rng(16))
    xt = np.random.default_rng(17).standard_normal((2, 8, 6, 4))
    got = tconv.forward(Tensor(xt), training=False).data
    want = brute.temporal_multiscale_eval(tconv, xt)
    worst = max(worst, float(np.abs(got - want).max()))

    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst oracle deviation {worst:.2e}"
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# -- 5 and 6: desk-scale learning, fusion, knockouts ---------------------------

DESK_EPOCHS = 15
DESK_FRAMES = 64


@pytest.fixture(scope="module")
def desk_run():
    """Train joint and bone streams once; both requirements read from this."""
    train_seqs, val_seqs = tr.synthetic_split(50, 20, frames=DESK_FRAMES,
                                              seed=0)
    graph = build_graph("ntu25")
    run = {"scores": {}, "elapsed": {}, "models": {}, "val_seqs": val_seqs}
    for stream in ("joint", "bone"):
        t0 = time.perf_counter()
        cfg = N.ModelConfig(num_classes=8, graph=graph,
                            channels=(8, 8, 16, 16), strides=(1, 1, 2, 1),
                            dropout=0.0)
        model = N.Model(cfg, seed=0)
        tcfg = tr.TrainConfig(epochs=DESK_EPOCHS, batch_size=16, lr=0.05,
                              milestones=(10,), lr_factor=0.1, seed=0,
                              stream=stream, max_frames=DESK_FRAMES)
        tr.train(model, train_seqs, None, tcfg, threads=1)
        scores, labels = ev.score_dataset(model, val_seqs, stream=stream,
                                          max_frames=DESK_FRAMES)
        run["models"][stream] = model
        run["scores"][stream] = scores
        run["elapsed"][stream] = time.perf_counter() - t0
        run["labels"] = labels
    return run


def test_desk_scale_learning_and_stream_fusion(desk_run):
    assert DESK_EPOCHS <= 30
    assert desk_run["elapsed"]["joint"] < 900.0, \
        f"joint stream took {desk_run['elapsed']['joint']:.0f}s"
    labels = desk_run["labels"]
    joint = ev.topk_accuracy(desk_run["scores"]["joint"], labels)
    assert joint >= 0.90, f"joint val top-1 {joint:.4f}"
    fused = ev.fuse_scores([desk_run["scores"]["joint"],
                            desk_run["scores"]["bone"]])
    fused_top1 = ev.topk_accuracy(fused, labels)
    assert fused_top1 >= joint - 0.01, \
        f"fusion {fused_top1:.4f} vs joint {joint:.4f}"


def test_attention_knockouts_alter_predictions(desk_run):
    report = ev.ablation_report(desk_run["models"]["joint"],
                                desk_run["val_seqs"], stream="joint",
                                max_frames=DESK_FRAMES)
    for mode in ("rd", "ra"):
        assert report[mode]["flipped"] >= 1, f"disable={mode} flipped nothing"
    assert min(report["rd"]["top1"], report["ra"]["top1"]) \
        < report["none"]["top1"], report


# -- 7: structural invariants --------------------------------------------------

def test_structural_invariants_hundred_cases(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # adjacency column normalization: unit or untouched-zero columns
    for _ in range(100):
        a = rng.random((6, 6)) * 3.0
        a[:, rng.random(6) < 0.3] = 0.0
        out = normalize_columns(a)
        zero = a.sum(axis=0) == 0.0
        np.testing.assert_allclose(out.sum(axis=0)[~zero], 1.0, atol=1e-12)
        assert np.all(out[:, zero] == 0.0)

    # distance mask antisymmetric, angle mask symmetric, both tanh-bounded
    for _ in range(100):
        f = Tensor(rng.standard_normal((2, 3, 4, 5)))
        rd = A.rd_mask(f).data
        ra = A.ra_mask(f).data
        np.testing.assert_allclose(rd + np.swapaxes(rd, -1, -2), 0.0,
                                   atol=1e-12)
        np.testing.assert_array_equal(ra, np.swapaxes(ra, -1, -2))
        assert np.abs(rd).max() <= 1.0 and np.abs(ra).max() <= 1.0

    # softmax rows normalize and stay positive
    for _ in range(100):
        z = rng.standard_normal((3, 7)) * 20.0
        p = T.softmax(Tensor(z), axis=1).data
        assert np.all(p > 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    # relabeling joints (input and subset matrices together) relabels the
    # spatial output the same way
    layer = A.HybridSpatialAttention(3, 4, tiny_graph(),
                                     np.random.default_rng(5))
    brute.randomize_layer(layer, np.random.default_rng(6))
    bases = [np.array(s.a_base.data) for s in layer.subsets]
    for _ in range(100):
        x = rng.standard_normal((1, 3, 4, 5))
        perm = rng.permutation(5)
        y = layer.forward(Tensor(x)).data
        for sub, base in zip(layer.subsets, bases):
            sub.a_base = Tensor(base[np.ix_(perm, perm)])
        yp = layer.forward(Tensor(x[:, :, :, perm])).data
        for sub, base in zip(layer.subsets, bases):
            sub.a_base = Tensor(base)
        np.testing.assert_allclose(yp, y[:, :, :, perm], atol=1e-10)

    # eval forward is bit-deterministic
    model = N.Model(tiny_config(), seed=77)
    for _ in range(100):
        x = rng.standard_normal((1, 1, 3, 6, 5))
        first = model.forward(x, training=False).data
        second = model.forward(x, training=False).data
        assert first.tobytes() == second.tobytes()

    # checkpoints rebuild a model with bit-identical behavior
    for i in range(100):
        cfg = N.ModelConfig(num_classes=3, graph=tiny_graph(), channels=(8,),
                            strides=(1,),
                            attention=("hybrid", "rd", "ra")[i % 3],
                            extension_conv=bool(i % 2),
                            temporal_mode=("multiscale", "single")[(i // 2) % 2],
                            dropout=0.0)
        src = N.Model(cfg, seed=i)
        x = rng.standard_normal((1, 1, 3, 6, 5))
        want = src.forward(x, training=False).data
        path = tmp_path / f"ck{i}.hagc"
        N.save_checkpoint(path, src, epoch=i)
        loaded, epoch, _ = N.load_checkpoint(path)
        assert epoch == i
        assert loaded.forward(x, training=False).data.tobytes() \
            == want.tobytes()

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s"


# -- 8: format fidelity ----------------------------------------------------------

def test_format_fidelity_fixtures_and_mask_export(tmp_path):
    # stick-figure fixture follows x = t + 0.01j + 100b, y = -x, z = 0.001j
    # with body 1 absent from frame 0; the file stores 6-decimal literals,
    # so the oracle goes through the same text form for bit-equality
    seq = parse_ntu_skeleton((FIXTURES / "sample.skeleton").read_text(),
                             source_id="sample.skeleton")
    assert seq.coords.shape == (2, 2, 25, 3)
    b, t, j = np.meshgrid(np.arange(2), np.arange(2), np.arange(25),
                          indexing="ij")
    expect_x = t + 0.01 * j + 100.0 * b
    expect = np.stack([expect_x, -expect_x, 0.001 * j], axis=-1)
    expect[1, 0] = 0.0
    as_written = np.vectorize(lambda v: float(f"{v:.6f}"))(expect)
    assert np.array_equal(seq.coords, as_written)

    # keypoint JSON fixture: frame 0 one person, frame 1 empty, frame 2
    # keeps the two most confident of three people
    pose = parse_openpose_json((FIXTURES / "sample_pose.json").read_text(),
                               source_id="sample_pose.json")
    assert pose.label == 7
    assert pose.coords.shape == (2, 3, 18, 3)
    v = np.arange(18)

    def person(p):
        return np.stack([v * 0.1 + p, v * 0.2 + p,
                         np.full(18, [0.5, 0.9, 0.1][p])], axis=-1)

    assert np.array_equal(pose.coords[0, 0], person(0))
    assert np.array_equal(pose.coords[:, 1], np.zeros((2, 18, 3)))
    assert np.array_equal(pose.coords[0, 2], person(1))
    assert np.array_equal(pose.coords[1, 2], person(0))

    # mask export round-trips through CSV to at least 6 decimals
    model = N.Model(tiny_config(), seed=9)
    brute.randomize_layer(model, np.random.default_rng(10))
    x = np.random.default_rng(11).standard_normal((2, 1, 3, 6, 5))
    paths = ev.export_masks(model, x, tmp_path, block=0, sample=1)
    masks = ev.capture_masks(model, x, block=0, sample=1)
    csv_paths = [p for p in paths if p.endswith(".csv")]
    assert len(csv_paths) == 3
    for path, want in zip(csv_paths, masks):
        got = ev.read_mask_csv(path)
        assert np.abs(got - want).max() <= 1e-6
        assert np.array_equal(got, want)  # repr round trip is exact
    for path in (p for p in paths if p.endswith(".pgm")):
        assert ev.read_pgm(path).shape == (5, 5)
