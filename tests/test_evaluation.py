"""Accuracy metrics, fusion, ablation reports and mask export."""

import numpy as np
import pytest

from hagcn import evaluation as E
from hagcn import network as N
from hagcn import tensor as T
from hagcn import training as tr
from hagcn.errors import FormatError
from hagcn.graph import build_graph
from hagcn.ingest import assemble_batch

from brute import randomize_layer
from test_network import tiny_config


# -- metrics ----------------------------------------------------------------

def test_top1_accuracy_basic():
    scores = np.array([[0.7, 0.2, 0.1],
                       [0.1, 0.8, 0.1],
                       [0.3, 0.3, 0.4],
                       [0.5, 0.4, 0.1]])
    labels = np.array([0, 1, 2, 1])
    assert E.topk_accuracy(scores, labels, k=1) == 0.75


def test_topk_widens_hits():
    scores = np.array([[0.5, 0.3, 0.2],
                       [0.2, 0.5, 0.3]])
    labels = np.array([1, 2])
    assert E.topk_accuracy(scores, labels, k=1) == 0.0
    assert E.topk_accuracy(scores, labels, k=2) == 1.0
    assert E.topk_accuracy(scores, labels, k=3) == 1.0


def test_topk_ties_take_lowest_class_index():
    scores = np.array([[0.5, 0.5, 0.0]])
    assert E.topk_accuracy(scores, np.array([0]), k=1) == 1.0
    assert E.topk_accuracy(scores, np.array([1]), k=1) == 0.0


def test_topk_validation():
    scores = np.zeros((2, 3))
    labels = np.array([0, 1])
    with pytest.raises(ValueError, match="k must be"):
        E.topk_accuracy(scores, labels, k=4)
    with pytest.raises(ValueError, match="k must be"):
        E.topk_accuracy(scores, labels, k=0)
    with pytest.raises(ValueError, match="labels"):
        E.topk_accuracy(scores, np.array([0, 3]), k=1)
    with pytest.raises(ValueError, match="2 labels"):
        E.topk_accuracy(scores, np.array([0]), k=1)
    with pytest.raises(ValueError, match="empty"):
        E.topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), k=1)


def test_improvement_ratio():
    assert E.improvement_ratio(96.4, 95.8, 96.9, 95.8) == \
        pytest.approx(0.6 / 1.1)
    assert E.improvement_ratio(90.0, 92.0, 90.0, 89.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError, match="no gain"):
        E.improvement_ratio(1.0, 0.0, 5.0, 5.0)


# -- fusion -----------------------------------------------------------------

def test_fuse_scores_weighted_sum():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = E.fuse_scores([a, b], weights=[1.0, 0.5])
    np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])


def test_fuse_scores_defaults_to_equal_weights():
    a = np.full((2, 3), 0.25)
    out = E.fuse_scores([a, a, a])
    np.testing.assert_allclose(out, 0.75)


def test_fuse_scores_validation():
    a = np.zeros((2, 3))
    with pytest.raises(ValueError, match="no score"):
        E.fuse_scores([])
    with pytest.raises(ValueError, match="mismatch"):
        E.fuse_scores([a, np.zeros((3, 3))])
    with pytest.raises(ValueError, match="weights"):
        E.fuse_scores([a, a], weights=[1.0])
    with pytest.raises(ValueError, match="N, num_classes"):
        E.fuse_scores([np.zeros(3)])


# -- dataset scoring --------------------------------------------------------

def _scoring_setup(num_classes=3, per_class=3, frames=10):
    cfg = N.ModelConfig(num_classes=num_classes, graph=build_graph("ntu25"),
                        channels=(8,), strides=(1,), dropout=0.0)
    model = N.Model(cfg, seed=21)
    randomize_layer(model, np.random.default_rng(22))
    seqs = tr.make_synthetic(per_class, frames=frames, seed=23,
                             classes=num_classes)
    return model, seqs


def test_score_dataset_shapes_and_order():
    model, seqs = _scoring_setup()
    scores, labels = E.score_dataset(model, seqs, batch_size=4,
                                     max_frames=10)
    assert scores.shape == (9, 3)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(labels, [s.label for s in seqs])


def test_score_dataset_batch_size_invariant():
    model, seqs = _scoring_setup()
    a, _ = E.score_dataset(model, seqs, batch_size=2, max_frames=10)
    b, _ = E.score_dataset(model, seqs, batch_size=9, max_frames=10)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_score_dataset_bits_ignore_threads():
    model, seqs = _scoring_setup()
    runs = [E.score_dataset(model, seqs, batch_size=2, max_frames=10,
                            disable="ra", threads=threads)
            for threads in (1, 2, 3)]
    for scores, labels in runs[1:]:
        assert scores.tobytes() == runs[0][0].tobytes()
        np.testing.assert_array_equal(labels, runs[0][1])


def test_score_dataset_validation():
    model, seqs = _scoring_setup()
    with pytest.raises(ValueError, match="no sequences"):
        E.score_dataset(model, [])
    with pytest.raises(ValueError, match="batch_size"):
        E.score_dataset(model, seqs, batch_size=0)


# -- ablation ---------------------------------------------------------------

def test_ablation_report_structure():
    model, seqs = _scoring_setup()
    report = E.ablation_report(model, seqs, batch_size=4, max_frames=10)
    assert set(report) == {"none", "rd", "ra"}
    assert 0.0 <= report["none"]["top1"] <= 1.0
    for mode in ("rd", "ra"):
        assert 0.0 <= report[mode]["top1"] <= 1.0
        assert report[mode]["flipped"] >= 0
        assert "flipped" not in report["none"]


# -- mask export ------------------------------------------------------------

def test_capture_masks_shape_and_bounds():
    model, seqs = _scoring_setup()
    x, _ = assemble_batch(seqs[:2], model.config.graph, max_frames=10)
    masks = E.capture_masks(model, x, block=0, sample=1)
    assert len(masks) == 3
    for m in masks:
        assert m.shape == (25, 25)
    with pytest.raises(ValueError, match="block"):
        E.capture_masks(model, x, block=5)
    with pytest.raises(ValueError, match="sample"):
        E.capture_masks(model, x, sample=99)


def test_capture_masks_checks_the_sample_before_the_forward(monkeypatch):
    # two sequences of two person slots fold to 4 samples
    model, seqs = _scoring_setup()
    x, _ = assemble_batch(seqs[:2], model.config.graph, max_frames=10)
    calls = []
    monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(a))
    for sample in (4, 99, -1):
        with pytest.raises(ValueError, match=r"sample must be in \[0, 4\)"):
            E.capture_masks(model, x, block=0, sample=sample)
    assert calls == []


def test_capture_masks_of_an_absent_slot_match_every_slot_run(monkeypatch):
    # samples 1 and 3 are absent second persons; a capture runs every slot,
    # never sharing one run among them as no-graph scoring does
    model, seqs = _scoring_setup()
    x, _ = assemble_batch(seqs[:2], model.config.graph, max_frames=10)
    assert not x[:, 1].any()
    oracle = []
    model.forward(x, training=False, mask_block=0, mask_out=oracle)
    calls = []
    slot_rows = N._slot_rows

    def spy(xf):
        calls.append(len(xf))
        return slot_rows(xf)

    monkeypatch.setattr(N, "_slot_rows", spy)
    for sample in range(4):
        masks = E.capture_masks(model, x, block=0, sample=sample)
        for m, o in zip(masks, oracle):
            assert m.tobytes() == o[sample].mean(axis=0).tobytes()
    assert calls == []
    with T.no_grad():
        model.forward(x, training=False)
    assert calls == [4]  # the spy sees scoring's call


def test_mask_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(30)
    mask = rng.standard_normal((7, 7))
    path = tmp_path / "mask.csv"
    E.write_mask_csv(path, mask)
    back = E.read_mask_csv(path)
    # repr round-trips float64 exactly
    assert back.tobytes() == mask.tobytes()


def test_mask_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="ragged"):
        E.read_mask_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="empty"):
        E.read_mask_csv(empty)


def test_pgm_round_trip_and_scaling(tmp_path):
    mask = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "m.pgm"
    E.write_pgm(path, mask)
    img = E.read_pgm(path)
    np.testing.assert_array_equal(img, [[0, 128], [255, 64]])
    with open(path, "rb") as f:
        assert f.read(3) == b"P5\n"


def test_pgm_constant_mask_is_black(tmp_path):
    path = tmp_path / "flat.pgm"
    E.write_pgm(path, np.full((3, 4), 2.5))
    img = E.read_pgm(path)
    assert img.shape == (3, 4)
    assert img.max() == 0


def test_pgm_read_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="PGM"):
        E.read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FormatError, match="pixels"):
        E.read_pgm(short)


def test_export_masks_writes_all_subsets(tmp_path):
    model, seqs = _scoring_setup()
    x, _ = assemble_batch(seqs[:1], model.config.graph, max_frames=10)
    paths = E.export_masks(model, x, tmp_path, block=0, sample=0)
    assert len(paths) == 6
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    csvs = [p for p in paths if p.endswith(".csv")]
    masks = E.capture_masks(model, x, block=0, sample=0)
    for p, m in zip(csvs, masks):
        np.testing.assert_array_equal(E.read_mask_csv(p), m)
