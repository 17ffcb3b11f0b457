"""Scoring, score fusion, ablation reports and attention-mask export."""

from __future__ import annotations

import csv
import os

import numpy as np

from . import tensor as T
from .attention import DISABLE_CHOICES
from .errors import FormatError
from .ingest import assemble_batch
from .network import Model


def topk_accuracy(scores, labels, k: int = 1) -> float:
    """Fraction of rows whose label sits in the k best-scored classes.

    Ties are broken toward the lowest class index, so results do not
    depend on sort internals.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.ndim != 2:
        raise ValueError("scores must be (N, num_classes)")
    n, c = scores.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if n == 0:
        raise ValueError("empty score matrix")
    if not 1 <= k <= c:
        raise ValueError(f"k must be in [1, {c}]")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")
    order = np.argsort(-scores, axis=1, kind="stable")
    hits = (order[:, :k] == labels[:, None]).any(axis=1)
    return float(hits.mean())


def improvement_ratio(acc: float, acc_base: float, ref: float,
                      ref_base: float) -> float:
    """Accuracy gain over a baseline, relative to a reference model's gain."""
    denom = ref - ref_base
    if denom == 0.0:
        raise ValueError("reference model shows no gain; ratio undefined")
    return (acc - acc_base) / denom


def score_dataset(model: Model, seqs, stream: str = "joint",
                  batch_size: int = 32, max_frames: int = 300,
                  disable: str = "none", threads: int = 1):
    """Eval-mode class probabilities for every sequence, in input order.

    Batches are scored on up to ``threads`` worker threads and concatenated
    in input order; they share no state in eval mode, so any thread count
    gives the same bits. Each forward runs without a graph, so it runs an
    absent person once per batch (see ``Model.forward``). Overflowing or
    invalid arithmetic in the forward pass (a model holding a finite but
    huge value, say from a checkpoint) raises ValueError instead of scoring
    with saturated values.
    """
    if not seqs:
        raise ValueError("no sequences to score")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    graph = model.config.graph
    starts = range(0, len(seqs), batch_size)

    def score(i: int):
        chunk = seqs[starts[i]:starts[i] + batch_size]
        x, y = assemble_batch(chunk, graph, stream=stream,
                              max_frames=max_frames)
        try:
            with T.no_grad(), np.errstate(over="raise", invalid="raise",
                                          divide="raise"):
                probs = model.forward(x, training=False, disable=disable)
        except FloatingPointError as e:
            raise ValueError(f"scoring overflowed ({e}); the model holds "
                             f"values too large to score") from None
        return probs.data, y

    scored = T._map_in_threads(score, len(starts), threads)
    return (np.concatenate([p for p, _ in scored], axis=0),
            np.concatenate([y for _, y in scored], axis=0))


def fuse_scores(score_list, weights=None) -> np.ndarray:
    """Weighted sum of per-stream score matrices (defaults to equal 1s)."""
    if not score_list:
        raise ValueError("no score matrices to fuse")
    mats = [np.asarray(s) for s in score_list]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ValueError("scores must be (N, num_classes)")
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"score shape mismatch: {m.shape} vs {shape}")
    if weights is None:
        weights = [1.0] * len(mats)
    if len(weights) != len(mats):
        raise ValueError(f"expected {len(mats)} weights, got {len(weights)}")
    out = np.zeros(shape)
    for w, m in zip(weights, mats):
        out += float(w) * m
    return out


def ablation_report(model: Model, seqs, stream: str = "joint",
                    batch_size: int = 32, max_frames: int = 300,
                    threads: int = 1) -> dict:
    """Score with each attention branch knocked out at inference time.

    Reports top-1 per mode plus, for each knockout, how many predictions
    flipped relative to the intact model.
    """
    report = {}
    for mode in DISABLE_CHOICES:  # "none" first: the knockouts compare to it
        scores, labels = score_dataset(model, seqs, stream=stream,
                                       batch_size=batch_size,
                                       max_frames=max_frames, disable=mode,
                                       threads=threads)
        report[mode] = {"top1": topk_accuracy(scores, labels)}
        pred = np.argmax(scores, axis=1)  # ties: lowest index, as topk
        if mode == "none":
            intact = pred
        else:
            report[mode]["flipped"] = int((pred != intact).sum())
    return report


# ---------------------------------------------------------------------------
# attention-mask export


def capture_masks(model: Model, x, block: int = 0, sample: int = 0,
                  disable: str = "none"):
    """Channel-averaged (V, V) masks of one block for one folded sample."""
    if not 0 <= block < len(model.blocks):
        raise ValueError(f"block must be in [0, {len(model.blocks)})")
    x = T.as_tensor(x)
    slots = int(np.prod(x.data.shape[:2]))  # N * M folded samples
    if not 0 <= sample < slots:
        raise ValueError(f"sample must be in [0, {slots})")
    masks = []
    with T.no_grad():
        model.forward(x, training=False, disable=disable, mask_block=block,
                      mask_out=masks)
    return [m[sample].mean(axis=0) for m in masks]


def write_mask_csv(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in mask:
            w.writerow([repr(float(v)) for v in row])


def read_mask_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = [[float(v) for v in row] for row in csv.reader(f) if row]
    if not rows:
        raise FormatError(f"{path}: empty mask csv")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path}: ragged mask csv")
    return np.array(rows)


def write_pgm(path, mask: np.ndarray) -> None:
    """8-bit binary PGM, min-max scaled; constant input maps to black."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    lo, hi = mask.min(), mask.max()
    if hi > lo:
        pixels = np.rint((mask - lo) / (hi - lo) * 255.0)
    else:
        pixels = np.zeros_like(mask)
    h, w = mask.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.clip(0, 255).astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM file")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise FormatError(f"{path}: malformed PGM header")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    if len(parts[3]) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixels, "
                          f"got {len(parts[3])}")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w)


def export_masks(model: Model, x, out_dir, block: int = 0, sample: int = 0,
                 disable: str = "none") -> list:
    """Write ``mask_subset<i>`` CSV and PGM images; returns written paths."""
    masks = capture_masks(model, x, block=block, sample=sample,
                          disable=disable)
    paths = []
    for i, mask in enumerate(masks):
        base = os.path.join(str(out_dir), f"mask_subset{i}")
        write_mask_csv(base + ".csv", mask)
        write_pgm(base + ".pgm", mask)
        paths.extend([base + ".csv", base + ".pgm"])
    return paths
