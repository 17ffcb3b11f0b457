"""Optimization loop, synthetic motion data and gradient sharding.

Training follows one fixed recipe: Nesterov SGD with momentum 0.9 and weight
decay 1e-4 (none on ``gamma``, ``beta`` or ``alpha``), a step learning-rate
schedule, no input transforms, and a divergence guard at ``LOSS_CEILING``.
``TrainConfig`` holds only what a run may change. Synthetic sequences carry
Gaussian coordinate noise of scale ``NOISE``.

Gradient work is split over fixed microbatch shards; the ``HAGCN_THREADS``
environment variable only schedules shards onto worker threads and never
changes results. Shard gradients and batch-norm statistics are merged in
shard index order, so any thread count reproduces the single-thread run
bit for bit.
"""

from __future__ import annotations

import contextvars
import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import (ConfigError, TrainingDiverged, config_int, config_ints,
                     config_keys, config_real)
from .evaluation import score_dataset, topk_accuracy
from .ingest import STREAMS, SkeletonSequence, assemble_batch
from .network import Model

THREADS_ENV = "HAGCN_THREADS"


def thread_count(env=None) -> int:
    raw = (env if env is not None else os.environ).get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"{THREADS_ENV} must be at least 1, got {n}")
    return n


def cross_entropy(logits: T.Tensor, labels) -> T.Tensor:
    """Mean negative log likelihood of integer labels under logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("logits must be (N, num_classes)")
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if n == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    logp = T.log_softmax(logits, axis=1)
    return T.mul(T.tsum(T.mul(logp, T.Tensor(onehot))), -1.0 / n)


def lr_at(epoch: int, base: float, milestones, factor: float) -> float:
    drops = sum(1 for m in milestones if epoch >= m)
    return base * factor ** drops


class SGD:
    """Nesterov momentum SGD with selective weight decay.

    Decay skips normalization scales/offsets and attention mixing scalars
    (name leaf gamma, beta or alpha); everything else, biases included,
    is decayed.
    """

    SKIP_DECAY = ("gamma", "beta", "alpha")
    momentum = 0.9
    weight_decay = 1e-4

    def __init__(self, model, lr: float):
        self.params = list(model.named_params())
        self.lr = lr
        self.velocity = {name: np.zeros_like(p.data)
                         for name, p in self.params}

    def _decays(self, name: str) -> bool:
        return name.split(".")[-1] not in self.SKIP_DECAY

    def step(self, grads: dict):
        """Update from ``{param name: gradient}``; absent names are skipped."""
        for name, p in self.params:
            g = grads.get(name)
            if g is None:
                continue
            if self._decays(name):
                g = g + self.weight_decay * p.data
            v = self.velocity[name]
            v[...] = self.momentum * v + g
            p.data[...] = p.data - self.lr * (g + self.momentum * v)

    def state_tensors(self):
        return [("velocity." + name, self.velocity[name])
                for name, _ in self.params]

    def load_state(self, state: dict):
        want = {"velocity." + name for name, _ in self.params}
        if set(state) != want:
            raise ConfigError("optimizer state names do not match the model")
        for name, _ in self.params:
            arr = np.asarray(state["velocity." + name])
            v = self.velocity[name]
            if arr.shape != v.shape:
                raise ConfigError(f"velocity shape mismatch for {name}")
            v[...] = arr


# ---------------------------------------------------------------------------
# sharded gradient accumulation


def shard_batch(x: np.ndarray, labels: np.ndarray, micro_batch: int = 0):
    """Cut a batch into fixed microbatch shards (0 means one shard)."""
    labels = np.asarray(labels)
    n = x.shape[0]
    if micro_batch < 0:
        raise ValueError("micro_batch must be non-negative")
    if micro_batch == 0 or micro_batch >= n:
        return [(x, labels)]
    return [(x[i:i + micro_batch], labels[i:i + micro_batch])
            for i in range(0, n, micro_batch)]


def accumulate_gradients(model: Model, shards, step_rng=None, threads: int = 1):
    """Backprop the mean cross entropy over shards.

    Each shard runs a full training forward/backward with its own gradient
    map and deferred batch-norm statistics, so shards never race. Every
    shard runs in the caller's grad mode, at any thread count. Results are
    folded in shard index order regardless of which thread finished first.
    Returns (mean loss, stacked logits in input order, ``{param name:
    gradient}``); the model's parameters are left untouched.
    """
    if not shards:
        raise ValueError("no shards to process")
    n_total = sum(len(y) for _, y in shards)
    if step_rng is not None:
        shard_rngs = step_rng.spawn(len(shards))
    else:
        shard_rngs = [None] * len(shards)
    results = [None] * len(shards)

    def run(i: int):
        x, y = shards[i]
        sink = []
        logits = model.forward(x, training=True, rng=shard_rngs[i],
                               stats_sink=sink)
        loss = cross_entropy(logits, y)
        grads = T.backward(T.mul(loss, len(y) / n_total))
        results[i] = (grads, sink, float(loss.data), logits.data)

    if threads <= 1 or len(shards) == 1:
        for i in range(len(shards)):
            run(i)
    else:
        # pool threads start in a fresh context; one copy of the caller's per
        # shard, because a context cannot be entered by two threads at once
        contexts = [contextvars.copy_context() for _ in shards]
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(lambda i: contexts[i].run(run, i), range(len(shards))))

    params = list(model.named_params())
    grads = {}
    mean_loss = 0.0
    for i in range(len(shards)):
        shard_grads, sink, loss_i, _ = results[i]
        for name, p in params:
            g = shard_grads.get(p.node)
            if g is not None:
                grads[name] = g if name not in grads else grads[name] + g
        for layer, mean, var in sink:
            layer.apply_stats(mean, var)
        mean_loss += loss_i * (len(shards[i][1]) / n_total)
    logits = np.concatenate([r[3] for r in results], axis=0)
    return mean_loss, logits, grads


# ---------------------------------------------------------------------------
# synthetic motion data

# 25-joint rest pose, one row per joint: x right, y up, z toward camera
REST_POSE = np.array([
    [0.00, 0.00, 0.00],   # spine base
    [0.00, 0.25, 0.00],   # spine mid
    [0.00, 0.50, 0.00],   # neck
    [0.00, 0.65, 0.00],   # head
    [-0.20, 0.45, 0.00],  # left shoulder
    [-0.25, 0.20, 0.00],  # left elbow
    [-0.27, 0.00, 0.00],  # left wrist
    [-0.28, -0.05, 0.00],  # left hand
    [0.20, 0.45, 0.00],   # right shoulder
    [0.25, 0.20, 0.00],   # right elbow
    [0.27, 0.00, 0.00],   # right wrist
    [0.28, -0.05, 0.00],  # right hand
    [-0.10, -0.05, 0.00],  # left hip
    [-0.12, -0.50, 0.00],  # left knee
    [-0.13, -0.90, 0.00],  # left ankle
    [-0.15, -0.95, 0.05],  # left foot
    [0.10, -0.05, 0.00],  # right hip
    [0.12, -0.50, 0.00],  # right knee
    [0.13, -0.90, 0.00],  # right ankle
    [0.15, -0.95, 0.05],  # right foot
    [0.00, 0.45, 0.00],   # shoulder center
    [-0.29, -0.10, 0.00],  # left hand tip
    [-0.26, -0.08, 0.02],  # left thumb
    [0.29, -0.10, 0.00],  # right hand tip
    [0.26, -0.08, 0.02],  # right thumb
], dtype=np.float64)

_RIGHT_ARM = (8, 9, 10, 11, 23, 24)
_RIGHT_HAND = (10, 11, 23, 24)
_LEFT_LEG = (13, 14, 15)
_RIGHT_LEG = (17, 18, 19)
_UPPER = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21, 22, 23, 24)
_HANDS_FWD = (6, 7, 10, 11, 21, 22, 23, 24)
_ELBOWS = (5, 9)


def _template(label: int, frames: int) -> np.ndarray:
    """Deterministic (T, V, 3) motion for one of eight action classes."""
    t = np.arange(frames) / max(frames - 1, 1)
    phase = 2.0 * np.pi * t
    coords = np.tile(REST_POSE, (frames, 1, 1))
    if label == 0:    # still
        pass
    elif label == 1:  # raise right arm overhead and hold
        lift = np.minimum(t * 2.0, 1.0)
        coords[:, _RIGHT_ARM, 1] += 0.6 * lift[:, None]
        coords[:, _RIGHT_ARM, 0] -= 0.15 * lift[:, None]
    elif label == 2:  # wave with the raised right hand
        coords[:, _RIGHT_ARM, 1] += 0.5
        coords[:, _RIGHT_HAND, 0] += 0.15 * np.sin(4.0 * phase)[:, None]
    elif label == 3:  # squat: trunk drops, knees push forward
        dip = 0.5 - 0.5 * np.cos(phase)
        coords[:, _UPPER, 1] -= 0.3 * dip[:, None]
        coords[:, (13, 17), 2] += 0.2 * dip[:, None]
        coords[:, (0, 12, 16), 1] -= 0.25 * dip[:, None]
    elif label == 4:  # forward kick with the right leg
        swing = np.sin(np.pi * t)
        coords[:, (18, 19), 2] += 0.5 * swing[:, None]
        coords[:, (18, 19), 1] += 0.3 * swing[:, None]
        coords[:, 17, 2] += 0.2 * swing
    elif label == 5:  # sideways lean of the whole upper body
        sway = 0.3 * np.sin(phase)
        height = np.maximum(REST_POSE[:, 1] + 0.05, 0.0)
        coords[:, :, 0] += sway[:, None] * height[None, :]
    elif label == 6:  # reach both hands forward
        reach = np.minimum(t * 2.0, 1.0)
        coords[:, _HANDS_FWD, 2] += 0.5 * reach[:, None]
        coords[:, _ELBOWS, 2] += 0.25 * reach[:, None]
    elif label == 7:  # march in place, alternating knees
        left = np.maximum(np.sin(2.0 * phase), 0.0)
        right = np.maximum(-np.sin(2.0 * phase), 0.0)
        coords[:, _LEFT_LEG, 1] += 0.25 * left[:, None]
        coords[:, _LEFT_LEG, 2] += 0.10 * left[:, None]
        coords[:, _RIGHT_LEG, 1] += 0.25 * right[:, None]
        coords[:, _RIGHT_LEG, 2] += 0.10 * right[:, None]
    else:
        raise ValueError(f"no template for label {label}")
    return coords


NUM_TEMPLATES = 8
NOISE = 0.02  # scale of the Gaussian noise added to every coordinate


def make_synthetic(per_class: int, frames: int = 64, seed: int = 0,
                   classes: int = NUM_TEMPLATES):
    """Build labeled one-person 25-joint sequences from motion templates.

    Additive coordinate noise (scale ``NOISE``) is the only stochastic
    element, so a seed pins the dataset exactly.
    """
    if not 1 <= classes <= NUM_TEMPLATES:
        raise ValueError(f"classes must be in [1, {NUM_TEMPLATES}]")
    for name, value in (("per_class", per_class), ("frames", frames)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = np.random.default_rng(seed)
    seqs = []
    for label in range(classes):
        clean = _template(label, frames)
        for i in range(per_class):
            coords = clean + rng.normal(scale=NOISE, size=clean.shape)
            seqs.append(SkeletonSequence(coords[None], label=label,
                                         source_id=f"syn-{label}-{i}"))
    return seqs


def synthetic_split(per_train: int = 50, per_val: int = 20, frames: int = 64,
                    seed: int = 0, classes: int = NUM_TEMPLATES):
    """Disjoint train and validation draws from the same template set."""
    train = make_synthetic(per_train, frames, seed, classes)
    val = make_synthetic(per_val, frames, seed + 10_000, classes)
    return train, val


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    micro_batch: int = 0
    lr: float = 0.1
    milestones: tuple = (60, 90)
    lr_factor: float = 0.1
    seed: int = 1
    stream: str = "joint"
    max_frames: int = 300

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("micro_batch", 0),
                          ("seed", None), ("max_frames", 1)):
            setattr(self, name, config_int(name, getattr(self, name), low))
        self.milestones = config_ints("milestones", self.milestones)
        for name in ("lr", "lr_factor"):
            config_real(name, getattr(self, name))
        if self.lr <= 0.0:
            raise ConfigError("lr must be positive")
        if self.stream not in STREAMS:
            raise ConfigError(f"stream must be one of {STREAMS}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["milestones"] = list(self.milestones)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        config_keys("training", cls, d)
        return cls(**d)


LOSS_CEILING = 50.0  # a batch loss above this is divergence

HISTORY_FIELDS = ("epoch", "lr", "train_loss", "train_acc", "val_acc")


def write_history(path, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=HISTORY_FIELDS)
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(row[k]) if isinstance(row[k], float)
                        else row[k] for k in HISTORY_FIELDS})


def train(model: Model, train_seqs, val_seqs=None,
          config: TrainConfig = None, threads: int = None,
          callback=None):
    """Run the full optimization loop; returns per-epoch history rows.

    Raises TrainingDiverged when the batch loss stops being finite or
    exceeds ``LOSS_CEILING``.
    """
    cfg = config if config is not None else TrainConfig()
    if threads is None:
        threads = thread_count()
    if not train_seqs:
        raise ValueError("no training sequences")
    rng = np.random.default_rng(cfg.seed)
    opt = SGD(model, cfg.lr)
    graph = model.config.graph
    n = len(train_seqs)
    history = []
    for epoch in range(cfg.epochs):
        opt.lr = lr_at(epoch, cfg.lr, cfg.milestones, cfg.lr_factor)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            chunk = [train_seqs[i] for i in idx]
            x, labels = assemble_batch(chunk, graph, stream=cfg.stream,
                                       max_frames=cfg.max_frames)
            shards = shard_batch(x, labels, cfg.micro_batch)
            loss, logits, grads = accumulate_gradients(model, shards, rng,
                                                       threads)
            if not np.isfinite(loss) or loss > LOSS_CEILING:
                raise TrainingDiverged(
                    f"loss {loss} at epoch {epoch} step {start // cfg.batch_size}")
            opt.step(grads)
            loss_sum += loss * len(labels)
            correct += int((np.argmax(logits, axis=1) == labels).sum())
        val_acc = float("nan")
        if val_seqs:
            scores, val_labels = score_dataset(
                model, val_seqs, stream=cfg.stream, batch_size=64,
                max_frames=cfg.max_frames)
            val_acc = topk_accuracy(scores, val_labels, 1)
        row = {
            "epoch": epoch,
            "lr": opt.lr,
            "train_loss": loss_sum / n,
            "train_acc": correct / n,
            "val_acc": val_acc,
        }
        history.append(row)
        if callback is not None:
            callback(epoch, model, opt, row)
    return history, opt
