"""Network assembly: residual blocks, the full model and checkpoints.

A block computes ReLU(BN(temporal(BN(spatial(X)))) + residual(X)); the
residual is the identity when channel count and stride allow, otherwise a
strided 1x1 conv. The model folds the person axis into the batch, applies an
input batch norm over channels, runs the block stack, pools over frames and
joints, averages person features, applies dropout (training only) and a
linear classifier. Training mode returns logits; eval mode returns softmax
probabilities. An eval forward that builds no graph and captures no masks
(every scoring path) runs an absent person, a person slot whose input is all
zero, once per batch and gives every such slot that run's pooled features,
bit for bit what running each would give; training runs every slot, because
its batch statistics span absent persons too.

Checkpoints (magic ``HAGC``) embed the config as a JSON block followed by
named parameter, buffer and optimizer-state tensors, enough to rebuild the
model bit-exactly. The SGD velocity is stored, but training cannot resume
from a checkpoint yet: the training config, history and RNG state are not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import tensor as T
from .attention import BRANCH_MODES, HybridSpatialAttention
from .errors import (ConfigError, FormatError, config_bool, config_int,
                     config_ints, config_keys, config_real)
from .graph import GraphSpec, build_graph
from .layers import BatchNorm, Layer, uniform_init, zeros_param
from .serialize import (read_json_block, read_named_tensors, write_json_block,
                        write_named_tensors)
from .temporal import TEMPORAL_MODES, TemporalConv

CHECKPOINT_MAGIC = b"HAGC"
CHECKPOINT_VERSION = 1

NTU_CHANNELS = (64, 64, 64, 64, 128, 128, 128, 256, 256, 256)
NTU_STRIDES = (1, 1, 1, 1, 2, 1, 1, 2, 1, 1)


@dataclass
class ModelConfig:
    num_classes: int
    graph: GraphSpec
    in_channels: int = 3
    channels: tuple = NTU_CHANNELS
    strides: tuple = NTU_STRIDES
    attention: str = "hybrid"
    extension_conv: bool = True
    temporal_mode: str = "multiscale"
    dropout: float = 0.5

    def __post_init__(self):
        self.num_classes = config_int("num_classes", self.num_classes, low=2)
        self.in_channels = config_int("in_channels", self.in_channels, low=1)
        self.channels = config_ints("channels", self.channels, low=1)
        self.strides = config_ints("strides", self.strides, low=1)
        config_bool("extension_conv", self.extension_conv)
        config_real("dropout", self.dropout)
        if not self.channels:
            raise ConfigError("at least one block required")
        if len(self.channels) != len(self.strides):
            raise ConfigError("channels and strides must have equal length")
        if self.attention not in BRANCH_MODES:
            raise ConfigError(f"attention must be one of {BRANCH_MODES}")
        if self.temporal_mode not in TEMPORAL_MODES:
            raise ConfigError(f"temporal_mode must be one of {TEMPORAL_MODES}")
        if self.temporal_mode == "multiscale" and any(c % 4 for c in self.channels):
            raise ConfigError("multiscale temporal conv needs channels "
                              "divisible by 4")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")

    @classmethod
    def ntu_default(cls, num_classes: int = 60) -> "ModelConfig":
        return cls(num_classes=num_classes, graph=build_graph("ntu25"))

    def single_branch(self, which: str = "rd") -> "ModelConfig":
        return replace(self, attention=which)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        config_keys("model", cls, d, required=("num_classes", "graph"))
        kw = dict(d)
        kw["graph"] = GraphSpec.from_dict(d["graph"])
        return cls(**kw)


class Block(Layer):
    def __init__(self, c_in: int, c_out: int, stride: int, graph: GraphSpec,
                 rng: np.random.Generator, attention: str = "hybrid",
                 extension_conv: bool = True, temporal_mode: str = "multiscale"):
        self.spatial = HybridSpatialAttention(c_in, c_out, graph, rng,
                                              branches=attention,
                                              extension_conv=extension_conv)
        self.bn_s = BatchNorm(c_out)
        self.temporal = TemporalConv(c_out, stride=stride, mode=temporal_mode,
                                     rng=rng)
        self.bn_t = BatchNorm(c_out)
        if c_in == c_out and stride == 1:
            self.res_w = None
            self.res_b = None
        else:
            self.res_w = uniform_init(rng, (c_out, c_in, 1, 1), c_in)
            self.res_b = zeros_param(c_out)
        self.stride = stride

    def forward(self, x, training: bool, disable: str = "none",
                mask_out=None, stats_sink=None):
        y = self.spatial.forward(x, disable=disable, mask_out=mask_out)
        y = self.bn_s.forward(y, training, stats_sink)
        y = self.temporal.forward(y, training, stats_sink)
        y = self.bn_t.forward(y, training, stats_sink)
        if self.res_w is None:
            r = x
        else:
            r = T.conv2d(x, self.res_w, self.res_b, stride=self.stride)
        return T.relu(T.add(y, r))


def _slot_rows(xf: np.ndarray):
    """Slots to run and each slot's row among them, for a no-graph eval
    forward of folded (N*M, C, T, V) input; None when every slot holds data.

    Slots whose input bits are all zero (absent persons) share the run of
    the first of them. In eval mode no slot's features depend on another:
    batch norm uses running statistics, layer norm works per sample and
    numpy runs one GEMM per batch slice.
    """
    has_data = xf.reshape(len(xf), -1).view(np.uint64).any(axis=1)
    absent = np.flatnonzero(~has_data)
    if not absent.size:
        return None
    run = has_data
    run[absent[0]] = True
    index = np.cumsum(run) - 1
    index[absent] = index[absent[0]]
    return run, index


class Model(Layer):
    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.data_bn = BatchNorm(config.in_channels)
        blocks = []
        c_prev = config.in_channels
        for c_out, stride in zip(config.channels, config.strides):
            blocks.append(Block(c_prev, c_out, stride, config.graph, rng,
                                attention=config.attention,
                                extension_conv=config.extension_conv,
                                temporal_mode=config.temporal_mode))
            c_prev = c_out
        self.blocks = blocks
        self.fc_w = uniform_init(rng, (config.num_classes, c_prev), c_prev)
        self.fc_b = zeros_param(config.num_classes)
        self.config = config

    def forward(self, x, training: bool = False,
                rng: np.random.Generator = None, disable: str = "none",
                mask_block=None, mask_out=None, stats_sink=None):
        """Run (N, M, C, T, V) input to (N, num_classes) scores.

        Training mode returns logits, applies dropout (needing an rng at a
        nonzero rate) and needs a ``stats_sink``; eval mode returns softmax
        probabilities. ``mask_block``/``mask_out`` capture one block's three
        subset masks, running every slot: one row per folded slot n * M + m.
        """
        x = T.as_tensor(x)
        if x.ndim != 5:
            raise ValueError("model input must be (N, M, C, T, V)")
        n, m, c, t, v = x.data.shape
        cfg = self.config
        if c != cfg.in_channels:
            raise ValueError(f"expected {cfg.in_channels} channels, got {c}")
        if v != cfg.graph.num_joints:
            raise ValueError(f"expected {cfg.graph.num_joints} joints, got {v}")
        if n < 1 or m < 1 or t < 1:
            raise ValueError("empty batch, person or frame axis")

        h = T.reshape(x, (n * m, c, t, v))
        slots = None
        if not (training or T.grad_enabled() or mask_out is not None):
            slots = _slot_rows(h.data)
        if slots is not None:
            run, index = slots
            h = T.as_tensor(h.data[run])
        h = self.data_bn.forward(h, training, stats_sink)
        for i, blk in enumerate(self.blocks):
            h = blk.forward(h, training, disable=disable,
                            mask_out=mask_out if i == mask_block else None,
                            stats_sink=stats_sink)
        h = T.tmean(h, axes=(2, 3))  # pool frames and joints
        if slots is not None:
            h = T.as_tensor(h.data[index])
        h = T.reshape(h, (n, m, h.data.shape[1]))
        h = T.tmean(h, axes=1)  # average person features
        if training:
            h = T.dropout(h, cfg.dropout, rng)
        logits = T.add(T.matmul(h, T.transpose(self.fc_w, (1, 0))), self.fc_b)
        if training:
            return logits
        return T.softmax(logits, axis=1)


# ---------------------------------------------------------------------------
# checkpoints


def _refuse_non_finite(named_arrays) -> None:
    """Shared by save and load, so no saved value is one load refuses."""
    for name, arr in named_arrays:
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint tensor {name} holds non-finite "
                              f"values")


def save_checkpoint(path, model: Model, epoch: int = 0, optimizer=None) -> None:
    """Write a HAGC checkpoint; a non-finite tensor is refused before the
    file is opened, so it leaves none."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "epoch": int(epoch),
    }
    params = [(n, p.data) for n, p in model.named_params()]
    buffers = list(model.named_buffers())
    opt_items = optimizer.state_tensors() if optimizer is not None else []
    _refuse_non_finite(params + buffers + opt_items)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        write_json_block(f, header)
        write_named_tensors(f, params)
        write_named_tensors(f, buffers)
        write_named_tensors(f, opt_items)


def load_checkpoint(path):
    """Rebuild (model, epoch, optimizer_state) from a checkpoint file.

    Stored tensors must match the configured model's parameter and buffer
    names and shapes, and every stored value must be finite; they are copied
    into the model's own arrays.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        header = read_json_block(f)
        if not isinstance(header, dict):
            raise FormatError("checkpoint header must be a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version "
                              f"{header.get('format_version')}")
        if not isinstance(header.get("config"), dict):
            raise FormatError("checkpoint header lacks a config object")
        epoch = header.get("epoch", 0)
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise FormatError(f"checkpoint epoch must be an integer of at "
                              f"least 0, got {epoch!r}")
        try:
            model = Model(ModelConfig.from_dict(header["config"]), seed=0)
        except ValueError as e:  # ConfigError, or a graph GraphSpec rejects
            raise FormatError(f"checkpoint config: {e}") from e
        params = read_named_tensors(f)
        buffers = read_named_tensors(f)
        opt_state = read_named_tensors(f)

    _refuse_non_finite([*params.items(), *buffers.items(),
                        *opt_state.items()])
    for kind, stored, targets in (
            ("parameter", params,
             {n: p.data for n, p in model.named_params()}),
            ("buffer", buffers, dict(model.named_buffers()))):
        if set(stored) != set(targets):
            raise FormatError(f"checkpoint {kind} names do not match the "
                              f"configured model")
        for name, arr in stored.items():
            if arr.shape != targets[name].shape:
                raise FormatError(f"checkpoint {kind} {name} has shape "
                                  f"{arr.shape}, model expects "
                                  f"{targets[name].shape}")
            targets[name][...] = arr
    return model, epoch, opt_state
