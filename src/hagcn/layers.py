"""Layer base class, parameter reflection and shared stateful layers."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Weight init U(-b, b) with b = 1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class Layer:
    """Parameter container with reflection over instance attributes.

    Parameters are Tensor attributes with requires_grad set; buffers are
    ndarray attributes (running statistics). Children are Layer attributes or
    lists of Layers. Names follow attribute paths with list indices, e.g.
    ``blocks.3.temporal.branches.0.conv_w``; iteration order is attribute
    declaration order, which fixes serialization and init order.
    """

    def _walk(self, prefix, want_params):
        for name, value in self.__dict__.items():
            key = prefix + name
            if isinstance(value, Tensor):
                if want_params and value.requires_grad:
                    yield key, value
            elif isinstance(value, np.ndarray):
                if not want_params:
                    yield key, value
            elif isinstance(value, Layer):
                yield from value._walk(key + ".", want_params)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Layer):
                        yield from item._walk(f"{key}.{i}.", want_params)

    def named_params(self, prefix: str = ""):
        yield from self._walk(prefix, True)

    def named_buffers(self, prefix: str = ""):
        yield from self._walk(prefix, False)

    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.named_params())


class BatchNorm(Layer):
    """Batch normalization layer owning affine params and running stats."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = ones_param(channels)
        self.beta = zeros_param(channels)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps

    def apply_stats(self, mean: np.ndarray, var: np.ndarray):
        m = self.momentum
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var

    def forward(self, x, training: bool, stats_sink=None) -> Tensor:
        if training:
            xd = x.data if isinstance(x, Tensor) else np.asarray(x)
            mean = xd.mean(axis=(0, 2, 3))
            var = xd.var(axis=(0, 2, 3))
            if stats_sink is None:
                self.apply_stats(mean, var)
            else:
                # deferred so shard-parallel runs can apply updates in order
                stats_sink.append((self, mean, var))
            return T.batch_norm(x, self.gamma, self.beta, mean, var,
                                batch_stats=True, eps=self.eps)
        return T.batch_norm(x, self.gamma, self.beta,
                            self.running_mean, self.running_var,
                            batch_stats=False, eps=self.eps)
