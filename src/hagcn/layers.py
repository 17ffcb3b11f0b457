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

    def _walk(self, path, want_params):
        for name, value in self.__dict__.items():
            key = path + name
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

    def named_params(self):
        yield from self._walk("", True)

    def named_buffers(self):
        yield from self._walk("", False)

    def param_count(self) -> int:
        return sum(p.data.size for _, p in self.named_params())


class BatchNorm(Layer):
    """Batch normalization layer owning affine params and running stats."""

    momentum = 0.1  # running-stat update weight
    eps = 1e-5

    def __init__(self, channels: int):
        self.gamma = ones_param(channels)
        self.beta = zeros_param(channels)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def apply_stats(self, mean: np.ndarray, var: np.ndarray):
        m = self.momentum
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var

    def forward(self, x, training: bool, stats_sink=None) -> Tensor:
        """Training uses batch statistics, appends ``(self, mean, var)`` to
        ``stats_sink`` (required) and leaves the running statistics alone."""
        if not training:
            return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                                self.running_var, eps=self.eps)
        if stats_sink is None:
            raise ValueError("a training forward needs a stats_sink")
        stats = []
        y = T.batch_norm(x, self.gamma, self.beta, eps=self.eps,
                         stats_out=stats)
        stats_sink.append((self, *stats[0]))
        return y
