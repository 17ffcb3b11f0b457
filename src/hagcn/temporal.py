"""Temporal convolution: multi-scale dilated branches or one wide kernel.

Multiscale mode splits the channels across four branches in fixed dilation
order d = 1, 2, 3, 4. Each branch is a 1x1 reduction to C/4 channels (batch
norm, ReLU) followed by a 3x1 temporal conv with dilation d, padding d and
the block's stride (batch norm, no activation); branch outputs concatenate
back to C channels, so output channel slice [b*C/4, (b+1)*C/4) belongs to
dilation b+1. Single mode is one 9x1 conv with padding 4.

Every conv here reads a batch norm's output, or relu of one, so none keeps
its input for the weight gradient: the engine replays it (see ``tensor``).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import BatchNorm, Layer, uniform_init, zeros_param

DILATIONS = (1, 2, 3, 4)
TEMPORAL_MODES = ("multiscale", "single")


class TemporalBranch(Layer):
    def __init__(self, c_in: int, c_branch: int, dilation: int, stride: int,
                 rng: np.random.Generator):
        self.reduce_w = uniform_init(rng, (c_branch, c_in, 1, 1), c_in)
        self.reduce_b = zeros_param(c_branch)
        self.bn_mid = BatchNorm(c_branch)
        self.conv_w = uniform_init(rng, (c_branch, c_branch, 3, 1), c_branch * 3)
        self.conv_b = zeros_param(c_branch)
        self.bn_out = BatchNorm(c_branch)
        self.dilation = dilation
        self.stride = stride

    def forward(self, x, training: bool, stats_sink=None):
        y = T.conv2d(x, self.reduce_w, self.reduce_b)
        y = T.relu(self.bn_mid.forward(y, training, stats_sink))
        y = T.conv2d(x=y, w=self.conv_w, b=self.conv_b, stride=self.stride,
                     dilation=self.dilation, pad=self.dilation)
        return self.bn_out.forward(y, training, stats_sink)


class TemporalConv(Layer):
    def __init__(self, channels: int, stride: int = 1,
                 mode: str = "multiscale", rng: np.random.Generator = None):
        if mode not in TEMPORAL_MODES:
            raise ValueError(f"mode must be one of {TEMPORAL_MODES}")
        self.mode_single = mode == "single"
        self.stride = stride
        if self.mode_single:
            self.w = uniform_init(rng, (channels, channels, 9, 1), channels * 9)
            self.b = zeros_param(channels)
        else:
            if channels % 4:
                raise ValueError("multiscale temporal conv needs channels "
                                 "divisible by 4")
            self.branches = [TemporalBranch(channels, channels // 4, d, stride, rng)
                             for d in DILATIONS]

    def forward(self, x, training: bool, stats_sink=None):
        if self.mode_single:
            return T.conv2d(x, self.w, self.b, stride=self.stride, pad=4)
        return T.concat([br.forward(x, training, stats_sink)
                         for br in self.branches], axis=1)
