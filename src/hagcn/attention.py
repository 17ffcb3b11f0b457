"""Hybrid spatial attention over skeleton joints.

Each adjacency subset (identity, inward, outward) carries its own attention
unit. Features are compressed by a 1x1 conv to C_inter = max(C_in // 8, 4)
channels and layer-normalized; from the compressed features two data-driven
joint-by-joint masks are formed per channel:

* distance mask: tanh of pairwise differences of temporally averaged
  features, antisymmetric by construction;
* angle mask: tanh of pairwise temporal inner products (no scale factor),
  symmetric by construction.

The hybrid mask is distance + alpha * angle with a single learnable alpha per
subset (init 0). Adding the fixed subset matrix (broadcast over channels)
gives the final mask, which a 1x1 extension conv lifts from C_inter to C_out
channels. With extension_conv disabled the final mask is instead averaged
over channels and shared by all output channels, degenerating to one
attention map per subset. The subset output multiplies a 1x1 value projection
of the input by the mask along the joint axis; subset outputs sum.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .graph import GraphSpec
from .layers import Layer, ones_param, uniform_init, zeros_param
from .tensor import Tensor

BRANCH_MODES = ("hybrid", "rd", "ra")
DISABLE_CHOICES = ("none", "rd", "ra")


def inter_channels(c_in: int) -> int:
    """Compression width: C_in / 8 floored, never below 4."""
    return max(c_in // 8, 4)


class BranchCompression(Layer):
    """1x1 channel compression followed by per-sample layer normalization."""

    def __init__(self, c_in: int, c_inter: int, rng: np.random.Generator):
        self.w = uniform_init(rng, (c_inter, c_in, 1, 1), c_in)
        self.b = zeros_param(c_inter)
        self.gamma = ones_param(c_inter)
        self.beta = zeros_param(c_inter)

    def forward(self, x) -> Tensor:
        return T.layer_norm(T.conv2d(x, self.w, self.b), self.gamma, self.beta)


def rd_mask(f: Tensor) -> Tensor:
    """Pairwise-difference mask from (N, C, T, V) compressed features.

    a[n, c, i, j] = tanh(mean_t f[n,c,t,i] - mean_t f[n,c,t,j]).
    """
    fj = T.tmean(f, axes=2, keepdims=True)  # (N, C, 1, V)
    return T.tanh(T.sub(T.transpose(fj, (0, 1, 3, 2)), fj))


def ra_mask(f: Tensor) -> Tensor:
    """Pairwise temporal inner-product mask, unscaled.

    a[n, c, i, j] = tanh(sum_t f[n,c,t,i] * f[n,c,t,j]).
    """
    return T.tanh(T.matmul(T.transpose(f, (0, 1, 3, 2)), f))


class SubsetAttention(Layer):
    """Attention unit for one adjacency subset."""

    def __init__(self, c_in: int, c_out: int, a_base: np.ndarray,
                 rng: np.random.Generator, branches: str = "hybrid",
                 extension_conv: bool = True):
        if branches not in BRANCH_MODES:
            raise ValueError(f"branches must be one of {BRANCH_MODES}")
        cm = inter_channels(c_in)
        if branches in ("hybrid", "rd"):
            self.rd = BranchCompression(c_in, cm, rng)
        if branches in ("hybrid", "ra"):
            self.ra = BranchCompression(c_in, cm, rng)
        if branches == "hybrid":
            self.alpha = zeros_param(())
        if extension_conv:
            self.ext_w = uniform_init(rng, (c_out, cm, 1, 1), cm)
            self.ext_b = zeros_param(c_out)
        self.val_w = uniform_init(rng, (c_out, c_in, 1, 1), c_in)
        self.val_b = zeros_param(c_out)
        self.a_base = Tensor(a_base)  # fixed subset matrix, (V, V)
        self.branches = branches
        self.extension_conv = extension_conv
        self.c_inter = cm

    def final_mask(self, x, disable: str = "none") -> Tensor:
        """The learned-plus-base mask actually used for aggregation."""
        terms = []
        if self.branches in ("hybrid", "rd") and disable != "rd":
            terms.append(rd_mask(self.rd.forward(x)))
        if self.branches in ("hybrid", "ra") and disable != "ra":
            m = ra_mask(self.ra.forward(x))
            if self.branches == "hybrid":
                m = T.mul(self.alpha, m)
            terms.append(m)
        if not terms:
            # every branch disabled: only the fixed matrix remains
            terms.append(np.zeros((x.data.shape[0], self.c_inter, 1, 1)))
        learned = terms[0] if len(terms) == 1 else T.add(terms[0], terms[1])
        a_fin = T.add(learned, self.a_base)
        if not self.extension_conv:
            return T.tmean(a_fin, axes=1, keepdims=True)
        return T.conv2d(a_fin, self.ext_w, self.ext_b)

    def forward(self, x, disable: str = "none") -> tuple:
        mask = self.final_mask(x, disable)
        val = T.conv2d(x, self.val_w, self.val_b)
        # y[n,c,t,i] = sum_j mask[n,c,i,j] * val[n,c,t,j]. Both factors are
        # conv outputs, so the product keeps neither: the mask gradient
        # replays the value projection (N*C_out*T*V floats) and the value
        # gradient the extension conv (N*C_out*V*V). The convs and the
        # product stay separate nodes so the flows into x keep their order.
        out = T.matmul(val, T.transpose(mask, (0, 1, 3, 2)))
        return out, mask


class HybridSpatialAttention(Layer):
    """Three subset attention units summed into the spatial output."""

    def __init__(self, c_in: int, c_out: int, graph: GraphSpec,
                 rng: np.random.Generator, branches: str = "hybrid",
                 extension_conv: bool = True):
        subs = graph.subset_matrices()
        self.subsets = [SubsetAttention(c_in, c_out, subs[k], rng,
                                        branches=branches,
                                        extension_conv=extension_conv)
                        for k in range(3)]

    def forward(self, x, disable: str = "none", mask_out=None) -> Tensor:
        if disable not in DISABLE_CHOICES:
            raise ValueError(f"disable must be one of {DISABLE_CHOICES}")
        total = None
        for sub in self.subsets:
            y, mask = sub.forward(x, disable)
            if mask_out is not None:
                mask_out.append(mask.data)
            total = y if total is None else T.add(total, y)
            # free this subset's mask and output before the next one runs
            del y, mask
        return total
