import numpy as np
import pytest

import brute
from hagcn import tensor as T
from hagcn.attention import (BranchCompression, HybridSpatialAttention,
                             SubsetAttention, inter_channels, ra_mask, rd_mask)
from hagcn.graph import GraphSpec
from hagcn.tensor import Tensor, grad_check


def toy_graph(v=5):
    return GraphSpec(num_joints=v, edges=tuple((i, i + 1) for i in range(v - 1)),
                     hub_joints=(0, v - 1), extra_links=True)


def toy_layer(c_in=3, c_out=8, seed=0, **kw):
    rng = np.random.default_rng(seed)
    layer = HybridSpatialAttention(c_in, c_out, toy_graph(), rng, **kw)
    brute.randomize_layer(layer, np.random.default_rng(seed + 100))
    return layer


def toy_input(c_in=3, seed=1, n=2, t=4, v=5):
    return Tensor(np.random.default_rng(seed).standard_normal((n, c_in, t, v)))


class TestCompressionWidth:
    def test_ratio_with_floor(self):
        assert inter_channels(64) == 8
        assert inter_channels(128) == 16
        assert inter_channels(256) == 32
        # floor of 4 keeps narrow inputs valid
        assert inter_channels(8) == 4
        assert inter_channels(3) == 4

    def test_compress_output_shape(self):
        rng = np.random.default_rng(0)
        comp = BranchCompression(6, 4, rng)
        out = comp.forward(toy_input(c_in=6))
        assert out.data.shape == (2, 4, 4, 5)


class TestMaskStructure:
    def test_rd_antisymmetric(self):
        f = toy_input(c_in=4, seed=3)
        a = rd_mask(f).data
        assert np.allclose(a, -a.transpose(0, 1, 3, 2), atol=1e-14)
        assert np.allclose(np.diagonal(a, axis1=2, axis2=3), 0.0, atol=1e-15)

    def test_ra_symmetric(self):
        f = toy_input(c_in=4, seed=4)
        a = ra_mask(f).data
        assert np.allclose(a, a.transpose(0, 1, 3, 2), atol=1e-13)

    def test_rd_uses_temporal_mean(self):
        # constant-over-time features give the same mask as a single frame
        base = np.random.default_rng(5).standard_normal((1, 3, 1, 4))
        rep = Tensor(np.repeat(base, 6, axis=2))
        one = Tensor(base)
        assert np.allclose(rd_mask(rep).data, rd_mask(one).data, atol=1e-12)

    def test_values_bounded_by_tanh(self):
        f = Tensor(np.random.default_rng(6).standard_normal((2, 3, 4, 5)) * 50)
        assert np.all(np.abs(rd_mask(f).data) <= 1.0)
        assert np.all(np.abs(ra_mask(f).data) <= 1.0)


class TestSubsetBehaviour:
    def test_alpha_zero_matches_disabled_ra(self):
        rng = np.random.default_rng(7)
        sub = SubsetAttention(3, 6, np.eye(5), rng)
        brute.randomize_layer(sub, np.random.default_rng(8))
        sub.alpha.data[...] = 0.0
        x = toy_input()
        full = sub.final_mask(x, disable="none").data
        no_ra = sub.final_mask(x, disable="ra").data
        assert np.array_equal(full, no_ra)

    def test_disable_rd_leaves_scaled_ra(self):
        rng = np.random.default_rng(9)
        sub = SubsetAttention(3, 6, np.zeros((5, 5)), rng,
                              extension_conv=False)
        brute.randomize_layer(sub, np.random.default_rng(10))
        x = toy_input()
        got = sub.final_mask(x, disable="rd").data
        f = sub.ra.forward(x)
        expect = (float(sub.alpha.data) * ra_mask(f).data).mean(axis=1,
                                                                keepdims=True)
        assert np.allclose(got, expect, atol=1e-12)

    def test_all_branches_disabled_leaves_base(self):
        rng = np.random.default_rng(11)
        base = np.random.default_rng(0).random((5, 5))
        sub = SubsetAttention(3, 6, base, rng, branches="rd",
                              extension_conv=False)
        got = sub.final_mask(toy_input(), disable="rd").data
        assert got.shape == (2, 1, 5, 5)
        assert np.allclose(got, base[None, None], atol=1e-15)

    def test_single_branch_layers_have_no_alpha(self):
        rng = np.random.default_rng(12)
        rd_only = SubsetAttention(3, 6, np.eye(5), rng, branches="rd")
        ra_only = SubsetAttention(3, 6, np.eye(5), rng, branches="ra")
        names_rd = [n for n, _ in rd_only.named_params()]
        names_ra = [n for n, _ in ra_only.named_params()]
        assert not any("alpha" in n for n in names_rd + names_ra)
        assert not any(n.startswith("ra.") for n in names_rd)
        assert not any(n.startswith("rd.") for n in names_ra)

    def test_extension_off_shares_mask_across_channels(self):
        rng = np.random.default_rng(13)
        sub = SubsetAttention(3, 6, np.eye(5), rng, extension_conv=False)
        mask = sub.final_mask(toy_input()).data
        assert mask.shape == (2, 1, 5, 5)

    def test_bad_branch_mode(self):
        with pytest.raises(ValueError, match="branches"):
            SubsetAttention(3, 6, np.eye(5), np.random.default_rng(0),
                            branches="both")


class TestOracleEquivalence:
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(extension_conv=False),
        dict(branches="rd"),
        dict(branches="ra"),
    ], ids=["hybrid", "no_ext", "rd_only", "ra_only"])
    def test_matches_brute_force(self, kw):
        layer = toy_layer(**kw)
        x = toy_input(seed=21)
        got = layer.forward(x).data
        want = brute.spatial_attention(layer, x.data)
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("disable", ["rd", "ra"])
    def test_matches_brute_force_disabled(self, disable):
        layer = toy_layer(seed=5)
        x = toy_input(seed=22)
        got = layer.forward(x, disable=disable).data
        want = brute.spatial_attention(layer, x.data, disable=disable)
        assert np.abs(got - want).max() <= 1e-10

    def test_invalid_disable(self):
        with pytest.raises(ValueError, match="disable"):
            toy_layer().forward(toy_input(), disable="all")


class TestLayerApi:
    def test_mask_capture(self):
        layer = toy_layer()
        masks = []
        out = layer.forward(toy_input(), mask_out=masks)
        assert out.data.shape == (2, 8, 4, 5)
        assert len(masks) == 3
        assert all(m.shape == (2, 8, 5, 5) for m in masks)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(30)
        v = 5
        perm = rng.permutation(v)
        g = toy_graph(v)
        pg = GraphSpec(num_joints=v,
                       edges=tuple((int(perm[p]), int(perm[c])) for p, c in g.edges),
                       hub_joints=tuple(int(perm[h]) for h in g.hub_joints),
                       extra_links=True)
        layer = toy_layer()
        playout = HybridSpatialAttention(3, 8, pg, np.random.default_rng(0))
        # share parameters; only the base matrices differ
        for (_, a), (_, b) in zip(playout.named_params(), layer.named_params()):
            a.data[...] = b.data
        x = toy_input(seed=31)
        xp = Tensor(x.data[:, :, :, perm])
        base = layer.forward(x).data
        permuted = playout.forward(xp).data
        assert np.allclose(permuted, base[:, :, :, perm], atol=1e-10)

    def test_gradients(self):
        layer = toy_layer(c_in=3, c_out=4)
        xdata = np.random.default_rng(33).standard_normal((1, 3, 3, 5))
        err = grad_check(lambda t: layer.forward(t),
                         Tensor(xdata, requires_grad=True))
        assert err < 1e-6
        alpha = layer.subsets[0].alpha
        err_a = grad_check(
            lambda t: _with_alpha(layer, t, Tensor(xdata)), alpha)
        assert err_a < 1e-6


def _with_alpha(layer, alpha, x):
    """Forward with the first subset's alpha swapped for ``alpha``."""
    subset = layer.subsets[0]
    old = subset.alpha
    subset.alpha = alpha
    try:
        return layer.forward(x)
    finally:
        subset.alpha = old
