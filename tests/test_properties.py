"""Randomized structural invariants (hypothesis)."""

import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hagcn import attention as A
from hagcn import cli
from hagcn import network as N
from hagcn import tensor as T
from hagcn.errors import FormatError
from hagcn.graph import GraphSpec, build_graph, normalize_columns
from hagcn.ingest import load_cache, save_cache
from hagcn.serialize import read_tensor, write_tensor
from hagcn.training import make_synthetic

from test_network import tiny_config, tiny_graph

COMMON = settings(max_examples=100, deadline=None)


def finite(shape, lo=-5.0, hi=5.0):
    return hnp.arrays(np.float64, shape,
                      elements=st.floats(lo, hi, allow_nan=False))


@COMMON
@given(finite((6, 6), 0.0, 3.0))
def test_column_normalization_property(a):
    out = normalize_columns(a)
    sums = out.sum(axis=0)
    for j in range(6):
        if a[:, j].sum() > 0.0:
            assert abs(sums[j] - 1.0) < 1e-12
        else:
            assert np.all(out[:, j] == 0.0)
    # idempotent once normalized
    np.testing.assert_allclose(normalize_columns(out), out, atol=1e-12)


@COMMON
@given(finite((2, 3, 4, 5)))
def test_rd_antisymmetric_ra_symmetric(f):
    feats = T.Tensor(f)
    rd = A.rd_mask(feats).data
    ra = A.ra_mask(feats).data
    np.testing.assert_allclose(rd + np.swapaxes(rd, -1, -2), 0.0, atol=1e-12)
    np.testing.assert_array_equal(ra, np.swapaxes(ra, -1, -2))
    assert np.abs(rd).max() <= 1.0 and np.abs(ra).max() <= 1.0


@COMMON
@given(finite((2, 3, 4, 5)), st.permutations(range(5)))
def test_pairwise_masks_are_permutation_equivariant(f, perm):
    perm = np.array(perm)
    feats = T.Tensor(f)
    permuted = T.Tensor(f[:, :, :, perm])
    for mask_fn in (A.rd_mask, A.ra_mask):
        base = mask_fn(feats).data
        moved = mask_fn(permuted).data
        # relabeling joints relabels both mask axes identically
        assert moved.tobytes() == \
            base[:, :, perm][:, :, :, perm].tobytes()


@COMMON
@given(finite((3, 7), -30.0, 30.0))
def test_softmax_rows_normalize(z):
    probs = T.softmax(T.Tensor(z), axis=1).data
    assert np.all(probs > 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    logp = T.log_softmax(T.Tensor(z), axis=1).data
    np.testing.assert_allclose(np.exp(logp), probs, atol=1e-12)


_PROP_MODEL = N.Model(tiny_config(), seed=77)


@COMMON
@given(finite((1, 1, 3, 6, 5), -2.0, 2.0))
def test_eval_forward_deterministic(x):
    a = _PROP_MODEL.forward(x, training=False).data
    b = _PROP_MODEL.forward(x, training=False).data
    assert a.tobytes() == b.tobytes()


@COMMON
@given(st.sampled_from(["hybrid", "rd", "ra"]), st.booleans(),
       st.sampled_from(["multiscale", "single"]),
       st.integers(0, 2 ** 31 - 1))
def test_checkpoint_round_trip_property(branches, ext, tmode, seed):
    cfg = N.ModelConfig(num_classes=3, graph=tiny_graph(), channels=(8,),
                        strides=(1,), attention=branches,
                        extension_conv=ext, temporal_mode=tmode, dropout=0.0)
    model = N.Model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 3, 6, 5))
    want = model.forward(x, training=False).data
    with tempfile.NamedTemporaryFile(suffix=".hagc") as f:
        N.save_checkpoint(f.name, model, epoch=3)
        loaded, epoch, _ = N.load_checkpoint(f.name)
    assert epoch == 3
    got = loaded.forward(x, training=False).data
    assert got.tobytes() == want.tobytes()


@COMMON
@given(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=6)
       .flatmap(lambda s: hnp.arrays(
           np.float64, s, elements=st.floats(-1e12, 1e12, allow_nan=False))))
def test_tensor_blob_round_trip_property(arr):
    buf = io.BytesIO()
    write_tensor(buf, arr)
    buf.seek(0)
    out = read_tensor(buf)
    assert out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()


# -- hostile files: byte mutations and truncations of valid caches and
# checkpoints fail with FormatError and nothing else

@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a small valid HAGD cache and a HAGC checkpoint that scores it."""
    root = tmp_path_factory.mktemp("fuzz")
    cache, ckpt = str(root / "seqs.hagd"), str(root / "model.hagc")
    save_cache(cache, make_synthetic(1, frames=6, classes=3))
    cfg = N.ModelConfig(num_classes=3, graph=build_graph("ntu25"),
                        channels=(8,), strides=(1,), dropout=0.0)
    N.save_checkpoint(ckpt, N.Model(cfg, seed=0), epoch=1)
    with open(cache, "rb") as f, open(ckpt, "rb") as g:
        return {"hagd": f.read(), "hagc": g.read()}


def mutate(raw, edits, cut):
    buf = bytearray(raw)
    for pos, byte in edits:
        buf[pos % len(buf)] = byte
    return bytes(buf[:cut % (len(buf) + 1)] if cut is not None else buf)


EDITS = st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)),
                 max_size=4)
CUTS = st.none() | st.integers(0, 2 ** 20)


def loads_or_format_error(load, raw) -> bool:
    """True if the bytes load; False on FormatError; anything else raises."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f")
        with open(path, "wb") as f:
            f.write(raw)
        try:
            load(path)
        except FormatError:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["hagd", "hagc"]), EDITS, CUTS)
def test_mutated_files_raise_only_format_error(valid_files, kind, edits, cut):
    load = load_cache if kind == "hagd" else N.load_checkpoint
    loads_or_format_error(load, mutate(valid_files[kind], edits, cut))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["hagd", "hagc"]), EDITS, CUTS)
def test_eval_on_mutated_files_exits_one(valid_files, kind, edits, cut):
    raw = mutate(valid_files[kind], edits, cut)
    load = load_cache if kind == "hagd" else N.load_checkpoint
    ok = loads_or_format_error(load, raw)
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        # a cache that loads holds coordinates within ingest.MAX_COORD, so no
        # norm of the valid model overflows on it; a checkpoint that loads
        # may hold huge values, but scoring refuses overflowing arithmetic
        warnings.simplefilter("error", RuntimeWarning)
        files = {}
        for name, data in valid_files.items():
            files[name] = os.path.join(d, "f." + name)
            with open(files[name], "wb") as f:
                f.write(raw if name == kind else data)
        code = cli.main(["eval", "--checkpoint", files["hagc"], "--cache",
                         files["hagd"], "--out", os.path.join(d, "r.json")])
    # a file that loads can still be refused, e.g. a graph whose joint
    # count no longer matches the cache
    assert code == 1 if not ok else code in (0, 1)
