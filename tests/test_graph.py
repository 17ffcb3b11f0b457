import hashlib
from dataclasses import replace

import numpy as np
import pytest

from hagcn.errors import ConfigError, FormatError
from hagcn.graph import GraphSpec, build_graph, normalize_columns

# SHA-256 of subset_matrices().tobytes() for each built-in skeleton with hub
# links on and off; any change to a joint, edge, hub or the arithmetic moves it
SUBSET_SHA256 = {
    ("ntu25", True):
        "2f16fa961328a5170b69a75ff80426698c34d23f73a83017588a492c525d8ef5",
    ("ntu25", False):
        "7a5cb067eb6f2928de376dd62926270d502c3e225538ebc8772c451546d44653",
    ("openpose18", True):
        "56947c17291bb15c779f1e80fdd21ee5e82b23b9098c447c794b2a083cc94e39",
    ("openpose18", False):
        "534c4eede6a100dc8c1ee57b3e91ec86436d1d3f8cbfb3f90bf20779954ba53a",
}


class TestNormalize:
    def test_unit_columns_unchanged(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(normalize_columns(a), a)

    def test_zero_columns_stay_zero(self):
        a = np.array([[2.0, 0.0], [2.0, 0.0]])
        out = normalize_columns(a)
        assert np.array_equal(out, [[0.5, 0.0], [0.5, 0.0]])

    def test_column_sums(self):
        rng = np.random.default_rng(0)
        a = rng.random((7, 7)) * (rng.random((7, 7)) > 0.4)
        a[:, 2] = 0.0
        sums = normalize_columns(a).sum(axis=0)
        nonzero = a.sum(axis=0) != 0
        assert np.allclose(sums[nonzero], 1.0, atol=1e-12)
        assert np.array_equal(sums[~nonzero], np.zeros((~nonzero).sum()))

    def test_propagation_direction(self):
        # inward matrix routes the child's features into the parent row
        g = GraphSpec(num_joints=2, edges=((0, 1),))
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, a_in, a_out = g.subset_matrices()
        assert np.array_equal(a_in @ feats, [[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(a_out @ feats, [[0.0, 0.0], [1.0, 2.0]])


class TestGraphSpec:
    def test_subset_shapes_and_identity(self):
        g = build_graph("ntu25")
        subs = g.subset_matrices()
        assert subs.shape == (3, 25, 25)
        assert np.array_equal(subs[0], np.eye(25))

    @pytest.mark.parametrize("kind,links", sorted(SUBSET_SHA256))
    def test_builtin_subset_digest(self, kind, links):
        g = replace(build_graph(kind), extra_links=links)
        digest = hashlib.sha256(g.subset_matrices().tobytes()).hexdigest()
        assert digest == SUBSET_SHA256[kind, links]

    def test_ntu_nonzero_counts_with_links(self):
        subs = build_graph("ntu25").subset_matrices()
        assert np.count_nonzero(subs[1]) == 24 + 10
        assert np.count_nonzero(subs[2]) == 24 + 10

    def test_ntu_nonzero_counts_without_links(self):
        g = replace(build_graph("ntu25"), extra_links=False)
        subs = g.subset_matrices()
        assert np.count_nonzero(subs[1]) == 24
        assert np.count_nonzero(subs[2]) == 24

    def test_openpose_nonzero_counts(self):
        g = build_graph("openpose18")
        assert g.num_joints == 18
        assert g.extra_links
        subs = g.subset_matrices()
        assert np.count_nonzero(subs[1]) == 17 + 10
        assert np.count_nonzero(subs[2]) == 17 + 10

    def test_replace_enables_hub_pairs(self):
        g = GraphSpec(num_joints=3, edges=((0, 1), (1, 2)), hub_joints=(0, 2))
        assert not g.extra_links
        assert np.count_nonzero(g.subset_matrices()[1]) == 2
        linked = replace(g, extra_links=True)
        assert np.count_nonzero(linked.subset_matrices()[1]) == 3

    def test_ntu_tree_rooted_at_spine_mid(self):
        g = build_graph("ntu25")
        parents = g.parents()
        assert parents[1] == -1
        assert (parents == -1).sum() == 1
        assert parents[0] == 1 and parents[20] == 1
        assert parents[3] == 2 and parents[21] == 22

    def test_openpose_tree_rooted_at_neck(self):
        parents = build_graph("openpose18").parents()
        assert parents[1] == -1
        assert (parents == -1).sum() == 1
        assert parents[0] == 1 and parents[16] == 14

    def test_column_normalization_of_builtin(self):
        for kind in ("ntu25", "openpose18"):
            for a in build_graph(kind).subset_matrices()[1:]:
                sums = a.sum(axis=0)
                mask = sums != 0
                assert np.allclose(sums[mask], 1.0, atol=1e-12)

    def test_hub_pair_orientation(self):
        # u < v puts one entry in a_in at [u, v] and one in a_out at [v, u]
        g = GraphSpec(num_joints=4, edges=((0, 1),), hub_joints=(2, 3),
                      extra_links=True)
        _, a_in, a_out = g.subset_matrices()
        assert a_in[2, 3] > 0 and a_in[3, 2] == 0
        assert a_out[3, 2] > 0 and a_out[2, 3] == 0

    def test_round_trip_dict(self):
        g = build_graph("ntu25")
        g2 = GraphSpec.from_dict(g.to_dict())
        assert g2 == g
        assert np.array_equal(g2.subset_matrices(), g.subset_matrices())

    def test_missing_dict_key(self):
        for d in ({"edges": []}, [1, 2], "ntu25", None):
            with pytest.raises(FormatError):
                GraphSpec.from_dict(d)

    def test_unknown_dict_key(self):
        # a misspelt key must not silently fall back to a default
        d = build_graph("ntu25").to_dict()
        d["extralinks"] = d.pop("extra_links")
        with pytest.raises(ConfigError, match="extralinks"):
            GraphSpec.from_dict(d)

    @pytest.mark.parametrize("change,field", [
        ({"extra_links": "false"}, "extra_links"),
        ({"extra_links": 1}, "extra_links"),
        ({"num_joints": 3.9}, "num_joints"),
        ({"num_joints": True}, "num_joints"),
        ({"num_joints": "3"}, "num_joints"),
        ({"num_joints": 0}, "num_joints"),
        ({"edges": [[1.7, 0]]}, "edges"),
        ({"edges": [[0, 1, 2]]}, "edges"),
        ({"edges": [0, 1]}, "edges"),
        ({"edges": "0 1"}, "edges"),
        ({"hub_joints": ["2"]}, "hub_joints"),
        ({"hub_joints": [2.0]}, "hub_joints"),
        ({"hub_joints": 2}, "hub_joints"),
    ])
    def test_dict_values_are_checked_not_coerced(self, change, field):
        d = dict({"num_joints": 3, "edges": [[0, 1], [1, 2]],
                  "hub_joints": [0, 2], "extra_links": True}, **change)
        with pytest.raises(ConfigError, match=f"graph.{field}"):
            GraphSpec.from_dict(d)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown graph"):
            build_graph("coco17")

    @pytest.mark.parametrize("edges,msg", [
        (((0, 0),), "self-loop"),
        (((0, 5),), "out of range"),
        (((0, 1), (2, 1)), "two parents"),
    ])
    def test_validation(self, edges, msg):
        with pytest.raises(ValueError, match=msg):
            GraphSpec(num_joints=3, edges=edges)

    def test_parents_of_custom_tree(self):
        g = GraphSpec(num_joints=5, edges=((0, 1), (0, 2), (2, 3), (2, 4)))
        assert g.parents().tolist() == [-1, 0, 0, 2, 2]
