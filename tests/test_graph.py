import numpy as np
import pytest

from hagcn.errors import ConfigError, FormatError
from hagcn.graph import (GraphSpec, build_graph, load_edge_file, normalize_columns,
                         parse_edge_text, with_links)


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
        assert np.array_equal(g.a_in @ feats, [[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(g.a_out @ feats, [[0.0, 0.0], [1.0, 2.0]])


class TestGraphSpec:
    def test_subset_shapes_and_identity(self):
        g = build_graph("ntu25")
        subs = g.subset_matrices()
        assert subs.shape == (3, 25, 25)
        assert np.array_equal(subs[0], np.eye(25))

    def test_ntu_nonzero_counts_with_links(self):
        g = build_graph("ntu25", extra_links=True)
        assert np.count_nonzero(g.a_in) == 24 + 10
        assert np.count_nonzero(g.a_out) == 24 + 10

    def test_ntu_nonzero_counts_without_links(self):
        g = build_graph("ntu25", extra_links=False)
        assert np.count_nonzero(g.a_in) == 24
        assert np.count_nonzero(g.a_out) == 24

    def test_openpose_nonzero_counts(self):
        g = build_graph("openpose18", extra_links=True)
        assert g.num_joints == 18
        assert np.count_nonzero(g.a_in) == 17 + 10
        assert np.count_nonzero(g.a_out) == 17 + 10

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
            g = build_graph(kind, extra_links=True)
            for a in (g.a_in, g.a_out):
                sums = a.sum(axis=0)
                mask = sums != 0
                assert np.allclose(sums[mask], 1.0, atol=1e-12)

    def test_hub_pair_orientation(self):
        # u < v puts one entry in a_in at [u, v] and one in a_out at [v, u]
        g = GraphSpec(num_joints=4, edges=((0, 1),), hub_joints=(2, 3),
                      extra_links=True)
        assert g.a_in[2, 3] > 0 and g.a_in[3, 2] == 0
        assert g.a_out[3, 2] > 0 and g.a_out[2, 3] == 0

    def test_round_trip_dict(self):
        g = build_graph("ntu25", extra_links=True)
        g2 = GraphSpec.from_dict(g.to_dict())
        assert g2.num_joints == g.num_joints
        assert g2.edges == g.edges
        assert np.array_equal(g2.a_in, g.a_in)
        assert np.array_equal(g2.a_out, g.a_out)

    def test_missing_dict_key(self):
        for d in ({"edges": []}, [1, 2], "ntu25", None):
            with pytest.raises(FormatError):
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


class TestEdgeText:
    def test_parse_and_infer_joints(self):
        g = parse_edge_text("0 1\n1 2\nhub 0\nhub 2\n")
        assert g.num_joints == 3
        assert g.hub_joints == (0, 2)
        assert not g.extra_links

    def test_with_links_enables_hub_pairs(self):
        g = parse_edge_text("0 1\n1 2\nhub 0\nhub 2\n")
        assert np.count_nonzero(with_links(g, True).a_in) == 3

    def test_bad_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_edge_text("0 1\n0 one two\n")

    def test_no_edges(self):
        with pytest.raises(FormatError, match="no edges"):
            parse_edge_text("# empty\n")

    def test_load_edge_file(self, tmp_path):
        p = tmp_path / "toy.txt"
        p.write_text("joints 5\n0 1\n0 2\n2 3\n2 4\n")
        g = load_edge_file(p)
        assert g.num_joints == 5
        assert g.parents().tolist() == [-1, 0, 0, 2, 2]
