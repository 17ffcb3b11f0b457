"""Skeleton graphs and the three normalized adjacency subsets.

A graph is the directed bone tree (parent -> child, 0-based) plus an optional
set of extremity hub joints. Spatial aggregation uses three subset matrices:
identity (self), inward (child feature flows to its parent) and outward (the
transpose flow). When hub links are enabled, every unordered hub pair (u, v)
with u < v contributes one inward entry (v treated as child of u) and the
mirrored outward entry, so each subset gains exactly one nonzero per pair.
Matrices are column-normalized: each source joint's outgoing mass sums to 1.

Two skeletons are built in, ``ntu25`` and ``openpose18``; ``build_graph``
returns either with hub links on. Any other layout, or a built-in one without
hub links, is a ``GraphSpec`` or its ``to_dict`` form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import (ConfigError, FormatError, config_bool, config_int,
                     config_ints, config_keys)

BUILTIN_GRAPHS = {
    # NTU RGB+D (Kinect v2), rooted at spine-mid (1). Joints:
    #  0 spine-base   1 spine-mid    2 neck         3 head         4 l-shoulder
    #  5 l-elbow      6 l-wrist      7 l-hand       8 r-shoulder   9 r-elbow
    # 10 r-wrist     11 r-hand      12 l-hip       13 l-knee      14 l-ankle
    # 15 l-foot      16 r-hip       17 r-knee      18 r-ankle     19 r-foot
    # 20 spine-shoulder  21 l-hand-tip  22 l-thumb  23 r-hand-tip  24 r-thumb
    "ntu25": {
        "num_joints": 25,
        "edges": ((1, 0), (1, 20), (20, 2), (2, 3), (20, 4), (4, 5), (5, 6),
                  (6, 7), (20, 8), (8, 9), (9, 10), (10, 11), (0, 12),
                  (12, 13), (13, 14), (14, 15), (0, 16), (16, 17), (17, 18),
                  (18, 19), (22, 21), (7, 22), (24, 23), (11, 24)),
        "hub_joints": (3, 21, 23, 15, 19),  # head, hand tips, feet
    },
    # OpenPose 18 keypoints, rooted at the neck (1). Keypoints:
    #  0 nose      1 neck       2 r-shoulder  3 r-elbow   4 r-wrist
    #  5 l-shoulder  6 l-elbow  7 l-wrist     8 r-hip     9 r-knee
    # 10 r-ankle  11 l-hip     12 l-knee     13 l-ankle  14 r-eye
    # 15 l-eye    16 r-ear     17 l-ear
    "openpose18": {
        "num_joints": 18,
        "edges": ((1, 0), (1, 2), (1, 5), (2, 3), (3, 4), (5, 6), (6, 7),
                  (2, 8), (8, 9), (9, 10), (5, 11), (11, 12), (12, 13),
                  (0, 14), (0, 15), (14, 16), (15, 17)),
        "hub_joints": (0, 4, 7, 10, 13),  # nose, wrists, ankles
    },
}


def normalize_columns(a: np.ndarray) -> np.ndarray:
    """Scale each column to unit sum; all-zero columns stay zero."""
    a = np.asarray(a, dtype=np.float64)
    col = a.sum(axis=0)
    # divide rather than multiply by 1/col: tiny sums must not overflow
    return np.divide(a, col, out=np.zeros_like(a),
                     where=col != 0)


@dataclass
class GraphSpec:
    """Immutable description of a skeleton graph."""

    num_joints: int
    edges: tuple  # natural bone tree, (parent, child) pairs
    hub_joints: tuple = ()
    extra_links: bool = False

    def __post_init__(self):
        v = self.num_joints = config_int("graph.num_joints", self.num_joints, 1)
        if not (isinstance(self.edges, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2 for e in self.edges)):
            raise ConfigError(f"graph.edges of the wrong type: expected "
                              f"integer pairs, got {self.edges!r}")
        self.edges = tuple(config_ints("graph.edges", e) for e in self.edges)
        self.hub_joints = config_ints("graph.hub_joints", self.hub_joints)
        config_bool("graph.extra_links", self.extra_links)
        seen_children = set()
        for p, c in self.edges:
            if not (0 <= p < v and 0 <= c < v):
                raise ValueError(f"edge ({p}, {c}) out of range for {v} joints")
            if p == c:
                raise ValueError(f"self-loop at joint {p}")
            if c in seen_children:
                raise ValueError(f"joint {c} has two parents")
            seen_children.add(c)
        for h in self.hub_joints:
            if not 0 <= h < v:
                raise ValueError(f"hub joint {h} out of range")
        if len(set(self.hub_joints)) != len(self.hub_joints):
            raise ValueError("duplicate hub joints")

    def subset_matrices(self) -> np.ndarray:
        """The (3, V, V) stack: identity, inward, outward."""
        v = self.num_joints
        b_in = np.zeros((v, v), dtype=np.float64)
        for p, c in self.edges:
            b_in[p, c] = 1.0
        if self.extra_links:
            for u, w in combinations(sorted(self.hub_joints), 2):
                b_in[u, w] = 1.0
        return np.stack([np.eye(v, dtype=np.float64), normalize_columns(b_in),
                         normalize_columns(b_in.T)])

    def parents(self) -> np.ndarray:
        """Parent index per joint from the natural tree; roots get -1."""
        out = np.full(self.num_joints, -1, dtype=np.int64)
        for p, c in self.edges:
            out[c] = p
        return out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        """Rebuild from ``to_dict`` output; an unknown key or a value of the
        wrong type raises ConfigError, a missing key or a non-dict
        FormatError."""
        if not isinstance(d, dict):
            raise FormatError(f"malformed graph dict: {d!r}")
        config_keys("graph", cls, d)
        missing = {"num_joints", "edges"} - set(d)
        if missing:
            raise FormatError(f"graph dict missing keys {sorted(missing)}")
        return cls(**d)


def build_graph(kind: str = "ntu25") -> GraphSpec:
    """A built-in skeleton with hub links on; kinds: ntu25, openpose18."""
    if kind not in BUILTIN_GRAPHS:
        raise ValueError(f"unknown graph kind {kind!r}; choose from "
                         f"{sorted(BUILTIN_GRAPHS)}")
    return GraphSpec(**BUILTIN_GRAPHS[kind], extra_links=True)
