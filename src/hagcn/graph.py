"""Skeleton graphs and the three normalized adjacency subsets.

A graph is the directed bone tree (parent -> child, 0-based) plus an optional
set of extremity hub joints. Spatial aggregation uses three subset matrices:
identity (self), inward (child feature flows to its parent) and outward (the
transpose flow). When hub links are enabled, every unordered hub pair (u, v)
with u < v contributes one inward entry (v treated as child of u) and the
mirrored outward entry, so each subset gains exactly one nonzero per pair.
Matrices are column-normalized: each source joint's outgoing mass sums to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

import numpy as np

from .errors import ConfigError, FormatError, config_bool, config_int, config_ints

BUILTIN_GRAPHS = ("ntu25", "openpose18")


def normalize_columns(a: np.ndarray) -> np.ndarray:
    """Scale each column to unit sum; all-zero columns stay zero."""
    a = np.asarray(a, dtype=np.float64)
    col = a.sum(axis=0)
    # divide rather than multiply by 1/col: tiny sums must not overflow
    return np.divide(a, col, out=np.zeros_like(a),
                     where=col != 0)


@dataclass
class GraphSpec:
    """Immutable description of a skeleton graph and its subset matrices."""

    num_joints: int
    edges: tuple  # natural bone tree, (parent, child) pairs
    hub_joints: tuple = ()
    extra_links: bool = False
    a_id: np.ndarray = field(init=False, repr=False)
    a_in: np.ndarray = field(init=False, repr=False)
    a_out: np.ndarray = field(init=False, repr=False)

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

        b_in = np.zeros((v, v), dtype=np.float64)
        for p, c in self.edges:
            b_in[p, c] = 1.0
        if self.extra_links:
            for u, w in combinations(sorted(self.hub_joints), 2):
                b_in[u, w] = 1.0
        self.a_id = np.eye(v, dtype=np.float64)
        self.a_in = normalize_columns(b_in)
        self.a_out = normalize_columns(b_in.T)

    def subset_matrices(self) -> np.ndarray:
        """The (3, V, V) stack: identity, inward, outward."""
        return np.stack([self.a_id, self.a_in, self.a_out])

    def parents(self) -> np.ndarray:
        """Parent index per joint from the natural tree; roots get -1."""
        out = np.full(self.num_joints, -1, dtype=np.int64)
        for p, c in self.edges:
            out[c] = p
        return out

    def to_dict(self) -> dict:
        return {
            "num_joints": self.num_joints,
            "edges": [list(e) for e in self.edges],
            "hub_joints": list(self.hub_joints),
            "extra_links": self.extra_links,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        """Rebuild from ``to_dict`` output; a value of the wrong type raises
        ConfigError, a missing key or a non-dict FormatError."""
        try:
            return cls(num_joints=d["num_joints"], edges=d["edges"],
                       hub_joints=d.get("hub_joints", ()),
                       extra_links=d.get("extra_links", False))
        except KeyError as e:
            raise FormatError(f"graph dict missing key {e}") from e
        except TypeError as e:  # d is not a dict
            raise FormatError(f"malformed graph dict: {e}") from e


def parse_edge_text(text: str) -> GraphSpec:
    """Parse the committed edge-list format.

    Lines: '#' comments, 'joints N', 'hub I', and 'P C' edge pairs. The joint
    count is inferred from the largest index when no 'joints' line appears.
    Hub links stay disabled until requested via with_links().
    """
    edges, hubs = [], []
    num_joints = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "joints":
                num_joints = int(fields[1])
            elif fields[0] == "hub":
                hubs.append(int(fields[1]))
            elif len(fields) == 2:
                edges.append((int(fields[0]), int(fields[1])))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise FormatError(f"bad edge-list line {lineno}: {raw!r}") from None
    if not edges:
        raise FormatError("edge list defines no edges")
    if num_joints is None:
        num_joints = 1 + max(max(p, c) for p, c in edges)
    return GraphSpec(num_joints=num_joints, edges=tuple(edges),
                     hub_joints=tuple(hubs), extra_links=False)


def load_edge_file(path) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_edge_text(f.read())


def with_links(graph: GraphSpec, extra_links: bool) -> GraphSpec:
    return GraphSpec(num_joints=graph.num_joints, edges=graph.edges,
                     hub_joints=graph.hub_joints, extra_links=extra_links)


def build_graph(kind: str = "ntu25", extra_links: bool = True) -> GraphSpec:
    """Load a packaged skeleton layout; kinds: ntu25, openpose18."""
    if kind not in BUILTIN_GRAPHS:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {BUILTIN_GRAPHS}")
    text = resources.files("hagcn.data").joinpath(f"{kind}_edges.txt").read_text("utf-8")
    return with_links(parse_edge_text(text), extra_links)
