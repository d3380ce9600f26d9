"""Joint message passing over entity nodes and relation edges.

Nodes and edges are stacked into one feature matrix G = [N; E] and mixed
through a block adjacency A of side (n_nodes + n_edges):

    A_nn[i][j] = 1  iff some edge connects i and j in either direction
    A_ne[i][m] = 1  iff node i is the subject or object of edge m
    A_en       = A_ne transposed
    A_ee[m][m'] = 1 iff m' joins the same node pair as m in the opposite direction

Self connections come only from the augmentation A~ = A + I. Layers follow

    odd  l:  G(l) = max(0, A~ G(l-1) W(l))
    even l:  G(l) = G(l-2) + max(0, A~ G(l-1) W(l))

with square per-layer weights, no degree normalization, and matmuls grouped
as (A~ G) W. Zero weights therefore make an even-depth stack an exact
identity. The gcn and gat baselines update node rows only and leave edge
rows untouched, which is what the edge-awareness comparisons rely on.
They read no adjacency: every ordered node pair of a scene is a candidate
edge, so A_nn + I is all ones, gcn's normalized block is 1/n everywhere
and gat attends over every node. Their layers are residual,

    gcn:  h + max(0, Â h W)        gat:  h + max(0, alpha (h W))

since without the h term one layer maps every node to the same row.

The variant is fixed when the weights are built: init_propagation returns
PropagationParams that carry it, and propagate runs the variant its params
name (none passes the state through), after checking the state's rows
against the adjacency.

A BlockAdjacency stores only edge endpoints and opposite-edge pairs, plus
the flat positions of A~'s ones, computed on first use. Each gih_forward
fills a fresh A~ from those positions and runs every layer as one tape
primitive, autodiff.gih, whose backward forms no gradient for A~.
model.prepare_scene builds one adjacency per node count, with read-only
arrays, and every scene of that count shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import (
    Constant,
    Matrix,
    Param,
    ShapeError,
    add,
    gih,
    leaky_relu,
    matmul,
    relu,
    softmax_rows,
    transpose,
)


@dataclass(frozen=True)
class BlockAdjacency:
    """Adjacency A over n nodes then m edges, stored as edge endpoints; only gih reads it.

    Edge k joins node rows subjects[k] and objects[k]; a row (k, k') of
    opposite says edge k' joins them the other way. The dense A + I is
    built on each access of a_tilde, which writes 1.0 into zeros at the
    flat positions of its ones, O(n + m) ints computed once per adjacency.
    Fields cannot be reassigned, since scenes of one node count share one
    adjacency.
    """

    n_nodes: int
    subjects: np.ndarray  # (m,) node rows
    objects: np.ndarray  # (m,) node rows
    opposite: np.ndarray  # (p, 2) edge pairs

    @property
    def n_edges(self) -> int:
        return self.subjects.size

    @cached_property
    def _ones(self) -> np.ndarray:
        """Flat positions of the ones of A + I, some repeated; read-only."""
        n, s, o = self.n_nodes, self.subjects, self.objects
        side = n + self.n_edges
        diag, e = np.arange(side), n + np.arange(self.n_edges)
        rows = np.concatenate([diag, s, o, s, o, e, e, n + self.opposite[:, 0]])
        cols = np.concatenate([diag, o, s, e, e, s, o, n + self.opposite[:, 1]])
        ones = rows * side + cols
        ones.flags.writeable = False
        return ones

    @property
    def a_tilde(self) -> np.ndarray:
        """A + I, (n+m) x (n+m), a fresh writable array on each access."""
        side = self.n_nodes + self.n_edges
        a = np.zeros(side * side)
        a[self._ones] = 1.0
        return a.reshape(side, side)


def build_adjacency(n_nodes: int, edges) -> BlockAdjacency:
    """Block adjacency for directed candidate edges, (s, o) node-row pairs.

    Each edge is linked to every copy of its opposite, found in O(m log m)
    by sorting the keys s * n + o.
    """
    s, o = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    outside = (s < 0) | (s >= n_nodes) | (o < 0) | (o >= n_nodes)
    bad = outside | (s == o)
    if bad.any():
        k = int(np.argmax(bad))
        if outside[k]:
            raise ValueError(f"edge ({s[k]}, {o[k]}) has an endpoint outside 0..{n_nodes - 1}")
        raise ValueError(f"self-loop edge ({s[k]}, {o[k]}) is not allowed")
    key = s * n_nodes + o
    order = np.argsort(key, kind="stable")
    sorted_keys, reverse = key[order], o * n_nodes + s
    lo = np.searchsorted(sorted_keys, reverse, side="left")
    count = np.searchsorted(sorted_keys, reverse, side="right") - lo
    # edge k has count[k] opposites, at sorted positions lo[k], lo[k] + 1, ...
    k = np.repeat(np.arange(s.size), count)
    offset = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    opposite = np.stack([k, order[lo[k] + offset]], axis=1)
    return BlockAdjacency(n_nodes, s, o, opposite)


@dataclass
class GraphState:
    node_feats: Matrix
    edge_feats: Matrix


VARIANTS = ("gih", "gcn", "gat", "none")


@dataclass
class PropagationParams:
    """Weights of one propagation variant, fixed when they are built.

    Each layer is (w,) for gih and gcn, and (w, a_src, a_dst) for gat;
    none has no layers.
    """

    variant: str
    layers: list[tuple[Matrix, ...]]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown propagation variant {self.variant!r}, expected one of {VARIANTS}")


def init_propagation(param: Param, variant: str, d: int, n_layers: int = 4) -> PropagationParams:
    if variant == "gih":
        # The unnormalized block adjacency multiplies feature magnitudes by its
        # spectral radius (about 9 when every ordered pair of 6 nodes is a
        # candidate edge), so the weights start 10x smaller than plain fan-in
        # scaling to keep a 4-layer stack near unit gain.
        return PropagationParams(variant, [(param(f"w{i}", d, d, fan_in=100 * d),) for i in range(n_layers)])
    if variant == "gcn":
        return PropagationParams(variant, [(param(f"w{i}", d, d),) for i in range(n_layers)])
    if variant == "gat":
        return PropagationParams(variant, [
            (param(f"w{i}", d, d), param(f"a_src{i}", d, 1, fan_in=2 * d), param(f"a_dst{i}", d, 1, fan_in=2 * d))
            for i in range(n_layers)
        ])
    return PropagationParams(variant, [])  # none; an unknown name is rejected here


def gih_forward(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    nodes, edges = gih(state.node_feats, state.edge_feats, adj.a_tilde, [w for (w,) in params.layers])
    return GraphState(nodes, edges)


def gcn_forward(nodes: Matrix, params: PropagationParams) -> Matrix:
    """Residual graph convolution over every node of the scene, h + relu(Â h W) per layer:
    Â, the symmetric normalization D^-1/2 (A_nn + I) D^-1/2 of a complete graph, is x * x
    everywhere, with x = 1/sqrt(n)."""
    n = nodes.rows
    x = 1.0 / np.sqrt(max(n, 1))  # a scene without nodes has an empty block
    a_hat = Constant(np.full((n, n), x * x))
    h = nodes
    for (w,) in params.layers:
        h = add(h, relu(matmul(matmul(a_hat, h), w)))
    return h


def gat_forward(nodes: Matrix, params: PropagationParams) -> Matrix:
    """Residual attention of every node over every node of the scene, itself included:
    h + relu(alpha (h W)) per layer."""
    n = nodes.rows
    ones_row = Constant(np.ones((1, n)))
    ones_col = Constant(np.ones((n, 1)))
    h = nodes
    for w, a_src, a_dst in params.layers:
        hw = matmul(h, w)
        src = matmul(hw, a_src)  # n x 1
        dst = matmul(hw, a_dst)  # n x 1
        logits = leaky_relu(add(matmul(src, ones_row), matmul(ones_col, transpose(dst))), 0.2)
        h = add(h, relu(matmul(softmax_rows(logits), hw)))
    return h


def propagate(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    """Run the variant the params were built for; none returns the state as is.

    gcn and gat update the node rows and pass the edge rows through.
    """
    if state.node_feats.rows != adj.n_nodes or state.edge_feats.rows != adj.n_edges:
        raise ShapeError(
            f"state rows ({state.node_feats.rows} nodes, {state.edge_feats.rows} edges) "
            f"do not match adjacency ({adj.n_nodes} nodes, {adj.n_edges} edges)"
        )
    if params.variant == "gih":
        return gih_forward(state, adj, params)
    if params.variant == "gcn":
        return GraphState(gcn_forward(state.node_feats, params), state.edge_feats)
    if params.variant == "gat":
        return GraphState(gat_forward(state.node_feats, params), state.edge_feats)
    return state
