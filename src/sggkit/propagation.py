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

The variant is fixed when the weights are built: init_propagation returns
PropagationParams that carry it, and propagate runs the variant its params
name (none passes the state through).

A BlockAdjacency stores only edge endpoints and opposite-edge pairs, plus
the flat positions of A~'s ones, computed on first use. Each gih_forward
fills a fresh A~ from those positions and runs every layer as one tape
primitive, autodiff.gih, whose backward forms no gradient for A~. gcn
wraps its normalized node block in a Constant, and gat reads its mask off
the node block. model.prepare_scene builds one adjacency per node count,
with read-only arrays, and every scene of that count shares it.
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
    masked_softmax_rows,
    matmul,
    relu,
    transpose,
)


@dataclass(frozen=True)
class BlockAdjacency:
    """Adjacency A over n nodes then m edges, stored as edge endpoints.

    Edge k joins node rows subjects[k] and objects[k]; a row (k, k') of
    opposite says edge k' joins them the other way. The dense A + I and its
    node block are built on each access of a_tilde and node_block; a_tilde
    writes 1.0 into zeros at the flat positions of its ones, O(n + m) ints
    computed once per adjacency. Fields cannot be reassigned, since scenes
    of one node count share one adjacency.
    """

    n_nodes: int
    subjects: np.ndarray  # (m,) node rows
    objects: np.ndarray  # (m,) node rows
    opposite: np.ndarray  # (p, 2) edge pairs

    @property
    def n_edges(self) -> int:
        return self.subjects.size

    @property
    def node_block(self) -> np.ndarray:
        """A_nn + I, n x n."""
        a = np.eye(self.n_nodes)
        a[self.subjects, self.objects] = a[self.objects, self.subjects] = 1.0
        return a

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


def _check_state(state: GraphState, adj: BlockAdjacency) -> None:
    if state.node_feats.rows != adj.n_nodes or state.edge_feats.rows != adj.n_edges:
        raise ShapeError(
            f"state rows ({state.node_feats.rows} nodes, {state.edge_feats.rows} edges) "
            f"do not match adjacency ({adj.n_nodes} nodes, {adj.n_edges} edges)"
        )
    if state.node_feats.cols != state.edge_feats.cols:
        raise ShapeError(
            f"node width {state.node_feats.cols} differs from edge width {state.edge_feats.cols}"
        )


def gih_forward(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    _check_state(state, adj)
    nodes, edges = gih(state.node_feats, state.edge_feats, adj.a_tilde, [w for (w,) in params.layers])
    return GraphState(nodes, edges)


def normalized_node_adjacency(adj: BlockAdjacency) -> np.ndarray:
    """Symmetric normalization D^-1/2 (A_nn + I) D^-1/2."""
    a_hat = adj.node_block
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def gcn_forward(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    """Standard graph convolution over node rows only; edge rows pass through."""
    if state.node_feats.rows != adj.n_nodes:
        raise ShapeError(f"state has {state.node_feats.rows} node rows, adjacency {adj.n_nodes}")
    a_hat = Constant(normalized_node_adjacency(adj))
    h = state.node_feats
    for (w,) in params.layers:
        h = relu(matmul(matmul(a_hat, h), w))
    return GraphState(h, state.edge_feats)


def gat_forward(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    """Attention over node neighbourhoods (self included); edge rows pass through."""
    if state.node_feats.rows != adj.n_nodes:
        raise ShapeError(f"state has {state.node_feats.rows} node rows, adjacency {adj.n_nodes}")
    n = adj.n_nodes
    mask = adj.node_block > 0
    ones_row = Constant(np.ones((1, n)))
    ones_col = Constant(np.ones((n, 1)))
    h = state.node_feats
    for w, a_src, a_dst in params.layers:
        hw = matmul(h, w)
        src = matmul(hw, a_src)  # n x 1
        dst = matmul(hw, a_dst)  # n x 1
        logits = leaky_relu(add(matmul(src, ones_row), matmul(ones_col, transpose(dst))), 0.2)
        alpha = masked_softmax_rows(logits, mask)
        h = relu(matmul(alpha, hw))
    return GraphState(h, state.edge_feats)


def propagate(state: GraphState, adj: BlockAdjacency, params: PropagationParams) -> GraphState:
    """Run the variant the params were built for; none returns the state as is."""
    if params.variant == "gih":
        return gih_forward(state, adj, params)
    if params.variant == "gcn":
        return gcn_forward(state, adj, params)
    if params.variant == "gat":
        return gat_forward(state, adj, params)
    return state
