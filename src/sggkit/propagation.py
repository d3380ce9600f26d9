"""Joint message passing over entity nodes and relation edges.

Every ordered pair of a scene's n nodes is a candidate edge, so the graph
depends on n alone. Edge k joins subject row s and object row o, k running
over the pairs (s, o), s != o, in row-major order; its opposite (o, s) is
edge o(n-1) + s - [s > o]. Nodes and edges are stacked into one feature
matrix G = [N; E] of n + m = n^2 rows, m = n(n-1), and mixed through

    A~ = [[J, B], [B^T, I + P]]

where J is the all-ones n x n block, B the n x m incidence matrix (B[i][k]
is 1 iff node i is the subject or object of edge k) and P swaps each edge
with its opposite. A~ is the graph's adjacency plus I. Layers follow

    odd  l:  G(l) = max(0, A~ G(l-1) W(l))
    even l:  G(l) = G(l-2) + max(0, A~ G(l-1) W(l))

with square per-layer weights, no degree normalization, and matmuls grouped
as (A~ G) W. Zero weights therefore make an even-depth stack an exact
identity. The gcn and gat baselines update node rows only and leave edge
rows untouched, which is what the edge-awareness comparisons rely on.
They read only the node block J: gcn's normalized block is 1/n everywhere
and gat attends over every node. Their layers are residual,

    gcn:  h + max(0, Â h W)        gat:  h + max(0, alpha (h W))

since without the h term one layer maps every node to the same row.

Each variant's rules live in check_settings, which ModelConfig.validate and
init_propagation both call. The variant is fixed when the weights are built:
init_propagation returns PropagationParams that carry it, and propagate runs
the variant its params name on the node and edge rows (none passes them
through), after checking that there are n(n-1) edge rows for n node rows.

build_adjacency(n) gives each edge's subject row, object row and opposite
edge, three read-only arrays of m ints built once per n and shared by every
scene of n nodes. A~ itself, n^4 floats, is never formed. a_tilde_product(n)
fills only A~'s top stripe [J, B] (n x n^2, n^3 floats) from the endpoints
and computes A~ G = [[J, B] G; (E + P E) + B^T N] in two BLAS products: the
node rows are [J, B] @ G, and edge row k = (s, o) is
(e[k] + e[opposite]) + (n[s] + n[o]), the node sum being the product of the
stripe's B block, transposed, with N (its two ones add n[s] and n[o] exactly
and any zeros add nothing). Both sums commute, so an edge row and its
opposite get the same bytes whenever their inputs are swapped, which union
fusion's direction blindness relies on. A~ is symmetric, so the same product
serves for A~^T. gih_forward runs every layer as one tape primitive,
autodiff.gih, with that product as its mixing operator; its backward forms
no gradient for A~.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

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
from .data import shown


@cache
def build_adjacency(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subject rows, object rows and opposite edges of the n(n-1) edges among n nodes, all read-only.

    opposite[k] is the edge (objects[k], subjects[k]). The cache holds O(n^2) ints per node count.
    """
    subjects, objects = np.nonzero(~np.eye(n, dtype=bool))
    opposite = objects * (n - 1) + subjects - (subjects > objects)
    for shared in (subjects, objects, opposite):
        shared.flags.writeable = False
    return subjects, objects, opposite


VARIANTS = ("gih", "gcn", "gat", "none")


@dataclass
class PropagationParams:
    """Weights of one propagation variant, fixed when they are built.

    Each layer is (w,) for gih and gcn, and (w, a_src, a_dst) for gat;
    none has no layers.
    """

    variant: str
    layers: list[tuple[Matrix, ...]]


def check_settings(variant: str, n_layers: int, d_node: int, d_edge: int) -> None:
    """Reject an unknown variant, a layer count it cannot run, and for gih unequal node and edge widths."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown propagation variant {shown(variant)}, expected one of {VARIANTS}")
    if variant == "gih" and (n_layers < 2 or n_layers % 2):
        raise ValueError(f"config field gih_layers must be even and >= 2 for gih, got {n_layers}")
    if variant in ("gcn", "gat") and n_layers < 1:
        raise ValueError(f"config field gih_layers must be >= 1 for {variant}, got {n_layers}")
    if variant == "gih" and d_node != d_edge:
        raise ValueError(f"node/edge message passing stacks both feature sets, widths must match "
                         f"(d_node={d_node}, d_edge={d_edge})")


def init_propagation(param: Param, variant: str, d: int, n_layers: int = 4) -> PropagationParams:
    check_settings(variant, n_layers, d, d)
    if variant == "gih":
        # The unnormalized block adjacency multiplies feature magnitudes by its spectral
        # radius, which grows with N on the complete candidate graph: 8.9 at N = 6, 13.2 at
        # N = 10, 20.5 at N = 17. Weights 10x smaller than plain fan-in scaling keep a
        # 4-layer stack near unit gain at N = 6 only (the P0 in ROADMAP).
        return PropagationParams(variant, [(param(f"w{i}", d, d, fan_in=100 * d),) for i in range(n_layers)])
    if variant == "gcn":
        return PropagationParams(variant, [(param(f"w{i}", d, d),) for i in range(n_layers)])
    if variant == "gat":
        return PropagationParams(variant, [
            (param(f"w{i}", d, d), param(f"a_src{i}", d, 1, fan_in=2 * d), param(f"a_dst{i}", d, 1, fan_in=2 * d))
            for i in range(n_layers)
        ])
    return PropagationParams(variant, [])  # none


def a_tilde_product(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """g -> A~ g, a fresh array, for the complete graph of n nodes: g holds its n node rows, then its edge rows.

    Fills A~'s top stripe [J, B], n^3 floats, once per operator; its B
    block, transposed, is the edge-to-node incidence B^T.
    """
    subjects, objects, opposite = build_adjacency(n)
    top = np.zeros((n, n * n))
    top[:, :n] = 1.0
    edge_cols = np.arange(n, n * n)
    top[subjects, edge_cols] = top[objects, edge_cols] = 1.0
    incidence = top[:, n:].T
    opposite = n + opposite  # the row of each edge's opposite in g

    def product(g: np.ndarray) -> np.ndarray:
        out = np.empty(g.shape)
        np.matmul(top, g, out=out[:n])
        edge_rows = out[n:]
        np.add(g[n:], g.take(opposite, axis=0), out=edge_rows)
        edge_rows += incidence @ g[:n]
        return out

    return product


def gih_forward(nodes: Matrix, edges: Matrix, params: PropagationParams) -> tuple[Matrix, Matrix]:
    return gih(nodes, edges, a_tilde_product(nodes.rows), [w for (w,) in params.layers])


def gcn_forward(nodes: Matrix, params: PropagationParams) -> Matrix:
    """Residual graph convolution over every node of the scene, h + relu(Â h W) per layer:
    Â, the symmetric normalization D^-1/2 (A_nn + I) D^-1/2 of a complete graph, is x * x
    everywhere, with x = 1/sqrt(n)."""
    n = nodes.rows
    x = 1.0 / np.sqrt(n)
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


def propagate(nodes: Matrix, edges: Matrix, params: PropagationParams) -> tuple[Matrix, Matrix]:
    """Run the variant the params were built for on the node and edge rows; none returns them as they are.

    gcn and gat update the node rows and pass the edge rows through.
    """
    n, m = nodes.rows, edges.rows
    if m != n * (n - 1):
        raise ShapeError(f"state rows ({n} nodes, {m} edges) are not a complete graph, which has {n * (n - 1)} edges")
    if params.variant == "gih":
        return gih_forward(nodes, edges, params)
    if params.variant == "gcn":
        return gcn_forward(nodes, params), edges
    if params.variant == "gat":
        return gat_forward(nodes, params), edges
    return nodes, edges
