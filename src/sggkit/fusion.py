"""Direction-sensitive fusion of subject, object and union features into one
edge representation, plus the ablation variants it is compared against.

The full encoder applies one shared MLP to three fixed arrangements of the
inputs and sums the results:

    e = psi([s||o||u]) + psi([s||u||o]) + psi([u||s||o])

Only these three of the six possible orderings are used; they are chosen so
that swapping subject and object always produces a different multiset of
arrangements, which keeps the sum direction sensitive while the shared MLP
keeps the parameter count flat. All functions below operate row-wise, so a
batch of M relations can be encoded by passing M-row matrices.

Variants:
    union       psi_u(u)              direction blind by construction
    concat      psi([s||o||u])        single arrangement
    sequential  psi([pre([s||o])||u]) subject/object fused first
    parallel    the full three-arrangement sum

The variant is fixed when the weights are built: init_fusion_params returns
FusionParams that carry it, and encode_edges runs the variant its params
name. parallel is one tape record, autodiff.parallel_fusion: the three
arrangements share seven distinct products of a role with a row block of
psi's first layer, and psi's linear second layer runs once on the summed
activations. A one-layer psi (fusion_hidden 0) sums the three affine maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Matrix, ShapeError, concat_cols, linear_map, parallel_fusion, relu, uniform_init

VARIANTS = ("union", "concat", "sequential", "parallel")


class Mlp:
    """A stack of affine layers with relu between them (none after the last)."""

    def __init__(self, layers: list[tuple[Matrix, Matrix]]):
        self.layers = layers

    def __call__(self, x: Matrix) -> Matrix:
        h = x
        for i, (w, b) in enumerate(self.layers):
            h = linear_map(h, w, b)
            if i < len(self.layers) - 1:
                h = relu(h)
        return h

    def named(self, prefix: str) -> dict[str, Matrix]:
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


def init_mlp(rng: np.random.Generator, dims: list[int]) -> Mlp:
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append((uniform_init(rng, d_in, d_out), uniform_init(rng, 1, d_out, fan_in=d_in)))
    return Mlp(layers)


@dataclass
class FusionParams:
    """Shared fusion map for one variant; sequential carries an extra stage."""

    variant: str
    psi: Mlp
    pre: Mlp | None = None  # sequential only: fuses [s||o] before the union

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown fusion variant {self.variant!r}, expected one of {VARIANTS}")

    def named(self, prefix: str) -> dict[str, Matrix]:
        out = self.psi.named(f"{prefix}.psi")
        if self.pre is not None:
            out.update(self.pre.named(f"{prefix}.pre"))
        return out


def init_fusion_params(
    rng: np.random.Generator,
    variant: str,
    d: int,
    d_e: int,
    hidden: int | None = None,
) -> FusionParams:
    """hidden defaults to 2*d_e; pass hidden=0 for a purely affine map."""
    if hidden is None:
        hidden = 2 * d_e
    mid = [] if hidden == 0 else [hidden]
    if variant == "union":
        return FusionParams(variant, init_mlp(rng, [d] + mid + [d_e]))
    if variant == "sequential":
        pre = init_mlp(rng, [2 * d] + mid + [d])
        return FusionParams(variant, init_mlp(rng, [2 * d] + mid + [d_e]), pre)
    return FusionParams(variant, init_mlp(rng, [3 * d] + mid + [d_e]))  # concat, parallel; unknown names fail here


def encode_edges(z_s: Matrix, z_o: Matrix, z_u: Matrix, params: FusionParams) -> Matrix:
    """Encode M relations (M x D inputs each) with the variant the params were built for."""
    if not (z_s.shape == z_o.shape == z_u.shape):
        raise ShapeError(f"fusion inputs differ in shape: {z_s.shape}, {z_o.shape}, {z_u.shape}")
    if params.variant == "union":
        return params.psi(z_u)
    if params.variant == "concat":
        return params.psi(concat_cols([z_s, z_o, z_u]))
    if params.variant == "sequential":
        so = params.pre(concat_cols([z_s, z_o]))
        return params.psi(concat_cols([so, z_u]))
    # parallel: the shared map summed over the three constrained arrangements, as one primitive
    return parallel_fusion(z_s, z_o, z_u, *(m for layer in params.psi.layers for m in layer))
