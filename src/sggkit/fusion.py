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

Every variant is psi summed over a table of arrangements, ORDERS, and runs
as one autodiff.arranged_mlp record; sequential runs pre over [s||o] first,
and its output takes the subject's place in psi's table. arranged_mlp forms
each distinct product of a role with a row block of psi's first layer once
(the parallel table shares seven), and psi's linear second layer runs once
on the summed activations. The variant is fixed when the weights are built:
init_fusion_params returns FusionParams that carry it, and encode_edges runs
the variant its params name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Matrix, Param, arranged_mlp

S, O, U = 0, 1, 2  # the positions of z_s, z_o and z_u in the roles arranged_mlp reads

# Each variant's arrangements, in the order psi's outputs are summed.
ORDERS = {
    "union": ((U,),),
    "concat": ((S, O, U),),
    "sequential": ((S, U),),  # S holds pre([s||o])
    "parallel": ((S, O, U), (S, U, O), (U, S, O)),
}
VARIANTS = tuple(ORDERS)


@dataclass
class FusionParams:
    """Shared fusion map for one variant; sequential carries an extra stage.

    psi and pre are (w0, b0, w1, b1), each with one relu hidden layer 2 * d_e wide.
    """

    variant: str
    psi: tuple[Matrix, ...]
    pre: tuple[Matrix, ...] | None = None  # sequential only: fuses [s||o] before the union


def init_fusion_params(param: Param, variant: str, d: int, d_e: int) -> FusionParams:
    """Each stage's hidden layer is 2 * d_e wide. ModelConfig.validate checks the variant."""

    def mlp(stage: str, d_in: int, d_out: int) -> tuple[Matrix, ...]:
        dims = [d_in, 2 * d_e, d_out]
        # each layer draws its weight, then its bias
        return tuple(m for i, (a, b) in enumerate(zip(dims, dims[1:]))
                     for m in (param(f"{stage}.w{i}", a, b), param(f"{stage}.b{i}", 1, b, fan_in=a)))

    pre = mlp("pre", 2 * d, d) if variant == "sequential" else None
    return FusionParams(variant, mlp("psi", len(ORDERS[variant][0]) * d, d_e), pre)


def encode_edges(z_s: Matrix, z_o: Matrix, z_u: Matrix, params: FusionParams) -> Matrix:
    """Encode M relations (M x D inputs each) with the variant the params were built for."""
    roles = (z_s, z_o, z_u)
    if params.variant == "sequential":
        roles = (arranged_mlp(roles, ((S, O),), *params.pre), z_o, z_u)
    return arranged_mlp(roles, ORDERS[params.variant], *params.psi)
