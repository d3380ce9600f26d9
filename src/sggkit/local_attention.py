"""Non-local attention over the three instances of each candidate relation.

Each candidate relation carries a subject, an object and a union instance.
The three features of one relation attend to each other, and only to each
other, with an embedded-Gaussian softmax (no scaling of the dot products).
The attended value is mapped back to the input width and added as a
residual, so zeroing the output map makes the whole block an exact
identity. All M relations of a scene are refined in one pass whose cost is
linear in M; a single relation is the case M = 1. The pass is one tape
primitive, autodiff.lih, so LIH records one entry per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Matrix, Param, lih


@dataclass
class LihParams:
    """Query/key/value maps (D x D_att) and the output map back to D."""

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_f: Matrix


def init_lih_params(param: Param, d: int, d_att: int | None = None) -> LihParams:
    d_att = d if d_att is None else d_att
    return LihParams(
        w_q=param("w_q", d, d_att),
        w_k=param("w_k", d, d_att),
        w_v=param("w_v", d, d_att),
        w_f=param("w_f", d_att, d),
    )


def lih_forward_batch(s: Matrix, o: Matrix, u: Matrix, params: LihParams) -> tuple[Matrix, Matrix, Matrix]:
    """Refine M triples; row i of s, o and u (M x D each) is triple i.

    Returns the refined subject, object and union rows in the same layout,
    as row blocks of autodiff.lih's one recorded output.
    """
    return lih(s, o, u, params.w_q, params.w_k, params.w_v, params.w_f)
