"""Fusion variants: arrangement properties, direction sensitivity, and the
direction blindness of the union baseline."""

import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from helpers import drawn, grad_check, loop_encode_edges
from sggkit import autodiff as ad
from sggkit.fusion import (
    ORDERS,
    VARIANTS,
    FusionParams,
    O,
    S,
    U,
    encode_edges,
    init_fusion_params,
)
from sggkit.model import ModelConfig


def swap_subject_object(order):
    """Image of an arrangement under exchanging the roles of s and o."""
    flip = {S: O, O: S, U: U}
    return tuple(flip[x] for x in order)


def all_orders():
    return [tuple(p) for p in permutations((S, O, U))]


def _rows(rng, m, d):
    return (
        ad.Matrix(rng.normal(size=(m, d))),
        ad.Matrix(rng.normal(size=(m, d))),
        ad.Matrix(rng.normal(size=(m, d))),
    )


def test_constrained_orders_partition_under_swap():
    """The three arrangements parallel fusion runs are those in which the
    subject precedes the object; they and their subject/object swaps are
    disjoint and together cover all six orderings."""
    chosen = set(ORDERS["parallel"])
    assert all(order.index(S) < order.index(O) for order in chosen)
    swapped = {swap_subject_object(o) for o in chosen}
    assert chosen.isdisjoint(swapped)
    assert chosen | swapped == set(all_orders())
    assert len(chosen) == 3


def test_every_arrangement_changes_under_swap():
    for order in permutations((S, O, U)):
        assert swap_subject_object(tuple(order)) != tuple(order)


def _zero_psi(d_in, b):
    """psi with zero weights and first bias, whose output is b."""
    h = 2 * b.cols
    return ad.Matrix(np.zeros((d_in, h))), ad.Matrix(np.zeros((1, h))), ad.Matrix(np.zeros((h, b.cols))), b


def test_zero_weights_return_triple_bias():
    d = 4
    b = ad.Matrix([[1.0, -2.0, 0.5]])
    params = FusionParams("parallel", _zero_psi(3 * d, b))
    rng = np.random.default_rng(0)
    z_s, z_o, z_u = _rows(rng, 2, d)
    out = encode_edges(z_s, z_o, z_u, params)
    np.testing.assert_allclose(out.data, np.tile(3.0 * b.data, (2, 1)), atol=1e-15)


def test_subject_equal_object_is_swap_invariant():
    rng = np.random.default_rng(1)
    d, d_e = 5, 4
    params = init_fusion_params(drawn(rng), "parallel", d, d_e)
    z = ad.Matrix(rng.normal(size=(1, d)))
    u = ad.Matrix(rng.normal(size=(1, d)))
    out1 = encode_edges(z, ad.Matrix(z.data.copy()), u, params)
    out2 = encode_edges(ad.Matrix(z.data.copy()), z, u, params)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_direction_sensitivity_on_seeded_inputs():
    """Across 1000 seeded draws with z_s != z_o, swapping them moves the code."""
    rng = np.random.default_rng(2)
    d, d_e = 4, 3
    params = init_fusion_params(drawn(rng), "parallel", d, d_e)
    for _ in range(1000):
        z_s, z_o, z_u = _rows(rng, 1, d)
        fwd = encode_edges(z_s, z_o, z_u, params).data
        bwd = encode_edges(z_o, z_s, z_u, params).data
        assert np.abs(fwd - bwd).max() > 1e-6


def test_union_variant_is_bit_identical_under_swap():
    rng = np.random.default_rng(3)
    d, d_e = 6, 4
    params = init_fusion_params(drawn(rng), "union", d, d_e)
    z_s, z_o, z_u = _rows(rng, 3, d)
    fwd = encode_edges(z_s, z_o, z_u, params)
    bwd = encode_edges(z_o, z_s, z_u, params)
    assert fwd.data.tobytes() == bwd.data.tobytes()


def test_concat_zero_weight_returns_bias():
    d = 3
    b = ad.Matrix([[4.0, -1.0]])
    params = FusionParams("concat", _zero_psi(3 * d, b))
    rng = np.random.default_rng(4)
    z_s, z_o, z_u = _rows(rng, 2, d)
    out = encode_edges(z_s, z_o, z_u, params)
    np.testing.assert_array_equal(out.data, np.tile(b.data, (2, 1)))


def test_sequential_uses_both_stages():
    rng = np.random.default_rng(6)
    d, d_e = 4, 3
    params = init_fusion_params(drawn(rng), "sequential", d, d_e)
    z_s, z_o, z_u = _rows(rng, 2, d)
    out = encode_edges(z_s, z_o, z_u, params)
    assert out.shape == (2, d_e)
    # zeroing the first stage changes the result
    zeroed = FusionParams("sequential", params.psi, tuple(ad.Matrix(np.zeros_like(m.data)) for m in params.pre))
    out2 = encode_edges(z_s, z_o, z_u, zeroed)
    assert np.abs(out.data - out2.data).max() > 1e-8


def test_unknown_variant_raises():
    with pytest.raises(ValueError, match=re.escape(f"unknown fusion variant 'cascade', expected one of {VARIANTS}")):
        ModelConfig(fusion="cascade").validate()


def test_width_mismatch_raises():
    rng = np.random.default_rng(9)
    params = init_fusion_params(drawn(rng), "parallel", 4, 4)
    bad = (
        ad.Matrix(rng.normal(size=(1, 4))),
        ad.Matrix(rng.normal(size=(1, 3))),
        ad.Matrix(rng.normal(size=(1, 4))),
    )
    with pytest.raises(ad.ShapeError):
        encode_edges(*bad, params)


@pytest.mark.parametrize("variant", ["union", "concat", "sequential", "parallel"])
def test_gradients_per_variant(variant):
    rng = np.random.default_rng(11)
    d, d_e = 3, 2
    params = init_fusion_params(drawn(rng), variant, d, d_e)
    z_s, z_o, z_u = _rows(rng, 2, d)
    mats = [z_s, z_o, z_u, *params.psi, *(params.pre or ())]

    def f():
        out = encode_edges(z_s, z_o, z_u, params)
        return ad.sum_all(ad.mul(out, out))

    assert grad_check(f, mats, eps=1e-5) < 1e-6


def test_batch_rows_equal_per_row_encoding():
    rng = np.random.default_rng(12)
    d, d_e, m = 4, 3, 5
    params = init_fusion_params(drawn(rng), "parallel", d, d_e)
    z_s, z_o, z_u = _rows(rng, m, d)
    batch = encode_edges(z_s, z_o, z_u, params).data
    for i in range(m):
        row = encode_edges(
            ad.Matrix(z_s.data[i : i + 1].copy()),
            ad.Matrix(z_o.data[i : i + 1].copy()),
            ad.Matrix(z_u.data[i : i + 1].copy()),
            params,
        ).data
        np.testing.assert_allclose(batch[i : i + 1], row, atol=1e-12)


def _encode_and_backward(encode, inputs, params, g):
    """encode's output and the gradients of sum(output * g) for the inputs and the fusion weights."""
    weights = [*params.psi, *(params.pre or ())]
    for mat in (*inputs, *weights):
        mat.grad = None
    with ad.Tape() as tape:
        out = encode(*inputs, params)
        loss = ad.sum_all(ad.mul(out, ad.Constant(g)))
    tape.backward(loss)
    return [out.data, *(mat.grad for mat in (*inputs, *weights))]


def _params_of_width(rng, variant, d, d_e, hidden):
    """FusionParams whose stages have a hidden layer `hidden` wide; init_fusion_params fixes it at 2 * d_e."""
    def mlp(d_in, d_out):
        return tuple(ad.Matrix(rng.normal(size=shape)) for shape in ((d_in, hidden), (1, hidden),
                                                                      (hidden, d_out), (1, d_out)))

    pre = mlp(2 * d, d) if variant == "sequential" else None
    return FusionParams(variant, mlp(len(ORDERS[variant][0]) * d, d_e), pre)


@pytest.mark.parametrize("leaf", [ad.Matrix, ad.Constant])
@pytest.mark.parametrize("m,d,hidden", [(1, 3, 4), (1, 2, 0), (5, 4, 0), (7, 6, 5), (30, 8, 16)])
def test_parallel_fusion_matches_arrangement_loop(m, d, hidden, leaf):
    """For every variant, output and every gradient agree with psi run per arrangement, within 1e-12.
    At hidden width 0 psi returns its output bias, and the gradients of the role inputs are zero."""
    rng = np.random.default_rng([m, d, hidden])
    for variant in VARIANTS:
        params = _params_of_width(rng, variant, d, 3, hidden)
        data = [rng.normal(size=(m, d)) for _ in range(3)]
        g = rng.normal(size=(m, 3))
        new = _encode_and_backward(encode_edges, [leaf(x) for x in data], params, g)
        old = _encode_and_backward(loop_encode_edges, [leaf(x) for x in data], params, g)
        for got, want in zip(new, old):
            if want is None:  # a Constant input, or one the variant does not read
                assert got is None
            else:
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0)), variant


def test_parallel_fusion_checks_role_products_before_summing_them():
    """s·a = +inf and o·b = -inf sum to a NaN pre-activation: arranged_mlp raises its NumericError, and
    numpy warns of nothing, also outside np.errstate."""
    params = FusionParams("parallel", (ad.Matrix(np.ones((6, 2))), ad.Matrix(np.zeros((1, 2))),
                                       ad.Matrix(np.ones((2, 2))), ad.Matrix(np.zeros((1, 2)))))
    z_s, z_o, z_u = ad.Matrix([[np.inf, 0.0]]), ad.Matrix([[-np.inf, 0.0]]), ad.Matrix([[0.0, 0.0]])
    with pytest.raises(ad.NumericError, match="^arranged_mlp produced a non-finite value$"):
        encode_edges(z_s, z_o, z_u, params)


def test_parallel_forward_holds_one_role_product_at_a_time():
    """The parallel table's seven (role, block) products share one (M, h) buffer: a forward at M = 272
    peaks below one (7, M, h) array of them, 975 KB."""
    m, d, h = 272, 32, 64
    rng = np.random.default_rng(19)
    params = init_fusion_params(drawn(rng), "parallel", d, h // 2)
    roles = _rows(rng, m, d)
    encode_edges(*roles, params)  # the plan is cached per table, not part of one forward
    tracemalloc.start()
    try:
        encode_edges(*roles, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    products = {(r, j) for order in ORDERS["parallel"] for j, r in enumerate(order)}
    assert len(products) == 7 and peak < len(products) * m * h * 8


@pytest.mark.parametrize("variant,records", [("union", 1), ("concat", 1), ("sequential", 2), ("parallel", 1)])
def test_each_variant_records_one_arranged_mlp_per_stage(variant, records):
    rng = np.random.default_rng(14)
    params = init_fusion_params(drawn(rng), variant, 3, 2)
    with ad.Tape() as tape:
        encode_edges(*_rows(rng, 2, 3), params)
    assert [name for name, _, _ in tape.records] == ["arranged_mlp"] * records
