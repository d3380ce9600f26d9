"""Numerics substrate: forward values against hand arithmetic, gradients
against central differences, and the tape replay contract."""

import numpy as np
import pytest

from sggkit import autodiff as ad


def test_linear_map_identity_passthrough():
    x = ad.Matrix([[3.0, -1.0], [0.5, 2.0]])
    w = ad.Matrix(np.eye(2))
    out = ad.linear_map(x, w)
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_map_diagonal_scales_columns():
    x = ad.Matrix([[1.0, 2.0], [3.0, 4.0]])
    w = ad.Matrix([[2.0, 0.0], [0.0, 5.0]])
    out = ad.linear_map(x, w)
    np.testing.assert_array_equal(out.data, [[2.0, 10.0], [6.0, 20.0]])


def test_linear_map_zero_weights_returns_bias_rows():
    x = ad.Matrix(np.random.default_rng(0).normal(size=(4, 3)))
    w = ad.Matrix(np.zeros((3, 2)))
    b = ad.Matrix([[7.0, -2.0]])
    out = ad.linear_map(x, w, b)
    np.testing.assert_array_equal(out.data, np.tile([[7.0, -2.0]], (4, 1)))


def test_linear_map_hand_case():
    # [[1, 2]] @ [[1], [1]] + [1] = [[4]]
    x = ad.Matrix([[1.0, 2.0]])
    w = ad.Matrix([[1.0], [1.0]])
    b = ad.Matrix([[1.0]])
    assert ad.linear_map(x, w, b).item() == 4.0


def test_linear_map_records_one_entry():
    x, w, b = ad.Matrix(np.ones((3, 2))), ad.Matrix(np.ones((2, 4))), ad.Matrix(np.ones((1, 4)))
    with ad.Tape() as tape:
        ad.linear_map(x, w, b)
        ad.linear_map(x, w)
    assert [name for name, _, _ in tape.records] == ["linear_map", "matmul"]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("leaf", [ad.Matrix, ad.Constant])
def test_linear_map_gradients_are_the_exact_products(rows, leaf):
    """Bit-exact gradients, and none for a Constant input."""
    rng = np.random.default_rng(5)
    x, w, b = leaf(rng.normal(size=(rows, 4))), ad.Matrix(rng.normal(size=(4, 3))), ad.Matrix(rng.normal(size=(1, 3)))
    g = rng.normal(size=(rows, 3))
    with ad.Tape() as tape:
        out = ad.linear_map(x, w, b)
        loss = ad.sum_all(ad.mul(out, ad.Constant(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(out.data, x.data @ w.data + b.data)
    np.testing.assert_array_equal(b.grad, g.sum(axis=0, keepdims=True))
    np.testing.assert_array_equal(w.grad, x.data.T @ g)
    if leaf is ad.Constant:
        assert x.grad is None
    else:
        np.testing.assert_array_equal(x.grad, g @ w.data.T)


def test_constant_shares_only_2d_c_contiguous_float64():
    arr = np.arange(6.0).reshape(2, 3)
    assert ad.Constant(arr).data is arr
    for other in (np.asfortranarray(arr), arr[:, :2], arr.astype(np.float32), np.arange(3.0), [[1.0, 2.0]]):
        c = ad.Constant(other)
        assert c.data.dtype == np.float64 and c.data.ndim == 2 and c.data.flags.c_contiguous
        assert not np.shares_memory(c.data, arr)
    with pytest.raises(ad.ShapeError):
        ad.Constant(np.zeros((2, 2, 2)))


def test_linear_map_shape_error_names_both_shapes():
    x = ad.Matrix(np.zeros((2, 3)))
    w = ad.Matrix(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.linear_map(x, w)


def test_softmax_uniform_logits():
    out = ad.softmax_rows(ad.Matrix([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), rtol=0, atol=1e-15)


def test_softmax_log_weights_hand_case():
    # softmax([ln 1, ln 2, ln 3]) = (1/6, 2/6, 3/6)
    out = ad.softmax_rows(ad.Matrix([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=(3, 5))
        shift = rng.normal(size=(3, 1))
        a = ad.softmax_rows(ad.Matrix(x)).data
        b = ad.softmax_rows(ad.Matrix(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_single_large_logit_dominates():
    out = ad.softmax_rows(ad.Matrix([[50.0, 0.0, 0.0]]))
    assert out.data[0, 0] > 1.0 - 1e-12


def test_masked_softmax_matches_dense_on_submatrix():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 4))
    mask = np.array([[True, True, False, False], [False, True, True, True]])
    out = ad.masked_softmax_rows(ad.Matrix(x), mask).data
    row0 = np.exp(x[0, :2]) / np.exp(x[0, :2]).sum()
    row1 = np.exp(x[1, 1:]) / np.exp(x[1, 1:]).sum()
    np.testing.assert_allclose(out[0, :2], row0, atol=1e-12)
    np.testing.assert_array_equal(out[0, 2:], 0.0)
    np.testing.assert_allclose(out[1, 1:], row1, atol=1e-12)


def test_masked_softmax_rejects_empty_row():
    with pytest.raises(ad.ShapeError):
        ad.masked_softmax_rows(ad.Matrix([[1.0, 2.0]]), np.array([[False, False]]))


def test_triple_attention_rejects_bad_shapes():
    six = ad.Matrix(np.zeros((6, 2)))
    for q, k, v in (
        (six, ad.Matrix(np.zeros((6, 3))), six),  # q and k differ in width
        (six, six, ad.Matrix(np.zeros((3, 2)))),  # v has other rows
        (ad.Matrix(np.zeros((4, 2))),) * 3,  # rows not divisible by 3
    ):
        with pytest.raises(ad.ShapeError, match="triple_attention"):
            ad.triple_attention(q, k, v)


def test_relu_values_and_gradient():
    x = ad.Matrix([[-2.0, 0.0, 3.0]])
    with ad.Tape() as tape:
        out = ad.sum_all(ad.relu(x))
    np.testing.assert_array_equal(out.data, [[3.0]])
    tape.backward(out)
    # subgradient at 0 is taken as 0
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_relu_idempotent():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    once = ad.relu(ad.Matrix(x)).data
    twice = ad.relu(ad.relu(ad.Matrix(x))).data
    np.testing.assert_array_equal(once, twice)


def test_tape_backward_visits_reverse_order():
    order = []
    x = ad.Matrix([[1.0]])
    with ad.Tape() as tape:
        a = ad.scale(x, 2.0)
        b = ad.scale(a, 3.0)
    tape.records = [
        (name, out, (lambda fn, n: (lambda g: (order.append(n), fn(g))))(fn, name + str(i)))
        for i, (name, out, fn) in enumerate(tape.records)
    ]
    tape.backward(b)
    assert order == ["scale1", "scale0"]


def test_unused_output_keeps_zero_gradient():
    x = ad.Matrix([[1.0, 2.0]])
    with ad.Tape() as tape:
        used = ad.sum_all(ad.scale(x, 2.0))
        unused = ad.scale(x, 100.0)
    tape.backward(used)
    assert unused.grad is None
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


def test_nested_tapes_record_on_the_innermost_and_exit_in_order():
    x = ad.Matrix([[1.0]])
    outer, inner = ad.Tape(), ad.Tape()
    with outer:
        ad.scale(x, 2.0)
        with inner:
            ad.scale(x, 3.0)
        ad.scale(x, 4.0)
    assert len(outer.records) == 2 and len(inner.records) == 1
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError, match="Tape stack corrupted"):
        outer.__exit__(None, None, None)  # pops inner, which is innermost
    outer.__exit__(None, None, None)
    ad.scale(x, 5.0)  # no tape is active, so nothing records it
    assert len(outer.records) == 2 and len(inner.records) == 1


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 6))

    def run():
        h = ad.relu(ad.matmul(ad.Matrix(x), ad.Matrix(w)))
        return ad.softmax_rows(h).data.tobytes()

    assert run() == run()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_result_names_primitive():
    big = ad.Matrix(np.full((1, 1), 1e308))
    with pytest.raises(ad.NumericError, match="mul"):
        ad.mul(big, big)
    with ad.Tape() as tape:  # the check runs on every record, not only on the loss
        with pytest.raises(ad.NumericError, match="^linear_map produced a non-finite value$"):
            ad.linear_map(big, ad.Matrix([[10.0]]), ad.Matrix([[1.0]]))
    assert tape.records == []


def test_matrix_rejects_3d():
    with pytest.raises(ad.ShapeError):
        ad.Matrix(np.zeros((2, 2, 2)))


def _numeric_vs_tape(build, mats, tol=1e-7):
    """build() -> scalar Matrix from mats; compare tape grads to central FD."""
    err = ad.grad_check(build, mats, eps=1e-5)
    assert err < tol, f"gradient mismatch {err}"


def test_grad_linear_chain_is_exact():
    rng = np.random.default_rng(0)
    x = ad.Matrix(rng.normal(size=(3, 4)))
    w = ad.Matrix(rng.normal(size=(4, 2)))
    b = ad.Matrix(rng.normal(size=(1, 2)))
    err = ad.grad_check(lambda: ad.sum_all(ad.linear_map(x, w, b)), [x, w, b], eps=1e-5)
    assert err < 1e-9


def test_grad_cross_entropy_of_softmax():
    rng = np.random.default_rng(1)
    logits = ad.Matrix(rng.normal(size=(4, 4)))
    onehot = ad.Matrix(np.eye(4))

    def f():
        ls = ad.log_softmax_rows(logits)
        return ad.scale(ad.sum_all(ad.mul(ls, onehot)), -0.25)

    err = ad.grad_check(f, [logits], eps=1e-5)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_grad_every_primitive_composite(seed):
    """One composite per seed touching every differentiable primitive."""
    rng = np.random.default_rng(seed)
    a = ad.Matrix(rng.normal(size=(3, 4)))
    b = ad.Matrix(rng.normal(size=(4, 3)))
    c = ad.Matrix(rng.normal(size=(3, 3)))
    d = ad.Matrix(rng.uniform(0.5, 2.0, size=(3, 3)))
    mask = rng.uniform(size=(3, 3)) > 0.3
    mask[:, 0] = True

    def f():
        h = ad.matmul(a, b)
        h = ad.add(h, c)
        h = ad.leaky_relu(h, 0.2)
        h = ad.mul(h, c)
        h = ad.div(h, d)
        h = ad.add(h, ad.transpose(c))
        att = ad.triple_attention(h, c, d)  # the three rows of h form one triple
        s = ad.masked_softmax_rows(h, mask)
        ls = ad.log_softmax_rows(ad.relu(h))
        top = ad.concat_rows([s, ls])
        wide = ad.concat_cols([top, ad.scale(top, 0.5)])
        picked = ad.gather_rows(wide, [0, 2, 5, 2])
        sliced = ad.slice_rows(picked, 1, 4)
        sq = ad.pow_const(ad.add(ad.row_sum(sliced), ad.Matrix([[1.0], [1.0], [1.0]])), 2.0)
        return ad.add(ad.add(ad.scale(ad.sum_all(sq), 1.0 / sq.data.size), ad.sum_all(ad.softmax_rows(c))), ad.sum_all(ad.mul(att, c)))

    err = ad.grad_check(f, [a, b, c, d], eps=1e-5)
    assert err < 1e-6


def test_grad_check_rejects_bad_eps():
    x = ad.Matrix([[1.0]])
    with pytest.raises(ValueError):
        ad.grad_check(lambda: ad.sum_all(x), [x], eps=1e-2)


def test_grad_check_requires_scalar():
    x = ad.Matrix([[1.0, 2.0]])
    with pytest.raises(ad.ShapeError):
        ad.grad_check(lambda: ad.scale(x, 1.0), [x])


def test_uniform_init_bounds_and_determinism():
    m1 = ad.uniform_init(np.random.default_rng(9), 16, 8)
    m2 = ad.uniform_init(np.random.default_rng(9), 16, 8)
    np.testing.assert_array_equal(m1.data, m2.data)
    assert np.abs(m1.data).max() <= 1.0 / 4.0


def test_gather_rows_accumulates_duplicates():
    x = ad.Matrix([[1.0, 1.0], [2.0, 2.0]])
    with ad.Tape() as tape:
        out = ad.sum_all(ad.gather_rows(x, [0, 0, 1]))
    tape.backward(out)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


@pytest.mark.parametrize("op", [ad.matmul, ad.mul])
def test_constant_operand_gets_no_gradient(op):
    """The other operand's gradient is byte-identical to the all-Matrix case."""
    rng = np.random.default_rng(12)
    x_data, c_data, g = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    grads = []
    for leaf in (ad.Matrix, ad.Constant):
        for x_first in (True, False):
            x, c = ad.Matrix(x_data), leaf(c_data)
            with ad.Tape() as tape:
                out = op(x, c) if x_first else op(c, x)
                loss = ad.sum_all(ad.mul(out, ad.Matrix(g)))
            tape.backward(loss)
            grads.append(x.grad.tobytes())
            if leaf is ad.Constant:
                assert c.grad is None
    assert grads[:2] == grads[2:]


def test_first_accumulate_owns_its_gradient():
    g = np.array([[1.5, -2.5]])

    def backward_add(a, b):
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.add(a, b), ad.Constant(g)))  # the sum gets gradient g
        tape.backward(loss)

    x = ad.Matrix([[1.0, 2.0]])
    backward_add(x, x)
    np.testing.assert_array_equal(x.grad, 2.0 * g)
    a, b = ad.Matrix([[1.0, 2.0]]), ad.Matrix([[3.0, 4.0]])
    backward_add(a, b)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0, 0] = 7.0
    assert b.grad[0, 0] == 1.5
    z = ad.Matrix([[1.0]])
    z.accumulate(np.array([[-0.0]]))
    assert not np.signbit(z.grad[0, 0])  # stored as +0.0
