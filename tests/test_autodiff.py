"""Numerics substrate: forward values against hand arithmetic, gradients
against central differences, and the tape replay contract."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import chain_cosine_rows, grad_check, triple_attention
from sggkit import autodiff as ad


def test_linear_map_identity_passthrough():
    x = ad.Matrix([[3.0, -1.0], [0.5, 2.0]])
    w = ad.Matrix(np.eye(2))
    out = ad.linear_map(x, w, ad.Matrix(np.zeros((1, 2))))
    np.testing.assert_array_equal(out.data, x.data)


def test_linear_map_diagonal_scales_columns():
    x = ad.Matrix([[1.0, 2.0], [3.0, 4.0]])
    w = ad.Matrix([[2.0, 0.0], [0.0, 5.0]])
    out = ad.linear_map(x, w, ad.Matrix(np.zeros((1, 2))))
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
    assert [name for name, _, _ in tape.records] == ["linear_map"]


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
    for other in (np.asfortranarray(arr), arr[:, :2], arr.astype(np.float32), [[1.0, 2.0]]):
        c = ad.Constant(other)
        assert c.data.dtype == np.float64 and c.data.ndim == 2 and c.data.flags.c_contiguous
        assert not np.shares_memory(c.data, arr)
    for not_2d in (np.zeros((2, 2, 2)), np.arange(3.0), 1.0, [1.0, 2.0]):
        for cls in (ad.Matrix, ad.Constant):
            with pytest.raises(ad.ShapeError, match=r"^Matrix must be 2-D, got array of shape "):
                cls(not_2d)


def test_linear_map_shape_error_names_both_shapes():
    x = ad.Matrix(np.zeros((2, 3)))
    w = ad.Matrix(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.linear_map(x, w, ad.Matrix(np.zeros((1, 2))))


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


def test_triple_attention_rejects_bad_shapes():
    """The record-per-operation oracle of autodiff.lih's attention core checks its operands."""
    six = ad.Matrix(np.zeros((6, 2)))
    for q, k, v in (
        (six, ad.Matrix(np.zeros((6, 3))), six),  # q and k differ in width
        (six, six, ad.Matrix(np.zeros((3, 2)))),  # v has other rows
        (ad.Matrix(np.zeros((4, 2))),) * 3,  # rows not divisible by 3
    ):
        with pytest.raises(ad.ShapeError, match="triple_attention"):
            triple_attention(q, k, v)


def test_lih_and_gih_reject_bad_shapes():
    x, w = ad.Matrix(np.zeros((2, 3))), ad.Matrix(np.zeros((3, 3)))
    for args in (
        (x, ad.Matrix(np.zeros((1, 3))), x, w, w, w, w),  # o has other rows
        (x, x, x, w, ad.Matrix(np.zeros((3, 2))), w, w),  # w_q and w_k differ
        (x, x, x, w, w, w, ad.Matrix(np.zeros((2, 3)))),  # w_f does not map w_v's width back
    ):
        with pytest.raises(ad.ShapeError, match="^lih: s, o and u need one shape"):
            ad.lih(*args)
    for edges, ws in (
        (ad.Matrix(np.zeros((1, 2))), [w]),  # edges of another width
        (ad.Matrix(np.zeros((1, 3))), [w, ad.Matrix(np.zeros((3, 2)))]),  # a w is not square
    ):
        with pytest.raises(ad.ShapeError, match="^gih: nodes and edges need one width"):
            ad.gih(x, edges, lambda g: g, ws)
    with pytest.raises(ad.ShapeError, match=r"^gih: mix must keep the shape \(3, 3\) of G, got \(2, 3\)$"):
        ad.gih(x, ad.Matrix(np.zeros((1, 3))), lambda g: g[:2], [w])  # the operator drops the edge row


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


def _ones(rows, cols):
    return ad.Matrix(np.ones((rows, cols)))


@pytest.mark.parametrize("call,message", [
    (lambda: _ones(2, 3).item(), r"item\(\) needs a 1x1 matrix, got \(2, 3\)"),  # numpy would read [0, 0]
    (lambda: ad.Tape().backward(_ones(1, 2)), r"backward\(\) needs a 1x1 loss, got \(1, 2\)"),
    (lambda: ad.matmul(_ones(2, 3), _ones(2, 3)),  # numpy's own error would name no primitive
     r"matmul: inner dimensions differ, \(2, 3\) @ \(2, 3\)"),
    (lambda: ad.add(_ones(2, 3), _ones(1, 3)), r"add: incompatible shapes \(2, 3\) and \(1, 3\)"),  # broadcast
    (lambda: ad.mul(_ones(2, 3), _ones(2, 1)), r"mul: incompatible shapes \(2, 3\) and \(2, 1\)"),  # broadcast
    (lambda: ad.linear_map(_ones(2, 3), _ones(3, 4), _ones(2, 4)),  # one bias row per input row would add
     r"linear_map: bias \(2, 4\) does not match weight \(3, 4\)"),
    (lambda: ad.gather_rows(_ones(3, 2), [[0, 1]]), "gather_rows: indices must be one-dimensional"),  # a 3-D gather
    (lambda: ad.gather_rows(_ones(3, 2), [0, -1]), r"gather_rows: index out of range for \(3, 2\)"),  # would wrap
    (lambda: ad.gather_rows(_ones(3, 2), [3]), r"gather_rows: index out of range for \(3, 2\)"),
    (lambda: ad.uniform_init(np.random.default_rng(0), 2, 3, fan_in=0),  # the bound would be 1 / 0
     "uniform_init: fan_in must be positive, got 0"),
], ids=["item", "backward", "matmul", "add", "mul", "linear_map-bias", "gather_rows-2d", "gather_rows-negative",
        "gather_rows-past-end", "uniform_init-fan_in"])
def test_guards_reject_bad_shapes(call, message):
    """Each guard raises its ShapeError, naming the primitive, where numpy would broadcast, wrap an index,
    divide by zero or raise an error of its own."""
    with pytest.raises(ad.ShapeError, match=f"^{message}$"):
        call()


def _numeric_vs_tape(build, mats, tol=1e-7):
    """build() -> scalar Matrix from mats; compare tape grads to central FD."""
    err = grad_check(build, mats, eps=1e-5)
    assert err < tol, f"gradient mismatch {err}"


def test_grad_linear_chain_is_exact():
    rng = np.random.default_rng(0)
    x = ad.Matrix(rng.normal(size=(3, 4)))
    w = ad.Matrix(rng.normal(size=(4, 2)))
    b = ad.Matrix(rng.normal(size=(1, 2)))
    err = grad_check(lambda: ad.sum_all(ad.linear_map(x, w, b)), [x, w, b], eps=1e-5)
    assert err < 1e-9


def test_grad_cross_entropy_of_softmax():
    rng = np.random.default_rng(1)
    logits = ad.Matrix(rng.normal(size=(4, 4)))
    onehot = ad.Matrix(np.eye(4))

    def f():
        ls = ad.log_softmax_rows(logits)
        return ad.scale(ad.sum_all(ad.mul(ls, onehot)), -0.25)

    err = grad_check(f, [logits], eps=1e-5)
    assert err < 1e-6


# Every primitive autodiff defines, by the name it records.
PRIMITIVES = set(re.findall(r'_finish\("(\w+)"', inspect.getsource(ad)))


@pytest.mark.parametrize("seed", range(6))
def test_grad_every_primitive_composite(seed):
    """One composite per seed that records every primitive in PRIMITIVES."""
    rng = np.random.default_rng(seed)
    a = ad.Matrix(rng.normal(size=(3, 4)))
    b = ad.Matrix(rng.normal(size=(4, 3)))
    c = ad.Matrix(rng.normal(size=(3, 3)))
    d = ad.Matrix(rng.uniform(0.5, 2.0, size=(3, 3)))
    bias = ad.Matrix(rng.normal(size=(1, 3)))
    w0, b0 = ad.Matrix(rng.normal(size=(6, 4))), ad.Matrix(rng.normal(size=(1, 4)))
    w1, b1 = ad.Matrix(rng.normal(size=(4, 2))), ad.Matrix(rng.normal(size=(1, 2)))
    ref = ad.Constant(rng.normal(size=(3, 3)))
    a_tilde = np.eye(6)
    a_tilde[[0, 1, 3, 3, 4, 5], [3, 4, 0, 1, 5, 4]] = 1.0  # three nodes, three edges
    a_tilde = np.maximum(a_tilde, a_tilde.T)  # gih's mixing operator must be symmetric

    def f():
        h = ad.matmul(a, b)
        h = ad.add(h, c)
        h = ad.leaky_relu(h, 0.2)
        h = ad.mul(h, c)
        h = ad.linear_map(h, d, bias)
        h = ad.add(h, ad.transpose(c))
        zs, zo, zu = ad.lih(h, c, d, c, d, ad.scale(c, 0.5), d)  # the rows of h, c and d form three triples
        nodes, edges = ad.gih(zs, zu, lambda g: a_tilde @ g, [ad.scale(c, 0.1), ad.scale(d, 0.1)])
        # h feeds position 0 of two orders and d position 1 of two, so two products serve two orders each
        fused = ad.arranged_mlp((h, c, d), ((0, 1), (1, 2), (0, 2)), w0, b0, w1, b1)
        s = ad.softmax_rows(zo)
        ls = ad.log_softmax_rows(ad.relu(h))
        picked = ad.gather_rows(ad.scale(ad.add(s, edges), 0.5), [0, 2, 2])
        cos = ad.cosine_rows(picked, ref)
        terms = [ad.sum_all(ad.mul(cos, cos)), ad.sum_all(ad.softmax_rows(c)), ad.sum_all(ad.mul(nodes, ls)),
                 ad.scale(ad.sum_all(ad.mul(fused, fused)), 0.01)]
        return ad.add(ad.add(terms[0], terms[1]), ad.add(terms[2], terms[3]))

    with ad.Tape() as tape:
        f()
    assert {name for name, _, _ in tape.records} == PRIMITIVES
    err = grad_check(f, [a, b, c, d, bias, w0, b0, w1, b1], eps=1e-5)
    assert err < 1e-6


def test_every_primitive_is_called_by_another_module():
    """Each public function of autodiff that records through _finish is imported by another module of
    sggkit and used there, so a primitive that only tests call fails here."""
    tree = ast.parse(inspect.getsource(ad))
    recorders = {f.name for f in tree.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                 and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_finish" for c in ast.walk(f))}
    assert recorders == PRIMITIVES  # each records under its own name
    used = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {alias.name for n in nodes if isinstance(n, ast.ImportFrom) and n.module == "autodiff"
                    for alias in n.names}
        used |= imported & {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(recorders - used) == []


def test_every_public_name_is_loaded_outside_its_definition():
    """Each public top-level function, class and constant of sggkit is read somewhere in sggkit outside
    its own definition, so a name that only tests read fails here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(ad.__file__).parent.glob("*.py")}
    unread = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") and not any(
                        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                        for other in trees.values() for stmt in other.body if stmt is not top
                        for node in ast.walk(stmt)):
                    unread.append(f"{module}:{name}")
    assert unread == []


def test_arranged_mlp_rejects_bad_tables_and_shapes():
    x, wide = ad.Matrix(np.ones((2, 3))), ad.Matrix(np.ones((2, 4)))
    w0, b0 = ad.Matrix(np.ones((6, 4))), ad.Matrix(np.ones((1, 4)))
    w1, b1 = ad.Matrix(np.ones((4, 2))), ad.Matrix(np.ones((1, 2)))
    with pytest.raises(ad.ShapeError, match="orders must be non-empty and of one length"):
        ad.arranged_mlp((x, x), ((0, 1), (1,)), w0, b0, w1, b1)
    for roles, orders, layers in (((x, wide), ((0, 1),), (w0, b0, w1, b1)), ((x, x), ((0, 1, 1),), (w0, b0, w1, b1)),
                                  ((x, x), ((0, 1),), (ad.Matrix(np.ones((5, 4))), b0, w1, b1)),
                                  ((x, x), ((0, 1),), (w0, b0, ad.Matrix(np.ones((3, 2))), b1)),  # w1 rows != h
                                  ((x, x), ((0, 1),), (w0, b0, w1, ad.Matrix(np.ones((1, 3)))))):  # b1 != w1 cols
        with pytest.raises(ad.ShapeError, match="^arranged_mlp: the roles need one shape"):
            ad.arranged_mlp(roles, orders, *layers)


@pytest.mark.parametrize("seed", range(8))
def test_cosine_rows_matches_chain_oracle_bytes(seed):
    """Values and the gradient equal, byte for byte, those of the record-per-operation chain."""
    rng = np.random.default_rng(seed)
    n, d = rng.integers(1, 40), rng.integers(1, 40)
    e_data, r_data = (rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) for _ in range(2))
    g = rng.normal(size=(n, 1))
    e = ad.Matrix(e_data)
    with ad.Tape() as tape:
        cos = ad.cosine_rows(e, ad.Constant(r_data))
        loss = ad.sum_all(ad.mul(cos, ad.Constant(g)))
    tape.backward(loss)
    want_cos, want_grad = chain_cosine_rows(e_data, r_data, g)
    assert cos.data.tobytes() == want_cos.tobytes()
    assert e.grad.tobytes() == want_grad.tobytes()


def test_cosine_rows_gradient_against_central_differences():
    rng = np.random.default_rng(21)
    e = ad.Matrix(rng.normal(size=(4, 3)))
    r = ad.Constant(rng.normal(size=(4, 3)))
    g = ad.Constant(rng.normal(size=(4, 1)))
    assert grad_check(lambda: ad.sum_all(ad.mul(ad.cosine_rows(e, r), g)), [e], eps=1e-5) < 1e-8


@pytest.mark.parametrize("r,error", [
    (ad.Matrix(np.ones((2, 3))), TypeError),
    (ad.Constant(np.ones((2, 4))), ad.ShapeError),
    (ad.Constant(np.ones((3, 3))), ad.ShapeError),
], ids=["not-constant", "wider", "taller"])
def test_cosine_rows_rejects_bad_reference(r, error):
    with pytest.raises(error, match="cosine_rows"):
        ad.cosine_rows(ad.Matrix(np.ones((2, 3))), r)


def test_cosine_rows_overflowing_row_names_itself():
    """A squared norm that overflows raises before the division could turn it into a finite 0."""
    e = ad.Matrix([[1.0, 2.0], [1e200, -1e200]])
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ad.NumericError, match="cosine_rows"):
        ad.cosine_rows(e, ad.Constant(np.ones((2, 2))))


def test_cosine_rows_zero_norm_row_raises():
    with pytest.raises(ad.NumericError, match="cosine_rows.*undefined"):
        ad.cosine_rows(ad.Matrix([[1.0, 2.0], [0.0, 0.0]]), ad.Constant(np.ones((2, 2))))


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


@pytest.mark.parametrize("indices, negative_zero", [
    ([3, 0, 3, 3, 1, 0], False),
    (np.random.default_rng(20).integers(0, 5, size=200), False),
    ([], False),
    ([2, 2, 4], True),
])
def test_gather_rows_gradient_bytes_match_add_at(indices, negative_zero):
    """Each row's gradient starts at 0.0 and adds in index order, as np.add.at does.

    x.grad starts at -0.0, so a scatter that began from -0.0 would show.
    """
    rng = np.random.default_rng(21)
    x = ad.Matrix(rng.normal(size=(5, 7)))
    idx = np.asarray(indices, dtype=np.intp)
    g = rng.normal(size=(idx.size, 7)) * 10.0 ** rng.integers(-8, 9, size=(idx.size, 1))  # so the order shows
    if negative_zero:
        g = np.full_like(g, -0.0)
    with ad.Tape() as tape:
        ad.gather_rows(x, idx)
    (_name, _out, backward), = tape.records
    x.grad = np.full_like(x.data, -0.0)
    backward(g)
    scattered = np.zeros_like(x.data)
    np.add.at(scattered, idx, g)
    expect = np.full_like(x.data, -0.0)
    expect += scattered
    assert x.grad.tobytes() == expect.tobytes()


@pytest.mark.parametrize("op", [ad.matmul, ad.mul, ad.add])
def test_constant_operand_gets_no_gradient(op):
    """The other operand's gradient is byte-identical to the all-Matrix case, and the Constant's grad
    stays None: add hands it its gradient, which Constant.accumulate drops."""
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


def test_parameters_take_their_gradients_in_the_flat_buffer():
    """A Parameter's gradient equals a Matrix's byte for byte, also when it is used twice in one backward,
    and lives in its slot of the buffer's flat gradient; an unused one keeps grad None. A slot's stale
    values from an earlier step never reach the next gradient."""
    rng = np.random.default_rng(14)
    x = ad.Constant(rng.normal(size=(3, 2)))
    data = [rng.normal(size=(2, 2)), rng.normal(size=(1, 2)), rng.normal(size=(2, 1))]
    params = [ad.Parameter(d) for d in data]
    buffer = ad.ParameterBuffer(params)
    assert buffer.grad is None and buffer.data.tobytes() == b"".join(d.tobytes() for d in data)
    grads = {}
    for kind, (w, b, unused) in (("matrix", [ad.Matrix(d) for d in data]), ("parameter", params)):
        for step in range(2):
            w.grad = b.grad = None
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.linear_map(ad.linear_map(x, w, b), w, b))
            tape.backward(loss)
            grads.setdefault(kind, []).append((w.grad.tobytes(), b.grad.tobytes(), unused.grad))
    assert grads["parameter"] == grads["matrix"] and grads["matrix"][0] == grads["matrix"][1]
    for p, slot in zip(params[:2], buffer.views(buffer.grad)):
        assert np.shares_memory(p.grad, slot) and p.grad.tobytes() == slot.tobytes()
