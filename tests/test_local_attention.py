"""LIH (autodiff.lih): the attention weights inside one triple, identity
behaviour, permutation equivariance, an independent dense re-implementation
of the forward pass, cost linear in the number of triples, byte equality
with the record-per-operation chain that autodiff.lih fuses, a 1e-12 match
with the einsum attention its batched matmuls replaced, and a memory bound."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import chain_lih, concat_rows, drawn, einsum_triple_attention, grad_check, triple_attention
from sggkit import autodiff as ad


def _triple(rng, d):
    """Subject, object and union rows of one triple (M = 1)."""
    return tuple(ad.Matrix(rng.normal(size=(1, d))) for _ in range(3))


def _weights(rng, d, d_att=None):
    """w_q, w_k and w_v (d x d_att, d_att defaulting to d) and w_f (d_att x d), drawn in that order."""
    a = d if d_att is None else d_att
    draw = drawn(rng)
    return [draw("w_q", d, a), draw("w_k", d, a), draw("w_v", d, a), draw("w_f", a, d)]


def _alpha(triple, w_q, w_k, *_):
    """3x3 attention weights of one triple, rows/cols ordered subject, object, union.

    With one-hot role rows as values, each output row of triple_attention is
    that row's attention weights.
    """
    x = concat_rows(list(triple))
    q = ad.matmul(x, w_q)
    k = ad.matmul(x, w_k)
    return triple_attention(q, k, ad.Matrix(np.eye(3))).data


def _reference_forward(xs, w_q, w_k, w_v, w_f):
    """Straight numpy transcription: alpha = softmax(q k^T), z = (alpha v) w_f + x."""
    q = xs @ w_q.data
    k = xs @ w_k.data
    v = xs @ w_v.data
    logits = q @ k.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    return (alpha @ v) @ w_f.data + xs


def test_zero_query_key_gives_uniform_attention():
    rng = np.random.default_rng(0)
    d = 5
    t = _triple(rng, d)
    alpha = _alpha(t, ad.Matrix(np.zeros((d, d))), ad.Matrix(np.zeros((d, d))))
    np.testing.assert_allclose(alpha, np.full((3, 3), 1 / 3), atol=1e-15)


def test_identical_inputs_give_symmetric_rows():
    rng = np.random.default_rng(1)
    d = 4
    x = rng.normal(size=(1, d))
    t = tuple(ad.Matrix(x.copy()) for _ in range(3))
    alpha = _alpha(t, *_weights(rng, d))
    assert np.allclose(alpha, np.full((3, 3), 1 / 3), atol=1e-12)


def test_d1_hand_case():
    # D = 1, all maps = [[1]]: logits_ij = x_i * x_j, alpha = row softmax.
    t = (ad.Matrix([[1.0]]), ad.Matrix([[2.0]]), ad.Matrix([[0.0]]))
    one = lambda: ad.Matrix([[1.0]])
    alpha = _alpha(t, one(), one())
    xs = np.array([1.0, 2.0, 0.0])
    for i in range(3):
        logits = xs[i] * xs
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(alpha[i], expect, atol=1e-14)


def test_rows_are_stochastic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        alpha = _alpha(_triple(rng, d), *_weights(rng, d))
        assert (alpha > 0).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_zero_output_map_is_exact_identity():
    rng = np.random.default_rng(3)
    d = 6
    t = _triple(rng, d)
    w_q, w_k, w_v, _w_f = _weights(rng, d, d_att=3)
    z = ad.lih(*t, w_q, w_k, w_v, ad.Matrix(np.zeros((3, d))))
    for got, x in zip(z, t):
        np.testing.assert_array_equal(got.data, x.data)


def test_permutation_equivariance():
    """Swapping subject and object swaps the refined outputs exactly."""
    rng = np.random.default_rng(4)
    d = 5
    s, o, u = _triple(rng, d)
    weights = _weights(rng, d)
    zs, zo, zu = ad.lih(s, o, u, *weights)
    ws, wo, wu = ad.lih(ad.Matrix(o.data.copy()), ad.Matrix(s.data.copy()), ad.Matrix(u.data.copy()), *weights)
    np.testing.assert_allclose(ws.data, zo.data, atol=1e-12)
    np.testing.assert_allclose(wo.data, zs.data, atol=1e-12)
    np.testing.assert_allclose(wu.data, zu.data, atol=1e-12)


def test_matches_dense_reference():
    for seed in range(10):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 7))
        t = _triple(r, d)
        weights = _weights(r, d)
        got = np.concatenate([z.data for z in ad.lih(*t, *weights)], axis=0)
        xs = np.concatenate([x.data for x in t], axis=0)
        np.testing.assert_allclose(got, _reference_forward(xs, *weights), atol=1e-12)


def test_batch_matches_per_triple_loop():
    """Every triple of a batch equals the dense oracle applied to that triple alone."""
    rng = np.random.default_rng(6)
    d = 5
    for m in (7, 272):
        s, o, u = (ad.Matrix(rng.normal(size=(m, d))) for _ in range(3))
        weights = _weights(rng, d)
        zs, zo, zu = ad.lih(s, o, u, *weights)
        for i in range(m):
            xs = np.concatenate([s.data[i : i + 1], o.data[i : i + 1], u.data[i : i + 1]], axis=0)
            got = np.concatenate([zs.data[i : i + 1], zo.data[i : i + 1], zu.data[i : i + 1]], axis=0)
            np.testing.assert_allclose(got, _reference_forward(xs, *weights), atol=1e-12)


def test_tape_arrays_grow_linearly_in_triples():
    """No array the block records is larger than the stacked 3M x D input."""
    rng = np.random.default_rng(9)
    d, m = 8, 272
    s, o, u = (ad.Matrix(rng.normal(size=(m, d))) for _ in range(3))
    weights = _weights(rng, d)
    with ad.Tape() as tape:
        ad.lih(s, o, u, *weights)
    assert tape.records
    assert max(out.data.size for _name, out, _fn in tape.records) <= 3 * m * d


def test_gradients_against_central_differences():
    rng = np.random.default_rng(7)
    d = 4
    t = _triple(rng, d)
    weights = _weights(rng, d, d_att=3)
    mats = [*t, *weights]

    def f():
        return ad.sum_all(concat_rows(list(ad.lih(*t, *weights))))

    assert grad_check(f, mats, eps=1e-5) < 1e-7


def test_batch_gradients_against_central_differences():
    rng = np.random.default_rng(8)
    d, m = 3, 3
    s = ad.Matrix(rng.normal(size=(m, d)))
    o = ad.Matrix(rng.normal(size=(m, d)))
    u = ad.Matrix(rng.normal(size=(m, d)))
    weights = _weights(rng, d)

    def f():
        zs, zo, zu = ad.lih(s, o, u, *weights)
        z = concat_rows([zs, zo, zu])
        return ad.sum_all(ad.mul(z, z))

    mats = [s, o, u, *weights]
    assert grad_check(f, mats, eps=1e-5) < 1e-6


def _lih_arrays(lih_forward, inputs, weights, targets):
    """The refined rows and the gradients of the inputs and of every weight.

    The loss weighs z_s and z_u by fixed targets and squares z_o, so z_o's
    rows receive two gradients.
    """
    leaves = [ad.Matrix(x.copy()) for x in inputs]
    weights = [ad.Matrix(w.data.copy()) for w in weights]
    with ad.Tape() as tape:
        zs, zo, zu = lih_forward(*leaves, *weights)
        loss = ad.add(ad.add(ad.sum_all(ad.mul(zs, ad.Constant(targets[0]))), ad.sum_all(ad.mul(zo, zo))),
                      ad.sum_all(ad.mul(zu, ad.Constant(targets[1]))))
    tape.backward(loss)
    return [z.data for z in (zs, zo, zu)] + [m.grad for m in (*leaves, *weights)]


def _lih_case(n_nodes, d, d_att):
    """Inputs, weights and loss targets for M = N(N - 1) triples, as a scene of N nodes has."""
    rng = np.random.default_rng(n_nodes)
    m = n_nodes * (n_nodes - 1)
    inputs = [rng.normal(size=(m, d)) for _ in range(3)]
    weights = _weights(rng, d, d_att)
    targets = [rng.normal(size=(m, d)) for _ in range(2)]
    return inputs, weights, targets


LIH_SIZES = [(2, 32, None), (6, 32, None), (10, 32, None), (17, 32, None), (6, 32, 8)]


@pytest.mark.parametrize("n_nodes,d,d_att", LIH_SIZES)
def test_lih_matches_record_chain_bytes(n_nodes, d, d_att):
    """autodiff.lih's refined rows and gradients equal, byte for byte, those of the 10-record chain.

    d_att 8 is narrower than the features.
    """
    case = _lih_case(n_nodes, d, d_att)
    fused, chain = _lih_arrays(ad.lih, *case), _lih_arrays(chain_lih, *case)
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in chain]


@pytest.mark.parametrize("n_nodes,d,d_att", LIH_SIZES + [(76, 32, None)])
def test_lih_matches_einsum_reference(n_nodes, d, d_att):
    """autodiff.lih's refined rows and all seven gradients lie within 1e-12 of max(1, |ref|) of the
    chain run on the einsum attention that lih's batched matmuls replaced."""
    case = _lih_case(n_nodes, d, d_att)
    reference = functools.partial(chain_lih, attention=einsum_triple_attention)
    for got, ref in zip(_lih_arrays(ad.lih, *case), _lih_arrays(reference, *case), strict=True):
        assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()


def test_lih_memory_stays_linear_in_triples():
    """At N = 76 (M = 5,700, d = 32), in units of one 3M x d float array, the forward peaks below 7
    and forward plus backward below 14 (6.4 and 12.3 measured). A (3M)^2 temporary is 534 units;
    an (M, 3, 3, d) one is 3, which these bounds catch in the forward or at the backward's peak."""
    rng = np.random.default_rng(76)
    m, d = 76 * 75, 32
    s, o, u = (ad.Matrix(rng.normal(size=(m, d))) for _ in range(3))
    weights = _weights(rng, d)
    g = rng.normal(size=(3 * m, d))
    unit = 3 * m * d * 8
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            ad.lih(s, o, u, *weights)
        forward_peak = tracemalloc.get_traced_memory()[1]
        [(_name, _whole, backward)] = tape.records
        backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < 7 * unit and peak < 14 * unit


def test_infinite_union_row_reaches_the_logits_check():
    """An infinite union row makes q and k non-finite; the logits check raises, with no numpy warning."""
    rng = np.random.default_rng(20)
    s, o, u = (rng.normal(size=(2, 3)) for _ in range(3))
    u[1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NumericError, match="^lih produced a non-finite value$"):
            ad.lih(ad.Matrix(s), ad.Matrix(o), ad.Matrix(u), *_weights(rng, 3))


def test_overflowing_values_reach_the_output_check():
    """w_v at 1e308 overflows v and so the attended values; the output check raises, with no numpy warning."""
    rng = np.random.default_rng(21)
    w_q, w_k, _w_v, w_f = _weights(rng, 3)
    triple = (ad.Matrix(rng.uniform(1.0, 2.0, size=(2, 3))) for _ in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NumericError, match="^lih produced a non-finite value$"):
            ad.lih(*triple, w_q, w_k, ad.Matrix(np.full((3, 3), 1e308)), w_f)


def test_lih_records_once_and_views_its_output():
    rng = np.random.default_rng(10)
    s, o, u = (ad.Matrix(rng.normal(size=(4, 5))) for _ in range(3))
    with ad.Tape() as tape:
        zs, zo, zu = ad.lih(s, o, u, *_weights(rng, 5, 3))
    [(name, whole, _)] = tape.records
    assert name == "lih" and whole.shape == (12, 5)
    for i, z in enumerate((zs, zo, zu)):
        assert z.whole is whole and np.shares_memory(z.data, whole.data)
        assert z.data.tobytes() == whole.data[4 * i : 4 * (i + 1)].tobytes()


def test_non_finite_intermediate_names_lih():
    """An overflowing query map stops LIH before its softmax sees the non-finite logits."""
    rng = np.random.default_rng(11)
    triple = _triple(rng, 3)
    _w_q, w_k, w_v, w_f = _weights(rng, 3)
    with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match="^lih produced a non-finite value$"):
        ad.lih(*triple, ad.Matrix(np.full((3, 3), 1e308)), w_k, w_v, w_f)
