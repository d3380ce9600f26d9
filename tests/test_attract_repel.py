"""Reference bank updates, the attract/repel loss, and cluster statistics."""

import numpy as np
import pytest

from helpers import chain_cosine_rows, cluster_stats, grad_check
from sggkit import autodiff as ad
from sggkit.attract_repel import (
    ReferenceBank,
    attract_repel_loss,
    sample_negatives,
    update_references,
)


def test_fresh_bank_single_positive_becomes_embedding():
    bank = ReferenceBank(3, 4, seed=0)
    e = np.array([[1.0, 2.0, -1.0, 0.5]])
    update_references(bank, e, [1], negatives={1: np.empty(0, dtype=np.intp)})
    np.testing.assert_array_equal(bank.refs[1], e[0])
    assert bank.counts[1] == 1.0
    np.testing.assert_array_equal(bank.refs[0], np.zeros(4))
    np.testing.assert_array_equal(bank.refs[2], np.zeros(4))


def test_absent_category_is_bit_exact_untouched():
    bank = ReferenceBank(3, 2, seed=0)
    bank.refs[2] = [0.123456789, -9.87654321]
    bank.counts[2] = 5.0
    before = bank.refs[2].tobytes()
    update_references(bank, np.array([[1.0, 0.0]]), [0], {0: np.empty(0, dtype=np.intp)})
    assert bank.refs[2].tobytes() == before
    assert bank.counts[2] == 5.0


def test_repeated_same_embedding_is_fixed_point():
    bank = ReferenceBank(2, 3, seed=0)
    e = np.array([[2.0, 0.0, 1.0]])
    update_references(bank, e, [0], negatives={0: np.empty(0, dtype=np.intp)})
    update_references(bank, e, [0], negatives={0: np.empty(0, dtype=np.intp)})
    np.testing.assert_allclose(bank.refs[0], e[0], atol=1e-15)
    assert bank.counts[0] == 2.0


def test_update_counts_include_negatives():
    bank = ReferenceBank(2, 2, seed=0)
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    labels = [0, 1, 1]
    negs = {0: np.array([1]), 1: np.array([0], dtype=np.intp)}
    update_references(bank, emb, labels, negatives=negs)
    # category 0: (0*0 + e0 - e1) / (0 + 1 + 1)
    np.testing.assert_allclose(bank.refs[0], (emb[0] - emb[1]) / 2.0, atol=1e-15)
    assert bank.counts[0] == 2.0
    # category 1: (e1 + e2 - e0) / 3
    np.testing.assert_allclose(bank.refs[1], (emb[1] + emb[2] - emb[0]) / 3.0, atol=1e-15)
    assert bank.counts[1] == 3.0


def test_out_of_range_label_raises():
    bank = ReferenceBank(2, 2, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        update_references(bank, np.array([[1.0, 0.0]]), [5], {})


def test_labels_and_embeddings_must_match_the_bank():
    bank = ReferenceBank(2, 2, seed=0)
    with pytest.raises(ValueError, match=r"labels shape \(2,\) does not match 1 embeddings"):
        update_references(bank, np.array([[1.0, 0.0]]), [1, 1], {})
    with pytest.raises(ValueError, match="embedding width 3 does not match bank width 2"):
        attract_repel_loss(bank, ad.Matrix(np.ones((1, 3))), [1], {})


def test_sample_negatives_counts_and_pool():
    bank = ReferenceBank(3, 2, seed=1)
    labels = [0, 0, 0, 1, 2]
    negs = sample_negatives(bank, labels)
    # category 0 has 3 positives but only 2 rows of other labels
    assert negs[0].size == 2
    assert set(negs[0].tolist()) <= {3, 4}
    assert negs[1].size == 1 and labels[negs[1][0]] != 1
    assert negs[2].size == 1 and labels[negs[2][0]] != 2


def test_sample_negatives_is_seed_deterministic():
    labels = [0, 1, 0, 2, 1, 2, 0]
    a = sample_negatives(ReferenceBank(3, 2, seed=42), labels)
    b = sample_negatives(ReferenceBank(3, 2, seed=42), labels)
    for m in a:
        np.testing.assert_array_equal(a[m], b[m])


def test_loss_zero_reference_skips_and_counts():
    bank = ReferenceBank(2, 3, seed=0)  # refs start at zero norm
    emb = ad.Matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    loss = attract_repel_loss(bank, emb, [0, 1], {0: np.array([1]), 1: np.array([0])})
    assert loss.item() == 0.0
    assert bank.skipped_pairs == 4


def test_loss_skips_and_counts_zero_embedding_pairs():
    """An all-zero row that is a positive of one category and a sampled negative of
    others is skipped in every pair; the rest sum, in category and then row order,
    to what the record-per-operation chain gives."""
    rng = np.random.default_rng(7)
    bank = ReferenceBank(3, 4, seed=0)
    bank.refs = rng.normal(size=(3, 4))
    emb = rng.normal(size=(6, 4))
    emb[1] = 0.0
    labels = [2, 0, 0, 2, 1, 0]
    negatives = {0: np.array([3, 4]), 1: np.array([1]), 2: np.array([5, 1])}
    e = ad.Matrix(emb)
    with ad.Tape() as tape:
        loss = attract_repel_loss(bank, e, labels, negatives)
    tape.backward(loss)
    assert bank.skipped_pairs == 3  # row 1 as a positive of 0 and a negative of 1 and 2
    pairs = [(0, 2, -1.0), (0, 5, -1.0), (0, 3, 1.0), (0, 4, 1.0), (1, 4, -1.0), (2, 0, -1.0), (2, 3, -1.0),
             (2, 5, 1.0)]  # (category, row, sign)
    cats, rows, signs = (np.array(col) for col in zip(*pairs))
    cos, _ = chain_cosine_rows(emb[rows], bank.refs[cats], np.zeros((len(pairs), 1)))
    assert loss.item() == (cos * signs.reshape(-1, 1)).sum() + 5.0
    assert not e.grad[1].any()


def test_loss_hand_cases_parallel_orthogonal_antipodal():
    bank = ReferenceBank(2, 2, seed=0)
    bank.refs[0] = [1.0, 0.0]
    no_neg = {0: np.empty(0, dtype=np.intp)}
    parallel = attract_repel_loss(bank, ad.Matrix([[2.0, 0.0]]), [0], no_neg)
    assert abs(parallel.item()) < 1e-12  # 1 - cos = 0
    orthogonal = attract_repel_loss(bank, ad.Matrix([[0.0, 3.0]]), [0], no_neg)
    assert abs(orthogonal.item() - 1.0) < 1e-12
    antipodal = attract_repel_loss(bank, ad.Matrix([[-1.0, 0.0]]), [0], no_neg)
    assert abs(antipodal.item() - 2.0) < 1e-12


def test_loss_negative_contributions():
    bank = ReferenceBank(2, 2, seed=0)
    bank.refs[0] = [1.0, 0.0]
    bank.refs[1] = [0.0, 1.0]
    emb = ad.Matrix([[1.0, 0.0], [-2.0, 0.0]])
    # category 0: attract row 0 (cos 1 -> 0), repel row 1 (cos -1 -> -1)
    loss = attract_repel_loss(bank, emb, [0, 0], {0: np.array([1])})
    # row1 is also a positive for category 0: attract cos(-1) -> 2
    # attract: rows 0 and 1 -> 0 + 2; repel row 1 -> -1
    assert abs(loss.item() - 1.0) < 1e-12


def test_loss_scale_invariance_of_embeddings():
    bank = ReferenceBank(2, 3, seed=0)
    rng = np.random.default_rng(2)
    bank.refs[0] = rng.normal(size=3)
    bank.refs[1] = rng.normal(size=3)
    emb = rng.normal(size=(4, 3))
    labels = [0, 1, 0, 1]
    negs = sample_negatives(ReferenceBank(2, 3, seed=9), labels)
    a = attract_repel_loss(bank, ad.Matrix(emb), labels, negs).item()
    b = attract_repel_loss(bank, ad.Matrix(emb * 37.5), labels, negs).item()
    assert abs(a - b) < 1e-9


def test_gradient_step_moves_cosines_the_right_way():
    """One descent step raises cos(r, positive) and lowers cos(r, negative)."""
    bank = ReferenceBank(2, 4, seed=0)
    rng = np.random.default_rng(3)
    bank.refs[0] = rng.normal(size=4)
    emb = ad.Matrix(rng.normal(size=(2, 4)))
    labels = [0, 1]
    negs = {0: np.array([1]), 1: np.empty(0, dtype=np.intp)}

    def cosines(data):
        unit_r = bank.refs[0] / np.linalg.norm(bank.refs[0])
        return [float(row @ unit_r / np.linalg.norm(row)) for row in data]

    before = cosines(emb.data)
    with ad.Tape() as tape:
        loss = attract_repel_loss(bank, emb, labels, negs)
    tape.backward(loss)
    stepped = emb.data - 0.05 * emb.grad
    after = cosines(stepped)
    assert after[0] > before[0]
    assert after[1] < before[1]


def test_loss_gradient_against_central_differences():
    bank = ReferenceBank(3, 3, seed=0)
    rng = np.random.default_rng(4)
    bank.refs = rng.normal(size=(3, 3))
    emb = ad.Matrix(rng.normal(size=(5, 3)))
    labels = [0, 1, 2, 1, 0]
    negs = sample_negatives(ReferenceBank(3, 3, seed=1), labels)
    err = grad_check(lambda: attract_repel_loss(bank, emb, labels, negs), [emb], eps=1e-5)
    assert err < 1e-7


def test_update_stays_in_span_property():
    """The new reference is a signed affine mix of old ref and batch rows."""
    rng = np.random.default_rng(5)
    bank = ReferenceBank(2, 3, seed=2)
    bank.refs[0] = rng.normal(size=3)
    bank.counts[0] = 4.0
    emb = rng.normal(size=(3, 3))
    labels = [0, 0, 1]
    negs = {0: np.array([2]), 1: np.empty(0, dtype=np.intp)}
    old = bank.refs[0].copy()
    update_references(bank, emb, labels, negatives=negs)
    expect = (old * 4.0 + emb[0] + emb[1] - emb[2]) / (4.0 + 2.0 + 1.0)
    np.testing.assert_allclose(bank.refs[0], expect, atol=1e-14)


def test_updates_never_touch_gradients():
    bank = ReferenceBank(2, 2, seed=0)
    emb = ad.Matrix([[1.0, 0.0], [0.0, 1.0]])
    with ad.Tape() as tape:
        update_references(bank, emb.data, [0, 1], sample_negatives(bank, [0, 1]))
        assert tape.records == []
    assert emb.grad is None


def test_cluster_stats_hand_case():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    intra, inter = cluster_stats(emb, [0, 0, 1])
    assert abs(intra - 1.0) < 1e-12
    assert abs(inter - 0.0) < 1e-12


def test_cluster_stats_matches_brute_force():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    labels[:3] = [0, 0, 1]  # both kinds of pair exist
    intra, inter = cluster_stats(emb, labels)
    same, diff = [], []
    for i in range(12):
        for j in range(i + 1, 12):
            c = emb[i] @ emb[j] / (np.linalg.norm(emb[i]) * np.linalg.norm(emb[j]))
            (same if labels[i] == labels[j] else diff).append(c)
    assert abs(intra - np.mean(same)) < 1e-12
    assert abs(inter - np.mean(diff)) < 1e-12


def test_cluster_stats_single_category_raises():
    with pytest.raises(ValueError, match="two categories"):
        cluster_stats(np.eye(3), [1, 1, 1])
