"""Reference-bank contrastive loss over relation embeddings.

One running reference vector is kept per predicate category. After every
batch the reference moves toward that batch's positives and away from its
sampled negatives, weighted by how many embeddings it has absorbed so far:

    r_m <- (r_m * count_m + sum(pos) - sum(neg)) / (count_m + n_pos + n_neg)

Negatives are drawn uniformly without replacement from the batch embeddings
of other categories, matched one-to-one to the positive count (capped by
pool size). Reference updates never enter the tape; the loss treats the
references as constants and pulls gradients only through the embeddings:

    loss = sum_pos (1 - cos(r_m, e)) + sum_neg cos(r_m, e)

A `skip_category` (the no-relation label in training) takes no part at all:
it gets no reference and its rows never enter another category's negative
pool, so the dominant background class can neither drag every reference
toward one point nor flood the repel term. Pairs where either side has
exactly zero norm are skipped and counted, so a freshly zero-initialized
bank contributes no loss on its first batch.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Constant, Matrix, add, cosine_rows, gather_rows, mul, sum_all

Negatives = dict[int, np.ndarray]


class ReferenceBank:
    """Per-category reference vectors with cumulative absorption counts."""

    def __init__(self, n_categories: int, dim: int, seed=0):
        self.refs = np.zeros((n_categories, dim))
        self.counts = np.zeros(n_categories)
        self.rng = np.random.default_rng(seed)
        self.skipped_pairs = 0

    @property
    def n_categories(self) -> int:
        return self.refs.shape[0]

    @property
    def dim(self) -> int:
        return self.refs.shape[1]


def _check_labels(bank: ReferenceBank, emb: np.ndarray, labels: np.ndarray) -> None:
    if labels.ndim != 1 or labels.shape[0] != emb.shape[0]:
        raise ValueError(f"labels shape {labels.shape} does not match {emb.shape[0]} embeddings")
    if emb.shape[1] != bank.dim:
        raise ValueError(f"embedding width {emb.shape[1]} does not match bank width {bank.dim}")
    if labels.size and (labels.min() < 0 or labels.max() >= bank.n_categories):
        raise ValueError(
            f"label out of range: bank has categories 0..{bank.n_categories - 1}, "
            f"got {labels.min()}..{labels.max()}"
        )


def _clustered_categories(labels: np.ndarray, skip_category) -> list[int]:
    present = sorted(set(labels.tolist()))
    return [m for m in present if m != skip_category]


def sample_negatives(bank: ReferenceBank, labels, skip_category=None) -> Negatives:
    """For each clustered category, draw as many negatives as it has positives.

    Sampling is uniform without replacement from the batch rows of the other
    clustered categories (skip-category rows are excluded from every pool,
    not just from having a reference), capped by the pool size, consuming the
    bank's generator in ascending category order so runs are reproducible.
    """
    labels = np.asarray(labels, dtype=np.intp)
    out: Negatives = {}
    for m in _clustered_categories(labels, skip_category):
        pos = np.flatnonzero(labels == m)
        pool = np.flatnonzero((labels != m) & (labels != skip_category))
        k = min(pos.size, pool.size)
        out[m] = bank.rng.choice(pool, size=k, replace=False) if k else np.empty(0, dtype=np.intp)
    return out


def update_references(bank: ReferenceBank, embeddings: np.ndarray, labels, negatives: Negatives,
                      skip_category=None) -> ReferenceBank:
    """Absorb one batch of raw embeddings into the bank, off the tape."""
    labels = np.asarray(labels, dtype=np.intp)
    _check_labels(bank, embeddings, labels)
    for m in _clustered_categories(labels, skip_category):
        pos = np.flatnonzero(labels == m)
        neg = np.asarray(negatives.get(m, np.empty(0, dtype=np.intp)), dtype=np.intp)
        total = bank.counts[m] + pos.size + neg.size
        moved = bank.refs[m] * bank.counts[m] + embeddings[pos].sum(axis=0) - embeddings[neg].sum(axis=0)
        bank.refs[m] = moved / total
        bank.counts[m] = total
    return bank


def attract_repel_loss(
    bank: ReferenceBank, embeddings: Matrix, labels, negatives: Negatives, skip_category=None
) -> Matrix:
    """Differentiable scalar loss; references are constants, zero norms skip."""
    emb = embeddings.data
    labels = np.asarray(labels, dtype=np.intp)
    _check_labels(bank, emb, labels)
    cats = np.array(_clustered_categories(labels, skip_category), dtype=np.intp)
    negs = [np.asarray(negatives.get(m, ()), dtype=np.intp) for m in cats]
    pos = np.flatnonzero(labels != skip_category)
    rows = np.concatenate([pos, *negs])
    cat = np.concatenate([labels[pos], np.repeat(cats, [n.size for n in negs])])
    sign = np.repeat([-1.0, 1.0], [pos.size, rows.size - pos.size])  # -1 attract, +1 repel
    # The loss sums the pairs by ascending category, positives before negatives, each in
    # row or sampled order (lexsort is stable).
    order = np.lexsort((sign, cat))
    rows, refs, sign = rows[order], bank.refs[cat[order]], sign[order]
    keep = ((refs ** 2).sum(axis=1) != 0.0) & ((emb[rows] ** 2).sum(axis=1) != 0.0)
    bank.skipped_pairs += int(keep.size - np.count_nonzero(keep))
    if not keep.any():
        return Matrix([[0.0]])
    sign = sign[keep]
    cosines = cosine_rows(gather_rows(embeddings, rows[keep]), Constant(refs[keep]))
    weighted = mul(cosines, Constant(sign.reshape(-1, 1)))
    # sum_pos (1 - cos) + sum_neg cos  =  n_attract - sum_pos cos + sum_neg cos
    return add(sum_all(weighted), Matrix([[float(np.count_nonzero(sign < 0.0))]]))
