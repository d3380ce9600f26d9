"""Triplet-recall evaluation for labeled directed scene graphs.

Predictions are scored triplets (subject id, object id, predicate). Matching
is by exact identity against ground-truth node ids and labels; there is no
box matching because evaluation assumes ground-truth entities are given.

Three metric families:
  * recall_at_k: fraction of ground-truth triplets found in the top-k.
  * mean_recall_at_k: recall computed per predicate category across a
    corpus, then averaged without frequency weighting.
  * pairwise_recall_at_k: fraction of bidirectional pairs whose directed
    triplets are BOTH in the top-k; a direction-blind predictor scores 0
    on every pair whose two directions carry different predicates.

Every metric takes lists as returned by `rank_triplets` or `ranked_from_scores`
and reads the first k entries of each; no metric ranks a list again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SceneRecord

# (subject id, object id, predicate, score)
ScoredTriplet = tuple[int, int, int, float]


def rank_triplets(scored: list[ScoredTriplet]) -> list[ScoredTriplet]:
    """Deduplicate (keeping the best score per triplet) and sort.

    Order is descending score; ties break on subject id, then object id,
    then predicate, so ranking is a pure function of the input set.
    """
    best: dict[tuple[int, int, int], float] = {}
    for s, o, p, score in scored:
        key = (s, o, p)
        if key not in best or score > best[key]:
            best[key] = float(score)
    ranked = [(s, o, p, sc) for (s, o, p), sc in best.items()]
    ranked.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    return ranked


@dataclass
class GroundTruthGraph:
    """Immutable view of a scene's labels used by the metrics."""

    node_labels: dict[int, int]
    edges: dict[tuple[int, int], int]  # (subject, object) -> predicate
    # unordered pairs annotated in both directions, keyed (min id, max id)
    bidirectional_pairs: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_scene(cls, record: SceneRecord) -> "GroundTruthGraph":
        record.validate()
        node_labels = {n.id: n.label for n in record.nodes}
        edges = {(e.subject, e.object): e.predicate for e in record.edges}
        pairs = sorted({(min(s, o), max(s, o)) for (s, o) in edges if (o, s) in edges})
        return cls(node_labels, edges, pairs)

    @property
    def triplets(self) -> set[tuple[int, int, int]]:
        return {(s, o, p) for (s, o), p in self.edges.items()}


def _top_k_set(ranked: list[ScoredTriplet], k: int) -> set[tuple[int, int, int]]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return {(s, o, p) for s, o, p, _ in ranked[:k]}


def recall_at_k(pred: list[ScoredTriplet], gt: GroundTruthGraph, k: int) -> float:
    """Fraction of the scene's ground-truth triplets among the first k of the ranked `pred`."""
    gt_triplets = gt.triplets
    if not gt_triplets:
        raise ValueError("recall is undefined for a scene with no ground-truth triplets")
    top = _top_k_set(pred, k)
    return len(gt_triplets & top) / len(gt_triplets)


def pairwise_recall_at_k(pred: list[ScoredTriplet], gt: GroundTruthGraph, k: int) -> float:
    """Fraction of bidirectional pairs with both directions among the first k of the ranked `pred`."""
    if not gt.bidirectional_pairs:
        raise ValueError("pairwise recall is undefined without bidirectional pairs")
    matched, total = pairwise_recall_components(pred, gt, k)
    return matched / total


def pairwise_recall_components(pred: list[ScoredTriplet], gt: GroundTruthGraph, k: int) -> tuple[int, int]:
    """(matched pair count, total pair count) for one scene's ranked `pred`."""
    top = _top_k_set(pred, k)
    matched = 0
    for i, j in gt.bidirectional_pairs:
        fwd = (i, j, gt.edges[(i, j)])
        bwd = (j, i, gt.edges[(j, i)])
        matched += fwd in top and bwd in top
    return matched, len(gt.bidirectional_pairs)


def per_category_components(pred: list[ScoredTriplet], gt: GroundTruthGraph, k: int) -> dict[int, tuple[int, int]]:
    """Per predicate category: (gt triplets among the first k of the ranked `pred`, gt triplets)."""
    top = _top_k_set(pred, k)
    out: dict[int, list[int]] = {}
    for trip in gt.triplets:
        hit, total = out.setdefault(trip[2], [0, 0])
        out[trip[2]] = [hit + (trip in top), total + 1]
    return {c: (h, t) for c, (h, t) in out.items()}


def mean_recall_at_k(preds: list[list[ScoredTriplet]], gts: list[GroundTruthGraph], k: int) -> float:
    """Unweighted mean of per-predicate-category recall over ranked lists.

    Each category's recall pools its ground-truth triplets across scenes;
    categories absent from the ground truth do not contribute.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} prediction lists vs {len(gts)} ground truths")
    totals: dict[int, list[int]] = {}
    for pred, gt in zip(preds, gts):
        for cat, (hit, tot) in per_category_components(pred, gt, k).items():
            agg = totals.setdefault(cat, [0, 0])
            agg[0] += hit
            agg[1] += tot
    if not totals:
        raise ValueError("mean recall is undefined with no ground-truth triplets")
    # fixed category order so the average does not depend on insertion order
    return float(np.mean([totals[c][0] / totals[c][1] for c in sorted(totals)]))


def corpus_recall_at_k(preds: list[list[ScoredTriplet]], gts: list[GroundTruthGraph], k: int) -> float:
    """Mean of per-scene recall_at_k over ranked lists (every scene weighted equally)."""
    if len(preds) != len(gts) or not gts:
        raise ValueError("need one prediction list per scene and at least one scene")
    return float(np.mean([recall_at_k(p, g, k) for p, g in zip(preds, gts)]))


def corpus_pairwise_recall_at_k(preds: list[list[ScoredTriplet]], gts: list[GroundTruthGraph], k: int) -> float:
    """Matched bidirectional pairs over total pairs, pooled across scenes' ranked lists."""
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} prediction lists vs {len(gts)} ground truths")
    matched = total = 0
    for pred, gt in zip(preds, gts):
        if not gt.bidirectional_pairs:
            continue
        m, t = pairwise_recall_components(pred, gt, k)
        matched += m
        total += t
    if total == 0:
        raise ValueError("pairwise recall is undefined without bidirectional pairs")
    return matched / total


def ranked_from_scores(
    edge_index: list[tuple[int, int]],
    edge_probs: np.ndarray,
    graph_constraint: bool = True,
) -> list[ScoredTriplet]:
    """Turn per-edge predicate distributions into a ranked triplet list.

    Predicate 0 is the no-relation class and is never emitted. With the
    graph constraint each directed pair contributes its single best
    predicate; without it every (pair, predicate) combination competes.
    The pairs must be distinct (`prepare_scene` guarantees it), so no
    triplet repeats and one lexsort gives `rank_triplets`' order.
    """
    probs = np.asarray(edge_probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] != len(edge_index):
        raise ValueError(
            f"edge_probs must be [{len(edge_index)} x n_predicates], got shape {probs.shape}"
        )
    if probs.shape[1] < 2:
        raise ValueError("need at least one predicate category besides no-relation")
    ends = np.array(edge_index, dtype=np.int64).reshape(-1, 2)
    if graph_constraint:
        preds = np.argmax(probs[:, 1:], axis=1) + 1
        scores = probs[np.arange(len(preds)), preds]
        subj, obj = ends[:, 0], ends[:, 1]
    else:
        n_pred = probs.shape[1] - 1
        preds = np.tile(np.arange(1, n_pred + 1), len(ends))
        scores = probs[:, 1:].ravel()
        subj, obj = np.repeat(ends[:, 0], n_pred), np.repeat(ends[:, 1], n_pred)
    order = np.lexsort((preds, obj, subj, -scores))
    return list(zip(subj[order].tolist(), obj[order].tolist(), preds[order].tolist(), scores[order].tolist()))
