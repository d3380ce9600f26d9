"""Triplet-recall evaluation for labeled directed scene graphs.

Predictions are scored triplets (subject id, object id, predicate). A triplet
matches when its node ids and predicate equal a ground-truth triplet's; node
labels play no part, and there is no box matching because evaluation assumes
ground-truth entities are given.

Three metrics, all read from one count per scene and k: `count_hits` builds
the top-k set of a ranked list (as returned by `rank_triplets` or
`ranked_from_scores`) and counts the hits per predicate category and the
matched bidirectional pairs. Per-scene values are `HitCounts` properties and
corpus values reduce a list of counts; nothing ranks a list again.
  * R@k: fraction of ground-truth triplets found in the top-k; the corpus
    value `corpus_recall_at_k` is the mean over scenes.
  * mR@k: recall per predicate category, averaged without frequency
    weighting; `mean_recall_at_k` pools each category across scenes.
  * pR@k: fraction of bidirectional pairs whose directed triplets are BOTH
    in the top-k, pooled by `corpus_pairwise_recall_at_k`; a direction-blind
    predictor scores 0 on every pair whose directions differ in predicate.
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
    """Immutable view of a scene's annotated edges used by the metrics."""

    edges: dict[tuple[int, int], int]  # (subject, object) -> predicate
    # unordered pairs annotated in both directions, keyed (min id, max id)
    bidirectional_pairs: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_scene(cls, record: SceneRecord) -> "GroundTruthGraph":
        """The ground truth of a record that read_scenes or prepare_scene has validated."""
        edges = {(e.subject, e.object): e.predicate for e in record.edges}
        pairs = sorted({(min(s, o), max(s, o)) for (s, o) in edges if (o, s) in edges})
        return cls(edges, pairs)

    @property
    def triplets(self) -> set[tuple[int, int, int]]:
        return {(s, o, p) for (s, o), p in self.edges.items()}


@dataclass(frozen=True, slots=True)
class HitCounts:
    """One scene's ground truth found among the first k of its ranked list.

    categories maps each predicate category to (hits, ground-truth triplets),
    in the iteration order of `GroundTruthGraph.triplets`; pairs is
    (matched, total) over the scene's bidirectional pairs.
    """

    categories: dict[int, tuple[int, int]]
    pairs: tuple[int, int]

    @property
    def recall(self) -> float:
        """R@k: fraction of the scene's ground-truth triplets that were hit."""
        if not self.categories:
            raise ValueError("recall is undefined for a scene with no ground-truth triplets")
        hits = sum(h for h, _ in self.categories.values())
        return hits / sum(t for _, t in self.categories.values())

    @property
    def mean_recall(self) -> float:
        """mR@k of this scene alone: unweighted mean of its per-category recall."""
        if not self.categories:
            raise ValueError("recall is undefined for a scene with no ground-truth triplets")
        per_cat = [hit / total for hit, total in self.categories.values()]
        return sum(per_cat) / len(per_cat)

    @property
    def pair_recall(self) -> float:
        """pR@k: fraction of bidirectional pairs with both directions hit."""
        matched, total = self.pairs
        if not total:
            raise ValueError("pairwise recall is undefined without bidirectional pairs")
        return matched / total


def count_hits(ranked: list[ScoredTriplet], gt: GroundTruthGraph, k: int) -> HitCounts:
    """Count the scene's ground truth among the first k of the ranked list; the one top-k set."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = {(s, o, p) for s, o, p, _ in ranked[:k]}
    categories: dict[int, tuple[int, int]] = {}
    for trip in gt.triplets:
        hit, total = categories.get(trip[2], (0, 0))
        categories[trip[2]] = (hit + (trip in top), total + 1)
    matched = sum((i, j, gt.edges[(i, j)]) in top and (j, i, gt.edges[(j, i)]) in top
                  for i, j in gt.bidirectional_pairs)
    return HitCounts(categories, (matched, len(gt.bidirectional_pairs)))


def corpus_recall_at_k(counts: list[HitCounts]) -> float:
    """Mean of per-scene recall (every scene weighted equally)."""
    if not counts:
        raise ValueError("need at least one scene")
    return float(np.mean([c.recall for c in counts]))


def mean_recall_at_k(counts: list[HitCounts]) -> float:
    """Unweighted mean of per-predicate-category recall.

    Each category's recall pools its ground-truth triplets across scenes;
    categories absent from the ground truth do not contribute.
    """
    totals: dict[int, list[int]] = {}
    for c in counts:
        for cat, (hit, tot) in c.categories.items():
            agg = totals.setdefault(cat, [0, 0])
            agg[0] += hit
            agg[1] += tot
    if not totals:
        raise ValueError("mean recall is undefined with no ground-truth triplets")
    # fixed category order so the average does not depend on insertion order
    return float(np.mean([totals[c][0] / totals[c][1] for c in sorted(totals)]))


def corpus_pairwise_recall_at_k(counts: list[HitCounts]) -> float:
    """Matched bidirectional pairs over total pairs, pooled across scenes."""
    matched = sum(c.pairs[0] for c in counts)
    total = sum(c.pairs[1] for c in counts)
    if total == 0:
        raise ValueError("pairwise recall is undefined without bidirectional pairs")
    return matched / total


def ranked_from_scores(
    edge_index: np.ndarray,
    edge_probs: np.ndarray,
    graph_constraint: bool = True,
) -> list[ScoredTriplet]:
    """Turn per-edge predicate distributions into a ranked triplet list.

    edge_index is an [M, 2] int64 array of (subject id, object id) rows,
    like `PreparedScene.edge_index`. Predicate 0 is the no-relation class
    and is never emitted. With the graph constraint each directed pair
    contributes its single best predicate; without it every (pair,
    predicate) combination competes.
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
    if graph_constraint:
        preds = np.argmax(probs[:, 1:], axis=1) + 1
        scores = probs[np.arange(len(preds)), preds]
        subj, obj = edge_index[:, 0], edge_index[:, 1]
    else:
        n_pred = probs.shape[1] - 1
        preds = np.tile(np.arange(1, n_pred + 1), len(edge_index))
        scores = probs[:, 1:].ravel()
        subj, obj = np.repeat(edge_index[:, 0], n_pred), np.repeat(edge_index[:, 1], n_pred)
    order = np.lexsort((preds, obj, subj, -scores))
    return list(zip(subj[order].tolist(), obj[order].tolist(), preds[order].tolist(), scores[order].tolist()))
