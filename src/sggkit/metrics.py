"""Triplet-recall evaluation for labeled directed scene graphs.

Predictions are scored triplets (subject id, object id, predicate). A triplet
matches when its node ids and predicate equal a ground-truth triplet's; node
labels play no part, and there is no box matching because evaluation assumes
ground-truth entities are given.

Three metrics, all read from one scan per scene: `count_hits` records where
each ground-truth triplet first appears among the first k_max of a ranked list
(as returned by `rank_triplets` or `ranked_from_scores`), stopping once all
have appeared; a triplet is in the top k when that position is below k.
Per-scene values are `HitCounts` methods and corpus values reduce a list of
counts, both at any k <= k_max; nothing ranks or scans a list again.
  * R@k: fraction of ground-truth triplets found in the top-k; the corpus
    value `corpus_recall_at_k` is the mean over scenes.
  * mR@k: recall per predicate category, averaged without frequency
    weighting; `mean_recall_at_k` pools each category across scenes.
  * pR@k: fraction of bidirectional pairs whose directed triplets are BOTH
    in the top-k, pooled by `corpus_pairwise_recall_at_k`; a direction-blind
    predictor scores 0 on every pair whose directions differ in predicate.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    """Where one scene's ground truth first appears among the first k_max of its ranked list.

    categories maps each predicate category to the sorted 0-based first
    positions of its ground-truth triplets, in the iteration order of
    `GroundTruthGraph.triplets`; pairs holds, sorted, the position by which
    both directions of each bidirectional pair have appeared. What the scan
    did not find sits at k_max, so the hits at k are the positions below k.
    """

    categories: dict[int, list[int]]
    pairs: list[int]
    k_max: int

    def hits(self, positions: list[int], k: int) -> int:
        """How many of these sorted positions lie among the first k."""
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be between 1 and the {self.k_max} ranks counted, got {k}")
        return bisect_left(positions, k)

    def recall(self, k: int) -> float:
        """R@k: fraction of the scene's ground-truth triplets that were hit."""
        if not self.categories:
            raise ValueError("recall is undefined for a scene with no ground-truth triplets")
        found = self.categories.values()
        return sum([self.hits(f, k) for f in found]) / sum(map(len, found))

    def mean_recall(self, k: int) -> float:
        """mR@k of this scene alone: unweighted mean of its per-category recall."""
        if not self.categories:
            raise ValueError("recall is undefined for a scene with no ground-truth triplets")
        found = self.categories.values()
        return sum([self.hits(f, k) / len(f) for f in found]) / len(found)

    def pair_recall(self, k: int) -> float:
        """pR@k: fraction of bidirectional pairs with both directions hit."""
        if not self.pairs:
            raise ValueError("pairwise recall is undefined without bidirectional pairs")
        return self.hits(self.pairs, k) / len(self.pairs)


def count_hits(ranked: list[ScoredTriplet], gt: GroundTruthGraph, k_max: int) -> HitCounts:
    """Scan the first k_max of the ranked list once for the scene's ground truth; the one count per scene."""
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    wanted, first = gt.triplets, {}
    for pos, (s, o, p, _) in enumerate(ranked[:k_max]):
        if (s, o, p) in wanted:
            first.setdefault((s, o, p), pos)  # a repeated triplet keeps its first position
            if len(first) == len(wanted):
                break
    categories: dict[int, list[int]] = {}
    for trip in wanted:
        insort(categories.setdefault(trip[2], []), first.get(trip, k_max))
    pairs = sorted(max(first.get((i, j, gt.edges[(i, j)]), k_max), first.get((j, i, gt.edges[(j, i)]), k_max))
                   for i, j in gt.bidirectional_pairs)
    return HitCounts(categories, pairs, k_max)


def corpus_recall_at_k(counts: list[HitCounts], k: int) -> float:
    """Mean of per-scene recall at k (every scene weighted equally)."""
    if not counts:
        raise ValueError("need at least one scene")
    return float(np.mean([c.recall(k) for c in counts]))


def mean_recall_at_k(counts: list[HitCounts], k: int) -> float:
    """Unweighted mean of per-predicate-category recall at k.

    Each category's recall pools its ground-truth triplets across scenes;
    categories absent from the ground truth do not contribute.
    """
    totals: dict[int, list[int]] = {}
    for c in counts:
        for cat, found in c.categories.items():
            agg = totals.setdefault(cat, [0, 0])
            agg[0] += c.hits(found, k)
            agg[1] += len(found)
    if not totals:
        raise ValueError("mean recall is undefined with no ground-truth triplets")
    # fixed category order so the average does not depend on insertion order
    return float(np.mean([totals[c][0] / totals[c][1] for c in sorted(totals)]))


def corpus_pairwise_recall_at_k(counts: list[HitCounts], k: int) -> float:
    """Matched bidirectional pairs at k over total pairs, pooled across scenes."""
    matched = sum(c.hits(c.pairs, k) for c in counts)
    total = sum(len(c.pairs) for c in counts)
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
