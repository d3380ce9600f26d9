"""Dataset diagnostics for labeled directed scene graphs.

Three views of a corpus:
  * a predicate-by-entity-pair co-occurrence table with per-row variance
    and a normalized L1 distance between predicate rows,
  * the bidirectional subset (pairs annotated in both directions) with
    symmetry counts and label histograms,
  * guess curves: how well a target label can be predicted by ranking
    labels by their training-set frequency conditioned on neighboring
    labels, a direct measure of how much information neighbors carry.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .data import Edge, SceneRecord

CONTEXT_COMPONENTS = ("head", "tail", "h2t", "t2h")
GUESS_TARGETS = ("head", "tail", "edge")


@dataclass
class CooccurrenceTable:
    """Counts of (predicate, ordered entity-category pair) co-occurrences.

    Row i holds predicate i's counts over all n_entities**2 ordered pairs;
    column index is subject_category * n_entities + object_category. Only
    the nonzero cells of the predicates that occur are kept.
    """

    n_entities: int
    n_predicates: int
    counts: dict[int, Counter[int]]  # predicate -> column -> positive count, sized by the corpus

    @classmethod
    def from_scenes(cls, records: list[SceneRecord], n_entities: int, n_predicates: int) -> "CooccurrenceTable":
        counts: defaultdict[int, Counter[int]] = defaultdict(Counter)
        for rec in records:
            labels = {n.id: n.label for n in rec.nodes}
            for e in rec.edges:
                s_cat, o_cat = labels[e.subject], labels[e.object]
                if not (0 <= s_cat < n_entities and 0 <= o_cat < n_entities):
                    raise ValueError(f"scene {rec.scene_id}: entity label outside [0, {n_entities})")
                if not 0 <= e.predicate < n_predicates:
                    raise ValueError(f"scene {rec.scene_id}: predicate label outside [0, {n_predicates})")
                counts[e.predicate][s_cat * n_entities + o_cat] += 1
        return cls(n_entities, n_predicates, dict(counts))

    def _check_predicate(self, i: int) -> None:
        if not 0 <= i < self.n_predicates:
            raise ValueError(f"predicate index {i} outside [0, {self.n_predicates})")


def intra_class_variance(table: CooccurrenceTable, predicate: int) -> float:
    """Population variance of one predicate's counts over all entity pairs."""
    table._check_predicate(predicate)
    cells = table.counts.get(predicate)
    if not cells:
        return 0.0  # the dense row's arithmetic on an all-zero row
    row = np.zeros(table.n_entities * table.n_entities)  # one dense row at a time
    row[list(cells)] = list(cells.values())
    return float(np.mean((row - row.mean()) ** 2))


def inter_class_distance(table: CooccurrenceTable, i: int, j: int) -> float:
    """L1 distance between two predicate rows, normalized by the geometric
    mean of their total counts. Integer sums are exact, so the nonzero cells
    give the dense rows' floats."""
    table._check_predicate(i)
    table._check_predicate(j)
    ci, cj = table.counts.get(i, Counter()), table.counts.get(j, Counter())
    si, sj = ci.total(), cj.total()
    if si == 0 or sj == 0:
        raise ValueError(f"predicate row {i if si == 0 else j} has no occurrences, distance undefined")
    l1 = sum(abs(ci[c] - cj[c]) for c in ci.keys() | cj.keys())
    return float(l1 / (np.sqrt(si) * np.sqrt(sj)))


# ---------------------------------------------------------------------------
# bidirectional subset


def build_bidirectional_subset(records: list[SceneRecord]) -> tuple[list[SceneRecord], dict]:
    """Keep only edges whose opposite direction is also annotated.

    Scenes left with no such edges are dropped. The summary counts pairs,
    their symmetry split, and label histograms over the retained subset.
    """
    subset = []
    pairs = asymmetric = 0
    predicate_hist: Counter[int] = Counter()
    entity_hist: Counter[int] = Counter()
    for rec in records:
        present = {(e.subject, e.object): e.predicate for e in rec.edges}
        kept = [e for e in rec.edges if (e.object, e.subject) in present]
        if not kept:
            continue
        labels = {n.id: n.label for n in rec.nodes}
        for e in kept:
            predicate_hist[e.predicate] += 1
            if e.subject < e.object:
                pairs += 1
                asymmetric += e.predicate != present[(e.object, e.subject)]
                entity_hist.update((labels[e.subject], labels[e.object]))
        subset.append(SceneRecord(rec.scene_id, rec.nodes, [Edge(e.subject, e.object, e.predicate) for e in kept]))
    summary = {
        "scenes_in": len(records),
        "scenes_retained": len(subset),
        "pairs": pairs,
        "asymmetric_pairs": asymmetric,
        "symmetric_pairs": pairs - asymmetric,
        "asymmetric_fraction": asymmetric / pairs if pairs else None,
        "predicate_histogram": dict(sorted(predicate_hist.items())),
        "entity_histogram": dict(sorted(entity_hist.items())),
    }
    return subset, summary


# ---------------------------------------------------------------------------
# guess curves


def _edge_instances(records: list[SceneRecord]):
    """One instance per directed annotated edge.

    Components: head entity label, tail entity label, the head-to-tail
    predicate, and the tail-to-head predicate (None when not annotated).
    """
    out = []
    for rec in records:
        labels = {n.id: n.label for n in rec.nodes}
        present = {(e.subject, e.object): e.predicate for e in rec.edges}
        for e in rec.edges:
            out.append({
                "head": labels[e.subject],
                "tail": labels[e.object],
                "h2t": e.predicate,
                "t2h": present.get((e.object, e.subject)),
            })
    return out


def _validate_conditioning(conditioning, target: str) -> tuple[str, ...]:
    if target not in GUESS_TARGETS:
        raise ValueError(f"target must be one of {GUESS_TARGETS}, got {target!r}")
    cond = tuple(conditioning)
    target_component = "h2t" if target == "edge" else target
    for c in cond:
        if c not in CONTEXT_COMPONENTS:
            raise ValueError(f"unknown conditioning component {c!r}, expected subset of {CONTEXT_COMPONENTS}")
        if c == target_component:
            raise ValueError(f"conditioning on the target component {c!r} is circular")
    if len(set(cond)) != len(cond):
        raise ValueError("duplicate conditioning components")
    # fixed order makes context keys deterministic regardless of input order
    return tuple(c for c in CONTEXT_COMPONENTS if c in cond)


def guess_curve(
    train_records: list[SceneRecord],
    eval_records: list[SceneRecord],
    conditioning,
    target: str = "edge",
    k_max: int = 5,
) -> np.ndarray:
    """Top-k accuracy of frequency-lookup guessing, for k = 1..k_max.

    For each evaluation instance the target labels are ranked by their
    training-set frequency within the same conditioning context (ties:
    higher global frequency first, then smaller label). Contexts never
    seen in training fall back to the global ranking. Entry [k-1] of the
    result is the fraction of instances whose true label ranks in the
    top k. A true label always ranks among the labels seen, so the curve
    stops after min(k_max, number of labels seen) entries: later ones
    would repeat the last. A target label is never missing: the target is
    an entity label or the head-to-tail predicate. Only t2h can be None,
    and then only as a context value, which is a context of its own.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cond = _validate_conditioning(conditioning, target)
    target_component = "h2t" if target == "edge" else target
    train = _edge_instances(train_records)
    if not train:
        raise ValueError("guess curves need a nonempty training set")
    evals = _edge_instances(eval_records)
    if not evals:
        raise ValueError("guess curves need a nonempty evaluation set")

    global_counts = Counter(inst[target_component] for inst in train)
    context_counts: defaultdict[tuple, Counter[int]] = defaultdict(Counter)
    for inst in train:
        context_counts[tuple(inst[c] for c in cond)][inst[target_component]] += 1
    universe = set(global_counts) | {inst[target_component] for inst in evals}

    def ranking(bucket: Counter[int]) -> list[int]:
        return sorted(universe, key=lambda lab: (-bucket[lab], -global_counts[lab], lab))

    global_ranking = ranking(global_counts)
    hits = np.zeros(min(k_max, len(universe)))
    for inst in evals:
        bucket = context_counts.get(tuple(inst[c] for c in cond))
        order = ranking(bucket) if bucket is not None else global_ranking
        rank = order.index(inst[target_component])  # the true label is in universe, which every ranking orders
        if rank < hits.size:
            hits[rank] += 1
    return np.cumsum(hits) / len(evals)
