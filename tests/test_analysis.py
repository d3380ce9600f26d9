from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest

from sggkit.analysis import (
    CooccurrenceTable,
    build_bidirectional_subset,
    guess_curve,
    inter_class_distance,
    intra_class_variance,
)
from sggkit.data import Edge, GeneratorSpec, Node, SceneRecord, build_rule, generate


def table_from_rows(rows, n_entities=2):
    """The table whose dense predicate rows are rows: each nonzero row's nonzero cells."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = {p: Counter({c: int(v) for c, v in enumerate(row) if v}) for p, row in enumerate(rows) if row.any()}
    return CooccurrenceTable(n_entities, rows.shape[0], counts)


def two_node_scene(scene_id, head_label, tail_label, fwd, bwd=None):
    nodes = [
        Node(0, head_label, (0.0, 0.0, 0.5, 0.5), 0),
        Node(1, tail_label, (0.5, 0.5, 1.0, 1.0), 1),
    ]
    edges = [Edge(0, 1, fwd)]
    if bwd is not None:
        edges.append(Edge(1, 0, bwd))
    return SceneRecord(scene_id, nodes, edges)


# ---------------------------------------------------------------------------
# co-occurrence statistics


def test_variance_concentrated_row_hand_value():
    # two entity categories, row (4, 0, 0, 0): mean 1, variance (9+1+1+1)/4
    table = table_from_rows([[4, 0, 0, 0]])
    assert intra_class_variance(table, 0) == 3.0


def test_variance_uniform_and_zero_rows():
    table = table_from_rows([[3, 3, 3, 3], [0, 0, 0, 0]])
    assert intra_class_variance(table, 0) == 0.0
    assert intra_class_variance(table, 1) == 0.0


def test_variance_invariant_under_pair_permutation():
    rng = np.random.default_rng(2)
    row = rng.integers(0, 10, size=9)
    table = table_from_rows([row], n_entities=3)
    shuffled = table_from_rows([rng.permutation(row)], n_entities=3)
    np.testing.assert_allclose(intra_class_variance(table, 0), intra_class_variance(shuffled, 0))


def test_distance_orthogonal_singleton_rows_hand_value():
    table = table_from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert inter_class_distance(table, 0, 1) == 2.0


def test_distance_identical_rows_zero_and_symmetric():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 8, size=(3, 4)) + 1
    table = table_from_rows(rows)
    assert inter_class_distance(table, 1, 1) == 0.0
    for i in range(3):
        for j in range(3):
            np.testing.assert_allclose(
                inter_class_distance(table, i, j), inter_class_distance(table, j, i)
            )


def test_distance_zero_row_is_an_error():
    table = table_from_rows([[1, 1, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError, match="no occurrences"):
        inter_class_distance(table, 0, 1)


def test_distance_numerator_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows = rng.integers(0, 6, size=(3, 4)).astype(float)
        d = lambda a, b: np.abs(rows[a] - rows[b]).sum()
        assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-12


def test_table_from_scenes_matches_brute_count():
    spec = GeneratorSpec(
        n_entity_categories=11, n_predicate_categories=5, related_pairs=5, context_categories=0,
        asymmetric_fraction=0.8, noise_rate=0.1, nodes_per_scene=4, n_scenes=60, seed=5,
    )
    records = generate(spec)
    table = CooccurrenceTable.from_scenes(records, 11, 5)
    brute = defaultdict(Counter)
    for rec in records:
        labels = {n.id: n.label for n in rec.nodes}
        for e in rec.edges:
            brute[e.predicate][labels[e.subject] * 11 + labels[e.object]] += 1
    assert table.counts == brute
    assert sum(cells.total() for cells in table.counts.values()) == 2 * 60
    # the dense rows' arithmetic, which the sparse table must reproduce to the last bit
    dense = np.zeros((5, 121))
    for p, cells in brute.items():
        dense[p, list(cells)] = list(cells.values())
    for p in range(5):
        assert intra_class_variance(table, p) == float(np.mean((dense[p] - dense[p].mean()) ** 2))
    for i in brute:
        for j in brute:
            expected = np.abs(dense[i] - dense[j]).sum() / (np.sqrt(dense[i].sum()) * np.sqrt(dense[j].sum()))
            assert inter_class_distance(table, i, j) == float(expected)


def test_table_rejects_out_of_range_labels():
    rec = two_node_scene("s", 1, 2, 3)
    with pytest.raises(ValueError, match="predicate label"):
        CooccurrenceTable.from_scenes([rec], 5, 3)
    with pytest.raises(ValueError, match="entity label"):
        CooccurrenceTable.from_scenes([rec], 2, 5)


def test_predicate_index_bounds_checked():
    table = table_from_rows([[1, 0, 0, 0]])
    with pytest.raises(ValueError, match="predicate index"):
        intra_class_variance(table, 1)


# ---------------------------------------------------------------------------
# bidirectional subset


def test_one_way_edges_contribute_nothing():
    subset, summary = build_bidirectional_subset([two_node_scene("s", 1, 2, 3)])
    assert subset == []
    assert summary["pairs"] == 0
    assert summary["scenes_retained"] == 0
    assert summary["asymmetric_fraction"] is None


def test_two_way_scene_contributes_one_pair():
    subset, summary = build_bidirectional_subset([two_node_scene("s", 1, 2, 3, bwd=4)])
    assert len(subset) == 1
    assert summary["pairs"] == 1
    assert summary["asymmetric_pairs"] == 1
    assert summary["symmetric_pairs"] == 0
    assert summary["predicate_histogram"] == {3: 1, 4: 1}
    assert summary["entity_histogram"] == {1: 1, 2: 1}


def test_mixed_scene_keeps_only_paired_edges():
    nodes = [Node(i, i + 1, (0.0, 0.0, 1.0, 1.0), i) for i in range(3)]
    edges = [Edge(0, 1, 2), Edge(1, 0, 2), Edge(0, 2, 3)]
    subset, summary = build_bidirectional_subset([SceneRecord("m", nodes, edges)])
    assert [(e.subject, e.object) for e in subset[0].edges] == [(0, 1), (1, 0)]
    assert summary["symmetric_pairs"] == 1


def test_subset_counts_match_brute_force_on_seeded_scenes():
    spec = GeneratorSpec(
        n_entity_categories=11, n_predicate_categories=5, related_pairs=5, context_categories=0,
        asymmetric_fraction=0.6, noise_rate=0.1, nodes_per_scene=4, n_scenes=50, seed=6,
    )
    records = generate(spec)
    _, summary = build_bidirectional_subset(records)
    brute_pairs = brute_asym = 0
    for rec in records:
        present = {(e.subject, e.object): e.predicate for e in rec.edges}
        for (s, o), p in present.items():
            if s < o and (o, s) in present:
                brute_pairs += 1
                brute_asym += p != present[(o, s)]
    assert summary["pairs"] == brute_pairs == 50
    assert summary["asymmetric_pairs"] == brute_asym
    assert summary["scenes_retained"] == 50


# ---------------------------------------------------------------------------
# guess curves


def _rule_corpus(noise=0.0, n_scenes=300, seed=7):
    spec = GeneratorSpec(
        n_entity_categories=11, n_predicate_categories=5, related_pairs=5, context_categories=0,
        asymmetric_fraction=0.8, noise_rate=noise, nodes_per_scene=4,
        n_scenes=n_scenes, seed=seed,
    )
    return generate(spec), spec


def test_guess_curve_deterministic_rule_is_solved_by_endpoint_labels():
    records, _ = _rule_corpus()
    curve = guess_curve(records, records, ("head", "tail"), target="edge", k_max=4)
    assert curve[0] == 1.0


def test_guess_curve_monotone_and_saturating():
    records, spec = _rule_corpus(noise=0.2)
    n_labels = spec.n_predicate_categories - 1  # no-relation never annotated
    curve = guess_curve(records, records, ("head",), target="edge", k_max=n_labels)
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == 1.0


def test_guess_curve_stops_at_the_labels_seen():
    """Every true label ranks among the labels seen, so the curve stops after them, at 1.0; a k_max no array
    could hold gives that same curve at once."""
    records, _ = _rule_corpus(noise=0.2)
    n_labels = len({edge.predicate for record in records for edge in record.edges})
    full = guess_curve(records, records, ("head",), target="edge", k_max=n_labels)
    assert len(full) == n_labels and full[-1] == 1.0
    assert guess_curve(records, records, ("head",), target="edge", k_max=10**12).tobytes() == full.tobytes()
    assert guess_curve(records, records, ("head",), target="edge", k_max=2).tobytes() == full[:2].tobytes()


def test_guess_curve_prior_only_uniform_target():
    rng = np.random.default_rng(8)
    train = [two_node_scene(f"t{i}", 1, 2, int(rng.integers(1, 6))) for i in range(10_000)]
    evals = [two_node_scene(f"e{i}", 1, 2, int(rng.integers(1, 6))) for i in range(10_000)]
    curve = guess_curve(train, evals, (), target="edge", k_max=5)
    np.testing.assert_allclose(curve, [0.2, 0.4, 0.6, 0.8, 1.0], atol=0.05)


@pytest.mark.parametrize("target", ["edge", "head", "tail"])
def test_guess_curve_matches_brute_force_lookup(target):
    """Against a count over instance tuples, with one-way edges on both sides, so that a missing t2h is a
    context of its own."""
    records, _ = _rule_corpus(noise=0.3, n_scenes=80, seed=9)
    rng = np.random.default_rng(9)
    one_way = [two_node_scene(f"one-way-{i}", *map(int, rng.integers(1, 5, size=2)), int(rng.integers(1, 4)))
               for i in range(40)]
    train, evals = records[:60] + one_way[:30], records[60:] + one_way[30:]
    conditioning = {"edge": ("head", "t2h"), "head": ("tail", "t2h"), "tail": ("h2t", "t2h")}[target]
    curve = guess_curve(train, evals, conditioning, target=target, k_max=4)
    target_component = "h2t" if target == "edge" else target

    def instances(recs):
        out = []
        for rec in recs:
            lab = {n.id: n.label for n in rec.nodes}
            present = {(e.subject, e.object): e.predicate for e in rec.edges}
            for e in rec.edges:
                inst = {"head": lab[e.subject], "tail": lab[e.object], "h2t": e.predicate,
                        "t2h": present.get((e.object, e.subject))}
                out.append((tuple(inst[c] for c in conditioning), inst[target_component]))
        return out

    tr, ev = instances(train), instances(evals)
    assert any(None in context for context, _ in tr) and any(None in context for context, _ in ev)
    labels = sorted({t for _, t in tr} | {t for _, t in ev})
    glob = {lab: sum(t == lab for _, t in tr) for lab in labels}
    brute = np.zeros(4)
    for context, true in ev:
        cond_counts = {lab: sum(t == (context, lab) for t in tr) for lab in labels}
        if sum(cond_counts.values()) == 0:
            key = lambda lab: (-glob[lab], lab)
        else:
            key = lambda lab: (-cond_counts[lab], -glob[lab], lab)
        order = sorted(labels, key=key)
        rank = order.index(true)
        brute[rank:] += rank < 4
    np.testing.assert_allclose(curve, np.minimum(brute / len(ev), 1.0), atol=1e-12)


def test_guess_curve_unseen_context_falls_back_to_marginal():
    train = [two_node_scene("t0", 1, 2, 3), two_node_scene("t1", 1, 2, 3), two_node_scene("t2", 3, 4, 1)]
    evals = [two_node_scene("e0", 9, 9, 3)]  # context (9, 9) never trained
    curve = guess_curve(train, evals, ("head", "tail"), target="edge", k_max=2)
    # marginal ranking is [3, 1], so the true label 3 is found at k=1
    assert curve[0] == 1.0


def test_guess_curve_node_target_uses_entity_labels():
    # tail label identifies the head label exactly in this toy rule
    train = [two_node_scene(f"t{i}", 1 + (i % 2), 3 + (i % 2), 1) for i in range(20)]
    curve = guess_curve(train, train, ("tail",), target="head", k_max=2)
    assert curve[0] == 1.0
    prior = guess_curve(train, train, (), target="head", k_max=2)
    assert prior[0] == pytest.approx(0.5)


def test_guess_curve_information_monotonicity_on_planted_rule():
    records, _ = _rule_corpus(noise=0.1, n_scenes=400, seed=10)
    train, evals = records[:300], records[300:]
    chains = [(), ("head",), ("head", "tail"), ("head", "tail", "t2h")]
    curves = [guess_curve(train, evals, c, target="edge", k_max=4) for c in chains]
    for weaker, stronger in zip(curves, curves[1:]):
        assert np.all(stronger >= weaker - 0.02)


def test_guess_curve_validation_errors():
    records, _ = _rule_corpus(n_scenes=5)
    with pytest.raises(ValueError, match="nonempty training"):
        guess_curve([], records, ("head",))
    with pytest.raises(ValueError, match="nonempty evaluation"):
        guess_curve(records, [replace(records[0], edges=[])], ("head",))
    with pytest.raises(ValueError, match="target must be one of"):
        guess_curve(records, records, ("head",), target="h2t")
    with pytest.raises(ValueError, match="unknown conditioning"):
        guess_curve(records, records, ("banana",))
    with pytest.raises(ValueError, match="circular"):
        guess_curve(records, records, ("h2t",), target="edge")
    with pytest.raises(ValueError, match="circular"):
        guess_curve(records, records, ("head",), target="head")
    with pytest.raises(ValueError, match="duplicate"):
        guess_curve(records, records, ("head", "head"))
    with pytest.raises(ValueError, match="k_max"):
        guess_curve(records, records, ("head",), k_max=0)
