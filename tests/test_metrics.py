import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_mean_recall,
    brute_pairwise_recall,
    brute_recall,
    brute_symmetry_split,
    loop_ranked_from_scores,
    make_random_instance,
    split_pairs_by_symmetry,
)
from sggkit.data import generate, GeneratorSpec
from sggkit.metrics import (
    GroundTruthGraph,
    corpus_pairwise_recall_at_k,
    corpus_recall_at_k,
    count_hits,
    mean_recall_at_k,
    rank_triplets,
    ranked_from_scores,
)


def graph(edges):
    e = {(s, o): p for s, o, p in edges}
    pairs = sorted({(min(s, o), max(s, o)) for s, o in e if (o, s) in e})
    return GroundTruthGraph(e, pairs)


def recall(pred, gt, k):
    return count_hits(pred, gt, k).recall(k)


def pair_recall(pred, gt, k):
    return count_hits(pred, gt, k).pair_recall(k)


def corpus(metric, preds, gts, k):
    """A corpus metric over the scenes' counts at k."""
    return metric([count_hits(pred, gt, k) for pred, gt in zip(preds, gts)], k)


# ---------------------------------------------------------------------------
# ranking


def test_rank_triplets_orders_by_score_then_ids():
    scored = [(1, 0, 2, 0.5), (0, 1, 3, 0.5), (2, 0, 1, 0.9), (0, 1, 1, 0.5)]
    ranked = rank_triplets(scored)
    assert ranked == [(2, 0, 1, 0.9), (0, 1, 1, 0.5), (0, 1, 3, 0.5), (1, 0, 2, 0.5)]


def test_rank_triplets_dedups_keeping_best_score():
    ranked = rank_triplets([(0, 1, 2, 0.3), (0, 1, 2, 0.8), (0, 1, 2, 0.5)])
    assert ranked == [(0, 1, 2, 0.8)]


# ---------------------------------------------------------------------------
# recall


def test_recall_perfect_predictions():
    gt = graph([(0, 1, 2), (1, 0, 3), (0, 2, 1)])
    pred = [(s, o, p, 1.0) for s, o, p in gt.triplets]
    assert recall(pred, gt, 3) == 1.0
    assert recall(pred, gt, 100) == 1.0


def test_recall_disjoint_predictions():
    gt = graph([(0, 1, 2)])
    assert recall([(0, 1, 5, 1.0), (1, 0, 2, 0.5)], gt, 10) == 0.0


def test_recall_three_of_four_in_top_five():
    gt = graph([(0, 1, 1), (1, 0, 2), (0, 2, 3), (2, 0, 4)])
    pred = [
        (0, 1, 1, 0.9),
        (1, 0, 2, 0.8),
        (0, 2, 3, 0.7),
        (3, 0, 1, 0.6),
        (1, 2, 5, 0.5),
        (2, 0, 4, 0.4),  # rank 6, outside top-5
    ]
    assert recall(pred, gt, 5) == 0.75


def test_recall_errors():
    gt = GroundTruthGraph({}, [])
    with pytest.raises(ValueError, match="no ground-truth"):
        recall([], gt, 5)
    with pytest.raises(ValueError, match="k must be"):
        recall([(0, 1, 1, 0.5)], graph([(0, 1, 1)]), 0)


# ---------------------------------------------------------------------------
# mean recall


def test_mean_recall_unweighted_over_categories():
    # category 1 has three gt triplets all found, category 2 has one, missed
    gt = graph([(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 2, 2)])
    pred = [(0, 1, 1, 0.9), (1, 2, 1, 0.8), (2, 0, 1, 0.7)]
    assert corpus(mean_recall_at_k, [pred], [gt], 10) == 0.5
    assert count_hits(pred, gt, 10).mean_recall(10) == 0.5


def test_mean_recall_single_category_equals_recall():
    gt = graph([(0, 1, 3), (1, 0, 3)])
    pred = [(0, 1, 3, 0.9), (2, 1, 3, 0.8)]
    assert corpus(mean_recall_at_k, [pred], [gt], 2) == recall(pred, gt, 2)


def test_mean_recall_pools_categories_across_scenes():
    gts = [graph([(0, 1, 1)]), graph([(0, 1, 1), (1, 0, 2)])]
    preds = [[(0, 1, 1, 1.0)], [(1, 0, 2, 1.0)]]
    # category 1: 1 of 2 across scenes; category 2: 1 of 1
    assert corpus(mean_recall_at_k, preds, gts, 5) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# pairwise recall


def test_pairwise_recall_full_match():
    gt = graph([(0, 1, 2), (1, 0, 3)])
    pred = [(0, 1, 2, 0.9), (1, 0, 3, 0.8)]
    assert pair_recall(pred, gt, 2) == 1.0


def test_pairwise_recall_direction_blind_zero_on_asymmetric():
    gt = graph([(0, 1, 2), (1, 0, 3)])
    pred = [(0, 1, 2, 0.9), (1, 0, 2, 0.9)]  # same label both ways
    for k in (1, 2, 4, 16):
        assert pair_recall(pred, gt, k) == 0.0


def test_pairwise_recall_one_of_three_pairs_in_top_two():
    gt = graph([(0, 1, 1), (1, 0, 2), (2, 3, 1), (3, 2, 1), (4, 5, 2), (5, 4, 3)])
    pred = [(0, 1, 1, 0.9), (1, 0, 2, 0.8), (2, 3, 1, 0.7), (3, 2, 1, 0.6)]
    assert pair_recall(pred, gt, 2) == pytest.approx(1 / 3)


def test_pairwise_recall_requires_bidirectional_pairs():
    gt = graph([(0, 1, 2)])
    with pytest.raises(ValueError, match="bidirectional"):
        pair_recall([(0, 1, 2, 1.0)], gt, 2)


def test_split_pairs_by_symmetry():
    gt = graph([(0, 1, 2), (1, 0, 3), (2, 3, 4), (3, 2, 4)])
    asym, sym = split_pairs_by_symmetry(gt)
    assert asym == [(0, 1)]
    assert sym == [(2, 3)]


# ---------------------------------------------------------------------------
# ground-truth construction


def test_ground_truth_from_generated_scene_has_one_pair():
    spec = GeneratorSpec(
        n_entity_categories=11, n_predicate_categories=5, related_pairs=5, context_categories=0,
        asymmetric_fraction=0.8, noise_rate=0.0, nodes_per_scene=4, n_scenes=20, seed=4,
    )
    for rec in generate(spec):
        gt = GroundTruthGraph.from_scene(rec)
        assert len(gt.bidirectional_pairs) == 1
        assert len(gt.triplets) == 2


def test_bidirectional_pairing_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        _, gt = make_random_instance(rng)
        for i, j in gt.bidirectional_pairs:
            assert (i, j) in gt.edges and (j, i) in gt.edges
            assert i < j


# ---------------------------------------------------------------------------
# score-matrix ranking


def test_ranked_from_scores_graph_constraint_one_triplet_per_pair():
    probs = np.array([
        [0.7, 0.2, 0.1],  # argmax over real predicates is 1
        [0.1, 0.3, 0.6],
    ])
    ranked = ranked_from_scores(np.array([(0, 1), (1, 0)]), probs)
    assert ranked == [(1, 0, 2, 0.6), (0, 1, 1, 0.2)]


def test_ranked_from_scores_never_emits_no_relation():
    probs = np.array([[0.98, 0.01, 0.01]])
    ranked = ranked_from_scores(np.array([(0, 1)]), probs)
    assert len(ranked) == 1
    assert ranked[0][2] != 0


def test_ranked_from_scores_unconstrained_emits_all_predicates():
    probs = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    ranked = ranked_from_scores(np.array([(0, 1), (1, 0)]), probs, graph_constraint=False)
    assert len(ranked) == 4
    assert ranked[0] == (1, 0, 2, 0.5)


@st.composite
def scored_edges(draw):
    """Distinct (s, o) pairs and a probability row per pair, with exact ties
    planted: cells come from a small pool that holds 0.0, and rows repeat."""
    n_cols = draw(st.integers(2, 6))
    ids = st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), unique=True, max_size=12))
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [0.0]
    rows = [draw(st.lists(st.sampled_from(pool), min_size=n_cols, max_size=n_cols)) for _ in pairs]
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            rows[i] = rows[draw(st.integers(0, i - 1))]
    return pairs, np.array(rows, dtype=float).reshape(len(pairs), n_cols)


@settings(deadline=None)
@given(scored_edges(), st.booleans())
def test_ranked_from_scores_matches_per_edge_loop(case, graph_constraint):
    pairs, probs = case
    ranked = ranked_from_scores(np.array(pairs, dtype=np.int64).reshape(-1, 2), probs, graph_constraint)
    assert ranked == loop_ranked_from_scores(pairs, probs, graph_constraint)
    assert all(type(s) is int and type(o) is int and type(p) is int and type(sc) is float
               for s, o, p, sc in ranked)


def test_ranked_from_scores_shape_errors():
    with pytest.raises(ValueError, match="edge_probs"):
        ranked_from_scores(np.array([(0, 1)]), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="predicate category"):
        ranked_from_scores(np.array([(0, 1)]), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# properties and the brute-force oracle


def test_recall_monotone_in_k():
    rng = np.random.default_rng(7)
    for _ in range(30):
        pred, gt = make_random_instance(rng)
        r = [recall(pred, gt, k) for k in (1, 2, 4, 8, 16, 32)]
        assert all(a <= b for a, b in zip(r, r[1:]))
        p = [pair_recall(pred, gt, k) for k in (1, 2, 4, 8, 16, 32)]
        assert all(a <= b for a, b in zip(p, p[1:]))


def test_pairwise_recall_bounded_by_pair_restricted_recall():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pred, gt = make_random_instance(rng)
        restricted = {
            (s, o): p
            for (s, o), p in gt.edges.items()
            if (min(s, o), max(s, o)) in gt.bidirectional_pairs
        }
        gt_r = GroundTruthGraph(restricted, gt.bidirectional_pairs)
        for k in (1, 2, 4, 8):
            assert pair_recall(pred, gt, k) <= recall(pred, gt_r, k) + 1e-12


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(500):
        pred, gt = make_random_instance(rng)
        for k in (1, 2, 4, 8, 16, 20):
            assert recall(rank_triplets(pred), gt, k) == brute_recall(pred, gt, k)
            assert pair_recall(rank_triplets(pred), gt, k) == brute_pairwise_recall(pred, gt, k)
        asym, sym = split_pairs_by_symmetry(gt)
        b_asym, b_sym = brute_symmetry_split(gt)
        assert sorted(asym) == sorted(b_asym) and sorted(sym) == sorted(b_sym)


def test_mean_recall_matches_brute_force_on_random_corpora():
    rng = np.random.default_rng(321)
    for _ in range(60):
        n_scenes = int(rng.integers(1, 5))
        preds, gts = [], []
        for _ in range(n_scenes):
            p, g = make_random_instance(rng)
            preds.append(p)
            gts.append(g)
        for k in (1, 4, 16):
            np.testing.assert_allclose(
                corpus(mean_recall_at_k, [rank_triplets(p) for p in preds], gts, k),
                brute_mean_recall(preds, gts, k),
                atol=1e-12,
            )
            np.testing.assert_allclose(count_hits(rank_triplets(preds[0]), gts[0], k).mean_recall(k),
                                       brute_mean_recall(preds[:1], gts[:1], k), atol=1e-12)


def test_corpus_aggregates():
    gt1 = graph([(0, 1, 1), (1, 0, 2)])
    gt2 = graph([(0, 1, 3), (1, 0, 4)])
    pred1 = [(0, 1, 1, 0.9), (1, 0, 2, 0.8)]  # both matched
    pred2 = [(0, 1, 3, 0.9), (1, 0, 9, 0.8)]  # one matched, pair missed
    assert corpus(corpus_recall_at_k, [pred1, pred2], [gt1, gt2], 2) == 0.75
    assert corpus(corpus_pairwise_recall_at_k, [pred1, pred2], [gt1, gt2], 2) == 0.5
    with pytest.raises(ValueError, match="no ground-truth triplets"):
        corpus(corpus_recall_at_k, [pred1], [GroundTruthGraph({}, [])], 2)
    with pytest.raises(ValueError, match="no ground-truth triplets"):
        count_hits(pred1, GroundTruthGraph({}, []), 2).mean_recall(2)
    with pytest.raises(ValueError, match="mean recall is undefined with no ground-truth triplets"):
        corpus(mean_recall_at_k, [pred1], [GroundTruthGraph({}, [])], 2)
    with pytest.raises(ValueError, match="need at least one scene"):
        corpus_recall_at_k([], 2)
    with pytest.raises(ValueError, match="pairwise recall is undefined"):
        corpus(corpus_pairwise_recall_at_k, [pred1], [graph([(0, 1, 1)])], 2)


# ---------------------------------------------------------------------------
# the one-pass count against the per-k top-k set it replaced


def top_k_oracle(ranked, gt, k):
    """One scene's (per-category (hits, total) in triplet order, matched pairs) from the set of ranked[:k]."""
    top = {(s, o, p) for s, o, p, _ in ranked[:k]}
    categories = {}
    for trip in gt.triplets:
        hit, total = categories.get(trip[2], (0, 0))
        categories[trip[2]] = (hit + (trip in top), total + 1)
    matched = sum((i, j, gt.edges[(i, j)]) in top and (j, i, gt.edges[(j, i)]) in top
                  for i, j in gt.bidirectional_pairs)
    return categories, matched


@st.composite
def ranked_corpora(draw):
    """Scenes with several categories and bidirectional pairs, each with a ranked list that repeats
    triplets and ties scores, plus a k_max that may reach past every list."""
    scenes = []
    for _ in range(draw(st.integers(1, 4))):
        n_nodes, n_pred = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        ordered = [(s, o) for s in range(n_nodes) for o in range(n_nodes) if s != o]
        annotated = draw(st.lists(st.sampled_from(ordered), min_size=1, unique=True))
        gt = graph([(s, o, draw(st.integers(1, n_pred))) for s, o in annotated])
        triplet = st.sampled_from(sorted(gt.triplets)) | st.tuples(
            st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1), st.integers(1, n_pred))
        listed = draw(st.lists(st.tuples(triplet, st.sampled_from([0.25, 0.5, 1.0])), max_size=24))
        # sorted by score alone, so tied triplets and a triplet's repeats keep their drawn order
        ranked = [(*t, score) for t, score in sorted(listed, key=lambda ts: -ts[1])]
        scenes.append((ranked, gt))
    return scenes, draw(st.integers(1, 28))


@settings(deadline=None)
@given(ranked_corpora())
def test_one_pass_count_matches_top_k_sets_at_every_k(case):
    scenes, k_max = case
    counts = [count_hits(ranked, gt, k_max) for ranked, gt in scenes]
    with_pairs = any(gt.bidirectional_pairs for _, gt in scenes)
    for k in range(1, k_max + 1):
        oracle = [top_k_oracle(ranked, gt, k) for ranked, gt in scenes]
        scene_recall = [sum(h for h, _ in cats.values()) / sum(t for _, t in cats.values()) for cats, _ in oracle]
        for c, (_, gt), (cats, matched), r in zip(counts, scenes, oracle, scene_recall):
            assert c.recall(k) == r
            assert c.mean_recall(k) == sum([h / t for h, t in cats.values()]) / len(cats)
            if gt.bidirectional_pairs:
                assert c.pair_recall(k) == matched / len(gt.bidirectional_pairs)
        assert corpus_recall_at_k(counts, k) == float(np.mean(scene_recall))
        pooled = {}
        for cats, _ in oracle:
            for cat, (h, t) in cats.items():
                pooled_h, pooled_t = pooled.get(cat, (0, 0))
                pooled[cat] = (pooled_h + h, pooled_t + t)
        assert mean_recall_at_k(counts, k) == float(np.mean([pooled[c][0] / pooled[c][1] for c in sorted(pooled)]))
        if with_pairs:
            assert corpus_pairwise_recall_at_k(counts, k) == (
                sum(m for _, m in oracle) / sum(len(gt.bidirectional_pairs) for _, gt in scenes))
    with pytest.raises(ValueError, match="k must be"):
        counts[0].recall(k_max + 1)
