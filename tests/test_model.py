import json
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from sggkit.attract_repel import ReferenceBank, sample_negatives, update_references
from sggkit.autodiff import NumericError, Tape, softmax_rows
from sggkit.data import (
    MAX_SPEC_WIDTH,
    PREDICATE_NO_RELATION,
    Edge,
    GeneratorSpec,
    Node,
    SceneRecord,
    generate,
    split_scenes,
)
from helpers import chain_gih, chain_lih, complete_a_tilde, drawn, grad_check, loop_prepare_scene, loop_sgd_step
from sggkit import model as model_module
from sggkit import propagation
from sggkit.model import (
    CHECKPOINT_VERSION,
    ForwardResult,
    Matrix,
    Model,
    ModelConfig,
    evaluate,
    load_checkpoint,
    prepare_scene,
    save_checkpoint,
    total_loss,
    train,
)


def tiny_spec(**kw):
    base = dict(
        n_entity_categories=11,
        n_predicate_categories=5,
        related_pairs=5,
        context_categories=0,
        asymmetric_fraction=0.8,
        noise_rate=0.0,
        nodes_per_scene=4,
        n_scenes=30,
        seed=1,
        d_appearance=5,
        appearance_sigma=0.5,
        logit_flip_rate=0.1,
        logit_scale=2.0,
    )
    base.update(kw)
    return GeneratorSpec(**base)


def tiny_config(**kw):
    base = dict(
        d_appearance=5,
        d_node=8,
        d_edge=8,
        n_entity_categories=11,
        n_predicate_categories=5,
        fusion="parallel",
        gih_variant="gih",
        gih_layers=2,
        epochs=2,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def scene_and_fp(spec=None):
    spec = spec or tiny_spec()
    return generate(spec)[0], spec


# ---------------------------------------------------------------------------
# configuration and preparation


def test_prepare_scene_rejects_unordered_box():
    fp = tiny_spec()
    prepare_scene(SceneRecord("good", [Node(0, 1, (0.1, 0.1, 0.5, 0.5), 3)], []), fp)
    with pytest.raises(ValueError, match="scene bad: node 0 box .* unit box"):
        prepare_scene(SceneRecord("bad", [Node(0, 1, (0.6, 0.1, 0.5, 0.5), 3)], []), fp)


def test_config_validation():
    with pytest.raises(ValueError, match="fusion"):
        tiny_config(fusion="magic").validate()
    with pytest.raises(ValueError, match="propagation"):
        tiny_config(gih_variant="magic").validate()
    with pytest.raises(ValueError, match="widths must match"):
        tiny_config(d_edge=4).validate()
    tiny_config(d_edge=4, gih_variant="none").validate()  # fine without stacking
    with pytest.raises(ValueError, match="momentum"):
        tiny_config(momentum=1.0).validate()
    with pytest.raises(ValueError, match="config field seed must be"):
        tiny_config(seed=-1).validate()
    with pytest.raises(ValueError, match="unknown model config keys"):
        ModelConfig.from_dict({"banana": 1})
    cfg = tiny_config()
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


def _pairs(prep):
    return [tuple(pair) for pair in prep.edge_index.tolist()]


def test_prepare_scene_candidates_and_labels():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    n = len(record.nodes)
    assert prep.n_edges == n * (n - 1)
    assert prep.edge_index.dtype == np.int64 and prep.edge_index.shape == (n * (n - 1), 2)
    assert sorted(_pairs(prep)) == sorted((i, j) for i in range(n) for j in range(n) if i != j)
    annotated = {(e.subject, e.object): e.predicate for e in record.edges}
    for (s, o), label in zip(_pairs(prep), prep.edge_labels):
        assert label == annotated.get((s, o), 0)
    np.testing.assert_array_equal(prep.node_labels, [node.label for node in record.nodes])


def test_prepare_scene_union_rows_shared_across_directions():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    rows = {pair: prep.union_inputs[i] for i, pair in enumerate(_pairs(prep))}
    for (s, o), row in rows.items():
        np.testing.assert_array_equal(row, rows[(o, s)])


def test_prepare_scene_applies_shared_scene_offset():
    record, fp = scene_and_fp()
    fp_shift = replace(fp, scene_offset_sigma=0.9)
    base = prepare_scene(record, fp)
    shifted = prepare_scene(record, fp_shift)
    offset = fp_shift.scene_offset(record.scene_id)
    d = fp.d_appearance
    node_diff = shifted.node_inputs - base.node_inputs
    np.testing.assert_allclose(node_diff[:, :d], np.tile(offset, (base.node_inputs.shape[0], 1)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(node_diff[:, d:], 0.0)  # boxes and logits carry no offset
    union_diff = shifted.union_inputs - base.union_inputs
    np.testing.assert_allclose(union_diff[:, :2 * d], np.tile(offset, (base.n_edges, 2)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(union_diff[:, 2 * d:], 0.0)


def _assert_matches_loop_oracle(prep, expect):
    for name, want in expect.items():
        got = complete_a_tilde(prep.node_inputs.shape[0]) if name == "a_tilde" else getattr(prep, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_prepare_scene_matches_per_edge_loop_oracle():
    """Byte for byte, with node ids out of row order and a scene offset."""
    rng = np.random.default_rng(13)
    spec = tiny_spec(nodes_per_scene=6, n_scenes=6, scene_offset_sigma=0.7, seed=4)
    for record in generate(spec):
        perm = rng.permutation(len(record.nodes))
        shuffled = replace(record, nodes=[record.nodes[i] for i in perm])
        for scene in (record, shuffled):
            _assert_matches_loop_oracle(prepare_scene(scene, spec), loop_prepare_scene(scene, spec))


def test_prepared_scene_holds_no_dense_adjacency():
    spec = GeneratorSpec(nodes_per_scene=17, n_scenes=1, seed=5)
    prep = prepare_scene(generate(spec)[0], spec)
    dense = (prep.node_inputs.shape[0] + prep.n_edges) ** 2
    assert prep.n_edges == 17 * 16
    arrays = [v for v in vars(prep).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < dense


def test_prepare_scene_memory_does_not_grow_with_the_vocabulary_squared():
    """At the widest vocabularies a sidecar may ask for, preparing a 6-node scene peaks far below one
    V x V float array (8 MiB): labels stay integers, with no one-hot rows cut from an identity."""
    spec = GeneratorSpec(nodes_per_scene=6, n_scenes=1, seed=3)
    wide = replace(spec, n_entity_categories=MAX_SPEC_WIDTH, n_predicate_categories=MAX_SPEC_WIDTH)
    wide.validate()
    record = generate(spec)[0]
    propagation.build_adjacency(6)  # the graph cached per node count, not part of one scene
    tracemalloc.start()
    try:
        prepare_scene(record, wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_SPEC_WIDTH * MAX_SPEC_WIDTH


def test_scenes_of_one_node_count_share_a_read_only_graph():
    spec = tiny_spec(nodes_per_scene=6, n_scenes=2)
    first, second = (prepare_scene(r, spec) for r in generate(spec))
    subjects, objects, opposite = propagation.build_adjacency(6)
    assert first.subjects is second.subjects is subjects
    assert first.objects is second.objects is objects
    for shared in (subjects, objects, opposite):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1
    for prep in (first, second):  # the writes above changed nothing
        _assert_matches_loop_oracle(prep, loop_prepare_scene(prep.record, spec))


@pytest.fixture
def empty_graph_cache():
    propagation.build_adjacency.cache_clear()
    yield
    propagation.build_adjacency.cache_clear()


def test_candidate_graph_built_once_per_node_count(empty_graph_cache):
    six = tiny_spec(nodes_per_scene=6, n_scenes=12)
    records = generate(six)
    records[6:6] = generate(tiny_spec(nodes_per_scene=4, n_scenes=3))  # N = 4 between N = 6 scenes
    for record in records:
        prepare_scene(record, six)  # the specs differ only in node count
    info = propagation.build_adjacency.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 13, 2)


def test_prepare_scene_matches_loop_oracle_across_alternating_node_counts():
    """A graph cached under the wrong node count fails here."""
    specs = {n: GeneratorSpec(nodes_per_scene=n, n_scenes=2, related_pairs=16, context_categories=0, seed=n)
             for n in (2, 6, 17)}
    for i in range(2):
        for n, spec in specs.items():
            record = generate(spec)[i]
            _assert_matches_loop_oracle(prepare_scene(record, spec), loop_prepare_scene(record, spec))


def test_gih_forward_never_holds_a_dense_adjacency():
    """At N = 30, A~ would take (N^2)^2 floats, 6.5 MB; one gih forward peaks well below that."""
    n, d = 30, 32
    rng = np.random.default_rng(18)
    nodes, edges = Matrix(rng.normal(size=(n, d))), Matrix(rng.normal(size=(n * (n - 1), d)))
    params = propagation.init_propagation(drawn(rng), "gih", d, 4)
    propagation.build_adjacency(n)  # the graph cached per node count, not part of one forward
    tracemalloc.start()
    try:
        propagation.gih_forward(nodes, edges, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n * n) ** 2


def test_forward_leaves_no_dense_array_on_the_adjacency():
    spec = GeneratorSpec(nodes_per_scene=17, n_scenes=1, seed=5)
    prep = prepare_scene(generate(spec)[0], spec)
    cfg = tiny_config(d_appearance=spec.d_appearance, n_entity_categories=spec.n_entity_categories,
                      n_predicate_categories=spec.n_predicate_categories)
    Model(cfg).forward(prep)
    dense = (prep.node_inputs.shape[0] + prep.n_edges) ** 2
    arrays = [*propagation.build_adjacency(17), *(v for v in vars(prep).values() if isinstance(v, np.ndarray))]
    assert max(a.size for a in arrays) < dense


def test_prepare_scene_vocabulary_mismatch():
    record, _ = scene_and_fp()
    bad = GeneratorSpec(n_entity_categories=3, n_predicate_categories=5, d_appearance=5, appearance_sigma=0.5,
                        logit_flip_rate=0.0, logit_scale=1.0, seed=1)
    with pytest.raises(ValueError, match="entity label"):
        prepare_scene(record, bad)


# ---------------------------------------------------------------------------
# forward behavior


def probs(logits):
    """Class distributions as predict_scene computes them from the logits."""
    return softmax_rows(logits).data


def zero_model(config) -> Model:
    model = Model(config)
    for p in model.params.values():
        p.data[...] = 0.0
    return model


def test_zero_model_emits_uniform_distributions():
    record, fp = scene_and_fp()
    for variant in ("gih", "none"):
        model = zero_model(tiny_config(gih_variant=variant))
        out = model.forward(prepare_scene(record, fp))
        np.testing.assert_allclose(probs(out.node_logits), 1.0 / 11, atol=1e-15)
        np.testing.assert_allclose(probs(out.edge_logits), 1.0 / 5, atol=1e-15)


def test_probability_rows_sum_to_one_across_variants():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    for fusion in ("union", "concat", "sequential", "parallel"):
        for variant, layers in (("gih", 2), ("gcn", 2), ("gat", 1), ("none", 2)):
            for use_lih in (True, False):
                cfg = tiny_config(fusion=fusion, gih_variant=variant, gih_layers=layers, use_lih=use_lih, seed=3)
                out = Model(cfg).forward(prep)
                np.testing.assert_allclose(probs(out.node_logits).sum(axis=1), 1.0, atol=1e-9)
                np.testing.assert_allclose(probs(out.edge_logits).sum(axis=1), 1.0, atol=1e-9)


def test_single_proposal_no_edges():
    fp = tiny_spec()
    record = SceneRecord("solo", [Node(0, 3, (0.1, 0.2, 0.6, 0.9), 7)], [])
    prep = prepare_scene(record, fp)
    out = Model(tiny_config()).forward(prep)
    assert probs(out.node_logits).shape == (1, 11)
    assert probs(out.edge_logits).shape == (0, 5)
    assert prep.edge_index.shape == (0, 2)


def test_identical_proposals_get_identical_node_rows():
    fp = tiny_spec()
    nodes = [Node(0, 2, (0.1, 0.1, 0.4, 0.4), 5), Node(1, 2, (0.1, 0.1, 0.4, 0.4), 5)]
    record = SceneRecord("twins", nodes, [])
    out = Model(tiny_config(gih_variant="none")).forward(prepare_scene(record, fp))
    node_probs = probs(out.node_logits)
    np.testing.assert_array_equal(node_probs[0], node_probs[1])


def test_node_head_matches_hand_matrix_product():
    fp = tiny_spec()
    record = SceneRecord("h", [Node(0, 1, (0.0, 0.0, 1.0, 1.0), 3)], [])
    cfg = tiny_config(d_node=2, d_edge=2, n_entity_categories=11, gih_variant="none", use_lih=False, fusion="union")
    model = Model(cfg)
    rng = np.random.default_rng(11)
    w = rng.standard_normal((cfg.d_appearance + 4 + 11, 2))
    b = rng.standard_normal(2)
    model.params["node_map.w"].data[...] = w
    model.params["node_map.b"].data[...] = b
    model.params["entity_head.w"].data[...] = np.eye(2, 11)
    model.params["entity_head.b"].data[...] = 0.0
    prep = prepare_scene(record, fp)
    out = model.forward(prep)
    expected = prep.node_inputs @ w + b
    np.testing.assert_allclose(out.node_logits.data[:, :2], expected, atol=1e-12)


def test_direction_sensitive_fusion_separates_directions():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    out = Model(tiny_config(fusion="parallel", gih_variant="none", seed=5)).forward(prep)
    by_pair = dict(zip(_pairs(prep), probs(out.edge_logits)))
    gaps = [np.abs(by_pair[(s, o)] - by_pair[(o, s)]).max() for (s, o) in by_pair]
    assert max(gaps) > 1e-6


def test_union_fusion_without_propagation_is_direction_blind():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    out = Model(tiny_config(fusion="union", use_lih=False, gih_variant="none", seed=6)).forward(prep)
    rows = {pair: i for i, pair in enumerate(_pairs(prep))}
    edge_probs = probs(out.edge_logits)
    for (s, o), i in rows.items():
        j = rows[(o, s)]
        np.testing.assert_array_equal(out.edge_logits.data[i], out.edge_logits.data[j])
        np.testing.assert_array_equal(edge_probs[i], edge_probs[j])


@pytest.mark.parametrize("gih_variant", propagation.VARIANTS)
def test_union_fusion_with_propagation_stays_direction_blind(gih_variant):
    """Both directions of a pair get equal predicate probabilities, byte for byte, under every propagation."""
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    out = Model(tiny_config(fusion="union", use_lih=False, gih_variant=gih_variant, seed=7)).forward(prep)
    rows = {pair: i for i, pair in enumerate(_pairs(prep))}
    edge_probs = probs(out.edge_logits)
    for (s, o), i in rows.items():
        np.testing.assert_array_equal(edge_probs[i], edge_probs[rows[(o, s)]])


# ---------------------------------------------------------------------------
# loss


def test_uniform_predictions_loss_is_log_category_counts():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    model = zero_model(tiny_config(w_ar=0.0))
    out = model.forward(prep)
    bank = ReferenceBank(5, 8)
    loss, parts = total_loss(out, prep, bank, model.config)
    np.testing.assert_allclose(loss.item(), np.log(11) + np.log(5), atol=1e-12)
    np.testing.assert_allclose(parts["L_ent"], np.log(11), atol=1e-12)
    np.testing.assert_allclose(parts["L_pred"], np.log(5), atol=1e-12)
    assert parts["L_ar"] == 0.0


def test_perfect_one_hot_predictions_loss_near_zero():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    cfg = tiny_config(w_ar=0.0)
    node_logits = Matrix(np.eye(11)[prep.node_labels] * 60.0 - 30.0)
    edge_logits = Matrix(np.eye(5)[prep.edge_labels] * 60.0 - 30.0)
    out = ForwardResult(node_logits, edge_logits, Matrix(np.zeros((prep.n_edges, cfg.d_edge))))
    loss, _ = total_loss(out, prep, ReferenceBank(5, 8), cfg)
    assert loss.item() <= 1e-6


def _three_node_scene(edges):
    fp = GeneratorSpec(n_entity_categories=4, n_predicate_categories=3, d_appearance=3,
                       appearance_sigma=0.5, logit_flip_rate=0.0, logit_scale=1.0, seed=3)
    nodes = [Node(0, 1, (0.0, 0.0, 0.4, 0.4), 11), Node(1, 2, (0.2, 0.1, 0.8, 0.7), 12),
             Node(2, 3, (0.5, 0.5, 1.0, 1.0), 13)]
    cfg = ModelConfig(d_appearance=3, d_node=4, d_edge=4, n_entity_categories=4,
                      n_predicate_categories=3, w_ar=0.0)
    return prepare_scene(SceneRecord("three", nodes, edges), fp), cfg


def _predicate_loss(prep, cfg, edge_logits):
    out = ForwardResult(
        Matrix(np.zeros((prep.node_inputs.shape[0], cfg.n_entity_categories))), Matrix(edge_logits),
        Matrix(np.zeros((prep.n_edges, cfg.d_edge))),
    )
    _, parts = total_loss(out, prep, ReferenceBank(3, 4), cfg)
    return parts["L_pred"]


def test_predicate_loss_gives_relation_and_no_relation_rows_half_each():
    prep, cfg = _three_node_scene([Edge(0, 1, 1), Edge(1, 0, 2)])
    assert prep.n_edges == 6
    rows = {pair: i for i, pair in enumerate(_pairs(prep))}
    logits = np.tile([np.log(3.0), 0.0, 0.0], (6, 1))  # p(no relation) = 3/5 on the four background rows
    logits[rows[(0, 1)]] = [0.0, np.log(4.0), 0.0]  # p(label 1) = 4/6
    # row (1, 0) keeps [log 3, 0, 0]: p(label 2) = 1/5
    expected = 0.5 * (np.log(6 / 4) + np.log(5.0)) / 2 + 0.5 * np.log(5 / 3)
    plain_mean = (np.log(6 / 4) + np.log(5.0) + 4 * np.log(5 / 3)) / 6
    got = _predicate_loss(prep, cfg, logits)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert abs(got - plain_mean) > 0.05


def test_predicate_loss_without_relations_is_plain_mean():
    prep, cfg = _three_node_scene([])
    assert not prep.edge_labels.any()
    logits = np.random.default_rng(7).standard_normal((prep.n_edges, 3))
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    plain_mean = -lp[:, 0].mean()
    np.testing.assert_allclose(_predicate_loss(prep, cfg, logits), plain_mean, rtol=1e-12)


def test_loss_rejects_out_of_range_labels():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    model = Model(tiny_config())
    out = model.forward(prep)
    small = tiny_config(n_entity_categories=3)
    with pytest.raises(ValueError, match="entity label"):
        total_loss(out, prep, ReferenceBank(5, 8), small)
    relabeled = replace(prep, edge_labels=np.where(prep.edge_labels > 0, 5, 0))
    with pytest.raises(ValueError, match=rf"scene {prep.scene_id}: predicate label outside \[0, 5\)"):
        total_loss(out, relabeled, ReferenceBank(5, 8), tiny_config())


def test_end_to_end_gradients_on_three_node_six_edge_toy():
    fp = GeneratorSpec(n_entity_categories=4, n_predicate_categories=3, d_appearance=3,
                       appearance_sigma=0.6, logit_flip_rate=0.2, logit_scale=1.5, seed=2)
    nodes = [Node(0, 1, (0.0, 0.0, 0.4, 0.4), 11), Node(1, 2, (0.2, 0.1, 0.8, 0.7), 12),
             Node(2, 3, (0.5, 0.5, 1.0, 1.0), 13)]
    record = SceneRecord("toy", nodes, [Edge(0, 1, 1), Edge(1, 0, 2), Edge(1, 2, 1)])
    cfg = ModelConfig(
        d_appearance=3, d_node=4, d_edge=4, n_entity_categories=4, n_predicate_categories=3,
        fusion="parallel", gih_variant="gih", gih_layers=2, seed=4,
    )
    prep = prepare_scene(record, fp)
    assert prep.n_edges == 6
    model = Model(cfg)
    bank = ReferenceBank(3, 4, seed=9)
    bank.refs = np.random.default_rng(10).standard_normal((3, 4))
    bank.counts = np.ones(3)
    negatives = sample_negatives(bank, prep.edge_labels, skip_category=0)

    def f():
        out = model.forward(prep)
        loss, _ = total_loss(out, prep, bank, cfg, negatives)
        return loss

    err = grad_check(f, list(model.params.values()))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training


def _default_step_inputs():
    """The default model, a CLI-default N = 6 scene, and a bank that has absorbed that scene once."""
    spec = GeneratorSpec(n_scenes=4)
    prep = prepare_scene(generate(spec)[0], spec)
    assert prep.node_inputs.shape[0] == 6
    cfg = ModelConfig()
    model = Model(cfg)
    bank = ReferenceBank(cfg.n_predicate_categories, cfg.d_edge)
    update_references(bank, model.forward(prep).edge_embeddings.data, prep.edge_labels,
                      sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION),
                      skip_category=PREDICATE_NO_RELATION)  # give the AR term references to compare with
    return prep, cfg, model, bank


def test_default_training_step_records_25_entries():
    """One step of the default model at the CLI-default N = 6: 25 records, 18 without the AR term.

    Each affine layer outside fusion is one linear_map record: the node and
    union maps and the two heads. LIH is one lih record, parallel fusion
    (both psi layers over all three arrangements) one arranged_mlp record,
    GIH's four layers one gih record, and the AR cosines one cosine_rows
    record. The two cross-entropies add unscaled, with one add record.
    """
    prep, cfg, model, bank = _default_step_inputs()
    with Tape() as tape:
        out = model.forward(prep)
        negatives = sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
        _, parts = total_loss(out, prep, bank, cfg, negatives)
    assert parts["L_ar"] != 0.0
    names = [name for name, _, _ in tape.records]
    assert names.count("linear_map") == 4
    assert names.count("lih") == 1
    assert names.count("arranged_mlp") == 1
    assert names.count("gih") == 1
    assert names.count("cosine_rows") == 1
    assert len(names) == 25
    with Tape() as no_ar:
        total_loss(model.forward(prep), prep, bank, replace(cfg, w_ar=0.0), None)
    assert len(no_ar.records) == 18


def test_total_loss_runs_the_ar_term_only_when_handed_negatives():
    """train decides the AR term: with w_ar on, a relation edge in the scene and references to compare
    with, total_loss without negatives records the 18 entries of a step without AR and reads L_ar 0."""
    prep, cfg, model, bank = _default_step_inputs()
    assert cfg.w_ar != 0.0 and prep.edge_labels.any() and bank.counts.any()
    with Tape() as tape:
        _, parts = total_loss(model.forward(prep), prep, bank, cfg, None)
    assert parts["L_ar"] == 0.0
    assert len(tape.records) == 18


def _step_bytes(cfg, prep, bank):
    """A training step's loss, logits and every parameter gradient, as bytes."""
    model = Model(cfg)
    negatives = sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
    with Tape() as tape:
        out = model.forward(prep)
        loss, _ = total_loss(out, prep, bank, cfg, negatives)
    tape.backward(loss)
    return [loss.data.tobytes(), out.node_logits.data.tobytes(), out.edge_logits.data.tobytes()] + [
        (name, None if p.grad is None else p.grad.tobytes()) for name, p in model.params.items()]


@pytest.mark.parametrize("n_nodes,overrides", [
    (6, {}), (17, {}), (6, {"fusion": "sequential", "d_node": 8, "d_edge": 8}), (1, {}),
], ids=["n6", "n17", "sequential-d8", "one-node"])
def test_training_step_matches_record_chains_bytes(n_nodes, overrides, monkeypatch):
    """A step with the fused lih and gih records equals, byte for byte, one that runs the
    record-per-operation chains they replace, down to every parameter gradient."""
    spec = GeneratorSpec(n_scenes=2, nodes_per_scene=max(n_nodes, 6))
    record = generate(spec)[0]
    if n_nodes == 1:  # GIH over one node row and no edge rows
        record = SceneRecord("solo", record.nodes[:1], [])
    prep = prepare_scene(record, spec)
    assert prep.node_inputs.shape[0] == n_nodes
    cfg = ModelConfig(**overrides)
    bank = ReferenceBank(cfg.n_predicate_categories, cfg.d_edge, seed=9)
    bank.refs = np.random.default_rng(10).standard_normal(bank.refs.shape)
    bank.counts = np.ones(cfg.n_predicate_categories)
    fused = _step_bytes(cfg, prep, bank)
    monkeypatch.setattr(model_module, "lih_forward_batch", chain_lih)
    monkeypatch.setattr(propagation, "gih_forward", chain_gih)
    assert _step_bytes(cfg, prep, bank) == fused


def _four_node_scene():
    fp = GeneratorSpec(n_entity_categories=5, n_predicate_categories=3, d_appearance=3,
                       appearance_sigma=0.6, logit_flip_rate=0.2, logit_scale=1.5, seed=3)
    nodes = [Node(i, label, box, 20 + i) for i, (label, box) in enumerate([
        (1, (0.0, 0.0, 0.4, 0.4)), (2, (0.2, 0.1, 0.8, 0.7)), (3, (0.5, 0.5, 1.0, 1.0)), (4, (0.1, 0.6, 0.5, 0.9))])]
    edges = [Edge(0, 1, 1), Edge(1, 0, 2), Edge(1, 2, 1), Edge(2, 3, 2)]
    return prepare_scene(SceneRecord("four", nodes, edges), fp)


@pytest.mark.parametrize("fusion", ["union", "concat", "sequential", "parallel"])
@pytest.mark.parametrize("gih_variant", ["gih", "gcn", "gat", "none"])
@pytest.mark.parametrize("use_lih", [True, False], ids=["lih", "no-lih"])
@pytest.mark.parametrize("all_active", [False, True], ids=["hidden", "affine"])
def test_end_to_end_directional_derivatives_every_variant(fusion, gih_variant, use_lih, all_active):
    """The tape gradient of the full loss (both cross-entropies and the AR term) agrees with
    central differences along 8 random unit directions in parameter space, within 1e-7 of
    max(1, |difference quotient|), for every fusion x propagation x LIH combination. The affine
    cells raise the first bias of each fusion MLP by 10, so every hidden unit is active and the
    fusion is an affine map near the point."""
    prep = _four_node_scene()
    cfg = ModelConfig(d_appearance=3, d_node=4, d_edge=4, n_entity_categories=5, n_predicate_categories=3,
                      fusion=fusion, use_lih=use_lih, gih_variant=gih_variant, gih_layers=2, seed=5)
    model = Model(cfg)
    if all_active:
        for name in ("fusion.psi.b0", "fusion.pre.b0"):
            if name in model.params:
                model.params[name].data += 10.0
    bank = ReferenceBank(3, 4, seed=9)
    bank.refs = np.random.default_rng(10).standard_normal((3, 4))
    bank.counts = np.ones(3)
    negatives = sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
    params = list(model.params.values())

    def loss():
        return total_loss(model.forward(prep), prep, bank, cfg, negatives)[0]

    with Tape() as tape:
        out = loss()
    tape.backward(out)
    assert out.item() != 0.0 and all(p.grad is not None for p in params)
    rng = np.random.default_rng(6)
    base = [p.data.copy() for p in params]
    eps, worst = 1e-6, 0.0
    for _ in range(8):
        steps = [rng.standard_normal(x.shape) for x in base]
        norm = np.sqrt(sum((v * v).sum() for v in steps))
        analytic = sum((p.grad * v).sum() for p, v in zip(params, steps)) / norm
        values = []
        for sign in (1.0, -1.0):
            for p, x, v in zip(params, base, steps):
                p.data[...] = x + sign * eps / norm * v
            values.append(loss().item())
        numeric = (values[0] - values[1]) / (2.0 * eps)
        worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-7


def test_zero_learning_rate_leaves_parameters_bit_identical():
    spec = tiny_spec(n_scenes=6)
    records = generate(spec)
    cfg = tiny_config(learning_rate=0.0, epochs=3)
    result = train(cfg, records, spec)
    fresh = Model(tiny_config(learning_rate=0.0, epochs=3))
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, fresh.params[name].data)


def _one_node_scene():
    return SceneRecord("solo", [Node(0, 3, (0.1, 0.2, 0.6, 0.9), 7)], [])


def test_flat_update_trains_as_the_per_parameter_loop(monkeypatch, tmp_path):
    """Checkpoint and epoch log byte for byte; the one-node scene between normal ones reaches no union_map,
    lih, fusion or predicate_head parameter, so its update is the masked one."""
    spec = tiny_spec(n_scenes=5)
    records = generate(spec)
    records.insert(2, _one_node_scene())
    runs = []
    for oracle in (False, True):
        if oracle:
            velocity = {}
            monkeypatch.setattr(Model, "sgd_step", lambda model, _velocity: loop_sgd_step(model, velocity))
        result = train(tiny_config(epochs=3), records, spec, eval_records=records[:2], metrics_every=1)
        path = tmp_path / f"{oracle}.ckpt.json"
        save_checkpoint(path, result.model)
        runs.append((path.read_bytes(), [vars(entry) for entry in result.log]))
    assert runs[0] == runs[1]


def test_parameters_without_a_gradient_keep_their_data_and_velocity():
    spec, cfg = tiny_spec(), tiny_config()
    prep = prepare_scene(_one_node_scene(), spec)
    model, oracle = Model(cfg), Model(cfg)
    for m in (model, oracle):
        with Tape() as tape:
            loss, _ = total_loss(m.forward(prep), prep, ReferenceBank(5, 8, seed=1), cfg)
            tape.backward(loss)
    untouched = {name for name, p in model.params.items() if p.grad is None}
    assert untouched == {name for name in model.params
                         if name.split(".")[0] in ("union_map", "lih", "fusion", "predicate_head")}
    start_velocity = np.random.default_rng(3).standard_normal(model.buffer.data.size)
    velocity, oracle_velocity = start_velocity.copy(), start_velocity.copy()
    start_data = model.buffer.data.copy()
    model.sgd_step(velocity)
    loop_sgd_step(oracle, dict(zip(oracle.params, oracle.buffer.views(oracle_velocity))))
    assert model.buffer.data.tobytes() == oracle.buffer.data.tobytes()
    assert velocity.tobytes() == oracle_velocity.tobytes()
    views = zip(model.params, model.buffer.views(start_data), model.buffer.views(start_velocity),
                model.buffer.views(velocity))
    for name, data, v_before, v_after in views:
        if name in untouched:
            assert model.params[name].data.tobytes() == data.tobytes()
            assert v_after.tobytes() == v_before.tobytes()
    assert all(p.grad is None for p in model.params.values())


def test_training_is_deterministic_given_seed():
    spec = tiny_spec(n_scenes=8)
    records = generate(spec)
    r1 = train(tiny_config(epochs=2), records, spec, eval_records=records[:4], metrics_every=1)
    r2 = train(tiny_config(epochs=2), records, spec, eval_records=records[:4], metrics_every=1)
    assert [vars(e) for e in r1.log] == [vars(e) for e in r2.log]
    for name, p in r1.model.params.items():
        np.testing.assert_array_equal(p.data, r2.model.params[name].data)


def test_training_loss_decreases_over_first_epochs():
    spec = tiny_spec(n_scenes=40)
    records = generate(spec)
    result = train(tiny_config(epochs=5), records, spec)
    totals = [sum(e.losses.values()) for e in result.log]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_training_aborts_on_numeric_blowup_with_context():
    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    cfg = tiny_config(learning_rate=1e12, epochs=4, w_ar=0.0)
    with pytest.raises(NumericError, match="epoch"):
        train(cfg, records, spec)


def test_evaluate_on_an_overflowing_weight_raises_only_numeric_error():
    """A library evaluate whose head overflows raises the tape's NumericError, with no numpy
    RuntimeWarning first (pytest turns any warning into an error)."""
    spec = tiny_spec(n_scenes=2)
    model = Model(tiny_config())
    model.params["predicate_head.w"].data[:] = 1e308
    with pytest.raises(NumericError, match="non-finite"):
        evaluate(model, [prepare_scene(r, spec) for r in generate(spec)], ks_recall=(4,), ks_pair=(2,))


def test_evaluate_needs_a_scene():
    with pytest.raises(ValueError, match="evaluation needs at least one scene"):
        evaluate(Model(tiny_config()), [])


def test_train_rejects_vocabulary_mismatch_and_empty_corpus():
    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    with pytest.raises(ValueError, match="categories"):
        train(tiny_config(n_entity_categories=9), records, spec)
    with pytest.raises(ValueError, match="at least one scene"):
        train(tiny_config(), [], spec)


def test_training_improves_heldout_metrics_on_planted_rule():
    spec = tiny_spec(n_scenes=60, seed=2)
    records = generate(spec)
    train_recs, held = split_scenes(records, 12)
    cfg = tiny_config(epochs=8, seed=1)
    result = train(cfg, train_recs, spec, eval_records=held, metrics_every=8, ks_recall=(4,), ks_pair=(2,))
    final = result.log[-1].metrics
    start = evaluate(Model(cfg), [prepare_scene(r, spec) for r in held], ks_recall=(4,), ks_pair=(2,))
    assert final["R@4"] > start["R@4"]
    assert final["pR@2"] >= start["pR@2"]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    spec = tiny_spec(n_scenes=6)
    records = generate(spec)
    result = train(tiny_config(epochs=1), records, spec)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, result.model)
    model = load_checkpoint(path)
    assert model.config == result.model.config
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, model.params[name].data)
    preps = [prepare_scene(r, spec) for r in records]
    e1 = evaluate(result.model, preps, ks_recall=(4,), ks_pair=(2,))
    e2 = evaluate(model, preps, ks_recall=(4,), ks_pair=(2,))
    assert e1 == e2


def test_checkpoint_bytes_are_those_of_streaming_json_dump(tmp_path):
    """save_checkpoint writes what json.dump(payload, fh, sort_keys=True) plus a newline writes, down
    to subnormal, negative-zero and huge floats. The config and the parameters are all it holds."""
    model = Model(tiny_config())
    model.params["node_map.w"].data[0, :4] = [5e-324, -0.0, 1e22, 1 / 3]
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, model)
    assert list(json.loads(path.read_text())) == ["config", "format_version", "params"]
    payload = {"format_version": CHECKPOINT_VERSION, "config": asdict(model.config),
               "params": {name: p.data.tolist() for name, p in model.params.items()}}
    streamed = tmp_path / "streamed.json"
    with open(streamed, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == streamed.read_bytes()


def test_checkpoint_version_and_shape_guards(tmp_path):
    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    result = train(tiny_config(epochs=1), records, spec)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, result.model)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)
    payload["format_version"] = 1
    payload["params"]["node_map.w"] = [[0.0]]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)
    del payload["params"]["node_map.w"]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape("invalid checkpoint params (parameter node_map.w: missing)")):
        load_checkpoint(bad)
    payload["params"]["node_map.w"] = result.model.params["node_map.w"].data.tolist()
    payload["params"]["lih.w_z"] = payload["params"]["lih.w_q"]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape("params (names the configuration does not give: ['lih.w_z'])")):
        load_checkpoint(bad)


@pytest.mark.parametrize("field,value,fault", [
    ("gih_layers", 20_000, "params (parameter prop.w2: missing"),
    ("fusion_hidden", 200_000, "config (unknown model config keys: ['fusion_hidden'])"),
    ("n_entity_categories", 300_000, "params (parameter node_map.w: expected numbers in shape (300009, 8)"),
], ids=["gih_layers", "fusion_hidden", "n_entity_categories"])
def test_checkpoint_of_a_huge_config_fails_before_allocating_it(field, value, fault, tmp_path):
    """Each saved parameter is checked before the config's shape is allocated, so a checkpoint
    whose config asks for a huge model fails at its first parameter that does not fit, in well
    under 1 MB; building the configured model first takes 17 to 77 MB at these sizes. A former
    field such as fusion_hidden loads only at the value the code now fixes (null for a width),
    so a huge one fails as an unknown key."""
    path = tmp_path / "huge.ckpt.json"
    save_checkpoint(path, Model(tiny_config()))
    payload = json.loads(path.read_text())
    payload["config"][field] = value
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert f"invalid checkpoint {fault}" in str(exc.value)


# Checkpoint parameter names and shapes per component at tiny_config widths:
# d_appearance 5 (node inputs 5 + 4 + 11 = 20, union inputs 2 * 5 + 4 = 14),
# d_node = d_edge = 8, fusion hidden 2 * 8 = 16, 11 entity and 5 predicate
# categories, 2 propagation layers. A checkpoint written earlier loads only
# while this table holds.
_ALWAYS = {
    "node_map.w": (20, 8), "node_map.b": (1, 8), "union_map.w": (14, 8), "union_map.b": (1, 8),
    "entity_head.w": (8, 11), "entity_head.b": (1, 11),
    "predicate_head.w": (8, 5), "predicate_head.b": (1, 5),
}
_LIH = {"lih.w_q": (8, 8), "lih.w_k": (8, 8), "lih.w_v": (8, 8), "lih.w_f": (8, 8)}
_THREE_ROLE_PSI = {"fusion.psi.w0": (24, 16), "fusion.psi.b0": (1, 16),
                   "fusion.psi.w1": (16, 8), "fusion.psi.b1": (1, 8)}
_FUSION = {
    "union": {"fusion.psi.w0": (8, 16), "fusion.psi.b0": (1, 16),
              "fusion.psi.w1": (16, 8), "fusion.psi.b1": (1, 8)},
    "concat": _THREE_ROLE_PSI,
    "parallel": _THREE_ROLE_PSI,
    "sequential": {"fusion.pre.w0": (16, 16), "fusion.pre.b0": (1, 16),
                   "fusion.pre.w1": (16, 8), "fusion.pre.b1": (1, 8),
                   "fusion.psi.w0": (16, 16), "fusion.psi.b0": (1, 16),
                   "fusion.psi.w1": (16, 8), "fusion.psi.b1": (1, 8)},
}
_PROPAGATION = {
    "gih": {"prop.w0": (8, 8), "prop.w1": (8, 8)},
    "gcn": {"prop.w0": (8, 8), "prop.w1": (8, 8)},
    "gat": {"prop.w0": (8, 8), "prop.a_src0": (8, 1), "prop.a_dst0": (8, 1),
            "prop.w1": (8, 8), "prop.a_src1": (8, 1), "prop.a_dst1": (8, 1)},
    "none": {},
}


@pytest.mark.parametrize("use_lih", [True, False])
@pytest.mark.parametrize("gih_variant", sorted(_PROPAGATION))
@pytest.mark.parametrize("fusion", sorted(_FUSION))
def test_checkpoint_parameter_names_and_shapes(fusion, gih_variant, use_lih):
    model = Model(tiny_config(fusion=fusion, gih_variant=gih_variant, use_lih=use_lih))
    expect = {**_ALWAYS, **(_LIH if use_lih else {}), **_FUSION[fusion], **_PROPAGATION[gih_variant]}
    assert {name: p.data.shape for name, p in model.params.items()} == expect
