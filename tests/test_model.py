from dataclasses import replace

import numpy as np
import pytest

from sggkit.attract_repel import ReferenceBank, sample_negatives, update_references
from sggkit.autodiff import NumericError, Tape, softmax_rows
from sggkit.data import PREDICATE_NO_RELATION, Edge, FeatureParams, GeneratorSpec, Node, SceneRecord, generate, split_scenes
from helpers import grad_check, loop_prepare_scene
from sggkit.model import (
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
    return generate(spec)[0], FeatureParams.from_spec(spec)


# ---------------------------------------------------------------------------
# configuration and preparation


def test_prepare_scene_rejects_unordered_box():
    fp = FeatureParams.from_spec(tiny_spec())
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
    for field, value in (("d_attention", 0), ("d_attention", -2), ("fusion_hidden", -1), ("seed", -1)):
        with pytest.raises(ValueError, match=f"config field {field} must be"):
            tiny_config(**{field: value}).validate()
    tiny_config(fusion_hidden=0).validate()  # a purely affine fusion
    with pytest.raises(ValueError, match="unknown model config keys"):
        ModelConfig.from_dict({"banana": 1})
    cfg = tiny_config()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


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
    assert prep.node_onehot.shape == (n, 11)
    np.testing.assert_array_equal(prep.node_onehot.argmax(axis=1), prep.node_labels)


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
    np.testing.assert_allclose(node_diff[:, :d], np.tile(offset, (base.n_nodes, 1)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(node_diff[:, d:], 0.0)  # boxes and logits carry no offset
    union_diff = shifted.union_inputs - base.union_inputs
    np.testing.assert_allclose(union_diff[:, :2 * d], np.tile(offset, (base.n_edges, 2)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(union_diff[:, 2 * d:], 0.0)


def _assert_matches_loop_oracle(prep, expect):
    for name, want in expect.items():
        got = getattr(prep.adjacency if name in ("subjects", "objects", "a_tilde") else prep, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_prepare_scene_matches_per_edge_loop_oracle():
    """Byte for byte, with node ids out of row order and a scene offset."""
    rng = np.random.default_rng(13)
    spec = tiny_spec(nodes_per_scene=6, n_scenes=6, scene_offset_sigma=0.7, seed=4)
    fp = FeatureParams.from_spec(spec)
    for record in generate(spec):
        perm = rng.permutation(len(record.nodes))
        shuffled = replace(record, nodes=[record.nodes[i] for i in perm])
        for scene in (record, shuffled):
            _assert_matches_loop_oracle(prepare_scene(scene, fp), loop_prepare_scene(scene, fp))


def test_prepared_scene_holds_no_dense_adjacency():
    spec = GeneratorSpec(nodes_per_scene=17, n_scenes=1, seed=5)
    prep = prepare_scene(generate(spec)[0], FeatureParams.from_spec(spec))
    dense = (prep.n_nodes + prep.n_edges) ** 2
    assert prep.n_edges == 17 * 16
    arrays = [v for v in (*vars(prep).values(), *vars(prep.adjacency).values()) if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < dense


def test_prepare_scene_vocabulary_mismatch():
    record, _ = scene_and_fp()
    bad = FeatureParams(3, 5, 5, 0.5, 0.0, 1.0, seed=1)
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
        p.data = np.zeros_like(p.data)
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
    fp = FeatureParams.from_spec(tiny_spec())
    record = SceneRecord("solo", [Node(0, 3, (0.1, 0.2, 0.6, 0.9), 7)], [])
    prep = prepare_scene(record, fp)
    out = Model(tiny_config()).forward(prep)
    assert probs(out.node_logits).shape == (1, 11)
    assert probs(out.edge_logits).shape == (0, 5)
    assert prep.edge_index.shape == (0, 2)


def test_identical_proposals_get_identical_node_rows():
    fp = FeatureParams.from_spec(tiny_spec())
    nodes = [Node(0, 2, (0.1, 0.1, 0.4, 0.4), 5), Node(1, 2, (0.1, 0.1, 0.4, 0.4), 5)]
    record = SceneRecord("twins", nodes, [])
    out = Model(tiny_config(gih_variant="none")).forward(prepare_scene(record, fp))
    node_probs = probs(out.node_logits)
    np.testing.assert_array_equal(node_probs[0], node_probs[1])


def test_node_head_matches_hand_matrix_product():
    fp = FeatureParams.from_spec(tiny_spec())
    record = SceneRecord("h", [Node(0, 1, (0.0, 0.0, 1.0, 1.0), 3)], [])
    cfg = tiny_config(d_node=2, d_edge=2, n_entity_categories=11, gih_variant="none", use_lih=False, fusion="union")
    model = Model(cfg)
    rng = np.random.default_rng(11)
    w = rng.standard_normal((cfg.d_appearance + 4 + 11, 2))
    b = rng.standard_normal(2)
    model.params["node_map.w"].data = w.copy()
    model.params["node_map.b"].data = b.reshape(1, 2).copy()
    model.params["entity_head.w"].data = np.eye(2, 11)
    model.params["entity_head.b"].data = np.zeros((1, 11))
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


def test_union_fusion_with_propagation_stays_direction_blind():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    out = Model(tiny_config(fusion="union", use_lih=False, gih_variant="gih", seed=7)).forward(prep)
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
    np.testing.assert_allclose(parts["loss_entity"], np.log(11), atol=1e-12)
    np.testing.assert_allclose(parts["loss_predicate"], np.log(5), atol=1e-12)
    assert parts["loss_attract_repel"] == 0.0


def test_perfect_one_hot_predictions_loss_near_zero():
    record, fp = scene_and_fp()
    prep = prepare_scene(record, fp)
    cfg = tiny_config(w_ar=0.0)
    node_logits = Matrix(prep.node_onehot * 60.0 - 30.0)
    edge_logits = Matrix(prep.edge_onehot * 60.0 - 30.0)
    out = ForwardResult(node_logits, edge_logits, Matrix(np.zeros((prep.n_edges, cfg.d_edge))))
    loss, _ = total_loss(out, prep, ReferenceBank(5, 8), cfg)
    assert loss.item() <= 1e-6


def _three_node_scene(edges):
    fp = FeatureParams(n_entity_categories=4, n_predicate_categories=3, d_appearance=3,
                       appearance_sigma=0.5, logit_flip_rate=0.0, logit_scale=1.0, seed=3)
    nodes = [Node(0, 1, (0.0, 0.0, 0.4, 0.4), 11), Node(1, 2, (0.2, 0.1, 0.8, 0.7), 12),
             Node(2, 3, (0.5, 0.5, 1.0, 1.0), 13)]
    cfg = ModelConfig(d_appearance=3, d_node=4, d_edge=4, n_entity_categories=4,
                      n_predicate_categories=3, w_ar=0.0)
    return prepare_scene(SceneRecord("three", nodes, edges), fp), cfg


def _predicate_loss(prep, cfg, edge_logits):
    out = ForwardResult(
        Matrix(np.zeros((prep.n_nodes, cfg.n_entity_categories))), Matrix(edge_logits),
        Matrix(np.zeros((prep.n_edges, cfg.d_edge))),
    )
    _, parts = total_loss(out, prep, ReferenceBank(3, 4), cfg)
    return parts["loss_predicate"]


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


def test_end_to_end_gradients_on_three_node_six_edge_toy():
    fp = FeatureParams(n_entity_categories=4, n_predicate_categories=3, d_appearance=3,
                       appearance_sigma=0.6, logit_flip_rate=0.2, logit_scale=1.5, seed=2)
    nodes = [Node(0, 1, (0.0, 0.0, 0.4, 0.4), 11), Node(1, 2, (0.2, 0.1, 0.8, 0.7), 12),
             Node(2, 3, (0.5, 0.5, 1.0, 1.0), 13)]
    record = SceneRecord("toy", nodes, [Edge(0, 1, 1), Edge(1, 0, 2), Edge(1, 2, 1)])
    cfg = ModelConfig(
        d_appearance=3, d_node=4, d_edge=4, n_entity_categories=4, n_predicate_categories=3,
        fusion="parallel", fusion_hidden=5, gih_variant="gih", gih_layers=2, seed=4,
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


def test_default_training_step_records_71_entries():
    """One step of the default model at the CLI-default N = 6, AR term included.

    Each affine layer is one linear_map record: the node and union maps, two
    psi layers for each of the three arrangements, and the two heads.
    """
    spec = GeneratorSpec(n_scenes=4)
    prep = prepare_scene(generate(spec)[0], FeatureParams.from_spec(spec))
    assert prep.n_nodes == 6
    cfg = ModelConfig()
    model = Model(cfg)
    bank = ReferenceBank(cfg.n_predicate_categories, cfg.d_edge)
    update_references(bank, model.forward(prep).edge_embeddings, prep.edge_labels,
                      skip_category=PREDICATE_NO_RELATION)  # give the AR term references to compare with
    with Tape() as tape:
        out = model.forward(prep)
        negatives = sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
        _, parts = total_loss(out, prep, bank, cfg, negatives)
    assert parts["loss_attract_repel"] != 0.0
    names = [name for name, _, _ in tape.records]
    assert names.count("linear_map") == 10
    assert len(names) == 71


def test_zero_learning_rate_leaves_parameters_bit_identical():
    spec = tiny_spec(n_scenes=6)
    records = generate(spec)
    cfg = tiny_config(learning_rate=0.0, epochs=3)
    result = train(cfg, records, FeatureParams.from_spec(spec))
    fresh = Model(tiny_config(learning_rate=0.0, epochs=3))
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, fresh.params[name].data)


def test_training_is_deterministic_given_seed():
    spec = tiny_spec(n_scenes=8)
    records = generate(spec)
    fp = FeatureParams.from_spec(spec)
    r1 = train(tiny_config(epochs=2), records, fp, eval_records=records[:4], metrics_every=1)
    r2 = train(tiny_config(epochs=2), records, fp, eval_records=records[:4], metrics_every=1)
    assert [vars(e) for e in r1.log] == [vars(e) for e in r2.log]
    for name, p in r1.model.params.items():
        np.testing.assert_array_equal(p.data, r2.model.params[name].data)
    np.testing.assert_array_equal(r1.bank.refs, r2.bank.refs)


def test_training_loss_decreases_over_first_epochs():
    spec = tiny_spec(n_scenes=40)
    records = generate(spec)
    result = train(tiny_config(epochs=5), records, FeatureParams.from_spec(spec))
    totals = [e.loss_entity + e.loss_predicate + e.loss_attract_repel for e in result.log]
    assert all(b < a for a, b in zip(totals, totals[1:]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_aborts_on_numeric_blowup_with_context():
    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    cfg = tiny_config(learning_rate=1e12, epochs=4, w_ar=0.0)
    with pytest.raises(NumericError, match="epoch"):
        train(cfg, records, FeatureParams.from_spec(spec))


def test_train_rejects_vocabulary_mismatch_and_empty_corpus():
    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    with pytest.raises(ValueError, match="categories"):
        train(tiny_config(n_entity_categories=9), records, FeatureParams.from_spec(spec))
    with pytest.raises(ValueError, match="at least one scene"):
        train(tiny_config(), [], FeatureParams.from_spec(spec))


def test_training_improves_heldout_metrics_on_planted_rule():
    spec = tiny_spec(n_scenes=60, seed=2)
    records = generate(spec)
    train_recs, held = split_scenes(records, 12)
    fp = FeatureParams.from_spec(spec)
    cfg = tiny_config(epochs=8, seed=1)
    result = train(cfg, train_recs, fp, eval_records=held, metrics_every=8, ks_recall=(4,), ks_pair=(2,))
    final = result.log[-1].metrics
    start = evaluate(Model(cfg), [prepare_scene(r, fp) for r in held], ks_recall=(4,), ks_pair=(2,))
    assert final["R@4"] > start["R@4"]
    assert final["pR@2"] >= start["pR@2"]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    spec = tiny_spec(n_scenes=6)
    records = generate(spec)
    fp = FeatureParams.from_spec(spec)
    result = train(tiny_config(epochs=1), records, fp)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, result.model, result.bank)
    model, bank = load_checkpoint(path)
    assert model.config == result.model.config
    for name, p in result.model.params.items():
        np.testing.assert_array_equal(p.data, model.params[name].data)
    np.testing.assert_array_equal(bank.refs, result.bank.refs)
    np.testing.assert_array_equal(bank.counts, result.bank.counts)
    assert bank.rng.bit_generator.state == result.bank.rng.bit_generator.state
    preps = [prepare_scene(r, fp) for r in records]
    e1 = evaluate(result.model, preps, ks_recall=(4,), ks_pair=(2,))
    e2 = evaluate(model, preps, ks_recall=(4,), ks_pair=(2,))
    assert e1 == e2


def test_checkpoint_version_and_shape_guards(tmp_path):
    import json

    spec = tiny_spec(n_scenes=4)
    records = generate(spec)
    fp = FeatureParams.from_spec(spec)
    result = train(tiny_config(epochs=1), records, fp)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, result.model, result.bank)
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
