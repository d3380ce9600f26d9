import json
import typing
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import appearance, class_logits
from sggkit.data import (
    FIELD_TYPES,
    MAX_SCENE_NODES,
    MAX_SPEC_WIDTH,
    Edge,
    GeneratorSpec,
    Node,
    SceneRecord,
    Seed,
    build_rule,
    generate,
    read_scenes,
    seeded_generators,
    split_scenes,
    write_scenes,
)
from sggkit.model import ModelConfig, prepare_scene


def small_spec(**kw):
    base = dict(
        n_entity_categories=11,
        n_predicate_categories=5,
        related_pairs=5,
        context_categories=0,
        asymmetric_fraction=0.8,
        noise_rate=0.0,
        nodes_per_scene=4,
        n_scenes=40,
        seed=3,
    )
    base.update(kw)
    return GeneratorSpec(**base)


# ---------------------------------------------------------------------------
# rule construction


def test_rule_related_pairs_are_matched_consecutive_categories():
    rule = build_rule(GeneratorSpec())
    assert rule.related == [(2 * i + 1, 2 * i + 2) for i in range(15)]


def test_rule_default_realized_asymmetric_fraction():
    rule = build_rule(GeneratorSpec())
    assert len(rule.asymmetric_related) == 14
    assert abs(rule.realized_asymmetric_fraction - 0.93) <= 0.03


def test_rule_table_zero_outside_related_pairs():
    spec = small_spec()
    rule = build_rule(spec)
    related = set(rule.related) | {(b, a) for a, b in rule.related}
    for s in range(spec.n_entity_categories):
        for o in range(spec.n_entity_categories):
            if (s, o) in related:
                assert 1 <= rule.predicate(s, o) <= spec.n_predicate_categories - 1
            else:
                assert rule.predicate(s, o) == 0


def test_rule_asymmetric_pairs_use_distinct_directions():
    rule = build_rule(small_spec(seed=9))
    for a, b in rule.related:
        if (a, b) in rule.asymmetric_related:
            assert rule.predicate(a, b) != rule.predicate(b, a)
        else:
            assert rule.predicate(a, b) == rule.predicate(b, a)


def test_rule_deterministic_and_seed_sensitive():
    t1 = build_rule(small_spec(seed=5)).tables[0]
    t2 = build_rule(small_spec(seed=5)).tables[0]
    t3 = build_rule(small_spec(seed=6)).tables[0]
    assert t1 == t2
    assert t1 != t3


# ---------------------------------------------------------------------------
# context-switched rules


def context_spec(**kw):
    base = dict(
        n_entity_categories=13,
        n_predicate_categories=5,
        related_pairs=5,
        context_categories=2,
        asymmetric_fraction=0.8,
        noise_rate=0.0,
        nodes_per_scene=4,
        n_scenes=60,
        seed=3,
    )
    base.update(kw)
    return GeneratorSpec(**base)


def test_context_tables_rotate_the_switched_pairs():
    spec = context_spec()  # switches all five pairs by default
    rule = build_rule(spec)
    assert len(rule.tables) == 2
    assert rule.context_labels == (11, 12)
    pairs = rule.related
    for t in range(1, 2):
        for i, (a, b) in enumerate(pairs):
            a2, b2 = pairs[(i + t) % len(pairs)]
            assert rule.predicate(a, b, t) == rule.predicate(a2, b2, 0)
            assert rule.predicate(b, a, t) == rule.predicate(b2, a2, 0)
    # rotation moves at least one pair's assignment
    assert rule.tables[0] != rule.tables[1]


def test_context_partial_switch_leaves_other_pairs_alone():
    rule = build_rule(context_spec(context_switched_pairs=2))
    pairs = rule.related
    for i, (a, b) in enumerate(pairs):
        a2, b2 = pairs[(i + 1) % 2] if i < 2 else (a, b)
        assert rule.predicate(a, b, 1) == rule.predicate(a2, b2, 0)
        assert rule.predicate(b, a, 1) == rule.predicate(b2, a2, 0)


def test_context_tables_share_asymmetric_makeup():
    rule = build_rule(context_spec(seed=11))
    for t in range(2):
        asym = sum(rule.predicate(a, b, t) != rule.predicate(b, a, t) for a, b in rule.related)
        assert asym == len(rule.asymmetric_related)


def test_context_marker_selects_the_generating_table():
    spec = context_spec()
    rule = build_rule(spec)
    marker_to_table = {lab: t for t, lab in enumerate(rule.context_labels)}
    seen_tables = set()
    for rec in generate(spec):
        labels = [n.label for n in rec.nodes]
        markers = [lab for lab in labels if lab in marker_to_table]
        assert len(markers) == 1
        t = marker_to_table[markers[0]]
        seen_tables.add(t)
        cat = {n.id: n.label for n in rec.nodes}
        for e in rec.edges:
            assert e.predicate == rule.predicate(cat[e.subject], cat[e.object], t)
    assert seen_tables == {0, 1}


def test_context_marker_is_never_a_rule_endpoint():
    spec = context_spec()
    rule = build_rule(spec)
    markers = set(rule.context_labels)
    for rec in generate(spec):
        cat = {n.id: n.label for n in rec.nodes}
        for e in rec.edges:
            assert cat[e.subject] not in markers
            assert cat[e.object] not in markers


def test_context_zero_keeps_single_table_and_no_marker():
    spec = small_spec()
    rule = build_rule(spec)
    assert len(rule.tables) == 1
    assert rule.context_labels == ()
    for rec in generate(spec):
        assert all(n.label <= 2 * spec.related_pairs for n in rec.nodes)


def test_rule_at_the_width_cap_holds_only_the_related_pairs():
    """1,021 context tables over a 1,024-category vocabulary, the most GeneratorSpec.validate allows: each
    table holds its pairs' two directions and nothing sized by the vocabulary."""
    spec = GeneratorSpec(n_entity_categories=MAX_SPEC_WIDTH, related_pairs=1, context_categories=1021,
                         context_switched_pairs=1, nodes_per_scene=3, n_scenes=5)
    rule = build_rule(spec)
    assert len(rule.tables) == 1021
    assert all(len(table) == 2 * spec.related_pairs for table in rule.tables)
    assert len(generate(spec, rule)) == 5


def test_context_validation():
    with pytest.raises(ValueError, match="context_categories"):
        context_spec(context_categories=1).validate()
    with pytest.raises(ValueError, match="context_switched_pairs"):
        context_spec(context_switched_pairs=6).validate()  # only 5 related pairs
    with pytest.raises(ValueError, match="context_switched_pairs"):
        context_spec(context_switched_pairs=-1).validate()
    with pytest.raises(ValueError, match="context"):
        context_spec(n_entity_categories=12).validate()  # 10 pair + 2 marker labels
    with pytest.raises(ValueError, match="context marker"):
        context_spec(nodes_per_scene=2).validate()
    context_spec(nodes_per_scene=3).validate()  # pair + marker, no filler


# ---------------------------------------------------------------------------
# scene generation


def test_generate_scene_shape_and_distinct_labels():
    spec = small_spec()
    for rec in generate(spec):
        assert len(rec.nodes) == spec.nodes_per_scene
        assert [n.id for n in rec.nodes] == list(range(spec.nodes_per_scene))
        labels = [n.label for n in rec.nodes]
        assert len(set(labels)) == len(labels)
        assert all(1 <= lab <= spec.n_entity_categories - 1 for lab in labels)


def test_generate_exactly_one_bidirectional_related_pair():
    spec = small_spec()
    rule = build_rule(spec)
    related = set(rule.related)
    for rec in generate(spec):
        assert len(rec.edges) == 2
        e1, e2 = rec.edges
        assert (e1.subject, e1.object) == (e2.object, e2.subject)
        cat = {n.id: n.label for n in rec.nodes}
        a, b = cat[e1.subject], cat[e1.object]
        assert (min(a, b), max(a, b)) in related
        # no other node pair in the scene is related under the rule
        labels = [n.label for n in rec.nodes]
        hits = sum(
            1
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
            if (min(labels[i], labels[j]), max(labels[i], labels[j])) in related
        )
        assert hits == 1


def test_generate_noise_free_labels_follow_rule():
    spec = small_spec(noise_rate=0.0)
    rule = build_rule(spec)
    for rec in generate(spec):
        cat = {n.id: n.label for n in rec.nodes}
        for e in rec.edges:
            assert e.predicate == rule.predicate(cat[e.subject], cat[e.object])


def test_generate_noise_rate_matches_configuration():
    spec = small_spec(noise_rate=0.2, n_scenes=2000, seed=12)
    rule = build_rule(spec)
    flipped = total = 0
    for rec in generate(spec):
        cat = {n.id: n.label for n in rec.nodes}
        for e in rec.edges:
            true = rule.predicate(cat[e.subject], cat[e.object])
            assert 1 <= e.predicate <= spec.n_predicate_categories - 1
            total += 1
            flipped += e.predicate != true
    assert abs(flipped / total - 0.2) < 0.02


def test_generate_boxes_are_valid_unit_boxes():
    for rec in generate(small_spec()):
        for n in rec.nodes:
            x1, y1, x2, y2 = n.box
            assert 0.0 <= x1 <= x2 <= 1.0
            assert 0.0 <= y1 <= y2 <= 1.0


def test_generate_deterministic_per_seed():
    recs1 = generate(small_spec(seed=7))
    recs2 = generate(small_spec(seed=7))
    recs3 = generate(small_spec(seed=8))
    assert recs1 == recs2
    assert recs1 != recs3


def test_spec_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        small_spec(related_pairs=6).validate()  # 12 categories > 10 usable
    with pytest.raises(ValueError):
        small_spec(nodes_per_scene=1).validate()
    with pytest.raises(ValueError):
        small_spec(nodes_per_scene=7).validate()  # needs 5 spare pairs, has 4
    with pytest.raises(ValueError):
        small_spec(asymmetric_fraction=1.5).validate()
    with pytest.raises(ValueError):
        small_spec(noise_rate=0.1, n_predicate_categories=2).validate()
    with pytest.raises(ValueError):
        small_spec(n_scenes=0).validate()
    too_many = MAX_SCENE_NODES + 1
    with pytest.raises(ValueError, match=f"^nodes_per_scene must be at most {MAX_SCENE_NODES}, got {too_many}$"):
        GeneratorSpec(nodes_per_scene=too_many).validate()


def test_spec_json_round_trip_and_unknown_key():
    spec = small_spec(noise_rate=0.1)
    again = GeneratorSpec.from_dict(json.loads(json.dumps(asdict(spec))))
    assert again == spec
    with pytest.raises(ValueError, match="unknown"):
        GeneratorSpec.from_dict({"n_scenes": 5, "bogus": 1})


# JSON values of the wrong kind for each field annotation: a string for a number,
# a bool for an int, a float for an int, a number for a str
_WRONG_KIND = {
    int: ["12", True, 1.0, None],
    Seed: ["12", True, 1.0, None, -1],
    float: ["0.5", True, None, float("nan"), float("inf"), 10**400],
    bool: ["true", 1, 0.0, None],
    str: [1, 0.5, True, None],
    int | None: ["12", True, 1.0],
}


@pytest.mark.parametrize("cls,label", [(ModelConfig, "config"), (GeneratorSpec, "spec")],
                         ids=["ModelConfig", "GeneratorSpec"])
def test_every_config_field_is_checked_by_its_annotation(cls, label):
    hints = typing.get_type_hints(cls)
    cls().validate()
    for f in fields(cls):
        annotation = hints[f.name]
        assert annotation in FIELD_TYPES, f.name
        for value in _WRONG_KIND[annotation]:
            with pytest.raises(ValueError, match=f"^{label} field {f.name} must be "):
                replace(cls(), **{f.name: value}).validate()
        # the config-string form of the default reads back as the default
        assert cls.parse_field("test.cfg", f.name, str(f.default)) == f.default


# ---------------------------------------------------------------------------
# record validation and serialization


def _tiny_record():
    nodes = [
        Node(0, 1, (0.1, 0.1, 0.5, 0.5), 111),
        Node(1, 2, (0.4, 0.2, 0.9, 0.8), 222),
    ]
    return SceneRecord("s0", nodes, [Edge(0, 1, 3), Edge(1, 0, 1)])


def test_validate_rejects_duplicate_node_ids():
    rec = _tiny_record()
    rec.nodes[1].id = 0
    with pytest.raises(ValueError, match="duplicate node ids"):
        rec.validate()


def test_validate_rejects_bad_box():
    rec = _tiny_record()
    rec.nodes[0].box = (0.6, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError, match="box"):
        rec.validate()


def test_validate_rejects_dangling_edge_self_loop_and_duplicate_pair():
    rec = _tiny_record()
    rec.edges[0] = Edge(0, 5, 3)
    with pytest.raises(ValueError, match="missing node"):
        rec.validate()
    rec.edges[0] = Edge(1, 1, 3)
    with pytest.raises(ValueError, match="self-loop"):
        rec.validate()
    rec.edges[0] = Edge(1, 0, 3)
    with pytest.raises(ValueError, match="duplicate edge"):
        rec.validate()


def test_scene_file_round_trip(tmp_path):
    records = generate(small_spec())
    path = tmp_path / "corpus.sgjsonl"
    write_scenes(path, records)
    assert read_scenes(path) == records


def test_scene_file_byte_identical_rewrites(tmp_path):
    records = generate(small_spec())
    p1, p2 = tmp_path / "a.sgjsonl", tmp_path / "b.sgjsonl"
    write_scenes(p1, records)
    write_scenes(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_scenes_reports_line_numbers(tmp_path):
    records = generate(small_spec(n_scenes=3))
    path = tmp_path / "corpus.sgjsonl"
    write_scenes(path, records)
    lines = path.read_text().splitlines()
    lines[1] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_scenes(path)
    obj = json.loads(lines[2])
    del obj["nodes"]
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_scenes(path)


@pytest.mark.parametrize("field,value", [("id", 10**400), ("box", [0.5] * 400), ("scene_id", 7 * 10**300)],
                         ids=["id", "box", "scene_id"])
def test_corpus_line_shows_a_rejected_value_cut(field, value, tmp_path):
    path = tmp_path / "corpus.sgjsonl"
    write_scenes(path, generate(small_spec(n_scenes=1)))
    obj = json.loads(path.read_text())
    if field == "scene_id":
        obj["scene_id"] = value
    else:
        obj["nodes"][0][field] = value
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match=r"^line 1: .*\.\.\.$") as info:
        read_scenes(path)
    assert len(str(info.value)) < 120


def test_split_scenes_holds_out_tail():
    records = generate(small_spec(n_scenes=10))
    train, held = split_scenes(records, 3)
    assert train == records[:7]
    assert held == records[7:]
    assert split_scenes(records, 0) == (records, [])
    with pytest.raises(ValueError):
        split_scenes(records, 10)
    with pytest.raises(ValueError):
        split_scenes(records, -1)


# ---------------------------------------------------------------------------
# feature synthesis


def _scene(*nodes):
    return SceneRecord("scene-00000", list(nodes), [])


def test_appearance_deterministic_and_seed_driven():
    fp = small_spec()
    scene = _scene(Node(0, 3, (0.0, 0.0, 1.0, 1.0), 42), Node(1, 3, (0.0, 0.0, 1.0, 1.0), 43))
    appearance, _ = fp.node_features(scene)
    np.testing.assert_array_equal(fp.node_features(scene)[0], appearance)
    assert not np.array_equal(appearance[0], appearance[1])


def test_appearance_sigma_zero_hits_prototype_exactly():
    fp = small_spec(appearance_sigma=0.0)
    appearance, _ = fp.node_features(_scene(Node(0, 4, (0.0, 0.0, 1.0, 1.0), 7)))
    np.testing.assert_array_equal(appearance[0], fp.prototype(4))


def test_prototype_is_drawn_once_per_instance_and_read_only():
    fp = small_spec()
    first = fp.prototype(4)
    assert fp.prototype(4) is first
    assert not first.flags.writeable
    fresh = small_spec().prototype(4)
    assert fresh is not first
    np.testing.assert_array_equal(fresh, first)
    assert not np.array_equal(fp.prototype(5), first)


def test_feature_synthesis_leaves_the_spec_fields_and_equality_alone():
    """The prototype cache is no field: the sidecar, ==, the schema and its type checks never see it."""
    spec = small_spec(scene_offset_sigma=0.3)
    before = asdict(spec)
    spec.node_features(_scene(Node(0, 4, (0.0, 0.0, 1.0, 1.0), 7)))
    spec.prototype(5)
    assert asdict(spec) == before
    assert spec == replace(spec)
    assert set(GeneratorSpec.field_types()) == {f.name for f in fields(GeneratorSpec)}
    spec.check_types()


@pytest.mark.parametrize("name,value", [("seed", 5), ("d_appearance", 3), ("appearance_sigma", 0.1)])
def test_spec_fields_cannot_be_assigned_after_a_prototype_draw(name, value):
    """Prototypes are cached per instance, so a field they depend on cannot change under them."""
    spec = small_spec()
    first = spec.prototype(1)
    with pytest.raises(FrozenInstanceError):
        setattr(spec, name, value)
    assert spec.prototype(1) is first
    assert replace(spec, **{name: value}).prototype(1) is not first


def test_nearest_prototype_accuracy_degrades_with_sigma():
    spec = small_spec(n_scenes=400, seed=21)
    records = generate(spec)
    accs = []
    for sigma in (0.0, 1.5, 4.0):
        fp = small_spec(appearance_sigma=sigma, seed=21)
        protos = np.stack([fp.prototype(c) for c in range(spec.n_entity_categories)])
        hit = total = 0
        for rec in records:
            for n, app in zip(rec.nodes, fp.node_features(rec)[0]):
                d = np.linalg.norm(protos - app, axis=1)
                d[0] = np.inf  # reserved no-object prototype is not a candidate
                hit += int(np.argmin(d)) == n.label
                total += 1
        accs.append(hit / total)
    assert accs[0] == 1.0
    assert accs[0] > accs[1] > accs[2]


def test_observed_label_flip_rate_endpoints():
    never = small_spec(logit_flip_rate=0.0)
    always = small_spec(logit_flip_rate=1.0)
    assert never.node_features(_scene(Node(0, 5, (0.0, 0.0, 1.0, 1.0), 99)))[1].argmax() == 5
    _, logits = always.node_features(_scene(*(Node(i, 5, (0.0, 0.0, 1.0, 1.0), i) for i in range(200))))
    seen = set()
    for lab in logits.argmax(axis=1).tolist():
        assert lab != 5 and 1 <= lab <= 10
        seen.add(lab)
    assert len(seen) > 3  # wrong labels spread over the vocabulary


def test_observed_label_flip_rate_statistics():
    spec = small_spec(logit_flip_rate=0.3, n_scenes=1000, seed=2)
    records = generate(spec)
    flips = total = 0
    for rec in records:
        _, logits = spec.node_features(rec)
        for n, lab in zip(rec.nodes, logits.argmax(axis=1).tolist()):
            flips += lab != n.label
            total += 1
    assert abs(flips / total - 0.3) < 0.03


def test_class_logits_one_hot_at_observed_label():
    spec = small_spec(logit_flip_rate=0.0, logit_scale=2.5)
    _, logits = spec.node_features(_scene(Node(0, 6, (0.0, 0.0, 1.0, 1.0), 5)))
    assert logits.shape == (1, spec.n_entity_categories)
    assert logits[0, 6] == 2.5
    assert np.count_nonzero(logits) == 1


# ints that split into one, two or three 32-bit words, word boundaries included
seed_ints = st.integers(0, 2**70) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64])


@settings(deadline=None)
@given(st.lists(st.lists(seed_ints, min_size=1, max_size=6), max_size=6))
def test_seeded_generators_match_default_rng(rows):
    rngs = seeded_generators(rows)
    assert len(rngs) == len(rows)
    for rng, row in zip(rngs, rows):
        want = np.random.default_rng(row)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
        assert rng.integers(0, 2**40, size=3).tolist() == want.integers(0, 2**40, size=3).tolist()


def test_seeded_generators_reject_negative_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        seeded_generators([[3, 4], [202, -1]])


below_2_32, from_2_32 = st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([0.0, 0.5, 1.0]), below_2_32 | from_2_32, st.sampled_from([0.0, 0.7]),
       st.lists(st.tuples(st.integers(1, 10), below_2_32 | from_2_32), max_size=8))
def test_node_features_match_per_node_oracle(flip_rate, seed, offset_sigma, labelled_seeds):
    fp = small_spec(seed=seed, logit_flip_rate=flip_rate, scene_offset_sigma=offset_sigma)
    nodes = [Node(i, label, (0.0, 0.0, 1.0, 1.0), s) for i, (label, s) in enumerate(labelled_seeds)]
    record = SceneRecord("scene-00007", nodes, [])
    got_appearance, got_logits = fp.node_features(record)
    n, offset = len(nodes), fp.scene_offset(record.scene_id)
    want_appearance = np.array([appearance(fp, node) + offset for node in nodes]).reshape(n, fp.d_appearance)
    want_logits = np.array([class_logits(fp, node) for node in nodes]).reshape(n, fp.n_entity_categories)
    assert got_appearance.tobytes() == want_appearance.tobytes()
    assert got_logits.tobytes() == want_logits.tobytes()


def test_preparing_a_scene_seeds_no_generator_per_node(monkeypatch):
    spec = small_spec(n_entity_categories=33, related_pairs=15, nodes_per_scene=10, n_scenes=1)
    record = generate(spec)[0]
    for node in record.nodes:
        spec.prototype(node.label)
    calls = []
    default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

    def counted(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np.random, "default_rng", counted(default_rng))
    monkeypatch.setattr(np.random, "SeedSequence", counted(seed_sequence))
    prepare_scene(record, spec)
    assert calls == []


def test_scene_offset_shared_and_deterministic():
    fp = small_spec(scene_offset_sigma=0.7)
    one = fp.scene_offset("scene-00012")
    two = fp.scene_offset("scene-00012")
    other = fp.scene_offset("scene-00013")
    np.testing.assert_array_equal(one, two)
    assert one.shape == (fp.d_appearance,)
    assert np.abs(one - other).max() > 1e-6
    # magnitude tracks the configured spread
    wide = small_spec(scene_offset_sigma=1.4)
    np.testing.assert_allclose(wide.scene_offset("scene-00012"), 2.0 * one)


def test_scene_offset_zero_sigma_is_exactly_zero():
    fp = small_spec()
    np.testing.assert_array_equal(fp.scene_offset("scene-00000"), 0.0)
