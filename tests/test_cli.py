"""End-to-end checks of the command-line surface.

Everything runs through sggkit.cli.main with argv lists on small corpora so
the whole suite stays fast. Artifact determinism is asserted on file hashes;
metric plumbing is cross-checked against the library functions directly.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sggkit.cli
import sggkit.data
import sggkit.metrics
from sggkit.cli import main
from sggkit.data import (
    Edge,
    FeatureParams,
    GeneratorSpec,
    Node,
    SceneRecord,
    read_predictions,
    read_scenes,
    write_predictions,
    write_scenes,
)
from sggkit.metrics import (
    GroundTruthGraph,
    corpus_pairwise_recall_at_k,
    corpus_recall_at_k,
    count_hits,
    mean_recall_at_k,
    rank_triplets,
)
from sggkit.model import Model, evaluate, load_checkpoint, prepare_scene

BASELINE_FUSION = "union"


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_config(path, **kv):
    with open(path, "w") as fh:
        fh.write("# test config\n")
        for key, value in kv.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


def _rewrite_corpus(src, dst, records):
    """Write `records` to dst next to a copy of src's spec sidecar."""
    write_scenes(dst, records)
    shutil.copy(f"{src}.meta.json", f"{dst}.meta.json")
    return dst


def _ground_truth_predictions(path, records):
    write_predictions(path, {r.scene_id: [(e.subject, e.object, e.predicate, 1.0) for e in r.edges]
                             for r in records})
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small learnable corpus shared by the slow CLI tests."""
    root = tmp_path_factory.mktemp("cli_corpus")
    path = str(root / "toy.sgjsonl")
    cfg = _write_config(root / "gen.cfg", n_scenes=120, logit_scale=4.0,
                        appearance_sigma=0.5, logit_flip_rate=0.05)
    assert main(["generate", "--out", path, "--config", cfg]) == 0
    return path


@pytest.fixture(scope="module")
def checkpoint(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ckpt")
    path = str(root / "model.ckpt.json")
    code = main(["train", "--corpus", corpus, "--out", path, "--epochs", "8",
                 "--ks-recall", "4", "--ks-pair", "2"])
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_corpus_meta_and_manifest(corpus):
    records = read_scenes(corpus)
    assert len(records) == 120
    with open(f"{corpus}.meta.json") as fh:
        meta = json.load(fh)
    assert meta["n_scenes"] == 120
    assert meta["spec"]["logit_scale"] == 4.0
    # the planted rule realizes the requested direction-asymmetry closely
    assert abs(meta["realized_asymmetric_fraction"] - meta["spec"]["asymmetric_fraction"]) <= 0.04
    with open(f"{corpus}.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "generate"
    assert manifest["outputs"][corpus] == _sha(corpus)
    assert manifest["config"]["n_scenes"] == 120


def test_generate_same_seed_is_byte_identical(tmp_path):
    a, b, c = (str(tmp_path / name) for name in ("a.sgjsonl", "b.sgjsonl", "c.sgjsonl"))
    assert main(["generate", "--out", a, "--seed", "5"]) == 0
    assert main(["generate", "--out", b, "--seed", "5"]) == 0
    assert main(["generate", "--out", c, "--seed", "6"]) == 0
    assert _sha(a) == _sha(b)
    assert _sha(a) != _sha(c)


def test_generate_env_overrides_config_file_and_flag_beats_env(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "gen.cfg", nodes_per_scene=5, n_scenes=8)
    monkeypatch.setenv("SGGKIT_NODES_PER_SCENE", "4")
    monkeypatch.setenv("SGGKIT_SEED", "3")
    out = str(tmp_path / "env.sgjsonl")
    assert main(["generate", "--out", out, "--config", cfg, "--seed", "7"]) == 0
    records = read_scenes(out)
    assert len(records) == 8
    assert all(len(r.nodes) == 4 for r in records)  # env beat the config file
    with open(f"{out}.manifest.json") as fh:
        assert json.load(fh)["seed"] == 7  # flag beat the env


def test_generate_validates_the_spec_and_builds_the_rule_once(tmp_path, monkeypatch):
    calls = {"validate": 0, "build_rule": 0}
    validate, build_rule = GeneratorSpec.validate, sggkit.data.build_rule

    def counted_validate(spec):
        calls["validate"] += 1
        validate(spec)

    def counted_build_rule(spec):
        calls["build_rule"] += 1
        return build_rule(spec)

    monkeypatch.setattr(GeneratorSpec, "validate", counted_validate)
    for module in (sggkit.data, sggkit.cli):
        monkeypatch.setattr(module, "build_rule", counted_build_rule)
    cfg = _write_config(tmp_path / "gen.cfg", n_scenes=5)
    assert main(["generate", "--out", str(tmp_path / "c.sgjsonl"), "--config", cfg]) == 0
    assert calls == {"validate": 1, "build_rule": 1}


def test_generate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.cfg", not_a_field=3)
    assert main(["generate", "--out", str(tmp_path / "x.sgjsonl"), "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_unreadable_config_value_names_its_source_and_key(corpus, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "m.ckpt.json")
    cfg = _write_config(tmp_path / "train.cfg", epochs="1e3")
    assert main(["train", "--corpus", corpus, "--out", out, "--config", cfg]) == 2
    assert f"error: {cfg}: config key 'epochs': cannot read '1e3' as an integer" in capsys.readouterr().err
    cfg = _write_config(tmp_path / "train.cfg", epochs=-1)
    assert main(["train", "--corpus", corpus, "--out", out, "--config", cfg]) == 2
    assert f"error: {cfg}: learning_rate, weight_decay and epochs must be nonnegative" in capsys.readouterr().err
    with open(cfg, "ab") as fh:
        fh.write(b"d_node = 8\xff\n")
    assert main(["train", "--corpus", corpus, "--out", out, "--config", cfg]) == 2
    assert f"error: {cfg}: not UTF-8 (invalid start byte at byte " in capsys.readouterr().err
    monkeypatch.setenv("SGGKIT_D_NODE", "abc")
    assert main(["train", "--corpus", corpus, "--out", out]) == 2
    assert "error: SGGKIT_D_NODE: config key 'd_node': cannot read 'abc' as an integer" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# train


def test_train_epochs_zero_equals_fresh_init(corpus, tmp_path):
    out = str(tmp_path / "init.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--epochs", "0"]) == 0
    model, bank = load_checkpoint(out)
    fresh = Model(model.config)
    assert model.params.keys() == fresh.params.keys()
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, fresh.params[name].data)
    assert bank.counts.sum() == 0


def test_train_ablation_flags_set_baseline_config(corpus, tmp_path):
    out = str(tmp_path / "base.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--epochs", "1",
                 "--no-lih", "--no-dse", "--no-gih", "--no-ar"]) == 0
    model, _ = load_checkpoint(out)
    assert model.config.use_lih is False
    assert model.config.fusion == BASELINE_FUSION
    assert model.config.gih_variant == "none"
    assert model.config.w_ar == 0.0


def test_train_epoch_log_shows_learning(checkpoint):
    rows = _read_csv(f"{checkpoint}.log.csv")
    assert rows[0] == ["epoch", "L_ent", "L_pred", "L_ar", "R@4", "pR@2"]
    assert len(rows) == 9  # header + 8 epochs
    first, last = rows[1], rows[-1]
    assert float(last[5]) > float(first[5])  # held-out pR@2 improved
    assert float(last[2]) < float(first[2])  # predicate loss fell


def test_train_without_held_out_pairs_leaves_pair_recall_empty(corpus, tmp_path):
    # one edge per scene: no held-out scene has a bidirectional pair
    oneway = _rewrite_corpus(corpus, str(tmp_path / "oneway.sgjsonl"),
                             [replace(r, edges=r.edges[:1]) for r in read_scenes(corpus)])
    ckpt = str(tmp_path / "oneway.ckpt.json")
    assert main(["train", "--corpus", oneway, "--out", ckpt, "--epochs", "1", "--holdout", "20",
                 "--ks-recall", "4", "--ks-pair", "2"]) == 0
    assert os.path.exists(ckpt)
    rows = _read_csv(f"{ckpt}.log.csv")
    assert rows[0] == ["epoch", "L_ent", "L_pred", "L_ar", "R@4", "pR@2"]
    assert rows[1][4] != ""
    assert rows[1][5] == ""


def test_train_missing_corpus_is_io_error(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope.sgjsonl"),
                 "--out", str(tmp_path / "x.ckpt.json"), "--epochs", "1"])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergent_learning_rate_is_numeric_failure(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SGGKIT_LEARNING_RATE", "1e9")
    code = main(["train", "--corpus", corpus, "--out", str(tmp_path / "x.ckpt.json"),
                 "--epochs", "2", "--holdout", "110"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_requires_exactly_one_source(corpus, tmp_path, checkpoint):
    out = str(tmp_path / "m.csv")
    assert main(["eval", "--corpus", corpus, "--out", out]) == 2
    assert main(["eval", "--corpus", corpus, "--out", out,
                 "--checkpoint", checkpoint, "--predictions", "x.jsonl"]) == 2


def test_eval_ground_truth_predictions_score_one(corpus, tmp_path):
    records = read_scenes(corpus)
    preds = {r.scene_id: [(e.subject, e.object, e.predicate, 1.0) for e in r.edges]
             for r in records}
    pred_path = str(tmp_path / "gt.pred.jsonl")
    write_predictions(pred_path, preds)
    out = str(tmp_path / "gt.csv")
    assert main(["eval", "--corpus", corpus, "--predictions", pred_path, "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["scene_id", "metric", "k", "value"]
    values = [float(r[3]) for r in rows[1:]]
    np.testing.assert_allclose(values, 1.0)


def test_eval_checkpoint_matches_library_metrics(corpus, checkpoint, tmp_path):
    out = str(tmp_path / "m.csv")
    dumped = str(tmp_path / "m.pred.jsonl")
    assert main(["eval", "--corpus", corpus, "--checkpoint", checkpoint, "--out", out,
                 "--ks-recall", "4,20", "--ks-pair", "2", "--dump-predictions", dumped]) == 0
    records = read_scenes(corpus)
    graphs = [GroundTruthGraph.from_scene(r) for r in records]
    ranked = [rank_triplets(read_predictions(dumped)[r.scene_id]) for r in records]
    counts = {k: [count_hits(r, g, k) for r, g in zip(ranked, graphs)] for k in (2, 4, 20)}
    agg = {(r[1], int(r[2])): float(r[3]) for r in _read_csv(out)[1:] if r[0] == "ALL"}
    np.testing.assert_allclose(agg[("R", 4)], corpus_recall_at_k(counts[4]))
    np.testing.assert_allclose(agg[("R", 20)], corpus_recall_at_k(counts[20]))
    np.testing.assert_allclose(agg[("mR", 4)], mean_recall_at_k(counts[4]))
    np.testing.assert_allclose(agg[("pR", 2)], corpus_pairwise_recall_at_k(counts[2]))


def test_eval_direction_blind_checkpoint_has_zero_pair_recall(tmp_path):
    corpus = str(tmp_path / "asym.sgjsonl")
    gen_cfg = _write_config(tmp_path / "gen.cfg", n_scenes=60, asymmetric_fraction=1.0,
                            noise_rate=0.0, logit_scale=4.0, appearance_sigma=0.5,
                            logit_flip_rate=0.05)
    assert main(["generate", "--out", corpus, "--config", gen_cfg]) == 0
    ckpt = str(tmp_path / "blind.ckpt.json")
    train_cfg = _write_config(tmp_path / "train.cfg", fusion="union")
    assert main(["train", "--corpus", corpus, "--out", ckpt, "--epochs", "2",
                 "--config", train_cfg, "--no-gih", "--holdout", "20"]) == 0
    out = str(tmp_path / "blind.csv")
    assert main(["eval", "--corpus", corpus, "--checkpoint", ckpt, "--out", out]) == 0
    pr_values = [float(r[3]) for r in _read_csv(out)[1:] if r[1] == "pR"]
    assert pr_values, "an all-asymmetric corpus still has bidirectional pairs"
    np.testing.assert_array_equal(pr_values, 0.0)


@pytest.mark.parametrize("entry", ["eval --checkpoint", "eval --predictions", "train"])
def test_scene_without_edges_is_named(entry, corpus, checkpoint, tmp_path, capsys):
    records = read_scenes(corpus)
    bare = records[-1].scene_id  # the last scene is held out by train
    records[-1] = replace(records[-1], edges=[])
    path = _rewrite_corpus(corpus, str(tmp_path / "bare.sgjsonl"), records)
    out = str(tmp_path / "out.csv")
    argv = {
        "eval --checkpoint": ["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", out],
        "eval --predictions": ["eval", "--corpus", path, "--out", out, "--predictions",
                               _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), records)],
        "train": ["train", "--corpus", path, "--out", out, "--epochs", "1", "--holdout", "10",
                  "--ks-recall", "4", "--ks-pair", "2"],
    }[entry]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"scene {bare}:" in err
    if entry != "train":
        assert path in err


def test_each_scene_is_ranked_once(corpus, checkpoint, tmp_path, monkeypatch):
    calls = []

    def counted(rank):
        def wrapper(scored):
            calls.append(len(scored))
            return rank(scored)
        return wrapper

    monkeypatch.setattr(sggkit.metrics, "rank_triplets", counted(sggkit.metrics.rank_triplets))
    monkeypatch.setattr(sggkit.cli, "rank_triplets", counted(sggkit.cli.rank_triplets))
    records = read_scenes(corpus)[:12]
    small = _rewrite_corpus(corpus, str(tmp_path / "small.sgjsonl"), records)
    preds = _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), records)
    assert main(["eval", "--corpus", small, "--predictions", preds, "--out", str(tmp_path / "m.csv"),
                 "--ks-recall", "4,20", "--ks-pair", "2,4"]) == 0
    assert len(calls) == len(records)

    calls.clear()
    ranked = []
    rank_scores = sggkit.model.ranked_from_scores

    def counted_scores(edge_index, edge_probs, graph_constraint=True):
        ranked.append(len(edge_index))
        return rank_scores(edge_index, edge_probs, graph_constraint)

    monkeypatch.setattr(sggkit.model, "ranked_from_scores", counted_scores)
    model, _ = load_checkpoint(checkpoint)
    with open(f"{corpus}.meta.json") as fh:
        fp = FeatureParams.from_spec(GeneratorSpec.from_dict(json.load(fh)["spec"]))
    evaluate(model, [prepare_scene(r, fp) for r in records], (4, 20), (2, 4))
    assert len(ranked) == len(records)
    assert calls == []


def test_each_scene_and_k_is_counted_once(corpus, checkpoint, tmp_path, monkeypatch):
    calls = []
    count = sggkit.metrics.count_hits

    def counted(ranked, gt, k):
        calls.append(k)
        return count(ranked, gt, k)

    monkeypatch.setattr(sggkit.cli, "count_hits", counted)
    monkeypatch.setattr(sggkit.model, "count_hits", counted)
    records = read_scenes(corpus)[:12]
    small = _rewrite_corpus(corpus, str(tmp_path / "small.sgjsonl"), records)
    preds = _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), records)
    assert main(["eval", "--corpus", small, "--predictions", preds, "--out", str(tmp_path / "m.csv"),
                 "--ks-recall", "2,4", "--ks-pair", "2,4,8"]) == 0
    assert sorted(calls) == [2] * 12 + [4] * 12 + [8] * 12

    calls.clear()
    model, _ = load_checkpoint(checkpoint)
    with open(f"{corpus}.meta.json") as fh:
        fp = FeatureParams.from_spec(GeneratorSpec.from_dict(json.load(fh)["spec"]))
    evaluate(model, [prepare_scene(r, fp) for r in records], (2, 4), (2, 4, 8))
    assert sorted(calls) == [2] * 12 + [4] * 12 + [8] * 12


def test_eval_rerun_is_byte_identical(corpus, checkpoint, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = str(tmp_path / f"{name}.csv")
        dumped = str(tmp_path / f"{name}.pred.jsonl")
        assert main(["eval", "--corpus", corpus, "--checkpoint", checkpoint,
                     "--out", out, "--dump-predictions", dumped]) == 0
        outs.append((out, dumped))
    assert _sha(outs[0][0]) == _sha(outs[1][0])
    assert _sha(outs[0][1]) == _sha(outs[1][1])


def test_eval_bad_k_list_is_validation_error(corpus, checkpoint, tmp_path):
    code = main(["eval", "--corpus", corpus, "--checkpoint", checkpoint,
                 "--out", str(tmp_path / "m.csv"), "--ks-recall", "a,b"])
    assert code == 2


@pytest.mark.parametrize("command,flag,value", [("train", "--ks-pair", "0"), ("train", "--ks-recall", "4,-1"),
                                                ("eval", "--ks-recall", "0")])
def test_k_below_one_names_the_flag(command, flag, value, corpus, checkpoint, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sggkit.cli, "train", lambda *a, **kw: pytest.fail("trained before checking the k lists"))
    out = str(tmp_path / "out")
    source = ["--out", out] if command == "train" else ["--checkpoint", checkpoint, "--out", out]
    assert main([command, "--corpus", corpus, *source, flag, value]) == 2
    assert f"{flag}: every k must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", ["not json", "list", "no config", "no params", "no bank",
                                  "bank is a list", "bank without rng_state", "width is a string",
                                  "rng_state without state", "use_lih is a string", "w_ar is a bool",
                                  "d_attention is zero", "learning_rate beyond float range", "5001-digit integer",
                                  "byte 0xff", "deep nesting", "parameter is a string", "parameter is ragged",
                                  "parameter is NaN", "skipped_pairs is 1e400"])
def test_malformed_checkpoint_names_the_path(case, corpus, checkpoint, tmp_path, capsys):
    with open(checkpoint) as fh:
        payload = json.load(fh)

    def drop(d, key):
        return {k: v for k, v in d.items() if k != key}

    def with_param(value):
        return json.dumps({**payload, "params": {**payload["params"], "node_map.w": value}})

    text = {
        "not json": "{config",
        "list": json.dumps([payload]),
        "no config": json.dumps(drop(payload, "config")),
        "no params": json.dumps(drop(payload, "params")),
        "no bank": json.dumps(drop(payload, "bank")),
        "bank is a list": json.dumps({**payload, "bank": [payload["bank"]]}),
        "bank without rng_state": json.dumps({**payload, "bank": drop(payload["bank"], "rng_state")}),
        "width is a string": json.dumps({**payload, "config": {**payload["config"], "d_node": "8"}}),
        "rng_state without state": json.dumps({**payload, "bank": {**payload["bank"],
                                                                  "rng_state": {"bit_generator": "PCG64"}}}),
        "use_lih is a string": json.dumps({**payload, "config": {**payload["config"], "use_lih": "false"}}),
        "w_ar is a bool": json.dumps({**payload, "config": {**payload["config"], "w_ar": True}}),
        "d_attention is zero": json.dumps({**payload, "config": {**payload["config"], "d_attention": 0}}),
        "learning_rate beyond float range": json.dumps({**payload, "config": {**payload["config"],
                                                                              "learning_rate": 10**400}}),
        "5001-digit integer": json.dumps({**payload, "config": {**payload["config"], "learning_rate": "@"}})
                              .replace('"@"', "1" * 5001),
        "byte 0xff": b"\xff" + json.dumps(payload).encode(),
        "deep nesting": "[" * 100_000,
        "parameter is a string": with_param([["high"] + payload["params"]["node_map.w"][0][1:]]
                                            + payload["params"]["node_map.w"][1:]),
        "parameter is ragged": with_param([[0.5]] + payload["params"]["node_map.w"][1:] + [[0.5, 0.5]]),
        "parameter is NaN": with_param([[float("nan")] + payload["params"]["node_map.w"][0][1:]]
                                       + payload["params"]["node_map.w"][1:]),
        "skipped_pairs is 1e400": json.dumps({**payload, "bank": {**payload["bank"], "skipped_pairs": "@"}})
                                  .replace('"@"', "1e400"),
    }[case]
    bad = tmp_path / "bad.ckpt.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["eval", "--corpus", corpus, "--checkpoint", str(bad), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and err.count("\n") == 1
    if case.startswith("parameter"):
        assert "parameter node_map.w" in err


def test_huge_checkpoint_value_is_shown_cut(corpus, checkpoint, tmp_path, capsys, monkeypatch):
    """A learning_rate of 10**400 (401 digits) exits 2 naming the path and the field, in under 200 characters."""
    with open(checkpoint) as fh:
        payload = json.load(fh)
    payload["config"]["learning_rate"] = 10**400
    monkeypatch.chdir(tmp_path)
    with open("big.ckpt.json", "w") as fh:
        json.dump(payload, fh)
    assert main(["eval", "--corpus", corpus, "--checkpoint", "big.ckpt.json", "--out", "m.csv"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: big.ckpt.json: ") and "learning_rate" in err and err.endswith("...)")
    assert len(err) < 200


@pytest.mark.parametrize("line", [
    '{"scene_id": "s", "triplets": [[0, 1, null, 0.5]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, "high"]]}',
    '{"scene_id": "s", "triplets": [[0, [1], 2, 0.5]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2]]}',
    '{"scene_id": "s", "triplets": 7}',
    '{"scene_id": "s", "triplets": null}',
    '{"scene_id": ["s"], "triplets": []}',
    '{"scene_id": 3, "triplets": []}',
    '{"scene_id": "s", "triplets": [["5", 1, 2, 0.5]]}',
    '{"scene_id": "s", "triplets": [[0, true, 2, 0.5]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2.0, 0.5]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, "0.5"]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, false]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, NaN]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, -Infinity]]}',
    '{"scene_id": "s", "triplets": [[0, 1, 2, 1e400]]}',
    pytest.param('{"scene_id": "s", "triplets": [[' + "1" * 5001 + ', 1, 2, 0.5]]}', id="5001-digit id"),
    pytest.param(b'{"scene_id": "s\xff", "triplets": []}', id="byte 0xff"),
    pytest.param("[" * 100_000, id="deep nesting"),
])
def test_malformed_prediction_line_is_named(line, corpus, tmp_path, capsys):
    records = read_scenes(corpus)
    path = _ground_truth_predictions(str(tmp_path / "p.pred.jsonl"), records[:2])
    with open(path, "ab") as fh:
        fh.write((line if isinstance(line, bytes) else line.encode()) + b"\n")
    assert main(["eval", "--corpus", corpus, "--predictions", path, "--out", str(tmp_path / "m.csv")]) == 2
    assert "error: line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("label", True), ("id", 0.7), ("label", "3"), ("appearance_seed", 1.5), ("scene_id", 5),
    ("predicate", 1.9), ("label", "x"), ("box", [0.1, 0.1, 0.5]), ("box", "0.1"),
    ("appearance_seed", -1), ("id", 2**70), ("scene_id", "\ud800"), ("scene_id", "a\nb"),
])
def test_malformed_corpus_line_is_named(field, value, corpus, checkpoint, tmp_path, capsys):
    with open(corpus) as fh:
        lines = fh.read().splitlines()[:4]
    obj = json.loads(lines[2])
    target = obj if field == "scene_id" else obj["edges"][0] if field == "predicate" else obj["nodes"][0]
    target[field] = value
    lines[2] = json.dumps(obj)
    path = tmp_path / "bad.sgjsonl"
    path.write_text("\n".join(lines) + "\n")
    shutil.copy(f"{corpus}.meta.json", f"{path}.meta.json")
    assert main(["eval", "--corpus", str(path), "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert "error: line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("line", [
    pytest.param('{"scene_id": "s", "nodes": [], "edges": [], "x": ' + "1" * 5001 + "}", id="5001-digit integer"),
    pytest.param(b'{"scene_id": "s\xff", "nodes": [], "edges": []}', id="byte 0xff"),
    pytest.param("[" * 100_000, id="deep nesting"),
])
def test_unparsable_corpus_line_is_named(line, newline, corpus, checkpoint, tmp_path, capsys):
    with open(corpus, "rb") as fh:
        lines = fh.read().splitlines()[:4]
    lines[2] = line if isinstance(line, bytes) else line.encode()
    path = tmp_path / "bad.sgjsonl"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    shutil.copy(f"{corpus}.meta.json", f"{path}.meta.json")
    assert main(["eval", "--corpus", str(path), "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: not ") and err.count("\n") == 1


def _corpus_with_spec(corpus, tmp_path, **fields):
    """The first three scenes of `corpus` next to a sidecar whose spec has `fields` overwritten."""
    path = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), read_scenes(corpus)[:3])
    with open(f"{path}.meta.json") as fh:
        meta = json.load(fh)
    meta["spec"].update(fields)
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(meta, fh)
    return path


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("seed", None), ("seed", "3"), ("seed", True), ("seed", -1),
    ("logit_flip_rate", "0.5"), ("appearance_sigma", None), ("logit_scale", False), ("d_appearance", "12"),
])
def test_mistyped_corpus_spec_is_named(field, value, corpus, checkpoint, tmp_path, capsys):
    path = _corpus_with_spec(corpus, tmp_path, **{field: value})
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert f"error: {path}.meta.json: spec field {field} must be " in capsys.readouterr().err


def test_corpus_spec_seed_has_no_upper_bound_and_broken_sidecar_is_named(corpus, checkpoint, tmp_path, capsys):
    path = _corpus_with_spec(corpus, tmp_path, seed=2**70)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 0
    with open(f"{path}.meta.json", "w") as fh:
        fh.write('{"spec": {"seed": 3,')
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert f"error: {path}.meta.json: not valid JSON" in capsys.readouterr().err
    assert main(["generate", "--out", str(tmp_path / "g.sgjsonl"), "--seed", "-1"]) == 2
    assert "spec field seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["label", "sidecar"])
def test_vocabulary_the_checkpoint_lacks_names_the_corpus(where, corpus, checkpoint, tmp_path, capsys):
    if where == "sidecar":
        path = _corpus_with_spec(corpus, tmp_path, n_entity_categories=40)
    else:
        records = read_scenes(corpus)[:3]
        records[1].nodes[0].label = 40
        path = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), records)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_deeply_nested_sidecar_is_named(corpus, checkpoint, tmp_path, capsys):
    path = _corpus_with_spec(corpus, tmp_path)
    with open(f"{path}.meta.json", "w") as fh:
        fh.write('{"spec": ' + "[" * 100_000)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}.meta.json: not valid JSON (maximum recursion depth")


# JSON text of a generated value: ints within +-1000 and ints past Python's 4,300-digit limit, floats
# within +-1e6, NaN, infinities, strings (a lone surrogate and a newline among them), lists and objects.
# Ints and finite floats in between are left out, as faults of their own (see ROADMAP): a checkpoint
# width or layer count of 10**6 makes Model allocate that many rows (or loop that many layers) before
# any parameter shape is checked, and a parameter or sidecar float near 1e308 makes numpy warn of an
# overflow before the tape's exit-3 message.
_json_leaf = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.integers(4301, 5001).map(lambda digits: "7" * digits),
    st.floats(-1e6, 1e6).map(json.dumps),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "null", "true", "false", '"\\ud800"', '"a\\nb"']),
    st.text(max_size=6).map(json.dumps),
)
_json_text = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
    st.dictionaries(st.text(max_size=6), inner, max_size=3).map(
        lambda d: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in d.items()) + "}")), max_leaves=5)
_MARK = "\0mutant\0"


def _with_replaced_value(data, value):
    """`value` with one node, chosen by walking down at random, replaced by the _MARK placeholder."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        value = value.copy()
        value[key] = _with_replaced_value(data, value[key])
        return value
    return _MARK


def _mutated(data, raw: bytes, is_json: bool) -> bytes:
    """`raw` truncated, with one byte inserted, with one JSON value replaced, or nested deeply."""
    kinds = ["truncate", "insert", "nest"] + (["replace"] if is_json else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind in ("truncate", "insert"):
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + (bytes([data.draw(st.integers(0, 255))]) + raw[at:] if kind == "insert" else b"")
    if kind == "nest":
        depth = data.draw(st.sampled_from([1, 50, 100_000]))
        return b"[" * depth + raw + b"]" * depth
    text = json.dumps(_with_replaced_value(data, json.loads(raw)), sort_keys=True)
    return text.replace(json.dumps(_MARK), data.draw(_json_text)).encode()


@pytest.fixture(scope="module")
def valid_inputs(corpus, checkpoint, tmp_path_factory):
    """A 3-scene corpus with its sidecar, its predictions, a checkpoint and a generate config, as paths."""
    root = tmp_path_factory.mktemp("mutants")
    paths = {"corpus": _rewrite_corpus(corpus, str(root / "c.sgjsonl"), read_scenes(corpus)[:3])}
    paths["sidecar"] = f"{paths['corpus']}.meta.json"
    paths["predictions"] = _ground_truth_predictions(str(root / "p.pred.jsonl"), read_scenes(paths["corpus"]))
    paths["checkpoint"] = shutil.copy(checkpoint, root / "m.ckpt.json")
    paths["config"] = _write_config(root / "gen.cfg", n_scenes=3, seed=4, noise_rate=0.05)
    return {name: str(path) for name, path in paths.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["corpus", "predictions", "sidecar", "checkpoint", "config"]), st.data())
def test_mutated_input_exits_cleanly_and_names_its_source(valid_inputs, target, data):
    """One mutation of a valid input exits 0, 2 or 3 with at most one stderr line; exit 2 names the file or line."""
    path = valid_inputs[target]
    with open(path, "rb") as fh:
        original = fh.read()
    lines = original.splitlines(keepends=True)
    line_no = data.draw(st.integers(1, len(lines))) if target in ("corpus", "predictions") else None
    if line_no:
        lines[line_no - 1] = _mutated(data, lines[line_no - 1].rstrip(b"\n"), is_json=True) + b"\n"
        mutant = b"".join(lines)
    else:
        mutant = _mutated(data, original, is_json=target != "config")
    corpus, out = valid_inputs["corpus"], os.path.join(os.path.dirname(path), "out.csv")
    argv = {"predictions": ["eval", "--corpus", corpus, "--predictions", path, "--out", out],
            "config": ["generate", "--config", path, "--out", os.path.join(os.path.dirname(path), "g.sgjsonl")]
            }.get(target, ["eval", "--corpus", corpus, "--checkpoint", valid_inputs["checkpoint"], "--out", out])
    err = io.StringIO()
    try:
        with open(path, "wb") as fh:
            fh.write(mutant)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    message = err.getvalue()
    assert code in (0, 2, 3), message
    if code == 0:
        assert message == ""
    else:
        assert message.startswith("error: " if code == 2 else "numeric failure: ") and message.count("\n") == 1
    if code == 2:
        source = corpus if target == "sidecar" else path  # a sidecar's path starts with its corpus's
        assert source in message or message.startswith(f"error: line {line_no}: "), message


# ---------------------------------------------------------------------------
# train/eval determinism end to end


def test_train_rerun_is_byte_identical(corpus, tmp_path):
    shas = []
    for name in ("one", "two"):
        ckpt = str(tmp_path / f"{name}.ckpt.json")
        assert main(["train", "--corpus", corpus, "--out", ckpt, "--epochs", "2",
                     "--ks-recall", "4", "--ks-pair", "2"]) == 0
        shas.append((_sha(ckpt), _sha(f"{ckpt}.log.csv")))
    assert shas[0] == shas[1]


# ---------------------------------------------------------------------------
# analyze / br-build / guess-curve


def _uniform_pair_corpus(path):
    """Predicate 1 appears exactly once over every ordered category pair."""
    box = (0.1, 0.1, 0.6, 0.6)
    records = [
        SceneRecord("u0", [Node(0, 0, box, 1), Node(1, 0, box, 2)], [Edge(0, 1, 1)]),
        SceneRecord("u1", [Node(0, 0, box, 3), Node(1, 1, box, 4)],
                    [Edge(0, 1, 1), Edge(1, 0, 1)]),
        SceneRecord("u2", [Node(0, 1, box, 5), Node(1, 1, box, 6)], [Edge(0, 1, 1)]),
    ]
    write_scenes(path, records)
    return records


def test_analyze_uniform_corpus_has_zero_variance(tmp_path):
    corpus = str(tmp_path / "uniform.sgjsonl")
    _uniform_pair_corpus(corpus)
    out_dir = str(tmp_path / "analysis")
    assert main(["analyze", "--corpus", corpus, "--out-dir", out_dir]) == 0
    rows = _read_csv(os.path.join(out_dir, "variance.csv"))
    assert rows[0] == ["predicate", "variance"]
    variance = {int(r[0]): float(r[1]) for r in rows[1:]}
    # every ordered pair holds one count, so the spread is exactly zero
    assert variance[1] <= 0.05 * 1.0
    np.testing.assert_allclose(variance[1], 0.0)


def test_analyze_writes_distance_and_guess_curves(corpus, tmp_path):
    out_dir = str(tmp_path / "analysis")
    assert main(["analyze", "--corpus", corpus, "--out-dir", out_dir, "--k-max", "3"]) == 0
    distance = _read_csv(os.path.join(out_dir, "distance.csv"))
    assert distance[0] == ["predicate_i", "predicate_j", "distance"]
    assert len(distance) > 1
    curves = _read_csv(os.path.join(out_dir, "guess_curves.csv"))
    by_label = {}
    for label, k, fraction in curves[1:]:
        by_label.setdefault(label, []).append(float(fraction))
    assert set(by_label) == {"", "head", "tail", "head+tail"}
    for fractions in by_label.values():
        assert fractions == sorted(fractions)  # top-k curves never decrease


def test_br_build_without_bidirectional_pairs_is_empty(tmp_path):
    corpus = str(tmp_path / "oneway.sgjsonl")
    box = (0.2, 0.2, 0.7, 0.7)
    write_scenes(corpus, [
        SceneRecord("s0", [Node(0, 1, box, 1), Node(1, 2, box, 2)], [Edge(0, 1, 3)]),
        SceneRecord("s1", [Node(0, 3, box, 3), Node(1, 4, box, 4)], [Edge(1, 0, 2)]),
    ])
    out = str(tmp_path / "subset.sgjsonl")
    assert main(["br-build", "--corpus", corpus, "--out", out]) == 0
    assert read_scenes(out) == []
    with open(f"{out}.summary.json") as fh:
        summary = json.load(fh)
    assert summary["scenes_retained"] == 0
    assert summary["pairs"] == 0


def test_br_build_keeps_both_directions(corpus, tmp_path):
    out = str(tmp_path / "subset.sgjsonl")
    assert main(["br-build", "--corpus", corpus, "--out", out]) == 0
    subset = read_scenes(out)
    assert subset
    for rec in subset:
        present = {(e.subject, e.object) for e in rec.edges}
        assert all((o, s) in present for s, o in present)


def test_guess_curve_deterministic_rule_is_perfect_at_one(tmp_path):
    corpus = str(tmp_path / "clean.sgjsonl")
    cfg = _write_config(tmp_path / "gen.cfg", n_scenes=60, noise_rate=0.0, context_categories=0)
    assert main(["generate", "--out", corpus, "--config", cfg]) == 0
    out = str(tmp_path / "curve.csv")
    assert main(["guess-curve", "--train-corpus", corpus, "--conditioning", "head,tail",
                 "--target", "edge", "--out", out]) == 0
    rows = _read_csv(out)
    assert rows[1][:2] == ["head+tail", "1"]
    np.testing.assert_allclose(float(rows[1][2]), 1.0)
