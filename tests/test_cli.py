"""End-to-end checks of the command-line surface.

Everything runs through sggkit.cli.main with argv lists on small corpora so
the whole suite stays fast. Artifact determinism is asserted on file hashes;
metric plumbing is cross-checked against the library functions directly.
"""

import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sggkit.cli
import sggkit.data
import sggkit.metrics
import sggkit.model
from sggkit.cli import main
from sggkit.data import (
    MAX_SCENE_NODES,
    MAX_SPEC_WIDTH,
    Edge,
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
from sggkit.model import Model, ModelConfig, evaluate, load_checkpoint, prepare_scene

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


def test_generate_flag_beats_config_file(tmp_path):
    cfg = _write_config(tmp_path / "gen.cfg", nodes_per_scene=4, n_scenes=8, seed=3)
    out = str(tmp_path / "flag.sgjsonl")
    assert main(["generate", "--out", out, "--config", cfg, "--seed", "7"]) == 0
    records = read_scenes(out)
    assert len(records) == 8
    assert all(len(r.nodes) == 4 for r in records)  # the config file beat the defaults
    with open(f"{out}.manifest.json") as fh:
        assert json.load(fh)["seed"] == 7  # the flag beat the config file


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


def test_valid_config_is_not_blamed_for_a_flag(corpus, tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write_config(tmp_path / "ok.cfg", epochs=1)
    argv = ["train", "--corpus", corpus, "--out", out, "--config", cfg, "--epochs", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: learning_rate, weight_decay and epochs must be nonnegative\n"
    # the file alone fails too: then it is named, with its own failure
    with open(cfg, "a") as fh:
        fh.write("seed = -5\n")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert os.listdir(tmp_path) == ["ok.cfg"]


@pytest.mark.parametrize("command,flags,message", [
    ("train", ["--epochs", "-1"], "learning_rate, weight_decay and epochs must be nonnegative"),
    ("generate", ["--seed", "-1"], "spec field seed must be a non-negative integer, got -1"),
], ids=["train flag", "generate flag"])
def test_flag_that_fails_validation_is_not_named(command, flags, message, corpus, tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = ["train", "--corpus", corpus] if command == "train" else ["generate"]
    assert main([*argv, "--out", out, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_config_value_a_flag_overrides_is_not_named(corpus, tmp_path, capsys):
    """epochs -1 from the config file fails alone, but --epochs 5 replaces it: the failure is --seed -1's,
    so the file is not named."""
    cfg = _write_config(tmp_path / "bad.cfg", epochs=-1)
    argv = ["train", "--corpus", corpus, "--out", str(tmp_path / "m.json"), "--config", cfg,
            "--epochs", "5", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: config field seed must be a non-negative integer, got -1\n"
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_sggkit_variables_reach_no_command(tmp_path, monkeypatch):
    """A run depends only on its argv and its files: with an unreadable SGGKIT_<FIELD> variable for every
    field of both config schemas, generate, train and eval --checkpoint exit 0 and write a clean run's bytes."""
    for name in [name for name in os.environ if name.startswith("SGGKIT_")]:
        monkeypatch.delenv(name)
    cfg = _write_config(tmp_path / "gen.cfg", n_scenes=12)
    ks = ["--ks-recall", "4", "--ks-pair", "2"]

    def run(root):
        root.mkdir()
        corpus, ckpt = str(root / "c.sgjsonl"), str(root / "m.ckpt.json")
        assert main(["generate", "--out", corpus, "--config", cfg]) == 0
        assert main(["train", "--corpus", corpus, "--out", ckpt, "--epochs", "1", "--holdout", "4", *ks]) == 0
        assert main(["eval", "--corpus", corpus, "--checkpoint", ckpt, "--out", str(root / "e.csv"), *ks]) == 0
        return {name: _sha(root / name) for name in os.listdir(root) if not name.endswith(".manifest.json")}

    clean = run(tmp_path / "clean")
    assert len(clean) == 5
    for field in {*GeneratorSpec.field_types(), *ModelConfig.field_types()}:
        monkeypatch.setenv(f"SGGKIT_{field.upper()}", "unreadable")
    assert run(tmp_path / "set") == clean


def test_generate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.cfg", not_a_field=3)
    assert main(["generate", "--out", str(tmp_path / "x.sgjsonl"), "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text,fault", [
    ("n_entity_categories = 2", ": need at least two usable entity categories plus the reserved 0"),
    ("n_predicate_categories = 1", ": need at least one usable predicate category plus the reserved 0"),
    ("related_pairs = 0", ": related_pairs must be positive"),
    ("noise_rate = 1.0", ": noise_rate must lie in [0, 1)"),
    ("n_predicate_categories = 2\nasymmetric_fraction = 0.0", ": label noise needs a wrong predicate to flip to"),
    ("appearance_sigma = -1", ": appearance parameters out of range"),
    ("logit_flip_rate = 1.5", ": logit_flip_rate must lie in [0, 1]"),
    (" = 3", " line 1: empty key"),
    ("seed = 1\nseed = 2", " line 2: duplicate key 'seed'"),
], ids=["entities", "predicates", "related pairs", "noise rate", "noise without a wrong predicate",
        "appearance sigma", "logit flip rate", "empty key", "duplicate key"])
def test_generate_config_fault_names_the_config(text, fault, tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(text + "\n")
    assert main(["generate", "--out", str(tmp_path / "c.sgjsonl"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}{fault}\n"
    assert os.listdir(tmp_path) == ["gen.cfg"]


def test_unreadable_config_value_names_its_source_and_key(corpus, tmp_path, capsys):
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
    for setting, message in (({"gih_layers": 3}, "config field gih_layers must be even and >= 2 for gih, got 3"),
                             ({"d_attention": 64}, "unknown config keys ['d_attention']"),  # a former field
                             ({"gih_variant": "gat", "gih_layers": 0},
                              "config field gih_layers must be >= 1 for gat, got 0"),
                             ({"n_entity_categories": 40},
                              "model expects 40 entity categories but the corpus provides 33"),
                             ({"d_node": 0}, "widths must be positive"),
                             ({"w_ar": -1}, "loss weights must be nonnegative"),
                             ({"n_predicate_categories": 1}, "need at least two categories on both vocabularies")):
        cfg = _write_config(tmp_path / "train.cfg", **setting)
        assert main(["train", "--corpus", corpus, "--out", out, "--config", cfg]) == 2
        assert f"error: {cfg}: {message}\n" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# train


def test_train_without_a_sidecar_names_it(corpus, tmp_path, capsys):
    path = shutil.copy(corpus, tmp_path / "c.sgjsonl")
    assert main(["train", "--corpus", str(path), "--out", str(tmp_path / "m.ckpt.json")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: missing corpus sidecar {path}.meta.json; it carries the feature-synthesis parameters ")
    assert os.listdir(tmp_path) == ["c.sgjsonl"]


def test_train_epochs_zero_equals_fresh_init(corpus, tmp_path):
    out = str(tmp_path / "init.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--epochs", "0"]) == 0
    model = load_checkpoint(out)
    fresh = Model(model.config)
    assert model.params.keys() == fresh.params.keys()
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, fresh.params[name].data)


def test_train_ablation_flags_set_baseline_config(corpus, tmp_path):
    out = str(tmp_path / "base.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--epochs", "1",
                 "--no-lih", "--no-dse", "--no-gih", "--no-ar"]) == 0
    model = load_checkpoint(out)
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


@pytest.mark.parametrize("holdout", ["500", "120", "-1"])
def test_holdout_out_of_range_names_the_flag_and_the_corpus(holdout, corpus, tmp_path, capsys):
    out = str(tmp_path / "m.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--holdout", holdout]) == 2
    assert capsys.readouterr().err == (f"error: --holdout: {corpus}: holdout must lie in [0, 119] for 120 scenes, "
                                       f"got {holdout}\n")
    assert os.listdir(tmp_path) == []


def test_train_divergent_learning_rate_is_numeric_failure(corpus, tmp_path, capsys):
    """The exit-3 line is all that reaches stderr: numpy's overflow warnings are off in commands."""
    cfg = _write_config(tmp_path / "train.cfg", learning_rate=1e9)
    code = main(["train", "--corpus", corpus, "--out", str(tmp_path / "x.ckpt.json"), "--config", cfg,
                 "--epochs", "2", "--holdout", "110"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# eval


def test_eval_requires_exactly_one_source(corpus, tmp_path, checkpoint):
    out = str(tmp_path / "m.csv")
    assert main(["eval", "--corpus", corpus, "--out", out]) == 2
    assert main(["eval", "--corpus", corpus, "--out", out,
                 "--checkpoint", checkpoint, "--predictions", "x.jsonl"]) == 2


def test_eval_unconstrained_applies_to_checkpoint_only(corpus, tmp_path, capsys):
    pred_path = _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), read_scenes(corpus))
    out = str(tmp_path / "m.csv")
    assert main(["eval", "--corpus", corpus, "--predictions", pred_path, "--out", out, "--unconstrained"]) == 2
    assert "--unconstrained applies to --checkpoint only" in capsys.readouterr().err
    assert not os.path.exists(out)


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
    counts = [count_hits(r, g, 20) for r, g in zip(ranked, graphs)]
    agg = {(r[1], int(r[2])): float(r[3]) for r in _read_csv(out)[1:] if r[0] == "ALL"}
    np.testing.assert_allclose(agg[("R", 4)], corpus_recall_at_k(counts, 4))
    np.testing.assert_allclose(agg[("R", 20)], corpus_recall_at_k(counts, 20))
    np.testing.assert_allclose(agg[("mR", 4)], mean_recall_at_k(counts, 4))
    np.testing.assert_allclose(agg[("pR", 2)], corpus_pairwise_recall_at_k(counts, 2))


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
    assert path in err


@pytest.mark.parametrize("entry", ["eval --checkpoint", "train"])
def test_scene_over_the_node_cap_is_one_error_line(entry, corpus, checkpoint, tmp_path, capsys):
    """A scene of MAX_SCENE_NODES + 1 nodes ends the command with one error line naming the scene."""
    records = read_scenes(corpus)
    n = MAX_SCENE_NODES + 1
    nodes = [Node(i, 1 + i % 2, (0.1, 0.1, 0.5, 0.5), i) for i in range(n)]
    records[0] = replace(records[0], nodes=nodes, edges=[Edge(0, 1, 1)])
    path = _rewrite_corpus(corpus, str(tmp_path / "big.sgjsonl"), records)
    out = str(tmp_path / "out.csv")
    argv = {
        "eval --checkpoint": ["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", out],
        "train": ["train", "--corpus", path, "--out", out, "--epochs", "1", "--holdout", "10"],
    }[entry]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"scene {records[0].scene_id}: {n} nodes, more than the {MAX_SCENE_NODES} a scene may hold" in err


@pytest.mark.parametrize("variant", ["gih", "none", "gcn", "gat"])
def test_training_scene_without_nodes_is_one_error_line(variant, corpus, tmp_path, capsys):
    """A training scene with no nodes ends train with one error line naming the scene, for every
    propagation variant."""
    records = read_scenes(corpus)[:12]
    records[0] = replace(records[0], nodes=[], edges=[])
    path = _rewrite_corpus(corpus, str(tmp_path / "nodeless.sgjsonl"), records)
    cfg = _write_config(tmp_path / "train.cfg", gih_variant=variant)
    argv = ["train", "--corpus", path, "--out", str(tmp_path / "m.ckpt.json"), "--config", cfg,
            "--epochs", "1", "--holdout", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: scene {records[0].scene_id}: no nodes\n"


@pytest.mark.parametrize("entry", ["train", "eval --checkpoint", "eval --predictions", "analyze", "br-build",
                                   "guess-curve --train-corpus", "guess-curve --eval-corpus"])
def test_empty_corpus_is_named(entry, corpus, checkpoint, tmp_path, capsys):
    path = _rewrite_corpus(corpus, str(tmp_path / "empty.sgjsonl"), [])
    out = str(tmp_path / "out.csv")
    argv = {
        "train": ["train", "--corpus", path, "--out", out],
        "eval --checkpoint": ["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", out],
        "eval --predictions": ["eval", "--corpus", path, "--out", out, "--predictions",
                               _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), [])],
        "analyze": ["analyze", "--corpus", path, "--out-dir", str(tmp_path)],
        "br-build": ["br-build", "--corpus", path, "--out", out],
        "guess-curve --train-corpus": ["guess-curve", "--train-corpus", path, "--out", out],
        "guess-curve --eval-corpus": ["guess-curve", "--train-corpus", corpus, "--eval-corpus", path, "--out", out],
    }[entry]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: corpus is empty\n"


def test_analyze_rejects_k_max_before_writing_any_file(corpus, tmp_path, capsys):
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--corpus", corpus, "--out-dir", str(out_dir), "--k-max", "0"]) == 2
    assert capsys.readouterr().err == "error: --k-max must be >= 1, got 0\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["analyze", "guess-curve"])
def test_k_max_below_one_names_the_flag_before_reading_any_file(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.sgjsonl")  # reading it first would be an i/o error, exit 4
    out = ["--out-dir", str(tmp_path / "analysis")] if command == "analyze" else ["--out", str(tmp_path / "c.csv")]
    corpus = ["--corpus", missing] if command == "analyze" else ["--train-corpus", missing]
    assert main([command, *corpus, *out, "--k-max", "0"]) == 2
    assert capsys.readouterr().err == "error: --k-max must be >= 1, got 0\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags,message", [
    (["--conditioning", "bogus"],
     "--conditioning: unknown conditioning component 'bogus', expected subset of ('head', 'tail', 'h2t', 't2h')"),
    (["--conditioning", "head,head"], "--conditioning: duplicate conditioning components"),
    (["--conditioning", "head,bogus,tail", "--target", "tail"],
     "--conditioning: unknown conditioning component 'bogus', expected subset of ('head', 'tail', 'h2t', 't2h')"),
    (["--target", "tail", "--conditioning", "tail"],
     "--conditioning with --target tail: conditioning on the target component 'tail' is circular"),
    (["--conditioning", "head,h2t"],
     "--conditioning with --target edge: conditioning on the target component 'h2t' is circular"),
], ids=["unknown", "duplicate", "unknown beside the target's component", "circular", "circular on the edge"])
def test_bad_conditioning_names_its_flags_before_reading_any_file(flags, message, tmp_path, capsys):
    """--target is named only when conditioning on its own component is the fault."""
    missing = str(tmp_path / "missing.sgjsonl")  # reading it first would be an i/o error, exit 4
    assert main(["guess-curve", "--train-corpus", missing, "--out", str(tmp_path / "c.csv"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["analyze", "guess-curve"])
def test_k_max_past_the_label_count_stops_the_curve(command, corpus, tmp_path, capsys):
    """A true label ranks among the labels seen, so each curve stops after them, at 1.0: a --k-max no array
    could hold writes the rows that the label count writes."""
    n_labels = len({edge.predicate for record in read_scenes(corpus) for edge in record.edges})
    curves = []
    for k_max in (n_labels, 10**12):
        out = tmp_path / str(k_max)
        argv = (["analyze", "--corpus", corpus, "--out-dir", str(out)] if command == "analyze"
                else ["guess-curve", "--train-corpus", corpus, "--out", str(out)])
        assert main([*argv, "--k-max", str(k_max)]) == 0
        curves.append(_read_csv(out / "guess_curves.csv" if command == "analyze" else out))
    assert capsys.readouterr().err == ""
    assert curves[0] == curves[1]
    rows = curves[1][1:]
    assert len(rows) == n_labels * (4 if command == "analyze" else 1)
    assert [float(fraction) for _, k, fraction in rows if int(k) == n_labels] == [1.0] * (len(rows) // n_labels)


@pytest.mark.parametrize("entry", ["analyze", "guess-curve --train-corpus", "guess-curve --eval-corpus"])
def test_corpus_without_edges_is_named_by_guess_curves(entry, corpus, tmp_path, capsys):
    path = _rewrite_corpus(corpus, str(tmp_path / "edgeless.sgjsonl"),
                           [replace(r, edges=[]) for r in read_scenes(corpus)[:12]])
    out_dir, out = tmp_path / "analysis", str(tmp_path / "curve.csv")
    argv = {
        "analyze": ["analyze", "--corpus", path, "--out-dir", str(out_dir)],
        "guess-curve --train-corpus": ["guess-curve", "--train-corpus", path, "--eval-corpus", corpus, "--out", out],
        "guess-curve --eval-corpus": ["guess-curve", "--train-corpus", corpus, "--eval-corpus", path, "--out", out],
    }[entry]
    assert main(argv) == 2
    source = f"--corpus {path}" if entry == "analyze" else f"{entry.split()[1]} {path}"
    assert capsys.readouterr().err == (f"error: {source}: no scene has an annotated edge, "
                                       f"so guess curves have nothing to count\n")
    assert not out_dir.exists() and not os.path.exists(out)


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
    model = load_checkpoint(checkpoint)
    with open(f"{corpus}.meta.json") as fh:
        fp = GeneratorSpec.from_dict(json.load(fh)["spec"])
    evaluate(model, [prepare_scene(r, fp) for r in records], (4, 20), (2, 4))
    assert len(ranked) == len(records)
    assert calls == []


def test_each_scene_is_counted_once(corpus, checkpoint, tmp_path, monkeypatch):
    calls = []
    count = sggkit.metrics.count_hits

    def counted(ranked, gt, k_max):
        calls.append(k_max)
        return count(ranked, gt, k_max)

    monkeypatch.setattr(sggkit.cli, "count_hits", counted)
    monkeypatch.setattr(sggkit.model, "count_hits", counted)
    records = read_scenes(corpus)[:12]
    small = _rewrite_corpus(corpus, str(tmp_path / "small.sgjsonl"), records)
    preds = _ground_truth_predictions(str(tmp_path / "gt.pred.jsonl"), records)
    assert main(["eval", "--corpus", small, "--predictions", preds, "--out", str(tmp_path / "m.csv"),
                 "--ks-recall", "2,4", "--ks-pair", "2,4,8"]) == 0
    assert calls == [8] * 12

    calls.clear()
    model = load_checkpoint(checkpoint)
    with open(f"{corpus}.meta.json") as fh:
        fp = GeneratorSpec.from_dict(json.load(fh)["spec"])
    evaluate(model, [prepare_scene(r, fp) for r in records], (2, 4), (2, 4, 8))
    assert calls == [8] * 12


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
                                                ("eval", "--ks-recall", "0"), ("eval", "--ks-recall", "4,4"),
                                                ("train", "--ks-recall", ",")])
def test_k_below_one_names_the_flag(command, flag, value, corpus, checkpoint, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sggkit.cli, "train", lambda *a, **kw: pytest.fail("trained before checking the k lists"))
    out = str(tmp_path / "out")
    source = ["--out", out] if command == "train" else ["--checkpoint", checkpoint, "--out", out]
    assert main([command, "--corpus", corpus, *source, flag, value]) == 2
    message = {"4,4": f"{flag}: every k must be listed once, got '{value}'",
               ",": f"{flag} needs at least one k"}.get(value, f"{flag}: every k must be >= 1, got '{value}'")
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_metrics_every_names_the_flag(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sggkit.cli, "train", lambda *a, **kw: pytest.fail("trained before checking --metrics-every"))
    out = str(tmp_path / "m.ckpt.json")
    assert main(["train", "--corpus", corpus, "--out", out, "--metrics-every", "-3"]) == 2
    assert capsys.readouterr().err == "error: --metrics-every must be >= 0, got -3\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", ["not json", "list", "no config", "no params", "width is a string",
                                  "use_lih is a string", "w_ar is a bool", "d_attention is zero",
                                  "learning_rate beyond float range", "5001-digit integer", "byte 0xff",
                                  "deep nesting", "parameter is a string", "parameter is ragged",
                                  "parameter is NaN"])
def test_malformed_checkpoint_names_the_path(case, corpus, checkpoint, tmp_path, capsys):
    with open(checkpoint) as fh:
        payload = json.load(fh)

    def drop(d, key):
        return {k: v for k, v in d.items() if k != key}

    def with_param(value):
        return json.dumps({**payload, "params": {**payload["params"], "node_map.w": value}})

    def with_config(**fields):
        return json.dumps({**payload, "config": {**payload["config"], **fields}})

    variants = {  # each builds its text only when chosen: one dump of the 449 KB checkpoint takes about 20 ms
        "not json": lambda: "{config",
        "list": lambda: json.dumps([payload]),
        "no config": lambda: json.dumps(drop(payload, "config")),
        "no params": lambda: json.dumps(drop(payload, "params")),
        "width is a string": lambda: with_config(d_node="8"),
        "use_lih is a string": lambda: with_config(use_lih="false"),
        "w_ar is a bool": lambda: with_config(w_ar=True),
        "d_attention is zero": lambda: with_config(d_attention=0),
        "learning_rate beyond float range": lambda: with_config(learning_rate=10**400),
        "5001-digit integer": lambda: with_config(learning_rate="@").replace('"@"', "1" * 5001),
        "byte 0xff": lambda: b"\xff" + json.dumps(payload).encode(),
        "deep nesting": lambda: "[" * 100_000,
        "parameter is a string": lambda: with_param([["high"] + payload["params"]["node_map.w"][0][1:]]
                                                    + payload["params"]["node_map.w"][1:]),
        "parameter is ragged": lambda: with_param([[0.5]] + payload["params"]["node_map.w"][1:] + [[0.5, 0.5]]),
        "parameter is NaN": lambda: with_param([[float("nan")] + payload["params"]["node_map.w"][0][1:]]
                                               + payload["params"]["node_map.w"][1:]),
    }
    text = variants[case]()
    bad = tmp_path / "bad.ckpt.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["eval", "--corpus", corpus, "--checkpoint", str(bad), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err and err.count("\n") == 1
    if case.startswith("parameter"):
        assert "parameter node_map.w" in err
    if case in ("list", "no config", "no params"):
        assert err == f"error: {bad}: not a checkpoint: expected a JSON object with config and params objects\n"


def test_checkpoint_with_a_bank_loads_without_reading_it(corpus, checkpoint, tmp_path):
    """Checkpoints written while the reference bank was saved carry it. Such a checkpoint loads and writes
    the same eval CSV, byte for byte, as the one without a bank, also when its bank holds a NaN reference."""
    with open(checkpoint) as fh:
        payload = json.load(fh)
    assert "bank" not in payload
    config = payload["config"]
    rng = np.random.default_rng(3)
    refs = rng.standard_normal((config["n_predicate_categories"], config["d_edge"])).tolist()
    bank = {"refs": refs, "counts": [4.0] * len(refs), "rng_state": rng.bit_generator.state, "skipped_pairs": 2}
    nan_bank = {**bank, "refs": [[float("nan")] + refs[0][1:]] + refs[1:]}

    def eval_with(name, **sections):
        path = tmp_path / f"{name}.ckpt.json"
        path.write_text(json.dumps({**payload, **sections}))
        out = tmp_path / f"{name}.csv"
        assert main(["eval", "--corpus", corpus, "--checkpoint", str(path), "--out", str(out)]) == 0
        return out.read_bytes()

    assert eval_with("now") == eval_with("older", bank=bank) == eval_with("nan", bank=nan_bank)


def test_checkpoint_with_former_config_fields_loads_at_their_fixed_values(corpus, checkpoint, tmp_path, capsys):
    """Checkpoints written while d_attention, fusion_hidden, w_entity and w_predicate were config fields
    carry them. At the values the code now fixes (null widths, weights of 1 as an int or a float) such a
    checkpoint loads and writes the same eval CSV; any other value exits 2 naming the key."""
    with open(checkpoint) as fh:
        payload = json.load(fh)
    former = {"d_attention": None, "fusion_hidden": None, "w_entity": 1.0, "w_predicate": 1}

    def eval_with(name, **fields):
        path = tmp_path / f"{name}.ckpt.json"
        path.write_text(json.dumps({**payload, "config": {**payload["config"], **fields}}))
        return main(["eval", "--corpus", corpus, "--checkpoint", str(path), "--out", str(tmp_path / f"{name}.csv")])

    assert eval_with("now") == 0 and eval_with("older", **former) == 0
    assert (tmp_path / "older.csv").read_bytes() == (tmp_path / "now.csv").read_bytes()
    capsys.readouterr()
    for key, value in (("fusion_hidden", 0), ("d_attention", 32), ("w_entity", True), ("w_predicate", 0.5)):
        assert eval_with(key, **{**former, key: value}) == 2
        assert f"invalid checkpoint config (unknown model config keys: ['{key}'])\n" in capsys.readouterr().err


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
    pytest.param('{"scene_id": "scene-00000", "triplets": []}', id="line 1's scene id"),
])
def test_malformed_prediction_line_is_named(line, corpus, tmp_path, capsys):
    records = read_scenes(corpus)
    path = _ground_truth_predictions(str(tmp_path / "p.pred.jsonl"), records[:2])
    with open(path, "ab") as fh:
        fh.write((line if isinstance(line, bytes) else line.encode()) + b"\n")
    assert main(["eval", "--corpus", corpus, "--predictions", path, "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: line 3: " in err
    if line == '{"scene_id": "scene-00000", "triplets": []}':
        assert err == "error: line 3: duplicate scene id 'scene-00000'\n"


def test_integer_scores_score_as_the_same_floats(corpus, tmp_path):
    """Scores written as integers give the metric CSV of the same scores written as floats."""
    records = read_scenes(corpus)
    paths = {}
    for number in (int, float):
        ranked = {r.scene_id: [(e.subject, e.object, e.predicate, number(i % 3)) for i, e in enumerate(r.edges)]
                  + [(r.nodes[0].id, r.nodes[1].id, 1, number(2))] for r in records}
        preds, out = str(tmp_path / f"{number.__name__}.pred.jsonl"), str(tmp_path / f"{number.__name__}.csv")
        with open(preds, "w") as fh:
            fh.writelines(json.dumps({"scene_id": sid, "triplets": t}) + "\n" for sid, t in ranked.items())
        assert main(["eval", "--corpus", corpus, "--predictions", preds, "--out", out,
                     "--ks-recall", "1,2", "--ks-pair", "1"]) == 0
        paths[number] = preds, out
    assert _sha(paths[int][0]) != _sha(paths[float][0])  # the files differ: 2 against 2.0
    assert _sha(paths[int][1]) == _sha(paths[float][1])


def test_prediction_file_missing_scenes_is_named(corpus, tmp_path, capsys):
    records = read_scenes(corpus)
    path = _ground_truth_predictions(str(tmp_path / "p.pred.jsonl"), records[:3])
    assert main(["eval", "--corpus", corpus, "--predictions", path, "--out", str(tmp_path / "m.csv")]) == 2
    missing = [r.scene_id for r in records[3:8]]
    assert missing[0] == "scene-00003"
    assert capsys.readouterr().err == f"error: {path}: no predictions for scenes {missing}\n"
    assert not os.path.exists(tmp_path / "m.csv")


# well-typed values that break a rule of SceneRecord.validate; node 0's id 1 is node 1's
_SCENE_RULE_BREAKS = [("label", -1), ("predicate", -1), ("box", [0.9, 0.1, 0.5, 0.5]), ("id", 1)]


@pytest.mark.parametrize("field,value", [
    ("label", True), ("id", 0.7), ("label", "3"), ("appearance_seed", 1.5), ("scene_id", 5),
    ("predicate", 1.9), ("label", "x"), ("box", [0.1, 0.1, 0.5]), ("box", "0.1"),
    ("appearance_seed", -1), ("id", 2**70), ("scene_id", "\ud800"), ("scene_id", "a\nb"),
    ("scene_id", "scene-00001"),  # line 2's id
    *_SCENE_RULE_BREAKS,
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
    err = capsys.readouterr().err
    assert "error: line 3: " in err
    if (field, value) in _SCENE_RULE_BREAKS:
        assert err.startswith(f"error: line 3: scene {obj['scene_id']}: ")


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


@pytest.mark.parametrize("where", ["label", "sidecar", "predicate"])
def test_vocabulary_the_checkpoint_lacks_names_the_corpus(where, corpus, checkpoint, tmp_path, capsys):
    """A label outside the vocabulary names the corpus; a predicate label outside the sidecar's does so in
    train too."""
    if where == "sidecar":
        path = _corpus_with_spec(corpus, tmp_path, n_entity_categories=40)
    elif where == "label":
        records = read_scenes(corpus)[:3]
        records[1].nodes[0].label = 40
        path = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), records)
    else:
        records = read_scenes(corpus)[:20]
        records[3].edges[0].predicate = 9
        path = _rewrite_corpus(corpus, str(tmp_path / "bad.sgjsonl"), records)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if where == "predicate":
        line = f"error: {path}: scene scene-00003: predicate label 9 outside the 7-category vocabulary\n"
        assert err == line
        assert main(["train", "--corpus", path, "--out", str(tmp_path / "m.ckpt.json"), "--epochs", "1",
                     "--holdout", "10"]) == 2
        assert capsys.readouterr().err == line


def test_analyze_label_outside_the_sidecar_vocabulary_names_corpus_and_sidecar(corpus, tmp_path, capsys):
    path = _corpus_with_spec(corpus, tmp_path, n_entity_categories=3, related_pairs=1, context_categories=0,
                             context_switched_pairs=0, nodes_per_scene=2)
    assert main(["analyze", "--corpus", path, "--out-dir", str(tmp_path / "analysis")]) == 2
    assert capsys.readouterr().err == (f"error: {path}: scene {read_scenes(path)[0].scene_id}: entity label "
                                       f"outside [0, 3), the vocabulary of sidecar {path}.meta.json\n")
    assert sorted(os.listdir(tmp_path)) == ["c.sgjsonl", "c.sgjsonl.meta.json"]


def test_deeply_nested_sidecar_is_named(corpus, checkpoint, tmp_path, capsys):
    path = _corpus_with_spec(corpus, tmp_path)
    with open(f"{path}.meta.json", "w") as fh:
        fh.write('{"spec": ' + "[" * 100_000)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}.meta.json: not valid JSON (maximum recursion depth")


@pytest.mark.parametrize("field", ["d_appearance", "n_entity_categories", "n_predicate_categories"])
def test_sidecar_width_beyond_its_bound_is_named(field, corpus, tmp_path, capsys):
    """A sidecar field that sizes an array, at 10**15, fails validation: train exits 2 with one line
    naming the sidecar and the field, and writes nothing."""
    path = _corpus_with_spec(corpus, tmp_path, **{field: 10**15})
    assert main(["train", "--corpus", path, "--out", str(tmp_path / "m.ckpt.json"), "--holdout", "0"]) == 2
    assert capsys.readouterr().err == (f"error: {path}.meta.json: spec field {field} must be at most "
                                       f"{MAX_SPEC_WIDTH}, got {10**15}\n")
    assert sorted(os.listdir(tmp_path)) == ["c.sgjsonl", "c.sgjsonl.meta.json"]


def test_array_too_large_for_memory_is_one_error_line(corpus, tmp_path, capsys):
    """A config d_node of 10**15 asks for weights past any address space, which numpy refuses at once:
    train exits 2 with one line and writes nothing."""
    cfg = _write_config(tmp_path / "wide.cfg", d_node=10**15, d_edge=10**15)
    assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "m.ckpt.json"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["wide.cfg"]


@pytest.mark.parametrize("where", ["checkpoint", "sidecar"])
def test_float_near_max_in_an_input_is_one_numeric_failure_line(where, corpus, checkpoint, tmp_path, capsys):
    """A finite input value near float max overflows inside the model; eval exits 3 with one stderr line."""
    if where == "sidecar":
        path = _corpus_with_spec(corpus, tmp_path, appearance_sigma=1e308)
    else:
        path = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), read_scenes(corpus)[:3])
        with open(checkpoint) as fh:
            payload = json.load(fh)
        payload["params"]["node_map.w"][0][0] = 1e308
        checkpoint = str(tmp_path / "big.ckpt.json")
        with open(checkpoint, "w") as fh:
            json.dump(payload, fh)
    assert main(["eval", "--corpus", path, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


# JSON text of a generated value: every int64, ints past Python's 4,300-digit limit, every finite
# float, NaN, infinities, strings (a lone surrogate and a newline among them), lists and objects. A
# checkpoint width or layer count up to 2**63 - 1 exits 2 at its first parameter that does not fit,
# since load_checkpoint checks each saved parameter before allocating anything of the config's size.
_json_leaf = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.integers(4301, 5001).map(lambda digits: "7" * digits),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
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


@pytest.mark.parametrize("argv,shared,names", [
    (["train", "--corpus", "{corpus}", "--holdout", "4", "--epochs", "1", "--out", "{same}", "--log-csv", "{same}"],
     "same", "--out and --log-csv"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{same}", "--dump-predictions", "{same}"],
     "same", "--out and --dump-predictions"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{other}", "--dump-predictions", "{link}"],
     "link", "--dump-predictions and --corpus"),
    (["br-build", "--corpus", "{corpus}", "--out", "{corpus}"], "corpus", "--out and --corpus"),
    (["train", "--corpus", "{corpus}", "--holdout", "4", "--epochs", "1", "--out", "{sidecar}"], "sidecar",
     "--out and the sidecar of --corpus"),
    (["train", "--corpus", "{corpus}", "--holdout", "4", "--epochs", "1", "--out", "{other}", "--log-csv",
      "{sidecar}"], "sidecar", "--log-csv and the sidecar of --corpus"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{sidecar}"], "sidecar",
     "--out and the sidecar of --corpus"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{other}", "--dump-predictions",
      "{sidecar}"], "sidecar", "--dump-predictions and the sidecar of --corpus"),
    (["br-build", "--corpus", "{corpus}", "--out", "{sidecar}"], "sidecar", "--out and the sidecar of --corpus"),
    (["train", "--corpus", "{corpus}", "--holdout", "4", "--epochs", "1", "--out", "{other}", "--log-csv",
      "{other}.manifest.json"], "other_manifest", "--log-csv and the manifest of --out"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{other}", "--dump-predictions",
      "{other}.manifest.json"], "other_manifest", "--dump-predictions and the manifest of --out"),
    (["train", "--corpus", "{log_corpus}", "--holdout", "4", "--epochs", "1", "--out", "{model}"], "log_corpus",
     "the epoch log of --out and --corpus"),
    (["generate", "--config", "{gen_cfg}", "--out", "{gen}"], "gen_cfg", "the sidecar of --out and --config"),
    (["analyze", "--corpus", "{variance_corpus}", "--out-dir", "{dir}"], "variance_corpus",
     "the variance.csv of --out-dir and --corpus"),
    (["analyze", "--corpus", "{manifest_corpus}", "--out-dir", "{dir}"], "manifest_corpus",
     "the analyze.manifest.json of --out-dir and --corpus"),
    (["eval", "--corpus", "{corpus}", "--predictions", "{preds}", "--out", "{sidecar}"], "sidecar",
     "--out and the sidecar of --corpus"),
    (["br-build", "--corpus", "{summary_corpus}", "--out", "{subset}"], "summary_corpus",
     "the summary of --out and --corpus"),
    (["guess-curve", "--train-corpus", "{corpus}", "--eval-corpus", "{log_corpus}", "--out", "{log_corpus}"],
     "log_corpus", "--out and --eval-corpus"),
    (["eval", "--corpus", "{corpus}", "--checkpoint", "{ckpt_copy}", "--out", "{ckpt_copy}"], "ckpt_copy",
     "--out and --checkpoint"),
    (["train", "--corpus", "{corpus}", "--holdout", "4", "--config", "{train_cfg}", "--out", "{train_cfg}"],
     "train_cfg", "--out and --config"),
    (["eval", "--corpus", "{corpus}", "--predictions", "{preds}", "--out", "{other}", "--dump-predictions",
      "{preds}"], "preds", "--dump-predictions and --predictions"),
], ids=["train log over checkpoint", "eval dump over metrics", "eval dump over corpus", "br-build over corpus",
        "train checkpoint over sidecar", "train log over sidecar", "eval metrics over sidecar",
        "eval dump over sidecar", "br-build over sidecar", "train log over manifest", "eval dump over manifest",
        "train default log over corpus", "generate sidecar over config", "analyze csv over corpus",
        "analyze manifest over corpus", "eval --predictions metrics over the unread sidecar",
        "br-build summary over corpus", "guess-curve over eval corpus", "eval metrics over checkpoint",
        "train checkpoint over config", "eval dump over predictions"])
def test_output_flag_naming_another_flags_file_is_rejected(argv, shared, names, corpus, checkpoint, tmp_path,
                                                           capsys):
    """Exit 2 before the command runs, naming the flags or the files derived from them (a manifest,
    sidecar, summary, default epoch log or a file analyze writes into --out-dir) and the path as given or
    derived (a symlink to the corpus counts as the corpus): every file keeps its bytes and nothing is written.
    The --corpus sidecar is guarded for every command, also for eval --predictions, which does not read it."""
    records = read_scenes(corpus)[:12]
    c = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), records)
    os.symlink(c, tmp_path / "link.sgjsonl")
    (tmp_path / "same").write_text("kept\n")
    gen = str(tmp_path / "g.sgjsonl")
    _write_config(f"{gen}.meta.json", n_scenes=4, nodes_per_scene=3)
    paths = {"corpus": c, "link": str(tmp_path / "link.sgjsonl"), "same": str(tmp_path / "same"),
             "other": str(tmp_path / "other.csv"), "ckpt": checkpoint, "sidecar": f"{c}.meta.json",
             "other_manifest": str(tmp_path / "other.csv.manifest.json"), "model": str(tmp_path / "m.json"),
             "log_corpus": _rewrite_corpus(corpus, str(tmp_path / "m.json.log.csv"), records),
             "gen": gen, "gen_cfg": f"{gen}.meta.json", "dir": str(tmp_path),
             "variance_corpus": _rewrite_corpus(corpus, str(tmp_path / "variance.csv"), records),
             "manifest_corpus": _rewrite_corpus(corpus, str(tmp_path / "analyze.manifest.json"), records),
             "preds": _ground_truth_predictions(str(tmp_path / "p.pred.jsonl"), records),
             "summary_corpus": _rewrite_corpus(corpus, str(tmp_path / "sub.sgjsonl.summary.json"), records),
             "subset": str(tmp_path / "sub.sgjsonl"), "ckpt_copy": shutil.copy(checkpoint, str(tmp_path / "k.json")),
             "train_cfg": _write_config(tmp_path / "train.cfg", epochs=1)}
    before = {name: _sha(tmp_path / name) for name in os.listdir(tmp_path)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {names} both name {paths[shared]}\n"
    assert {name: _sha(tmp_path / name) for name in os.listdir(tmp_path)} == before


def test_br_build_writes_no_sidecar_over_a_corpus_named_like_one(corpus, tmp_path, capsys):
    """`<out>.meta.json` is an output of br-build only when the corpus has a sidecar to copy, so a corpus
    without one may sit at that path: it keeps its bytes and the manifest lists no sidecar."""
    subset = str(tmp_path / "s.sgjsonl")
    c = f"{subset}.meta.json"
    write_scenes(c, read_scenes(corpus)[:12])
    before = _sha(c)
    assert main(["br-build", "--corpus", c, "--out", subset]) == 0, capsys.readouterr().err
    assert _sha(c) == before
    with open(f"{subset}.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["inputs"].keys() == {c}
    assert manifest["outputs"].keys() == {subset, f"{subset}.summary.json"}


def test_input_flags_may_name_one_file(corpus, tmp_path):
    out = str(tmp_path / "curve.csv")
    assert main(["guess-curve", "--train-corpus", corpus, "--eval-corpus", corpus, "--out", out]) == 0


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


@pytest.mark.parametrize("flag,value", [("--config", "bad.cfg"), ("--seed", "1")])
@pytest.mark.parametrize("argv", [["eval", "--corpus", "c.sgjsonl", "--predictions", "p.jsonl", "--out", "m.csv"],
                                  ["analyze", "--corpus", "c.sgjsonl", "--out-dir", "analysis"],
                                  ["br-build", "--corpus", "c.sgjsonl", "--out", "s.sgjsonl"],
                                  ["guess-curve", "--train-corpus", "c.sgjsonl", "--out", "curve.csv"]],
                         ids=lambda argv: argv[0])
def test_commands_that_resolve_no_config_reject_config_and_seed(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train", "train --log-csv", "eval --checkpoint",
                                     "eval --checkpoint without dump", "eval --predictions", "analyze",
                                     "analyze without sidecar", "br-build", "br-build without sidecar", "guess-curve",
                                     "guess-curve without eval corpus"])
def test_manifest_lists_exactly_the_files_the_command_opened(command, corpus, checkpoint, tmp_path, monkeypatch):
    """A manifest's inputs are the files its command opened for reading and its outputs the files it opened
    for writing, until the manifest is written."""
    records = read_scenes(corpus)[:12]
    c = _rewrite_corpus(corpus, str(tmp_path / "c.sgjsonl"), records)
    bare = str(tmp_path / "bare.sgjsonl")
    write_scenes(bare, records)
    ckpt = str(tmp_path / "m.ckpt.json")
    shutil.copy(checkpoint, ckpt)
    preds = _ground_truth_predictions(str(tmp_path / "p.pred.jsonl"), records)
    cfg = _write_config(tmp_path / "run.cfg", **({"epochs": 1} if command.startswith("train") else {"n_scenes": 5}))
    out = str(tmp_path / "out")
    argv = {
        "generate": ["generate", "--out", out, "--config", cfg],
        "train": ["train", "--corpus", c, "--out", out, "--config", cfg, "--holdout", "4",
                  "--ks-recall", "4", "--ks-pair", "2"],
        "train --log-csv": ["train", "--corpus", c, "--out", out, "--config", cfg, "--holdout", "4",
                            "--ks-recall", "4", "--ks-pair", "2", "--log-csv", str(tmp_path / "epochs.csv")],
        "eval --checkpoint": ["eval", "--corpus", c, "--checkpoint", ckpt, "--out", out,
                              "--dump-predictions", f"{out}.pred.jsonl"],
        "eval --checkpoint without dump": ["eval", "--corpus", c, "--checkpoint", ckpt, "--out", out],
        "eval --predictions": ["eval", "--corpus", c, "--predictions", preds, "--out", out],
        "analyze": ["analyze", "--corpus", c, "--out-dir", out],
        "analyze without sidecar": ["analyze", "--corpus", bare, "--out-dir", out],
        "br-build": ["br-build", "--corpus", c, "--out", out],
        "br-build without sidecar": ["br-build", "--corpus", bare, "--out", out],
        "guess-curve": ["guess-curve", "--train-corpus", c, "--eval-corpus", bare, "--out", out],
        "guess-curve without eval corpus": ["guess-curve", "--train-corpus", c, "--out", out],
    }[command]
    opened = {"inputs": set(), "outputs": set()}
    recording = [True]
    real_open, write_manifest = open, sggkit.cli._write_manifest

    def recorded_open(file, mode="r", *args, **kwargs):
        if recording and str(file).startswith(str(tmp_path)):
            opened["outputs" if "w" in mode else "inputs"].add(str(file))
        return real_open(file, mode, *args, **kwargs)

    def manifest_after_recording(*args):
        recording.clear()
        write_manifest(*args)

    monkeypatch.setattr("builtins.open", recorded_open)
    monkeypatch.setattr(sggkit.cli, "_write_manifest", manifest_after_recording)
    assert main(argv) == 0
    assert recording == []
    base = os.path.join(out, "analyze") if command.startswith("analyze") else out
    with open(f"{base}.manifest.json") as fh:
        manifest = json.load(fh)
    assert {key: set(manifest[key]) for key in opened} == opened
    assert opened["inputs"] and opened["outputs"]


def test_manifest_records_the_argv_main_ran(corpus, tmp_path, monkeypatch):
    out = str(tmp_path / "subset.sgjsonl")
    argv = ["br-build", "--corpus", corpus, "--out", out]
    monkeypatch.setattr(sys, "argv", ["host", "--pretend-host-flag"])
    assert main(argv) == 0
    with open(f"{out}.manifest.json") as fh:
        manifest = json.load(fh)
    assert (manifest["command"], manifest["argv"], manifest["seed"]) == ("br-build", argv, None)
    monkeypatch.setattr(sys, "argv", ["sggkit", *argv])  # the console script passes no argv
    assert main() == 0
    with open(f"{out}.manifest.json") as fh:
        assert json.load(fh)["argv"] == argv


def test_only_main_times_a_command_and_writes_its_manifest():
    callers: dict[str, set[str]] = {}
    for fn in ast.parse(inspect.getsource(sggkit.cli)).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ("_write_manifest", "time.perf_counter"):
                    callers.setdefault(ast.unparse(node.func), set()).add(fn.name)
    assert callers == {"_write_manifest": {"main"}, "time.perf_counter": {"main"}}


def test_loss_columns_name_the_loss_parts_and_the_epoch_log(corpus, tmp_path, monkeypatch, capsys):
    """Renaming the columns in LOSS_COLUMNS renames total_loss's parts, the log header and the printed losses."""
    columns = ("ent", "pred", "ar")
    monkeypatch.setattr(sggkit.model, "LOSS_COLUMNS", columns)
    monkeypatch.setattr(sggkit.cli, "LOSS_COLUMNS", columns)
    total_loss, keys = sggkit.model.total_loss, set()

    def recorded(*args, **kwargs):
        loss, parts = total_loss(*args, **kwargs)
        keys.add(tuple(parts))
        return loss, parts

    monkeypatch.setattr(sggkit.model, "total_loss", recorded)
    for epochs in (0, 1):
        out = str(tmp_path / f"epochs{epochs}.ckpt.json")
        assert main(["train", "--corpus", corpus, "--out", out, "--epochs", str(epochs), "--holdout", "110",
                     "--ks-recall", "4", "--ks-pair", "2"]) == 0
        rows = _read_csv(f"{out}.log.csv")
        assert rows[0] == ["epoch", *columns, "R@4", "pR@2"]
        assert len(rows) == 1 + epochs
    assert keys == {columns}
    assert re.search(r"^epoch 1: ent \d+\.\d{4} pred \d+\.\d{4} ar \d+\.\d{4} \| ", capsys.readouterr().out, re.M)


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


def test_analyze_at_the_width_cap_counts_only_the_cells_that_occur(tmp_path):
    """Both vocabularies at the 1,024 cap: a dense co-occurrence table would take 8 GiB of int64."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"n_entity_categories = {MAX_SPEC_WIDTH}\nn_predicate_categories = {MAX_SPEC_WIDTH}\n"
                   "nodes_per_scene = 3\nn_scenes = 5\n")
    corpus = str(tmp_path / "wide.sgjsonl")
    assert main(["generate", "--out", corpus, "--config", str(cfg)]) == 0
    out_dir = str(tmp_path / "analysis")
    assert main(["analyze", "--corpus", corpus, "--out-dir", out_dir]) == 0
    assert len(_read_csv(os.path.join(out_dir, "variance.csv"))) == 1 + MAX_SPEC_WIDTH
    assert len(_read_csv(os.path.join(out_dir, "distance.csv"))) > 1


def test_br_build_without_bidirectional_pairs_is_rejected(tmp_path, capsys):
    corpus = str(tmp_path / "oneway.sgjsonl")
    box = (0.2, 0.2, 0.7, 0.7)
    write_scenes(corpus, [
        SceneRecord("s0", [Node(0, 1, box, 1), Node(1, 2, box, 2)], [Edge(0, 1, 3)]),
        SceneRecord("s1", [Node(0, 3, box, 3), Node(1, 4, box, 4)], [Edge(1, 0, 2)]),
    ])
    out = str(tmp_path / "subset.sgjsonl")
    assert main(["br-build", "--corpus", corpus, "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: {corpus}: no scene has a bidirectional pair, "
                                       f"so the subset would be empty\n")
    assert os.listdir(tmp_path) == ["oneway.sgjsonl"]


def test_br_build_subset_carries_the_sidecar_and_can_be_scored(corpus, checkpoint, tmp_path, capsys):
    out = str(tmp_path / "subset.sgjsonl")
    assert main(["br-build", "--corpus", corpus, "--out", out]) == 0
    with open(f"{corpus}.meta.json") as fh:
        spec = json.load(fh)["spec"]
    with open(f"{out}.meta.json") as fh:
        assert json.load(fh) == {"spec": spec}
    with open(f"{out}.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["inputs"] == {corpus: _sha(corpus), f"{corpus}.meta.json": _sha(f"{corpus}.meta.json")}
    assert manifest["outputs"][f"{out}.meta.json"] == _sha(f"{out}.meta.json")
    assert main(["eval", "--corpus", out, "--checkpoint", checkpoint, "--out", str(tmp_path / "m.csv")]) == 0
    out_dir = str(tmp_path / "analysis")
    assert main(["analyze", "--corpus", out, "--out-dir", out_dir]) == 0
    assert len(_read_csv(os.path.join(out_dir, "variance.csv"))) == 1 + spec["n_predicate_categories"]
    assert capsys.readouterr().err == ""
    # a corpus without a sidecar gives a subset without one
    uniform = str(tmp_path / "uniform.sgjsonl")
    _uniform_pair_corpus(uniform)
    assert main(["br-build", "--corpus", uniform, "--out", str(tmp_path / "u.sgjsonl")]) == 0
    assert not os.path.exists(tmp_path / "u.sgjsonl.meta.json")


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
