"""Command-line surface: generate / train / eval / analyze / br-build / guess-curve.

Config resolution for the two commands that take --config and --seed (generate
uses the corpus spec schema, train the model schema): dataclass defaults, then
train's vocabulary from the corpus sidecar, then the --config key=value file,
then explicit flags; nothing else, such as a shell variable, reaches a config.
Unknown keys in a config file are rejected. Values are read by field
annotation (data.FIELD_TYPES): int by int(), float by float(), bool from
true/false/1/0/yes/no, str as written, `int | None` from an int or `none`, a
seed as an int that must be non-negative. A value that cannot be read exits 2
naming the file and the key; a config file that is not UTF-8 names the file. A
resolved config that fails validation names the file when the defaults and the
file's own values (those no flag replaces) already fail it; otherwise it names
no source, so a failing flag is not named.

Every command returns its config snapshot; the files it reads and writes are
declared once, by command_files, before it runs. main checks the declaration
for overwrites and, after the command, writes the `<out>.manifest.json`
recording the command line, the resolved config, seeds, sha256 hashes of the
declared inputs and outputs, and wall-clock time. Manifests are the only
outputs that differ between identical reruns (wall-clock); all data artifacts
are byte-identical for equal seeds.

Exit codes: 0 success, 2 validation error (or an array too large for memory),
3 numeric failure, 4 I/O error; an output (a flag's or one derived from --out)
naming another output or an input (sidecars too) exits 2 before the command runs.
Commands run with numpy's overflow and invalid-value warnings off, so a
numeric failure prints its one exit-3 line and nothing else.
Corpus, prediction, sidecar and checkpoint files are all read by
data.parse_json, so bad input exits 2 with a message naming its file or line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .analysis import (
    CooccurrenceTable,
    _validate_conditioning,
    build_bidirectional_subset,
    guess_curve,
    inter_class_distance,
    intra_class_variance,
)
from .autodiff import NumericError
from .data import (
    GeneratorSpec,
    SceneRecord,
    build_rule,
    generate,
    parse_json,
    read_predictions,
    read_scenes,
    split_scenes,
    utf8,
    write_predictions,
    write_scenes,
)
from .metrics import (
    GroundTruthGraph,
    HitCounts,
    corpus_pairwise_recall_at_k,
    corpus_recall_at_k,
    count_hits,
    mean_recall_at_k,
    rank_triplets,
)
from .model import (
    LOSS_COLUMNS,
    ModelConfig,
    _check_vocabulary,
    load_checkpoint,
    predict_scene,
    prepare_scene,
    save_checkpoint,
    train,
)


# ---------------------------------------------------------------------------
# config plumbing


def _parse_kv_file(path) -> dict[str, str]:
    """Flat `key = value` lines of UTF-8 text; blank lines and # comments allowed."""
    out: dict[str, str] = {}
    with open(path, "rb") as fh:
        lines = io.StringIO(utf8(fh.read(), path), newline=None)  # lines end as in a text-mode open()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path} line {line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path} line {line_no}: empty key")
        if key in out:
            raise ValueError(f"{path} line {line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _assemble_config(cls, config_path, overrides: dict, check, defaults: dict | None = None):
    """Resolve one schema, dataclass defaults < `defaults` < config file < flags, and run `check` on it once:
    (config, check's result). If the check fails and the defaults with the file's own values fail it too, the
    error names the file, and then it is the file's failure. The file's own values leave out the fields a flag
    sets, so the file is never named for a failure that comes from a flag."""
    raw = _parse_kv_file(config_path) if config_path else {}
    if unknown := set(raw) - set(cls.field_types()):
        raise ValueError(f"{config_path}: unknown config keys {sorted(unknown)}")
    values = dict(defaults or {})
    values.update((key, cls.parse_field(config_path, key, value)) for key, value in raw.items())
    flags = {key: value for key, value in overrides.items() if value is not None}
    config = cls(**(values | flags))
    try:
        return config, check(config)
    except ValueError:
        if config_path:
            try:
                check(cls(**{key: value for key, value in values.items() if key not in flags}))
            except ValueError as exc:
                raise ValueError(f"{config_path}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# artifact plumbing


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command, argv, path, config_snapshot, inputs, outputs, wall_clock) -> None:
    """The manifest of `command` run as `argv`, with the hashes of its declared (name, path) inputs and outputs;
    its seed is the resolved config's, null if it has none."""
    manifest = {
        "command": command,
        "argv": argv,
        "config": config_snapshot,
        "seed": config_snapshot.get("seed"),
        "inputs": {p: _sha256(p) for _, p in inputs},
        "outputs": {p: _sha256(p) for _, p in outputs},
        "wall_clock_seconds": wall_clock,
    }
    _write_json(path, manifest)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_corpus_spec(corpus_path, required: bool = True) -> GeneratorSpec | None:
    """The spec in the corpus's sidecar; None when there is no sidecar and none is `required`."""
    meta_path = f"{corpus_path}.meta.json"
    if not os.path.exists(meta_path):
        if not required:
            return None
        raise ValueError(
            f"missing corpus sidecar {meta_path}; it carries the feature-synthesis "
            f"parameters and is written by the generate command"
        )
    with open(meta_path, "rb") as fh:
        meta = parse_json(fh.read(), meta_path)
    if type(meta) is not dict or type(meta.get("spec")) is not dict:
        raise ValueError(f"{meta_path}: expected a JSON object with a spec object")
    try:
        spec = GeneratorSpec.from_dict(meta["spec"])
        spec.validate()
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc
    return spec


ANALYZE_FILES = ("variance.csv", "distance.csv", "guess_curves.csv", "analyze.manifest.json")  # in --out-dir


def command_files(args) -> tuple[tuple[str, str], list[tuple[str, str]], list[tuple[str, str]]]:
    """The files the command of `args` reads and writes, declared before it runs: (manifest, inputs, outputs),
    each a (name, path) pair named as the overwrite check names it. A corpus sidecar is an input where the
    command reads one: analyze and br-build read it only when it exists, and br-build then copies it to --out."""
    def given(dests):
        return [(f"--{dest.replace('_', '-')}", getattr(args, dest)) for dest in dests if getattr(args, dest, None)]

    inputs = given(("corpus", "checkpoint", "predictions", "config", "train_corpus", "eval_corpus"))
    outputs = given(("out", "log_csv", "dump_predictions"))
    sidecar_found = args.command in ("analyze", "br-build") and os.path.exists(f"{args.corpus}.meta.json")
    if args.command == "train" or getattr(args, "checkpoint", None) or sidecar_found:
        inputs.append(("the sidecar of --corpus", f"{args.corpus}.meta.json"))
    if args.command == "analyze":
        files = [(f"the {name} of --out-dir", os.path.join(args.out_dir, name)) for name in ANALYZE_FILES]
        return files[-1], inputs, outputs + files[:-1]
    derived = {
        "generate": [("sidecar", ".meta.json")],
        "br-build": ([("sidecar", ".meta.json")] if sidecar_found else []) + [("summary", ".summary.json")],
        "train": [] if getattr(args, "log_csv", None) else [("epoch log", ".log.csv")],
    }.get(args.command, [])
    outputs += [(f"the {what} of --out", args.out + suffix) for what, suffix in derived]
    return ("the manifest of --out", f"{args.out}.manifest.json"), inputs, outputs


def _check_outputs_apart(inputs, outputs) -> None:
    """Reject an output that names another output's or an input's file; two inputs may share one."""
    for i, (name, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1 :] + inputs:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ValueError(f"{name} and {other} both name {path}")


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _parse_ks(raw: str, flag: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of integers, got {raw!r}") from exc
    if not ks:
        raise ValueError(f"{flag} needs at least one k")
    if min(ks) < 1:
        raise ValueError(f"{flag}: every k must be >= 1, got {raw!r}")
    if len(set(ks)) < len(ks):
        raise ValueError(f"{flag}: every k must be listed once, got {raw!r}")
    return ks


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> dict:
    spec, rule = _assemble_config(GeneratorSpec, args.config, {"seed": args.seed}, build_rule)
    records = generate(spec, rule)
    write_scenes(args.out, records)
    meta = {
        "spec": asdict(spec),
        "n_scenes": len(records),
        "realized_asymmetric_fraction": rule.realized_asymmetric_fraction,
    }
    _write_json(f"{args.out}.meta.json", meta)
    print(f"wrote {len(records)} scenes to {args.out} "
          f"(asymmetric fraction {round(rule.realized_asymmetric_fraction, 4)})")
    return asdict(spec)


def _train_overrides(args) -> dict:
    over: dict = {"seed": args.seed, "epochs": args.epochs}
    if args.no_lih:
        over["use_lih"] = False
    if args.no_dse:
        over["fusion"] = "union"
    if args.no_gih:
        over["gih_variant"] = "none"
    if args.no_ar:
        over["w_ar"] = 0.0
    return over


def _read_corpus(path) -> list[SceneRecord]:
    records = read_scenes(path)
    if not records:
        raise ValueError(f"{path}: corpus is empty")
    return records


def _read_annotated_corpus(path, flag: str) -> list[SceneRecord]:
    """The corpus `flag` names, which must hold an annotated edge for guess curves to count."""
    records = _read_corpus(path)
    if not any(record.edges for record in records):
        raise ValueError(f"{flag} {path}: no scene has an annotated edge, so guess curves have nothing to count")
    return records


def cmd_train(args) -> dict:
    records = _read_corpus(args.corpus)
    spec = _load_corpus_spec(args.corpus)
    # vocabulary follows the corpus unless the user pinned it explicitly
    vocabulary = {"n_entity_categories": spec.n_entity_categories,
                  "n_predicate_categories": spec.n_predicate_categories, "d_appearance": spec.d_appearance}
    config, _ = _assemble_config(ModelConfig, args.config, _train_overrides(args),
                                 lambda c: (c.validate(), _check_vocabulary(c, spec)), vocabulary)
    ks_recall = _parse_ks(args.ks_recall, "--ks-recall")
    ks_pair = _parse_ks(args.ks_pair, "--ks-pair")
    _at_least("--metrics-every", args.metrics_every, 0)
    try:
        train_records, eval_records = split_scenes(records, args.holdout)
    except ValueError as exc:
        raise ValueError(f"--holdout: {args.corpus}: {exc}") from exc
    try:  # past the checks above, every fault train finds lies in a scene of the corpus
        result = train(
            config,
            train_records,
            spec,
            eval_records=eval_records,
            metrics_every=args.metrics_every,
            ks_recall=ks_recall,
            ks_pair=ks_pair,
        )
    except ValueError as exc:
        raise ValueError(f"{args.corpus}: {exc}") from exc
    save_checkpoint(args.out, result.model, result.bank)
    log_csv = args.log_csv or f"{args.out}.log.csv"
    metric_cols = [f"R@{k}" for k in ks_recall] + [f"pR@{k}" for k in ks_pair]
    rows = [[entry.epoch, *(entry.losses[col] for col in LOSS_COLUMNS),
             *(entry.metrics.get(col, "") for col in metric_cols)] for entry in result.log]
    _write_csv(log_csv, ["epoch", *LOSS_COLUMNS, *metric_cols], rows)
    if result.log:
        last = result.log[-1]
        shown = " ".join(f"{k} {v:.3f}" for k, v in sorted(last.metrics.items())) or "no held-out metrics"
        losses = " ".join(f"{col} {last.losses[col]:.4f}" for col in LOSS_COLUMNS)
        print(f"epoch {last.epoch}: {losses} | {shown}")
    print(f"checkpoint {args.out}, epoch log {log_csv}")
    return asdict(config)


def _scene_rows(scene_id, counts: HitCounts, ks_recall, ks_pair) -> list[list]:
    """One scene's CSV rows, read from its one count at each k."""
    rows = [[scene_id, "R", k, counts.recall(k)] for k in ks_recall]
    rows += [[scene_id, "mR", k, counts.mean_recall(k)] for k in ks_recall]
    rows += [[scene_id, "pR", k, counts.pair_recall(k)] for k in ks_pair if counts.pairs]
    return rows


def cmd_eval(args) -> dict:
    if bool(args.checkpoint) == bool(args.predictions):
        raise ValueError("eval needs exactly one of --checkpoint or --predictions")
    if args.predictions and args.unconstrained:
        raise ValueError("--unconstrained applies to --checkpoint only; --predictions are scored as ranked")
    records = _read_corpus(args.corpus)
    for record in records:
        if not record.edges:
            raise ValueError(f"{args.corpus}: scene {record.scene_id}: no annotated edges, so recall is undefined")
    graphs = [GroundTruthGraph.from_scene(r) for r in records]
    ks_recall = _parse_ks(args.ks_recall, "--ks-recall")
    ks_pair = _parse_ks(args.ks_pair, "--ks-pair")
    constraint = not args.unconstrained

    if args.checkpoint:
        model, _bank = load_checkpoint(args.checkpoint)
        spec = _load_corpus_spec(args.corpus)
        try:  # the checkpoint's vocabulary may lack the sidecar's or a scene's labels
            _check_vocabulary(model.config, spec)
            ranked_lists = [
                predict_scene(model, prepare_scene(record, spec), graph_constraint=constraint)
                for record in records
            ]
        except ValueError as exc:
            raise ValueError(f"{args.corpus}: {exc}") from exc
    else:
        predictions = read_predictions(args.predictions)
        missing = [r.scene_id for r in records if r.scene_id not in predictions]
        if missing:
            raise ValueError(f"{args.predictions}: no predictions for scenes {missing[:5]}")
        ranked_lists = [rank_triplets(predictions[r.scene_id]) for r in records]

    counts = [count_hits(ranked, gt, max((*ks_recall, *ks_pair))) for ranked, gt in zip(ranked_lists, graphs)]
    rows = [row for r, c in zip(records, counts) for row in _scene_rows(r.scene_id, c, ks_recall, ks_pair)]
    aggregate = [["ALL", "R", k, corpus_recall_at_k(counts, k)] for k in ks_recall]
    aggregate += [["ALL", "mR", k, mean_recall_at_k(counts, k)] for k in ks_recall]
    if any(g.bidirectional_pairs for g in graphs):
        aggregate += [["ALL", "pR", k, corpus_pairwise_recall_at_k(counts, k)] for k in ks_pair]
    _write_csv(args.out, ["scene_id", "metric", "k", "value"], rows + aggregate)
    if args.dump_predictions:
        write_predictions(args.dump_predictions, {r.scene_id: ranked for r, ranked in zip(records, ranked_lists)})
    shown = " ".join(f"{m}@{k} {v:.3f}" for _, m, k, v in aggregate)
    print(f"{len(records)} scenes | {shown}")
    return {"ks_recall": list(ks_recall), "ks_pair": list(ks_pair), "graph_constraint": constraint}


def _infer_category_counts(records: list[SceneRecord]) -> tuple[int, int]:
    n_ent = 1 + max((node.label for r in records for node in r.nodes), default=0)
    n_pred = 1 + max((edge.predicate for r in records for edge in r.edges), default=0)
    return n_ent, n_pred


def cmd_analyze(args) -> dict:
    _at_least("--k-max", args.k_max, 1)
    records = _read_annotated_corpus(args.corpus, "--corpus")
    spec = _load_corpus_spec(args.corpus, required=False)
    n_ent, n_pred = (spec.n_entity_categories, spec.n_predicate_categories) if spec else _infer_category_counts(records)
    try:  # only a sidecar's vocabulary can miss a label: one inferred from the labels holds them all
        table = CooccurrenceTable.from_scenes(records, n_ent, n_pred)
    except ValueError as exc:
        raise ValueError(f"{args.corpus}: {exc}, the vocabulary of sidecar {args.corpus}.meta.json") from exc
    # every row is computed before the first file is written, so a rejected input leaves no partial output
    variance_rows = [[p, intra_class_variance(table, p)] for p in range(n_pred)]
    nonzero = sorted(table.counts)
    distance_rows = [[i, j, inter_class_distance(table, i, j)] for i, j in itertools.combinations(nonzero, 2)]
    curve_rows = []
    for conditioning in ((), ("head",), ("tail",), ("head", "tail")):
        curve = guess_curve(records, records, conditioning, target="edge", k_max=args.k_max)
        label = "+".join(conditioning)
        curve_rows += [[label, k + 1, curve[k]] for k in range(len(curve))]
    os.makedirs(args.out_dir, exist_ok=True)
    variance_path, distance_path, curves_path = (os.path.join(args.out_dir, name) for name in ANALYZE_FILES[:3])
    _write_csv(variance_path, ["predicate", "variance"], variance_rows)
    _write_csv(distance_path, ["predicate_i", "predicate_j", "distance"], distance_rows)
    _write_csv(curves_path, ["conditioning", "k", "fraction"], curve_rows)
    print(f"wrote {variance_path}, {distance_path}, {curves_path}")
    return {"k_max": args.k_max}


def cmd_br_build(args) -> dict:
    records = _read_corpus(args.corpus)
    spec = _load_corpus_spec(args.corpus, required=False)
    subset, summary = build_bidirectional_subset(records)
    if not subset:
        raise ValueError(f"{args.corpus}: no scene has a bidirectional pair, so the subset would be empty")
    write_scenes(args.out, subset)
    _write_json(f"{args.out}.summary.json", summary)
    if spec is not None:
        _write_json(f"{args.out}.meta.json", {"spec": asdict(spec)})
    print(f"kept {summary['scenes_retained']} of {summary['scenes_in']} scenes, "
          f"{summary['pairs']} bidirectional pairs")
    return {}


def cmd_guess_curve(args) -> dict:
    _at_least("--k-max", args.k_max, 1)
    conditioning = tuple(part.strip() for part in args.conditioning.split(",") if part.strip())
    own = "h2t" if args.target == "edge" else args.target  # --target is named too when only its component fails
    for flags, components in (("--conditioning", [c for c in conditioning if c != own]),
                              (f"--conditioning with --target {args.target}", conditioning)):
        try:
            _validate_conditioning(components, args.target)
        except ValueError as exc:
            raise ValueError(f"{flags}: {exc}") from exc
    train_records = _read_annotated_corpus(args.train_corpus, "--train-corpus")
    eval_records = _read_annotated_corpus(args.eval_corpus, "--eval-corpus") if args.eval_corpus else train_records
    curve = guess_curve(train_records, eval_records, conditioning, target=args.target, k_max=args.k_max)
    label = "+".join(conditioning)
    _write_csv(args.out, ["conditioning", "k", "fraction"],
               [[label, k + 1, curve[k]] for k in range(len(curve))])
    print(f"top-1 {curve[0]:.4f} .. top-{len(curve)} {curve[-1]:.4f} -> {args.out}")
    return {"conditioning": list(conditioning), "target": args.target, "k_max": args.k_max}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    configured = argparse.ArgumentParser(add_help=False)  # the commands that resolve a config
    configured.add_argument("--seed", type=int, default=None, help="override the config seed")
    configured.add_argument("--config", default=None, help="flat key = value config file")
    ranked = argparse.ArgumentParser(add_help=False)  # the commands that report recall at a list of ks
    ranked.add_argument("--ks-recall", default="20,50,100")
    ranked.add_argument("--ks-pair", default="2,4,8,16")

    parser = argparse.ArgumentParser(prog="sggkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[configured], help="write a planted-rule corpus")
    p.add_argument("--out", required=True, help="corpus path (.sgjsonl)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[configured, ranked], help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--holdout", type=int, default=50, help="scenes reserved for held-out metrics")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.add_argument("--metrics-every", type=int, default=1, help="epochs between held-out evaluations")
    p.add_argument("--log-csv", default=None, help="epoch log path (default <out>.log.csv)")
    p.add_argument("--no-lih", action="store_true", help="disable node attention refinement")
    p.add_argument("--no-dse", action="store_true", help="union-box fusion only")
    p.add_argument("--no-gih", action="store_true", help="disable message passing")
    p.add_argument("--no-ar", action="store_true", help="drop the attract/repel loss term")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[ranked], help="score a checkpoint or prediction file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--predictions", default=None, help=".pred.jsonl scored triplets per scene")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--unconstrained", action="store_true",
                   help="with --checkpoint: rank every predicate per pair instead of the best one")
    p.add_argument("--dump-predictions", default=None, help="also write ranked triplets (.pred.jsonl)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="co-occurrence variance, pairwise distance, guess curves")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k-max", type=int, default=5)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("br-build", help="keep only bidirectional pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="subset corpus path")
    p.set_defaults(func=cmd_br_build)

    p = sub.add_parser("guess-curve", help="frequency-lookup top-k accuracy for one conditioning set")
    p.add_argument("--train-corpus", required=True)
    p.add_argument("--eval-corpus", default=None, help="defaults to the training corpus")
    p.add_argument("--conditioning", default="", help="comma list from head, tail, h2t, t2h")
    p.add_argument("--target", default="edge", choices=("head", "tail", "edge"))
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_guess_curve)

    return parser


def main(argv=None) -> int:
    """Run one command and write its manifest, which records `argv`, not the host process's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        manifest, inputs, outputs = command_files(args)
        corpus = getattr(args, "corpus", None)  # its sidecar is guarded whether or not the command reads it
        _check_outputs_apart(inputs + ([("the sidecar of --corpus", f"{corpus}.meta.json")] if corpus else []),
                             outputs + [manifest])
        with np.errstate(over="ignore", invalid="ignore"):  # the tape's checks report non-finite values
            config_snapshot = args.func(args)
        _write_manifest(args.command, argv, manifest[1], config_snapshot, inputs, outputs, time.perf_counter() - t0)
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy refusing an array whose size a config value or an input sets
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
