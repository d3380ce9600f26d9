"""Command-line surface: generate / train / eval / analyze / br-build / guess-curve.

Config resolution for commands that take one (generate uses the corpus spec
schema, train the model schema): dataclass defaults, then --config key=value
file, then SGGKIT_<KEY> environment variables, then explicit flags. Unknown
keys in a config file are rejected; environment variables that match no field
of the active schema are ignored so one environment can serve several
commands. Values are read by field annotation (data.FIELD_TYPES): int by int(),
float by float(), bool from true/false/1/0/yes/no, str as written, `int | None`
from an int or `none`, a seed as an int that must be non-negative. A value
that cannot be read exits 2 naming the file or variable and the key; a config
file that is not UTF-8, or a resolved config that fails validation, names the file.

Every command writes a `<out>.manifest.json` recording the command line, the
resolved config, seeds, sha256 hashes of inputs and outputs, and wall-clock
time. Manifests are the only outputs that differ between identical reruns
(wall-clock); all data artifacts are byte-identical for equal seeds.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
Corpus, prediction, sidecar and checkpoint files are all read by
data.parse_json, so bad input exits 2 with a message naming its file or line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict

from .analysis import (
    CooccurrenceTable,
    build_bidirectional_subset,
    guess_curve,
    inter_class_distance,
    intra_class_variance,
)
from .autodiff import NumericError
from .data import (
    FeatureParams,
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
    ModelConfig,
    _check_vocabulary,
    load_checkpoint,
    predict_scene,
    prepare_scene,
    save_checkpoint,
    train,
)

ENV_PREFIX = "SGGKIT_"


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


def _assemble_config(cls, config_path, overrides: dict, defaults: dict | None = None):
    """Resolve one schema: dataclass defaults < `defaults` < config file < environment < flags."""
    raw = _parse_kv_file(config_path) if config_path else {}
    if unknown := set(raw) - set(cls.field_types()):
        raise ValueError(f"{config_path}: unknown config keys {sorted(unknown)}")
    values = dict(defaults or {})
    values.update((key, cls.parse_field(config_path, key, value)) for key, value in raw.items())
    for key in cls.field_types():
        env_key = ENV_PREFIX + key.upper()
        if env_key in os.environ:
            values[key] = cls.parse_field(env_key, key, os.environ[env_key])
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return cls(**values)


# ---------------------------------------------------------------------------
# artifact plumbing


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path, command, config_snapshot, seed, inputs, outputs, wall_clock) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config": config_snapshot,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "wall_clock_seconds": wall_clock,
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_corpus_spec(corpus_path) -> GeneratorSpec:
    meta_path = f"{corpus_path}.meta.json"
    if not os.path.exists(meta_path):
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


def _parse_ks(raw: str, flag: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"{flag} expects a comma-separated list of integers, got {raw!r}") from exc
    if not ks:
        raise ValueError(f"{flag} needs at least one k")
    if min(ks) < 1:
        raise ValueError(f"{flag}: every k must be >= 1, got {raw!r}")
    return ks


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    spec = _assemble_config(GeneratorSpec, args.config, {"seed": args.seed})
    try:
        rule = build_rule(spec)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}" if args.config else str(exc)) from exc
    records = generate(spec, rule)
    write_scenes(args.out, records)
    meta = {
        "spec": asdict(spec),
        "n_scenes": len(records),
        "realized_asymmetric_fraction": rule.realized_asymmetric_fraction,
    }
    meta_path = f"{args.out}.meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    inputs = [args.config] if args.config else []
    _write_manifest(args.out, "generate", asdict(spec), spec.seed, inputs,
                    [args.out, meta_path], time.perf_counter() - t0)
    frac = rule.realized_asymmetric_fraction
    print(f"wrote {len(records)} scenes to {args.out} "
          f"(asymmetric fraction {frac if frac is None else round(frac, 4)})")
    return 0


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


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    records = read_scenes(args.corpus)
    spec = _load_corpus_spec(args.corpus)
    fp = FeatureParams.from_spec(spec)
    # vocabulary follows the corpus unless the user pinned it explicitly
    vocabulary = {"n_entity_categories": fp.n_entity_categories,
                  "n_predicate_categories": fp.n_predicate_categories, "d_appearance": fp.d_appearance}
    config = _assemble_config(ModelConfig, args.config, _train_overrides(args), vocabulary)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}" if args.config else str(exc)) from exc
    ks_recall = _parse_ks(args.ks_recall, "--ks-recall")
    ks_pair = _parse_ks(args.ks_pair, "--ks-pair")
    train_records, eval_records = split_scenes(records, args.holdout)
    result = train(
        config,
        train_records,
        fp,
        eval_records=eval_records or None,
        metrics_every=args.metrics_every if eval_records else 0,
        ks_recall=ks_recall,
        ks_pair=ks_pair,
    )
    save_checkpoint(args.out, result.model, result.bank)
    log_csv = args.log_csv or f"{args.out}.log.csv"
    metric_cols = [f"R@{k}" for k in ks_recall] + [f"pR@{k}" for k in ks_pair]
    rows = []
    for entry in result.log:
        row = [entry.epoch, entry.loss_entity, entry.loss_predicate, entry.loss_attract_repel]
        row += [entry.metrics.get(col, "") for col in metric_cols]
        rows.append(row)
    _write_csv(log_csv, ["epoch", "L_ent", "L_pred", "L_ar"] + metric_cols, rows)
    inputs = [args.corpus, f"{args.corpus}.meta.json"] + ([args.config] if args.config else [])
    _write_manifest(args.out, "train", config.to_dict(), config.seed, inputs,
                    [args.out, log_csv], time.perf_counter() - t0)
    if result.log:
        last = result.log[-1]
        shown = " ".join(f"{k} {v:.3f}" for k, v in sorted(last.metrics.items())) or "no held-out metrics"
        print(f"epoch {last.epoch}: L_ent {last.loss_entity:.4f} L_pred {last.loss_predicate:.4f} "
              f"L_ar {last.loss_attract_repel:.4f} | {shown}")
    print(f"checkpoint {args.out}, epoch log {log_csv}")
    return 0


def _scene_rows(scene_id, counts: dict[int, HitCounts], ks_recall, ks_pair) -> list[list]:
    """One scene's CSV rows from its counts at each k."""
    rows = [[scene_id, "R", k, counts[k].recall] for k in ks_recall]
    rows += [[scene_id, "mR", k, counts[k].mean_recall] for k in ks_recall]
    rows += [[scene_id, "pR", k, counts[k].pair_recall] for k in ks_pair if counts[k].pairs[1]]
    return rows


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    if bool(args.checkpoint) == bool(args.predictions):
        raise ValueError("eval needs exactly one of --checkpoint or --predictions")
    records = read_scenes(args.corpus)
    if not records:
        raise ValueError(f"{args.corpus}: corpus is empty")
    for record in records:
        if not record.edges:
            raise ValueError(f"{args.corpus}: scene {record.scene_id}: no annotated edges, so recall is undefined")
    graphs = [GroundTruthGraph.from_scene(r) for r in records]
    ks_recall = _parse_ks(args.ks_recall, "--ks-recall")
    ks_pair = _parse_ks(args.ks_pair, "--ks-pair")
    constraint = not args.unconstrained
    inputs = [args.corpus]

    if args.checkpoint:
        model, _bank = load_checkpoint(args.checkpoint)
        spec = _load_corpus_spec(args.corpus)
        fp = FeatureParams.from_spec(spec)
        try:  # the checkpoint's vocabulary may lack the sidecar's or a scene's labels
            _check_vocabulary(model.config, fp)
            ranked_lists = [
                predict_scene(model, prepare_scene(record, fp), graph_constraint=constraint)
                for record in records
            ]
        except ValueError as exc:
            raise ValueError(f"{args.corpus}: {exc}") from exc
        inputs += [f"{args.corpus}.meta.json", args.checkpoint]
    else:
        predictions = read_predictions(args.predictions)
        missing = [r.scene_id for r in records if r.scene_id not in predictions]
        if missing:
            raise ValueError(f"{args.predictions}: no predictions for scenes {missing[:5]}")
        ranked_lists = [rank_triplets(predictions[r.scene_id]) for r in records]
        inputs.append(args.predictions)

    ks = dict.fromkeys((*ks_recall, *ks_pair))
    counts = [{k: count_hits(ranked, gt, k) for k in ks} for ranked, gt in zip(ranked_lists, graphs)]
    rows = []
    for record, by_k in zip(records, counts):
        rows.extend(_scene_rows(record.scene_id, by_k, ks_recall, ks_pair))
    aggregate = []
    for k in ks_recall:
        aggregate.append(["ALL", "R", k, corpus_recall_at_k([c[k] for c in counts])])
    for k in ks_recall:
        aggregate.append(["ALL", "mR", k, mean_recall_at_k([c[k] for c in counts])])
    if any(g.bidirectional_pairs for g in graphs):
        for k in ks_pair:
            aggregate.append(["ALL", "pR", k, corpus_pairwise_recall_at_k([c[k] for c in counts])])
    _write_csv(args.out, ["scene_id", "metric", "k", "value"], rows + aggregate)

    outputs = [args.out]
    if args.dump_predictions:
        write_predictions(args.dump_predictions, {
            record.scene_id: ranked for record, ranked in zip(records, ranked_lists)
        })
        outputs.append(args.dump_predictions)
    _write_manifest(args.out, "eval", {"ks_recall": list(ks_recall), "ks_pair": list(ks_pair),
                                       "graph_constraint": constraint},
                    args.seed, inputs, outputs, time.perf_counter() - t0)
    shown = " ".join(f"{m}@{k} {v:.3f}" for _, m, k, v in aggregate)
    print(f"{len(records)} scenes | {shown}")
    return 0


def _infer_category_counts(records: list[SceneRecord]) -> tuple[int, int]:
    n_ent = 1 + max((node.label for r in records for node in r.nodes), default=0)
    n_pred = 1 + max((edge.predicate for r in records for edge in r.edges), default=0)
    return n_ent, n_pred


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    records = read_scenes(args.corpus)
    if not records:
        raise ValueError(f"{args.corpus}: corpus is empty")
    meta_path = f"{args.corpus}.meta.json"
    if os.path.exists(meta_path):
        spec = _load_corpus_spec(args.corpus)
        n_ent, n_pred = spec.n_entity_categories, spec.n_predicate_categories
    else:
        n_ent, n_pred = _infer_category_counts(records)
    table = CooccurrenceTable.from_scenes(records, n_ent, n_pred)
    os.makedirs(args.out_dir, exist_ok=True)

    variance_path = os.path.join(args.out_dir, "variance.csv")
    _write_csv(variance_path, ["predicate", "variance"],
               [[p, intra_class_variance(table, p)] for p in range(n_pred)])

    nonzero = [p for p in range(n_pred) if table.counts[p].sum() > 0]
    distance_rows = [
        [i, j, inter_class_distance(table, i, j)]
        for idx, i in enumerate(nonzero)
        for j in nonzero[idx + 1:]
    ]
    distance_path = os.path.join(args.out_dir, "distance.csv")
    _write_csv(distance_path, ["predicate_i", "predicate_j", "distance"], distance_rows)

    curve_rows = []
    for conditioning in ((), ("head",), ("tail",), ("head", "tail")):
        curve = guess_curve(records, records, conditioning, target="edge", k_max=args.k_max)
        label = "+".join(conditioning)
        curve_rows += [[label, k + 1, curve[k]] for k in range(len(curve))]
    curves_path = os.path.join(args.out_dir, "guess_curves.csv")
    _write_csv(curves_path, ["conditioning", "k", "fraction"], curve_rows)

    manifest_base = os.path.join(args.out_dir, "analyze")
    _write_manifest(manifest_base, "analyze", {"k_max": args.k_max}, args.seed,
                    [args.corpus], [variance_path, distance_path, curves_path],
                    time.perf_counter() - t0)
    print(f"wrote {variance_path}, {distance_path}, {curves_path}")
    return 0


def cmd_br_build(args) -> int:
    t0 = time.perf_counter()
    records = read_scenes(args.corpus)
    subset, summary = build_bidirectional_subset(records)
    write_scenes(args.out, subset)
    summary_path = f"{args.out}.summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    _write_manifest(args.out, "br-build", {}, args.seed, [args.corpus],
                    [args.out, summary_path], time.perf_counter() - t0)
    print(f"kept {summary['scenes_retained']} of {summary['scenes_in']} scenes, "
          f"{summary['pairs']} bidirectional pairs")
    return 0


def cmd_guess_curve(args) -> int:
    t0 = time.perf_counter()
    train_records = read_scenes(args.train_corpus)
    eval_records = read_scenes(args.eval_corpus) if args.eval_corpus else train_records
    conditioning = tuple(part.strip() for part in args.conditioning.split(",") if part.strip())
    curve = guess_curve(train_records, eval_records, conditioning,
                        target=args.target, k_max=args.k_max)
    label = "+".join(conditioning)
    _write_csv(args.out, ["conditioning", "k", "fraction"],
               [[label, k + 1, curve[k]] for k in range(len(curve))])
    inputs = [args.train_corpus] + ([args.eval_corpus] if args.eval_corpus else [])
    _write_manifest(args.out, "guess-curve",
                    {"conditioning": list(conditioning), "target": args.target, "k_max": args.k_max},
                    args.seed, inputs, [args.out], time.perf_counter() - t0)
    print(f"top-1 {curve[0]:.4f} .. top-{len(curve)} {curve[-1]:.4f} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="override the config seed")
    shared.add_argument("--config", default=None, help="flat key = value config file")

    parser = argparse.ArgumentParser(prog="sggkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[shared], help="write a planted-rule corpus")
    p.add_argument("--out", required=True, help="corpus path (.sgjsonl)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[shared], help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--holdout", type=int, default=50, help="scenes reserved for held-out metrics")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.add_argument("--metrics-every", type=int, default=1, help="epochs between held-out evaluations")
    p.add_argument("--ks-recall", default="20,50,100")
    p.add_argument("--ks-pair", default="2,4,8,16")
    p.add_argument("--log-csv", default=None, help="epoch log path (default <out>.log.csv)")
    p.add_argument("--no-lih", action="store_true", help="disable node attention refinement")
    p.add_argument("--no-dse", action="store_true", help="union-box fusion only")
    p.add_argument("--no-gih", action="store_true", help="disable message passing")
    p.add_argument("--no-ar", action="store_true", help="drop the attract/repel loss term")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[shared], help="score a checkpoint or prediction file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--predictions", default=None, help=".pred.jsonl scored triplets per scene")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--ks-recall", default="20,50,100")
    p.add_argument("--ks-pair", default="2,4,8,16")
    p.add_argument("--unconstrained", action="store_true",
                   help="rank every predicate per pair instead of the best one")
    p.add_argument("--dump-predictions", default=None, help="also write ranked triplets (.pred.jsonl)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", parents=[shared],
                       help="co-occurrence variance, pairwise distance, guess curves")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k-max", type=int, default=5)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("br-build", parents=[shared], help="keep only bidirectional pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="subset corpus path")
    p.set_defaults(func=cmd_br_build)

    p = sub.add_parser("guess-curve", parents=[shared],
                       help="frequency-lookup top-k accuracy for one conditioning set")
    p.add_argument("--train-corpus", required=True)
    p.add_argument("--eval-corpus", default=None, help="defaults to the training corpus")
    p.add_argument("--conditioning", default="", help="comma list from head, tail, h2t, t2h")
    p.add_argument("--target", default="edge", choices=("head", "tail", "edge"))
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_guess_curve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
