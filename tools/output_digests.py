"""Digest every output of a fixed sggkit sweep, to compare two checkouts byte for byte.

    python3 tools/output_digests.py --src <checkout>/src --out digests.json

imports sggkit from ``--src`` and runs its CLI in this process, in a temporary
directory, with BLAS pinned to one thread and every ``SGGKIT_*`` variable
removed from the environment (checkouts before the environment layer was
dropped read one per config field), so each checkout runs the same configs:

* ``generate`` writes one 160-scene corpus (seed 501); ``analyze``,
  ``br-build`` and ``guess-curve --conditioning head,tail`` run on it, under
  ``analysis/``;
* for each fusion x propagation variant, with and without LIH (``gih_layers``
  2), ``train --epochs 2 --metrics-every 1 --holdout 40``; then ``eval
  --checkpoint`` constrained and ``--unconstrained``, each with
  ``--dump-predictions``; then ``eval --predictions`` on each dump;
* ``generate`` writes a 12-scene corpus of 17 nodes per scene (seed 517),
  where the gih product's float order departs most from a dense one; the
  parallel-gih-lih and parallel-none-lih models train and evaluate on it as
  above (``--holdout 4``), under ``n17/``;
* every other generated corpus has two context tables, so its rotation of
  the switched pairs moves by one and never wraps; ``generate`` also writes
  a 60-scene corpus with six context tables and five switched pairs over 40
  entity categories (seed 521), under ``rotation/``, whose scenes use all six
  tables and whose table 5 wraps back to table 0's assignments;
* ``eval --checkpoint`` of the parallel-gih-lih model, constrained and
  ``--unconstrained`` with ``--dump-predictions``, on a stress copy of the
  corpus: its sidecar sets a corpus seed beyond 2**32, ``logit_flip_rate``
  0.5 and ``scene_offset_sigma`` 0.3, and a third of its appearance seeds lie
  beyond 2**32. These outputs change when a node's appearance or observed
  label is drawn from another generator state, for any seed width. A
  parallel-gih-lih model also trains and evaluates on the stress copy as
  above (``--holdout 40``), under ``stress/parallel-gih-lih/``, so training
  and its held-out evaluation draw their features with those seeds too;
* generated scenes hold one bidirectional pair and at most two predicate
  categories each, so the sweep also writes a multi-pair corpus (seed 601):
  scenes with 2 to 4 bidirectional pairs, one-way edges and up to 6 predicate
  categories, plus scored triplets for it with tied scores and repeated
  triplets. The tool writes both as plain JSON lines itself, so every checkout
  scores the same bytes, and scores them with ``eval --predictions`` at the
  default ks, at the overlapping ``--ks-recall 2,4 --ks-pair 2,4`` and at
  ``--ks-recall 1,500 --ks-pair 1,3``, whose k = 1 and k past every ranked
  list are the early-stop and short-list edges of the one scan per scene.
  These outputs change when per-scene mR sums its categories in another
  order or when pR pools pairs differently;
* the multi-pair corpus has no sidecar, so ``analyze``, ``br-build`` and
  ``guess-curve --eval-corpus`` (trained on the 160-scene corpus) run on it
  too, under ``multipair/``: their manifests list no sidecar and br-build
  writes none. Its one-way edges leave the tail-to-head predicate missing,
  so ``guess-curve`` also runs on it alone with ``--conditioning t2h``,
  ``--target head --conditioning tail,t2h`` and ``--target tail
  --conditioning head,h2t``, where a missing t2h is a context of its own;
  each writes a curve CSV and its manifest. One ``train --epochs 1 --holdout
  40 --log-csv`` on the 160-scene corpus, under ``logged/``, writes no
  default epoch log.

``--out`` maps every file the sweep wrote (path relative to the temporary
directory) to its sha256. A manifest is hashed with ``wall_clock_seconds``
removed, the only field that differs between equal runs. Two checkouts
produce the same outputs when ``diff`` finds their digest files equal.

    python3 tools/output_digests.py --src <checkout>/src --compare <parent>/src --out report.json

checks a change that may move last digits. Each checkout runs the sweep in a
subprocess; then, from every checkpoint the parent trained (and the stress
evaluation's), each builds the model from the checkpoint's config and
params and computes one training step on the corpus's first scene (loss and
every parameter gradient, the AR term against a fresh reference bank that
has absorbed that scene once), the edge logits of every scene, and
the ``eval --checkpoint`` CSVs, ranked lists and their ``eval --predictions``
CSVs. Per variant, the change passes when every loss, gradient, logit and
ranked score lies within 1e-12 of the parent's, relative to max(1, |parent|);
its ranked lists equal the parent's except for order among triplets whose
parent scores tie within that tolerance; and its metric CSVs are byte-equal.
The report gives each variant's largest differences and the drift of the
parameters the change trained itself, which is not gated (training
amplifies last-digit changes), plus the sweep files whose digests differ.
It exits 1 when a variant fails.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
for _var in [name for name in os.environ if name.startswith("SGGKIT_")]:
    del os.environ[_var]

import numpy as np  # noqa: E402  (after the BLAS thread pins)

# fixed here rather than read from sggkit, so that every checkout runs the same sweep
FUSIONS = ("union", "concat", "sequential", "parallel")
PROPAGATIONS = ("gih", "gcn", "gat", "none")
TAGS = [f"{fusion}-{propagation}-{lih}" for fusion in FUSIONS for propagation in PROPAGATIONS
        for lih in ("lih", "nolih")]
N17_TAGS = [f"n17/{tag}" for tag in ("parallel-gih-lih", "parallel-none-lih")]  # trained on the N = 17 corpus
STRESS_TAG = "stress/parallel-gih-lih"  # trained on the stress corpus
TOLERANCE = 1e-12  # relative to max(1, |parent value|)


def run(main, argv: list[str]) -> None:
    """One CLI command, run in this process with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"sggkit {' '.join(argv)} exited {code}")


def write_multi_pair(corpus: str, predictions: str, n_scenes: int = 40, seed: int = 601) -> None:
    """A corpus whose scenes hold several bidirectional pairs, and scored triplets for it."""
    rng = random.Random(seed)
    with open(corpus, "w", encoding="utf-8") as scenes, open(predictions, "w", encoding="utf-8") as preds:
        for idx in range(n_scenes):
            ids = rng.sample(range(40), rng.randint(6, 9))  # out of row order, not contiguous
            nodes = []
            for node_id in ids:
                x1, x2 = sorted(round(rng.random(), 3) for _ in range(2))
                y1, y2 = sorted(round(rng.random(), 3) for _ in range(2))
                nodes.append({"id": node_id, "label": rng.randint(1, 10), "box": [x1, y1, x2, y2],
                              "appearance_seed": rng.randrange(2**31)})
            n_bidirectional = rng.randint(2, 4)
            pairs = rng.sample([(a, b) for a in ids for b in ids if a < b], n_bidirectional + rng.randint(0, 3))
            edges = {}
            for n, (a, b) in enumerate(pairs):
                edges[(a, b)] = rng.randint(1, 6)
                if n < n_bidirectional:
                    edges[(b, a)] = rng.randint(1, 6)
            scene_id = f"multi-{idx:03d}"
            scenes.write(json.dumps({
                "scene_id": scene_id, "nodes": nodes,
                "edges": [{"subject": s, "object": o, "predicate": p} for (s, o), p in edges.items()],
            }, sort_keys=True) + "\n")
            # scores on a coarse grid, so ties are common; true triplets score higher on average
            triplets = []
            for (s, o), p in edges.items():
                if rng.random() < 0.8:
                    triplets.append([s, o, p, rng.randint(4, 10) / 10])
                if rng.random() < 0.5:
                    triplets.append([s, o, rng.randint(1, 6), rng.randint(0, 8) / 10])
            for _ in range(rng.randint(3, 12)):
                s, o = rng.sample(ids, 2)
                triplets.append([s, o, rng.randint(1, 6), rng.randint(0, 6) / 10])
            triplets += rng.sample(triplets, min(3, len(triplets)))  # repeated triplets
            preds.write(json.dumps({"scene_id": scene_id, "triplets": triplets}, sort_keys=True) + "\n")


def write_stress_corpus(corpus: str, stress: str, seed: int = 701) -> None:
    """A copy of `corpus` whose feature synthesis takes the rarely used paths.

    Its sidecar sets a corpus seed beyond 2**32, logit_flip_rate 0.5 and a
    scene offset; a third of the nodes get appearance seeds beyond 2**32, so
    their generators are seeded from five 32-bit words, the others' from four.
    """
    rng = random.Random(seed)
    with open(corpus, encoding="utf-8") as src, open(stress, "w", encoding="utf-8") as dst:
        for line in src:
            scene = json.loads(line)
            for node in scene["nodes"]:
                if rng.random() < 1 / 3:
                    node["appearance_seed"] = rng.randrange(2**32, 2**63)
            dst.write(json.dumps(scene, sort_keys=True) + "\n")
    with open(f"{corpus}.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["spec"].update(seed=2**40 + 501, logit_flip_rate=0.5, scene_offset_sigma=0.3)
    with open(f"{stress}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)


def evaluate(main, corpus: str, ckpt: str, out_dir: str, rescore: bool) -> None:
    """eval --checkpoint constrained and --unconstrained with dumps into out_dir, each dump rescored if asked."""
    for mode, flags in (("constrained", []), ("unconstrained", ["--unconstrained"])):
        dump = f"{out_dir}/{mode}.pred.jsonl"
        run(main, ["eval", "--corpus", corpus, "--checkpoint", ckpt,
                   "--out", f"{out_dir}/{mode}.csv", "--dump-predictions", dump, *flags])
        if rescore:
            run(main, ["eval", "--corpus", corpus, "--predictions", dump, "--out", f"{out_dir}/{mode}.rescore.csv"])


def train_and_evaluate(main, corpus: str, tag: str, holdout: int) -> None:
    """Train the model a tag names (fusion-propagation-lih, after any directory) into tag/, then evaluate it."""
    fusion, propagation, lih = os.path.basename(tag).split("-")
    os.makedirs(tag)
    cfg = f"{tag}/model.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(f"fusion = {fusion}\ngih_variant = {propagation}\n"
                 f"use_lih = {str(lih == 'lih').lower()}\ngih_layers = 2\n")
    ckpt = f"{tag}/model.ckpt.json"
    run(main, ["train", "--corpus", corpus, "--out", ckpt, "--config", cfg,
               "--epochs", "2", "--metrics-every", "1", "--holdout", str(holdout)])
    evaluate(main, corpus, ckpt, tag, rescore=True)


def sweep(main) -> None:
    """Write every output of the sweep into the current directory."""
    with open("gen.cfg", "w", encoding="utf-8") as fh:
        fh.write("n_scenes = 160\n")
    run(main, ["generate", "--out", "corpus.sgjsonl", "--config", "gen.cfg", "--seed", "501"])
    os.mkdir("analysis")
    run(main, ["analyze", "--corpus", "corpus.sgjsonl", "--out-dir", "analysis"])
    run(main, ["br-build", "--corpus", "corpus.sgjsonl", "--out", "analysis/br.sgjsonl"])
    run(main, ["guess-curve", "--train-corpus", "corpus.sgjsonl", "--conditioning", "head,tail",
               "--out", "analysis/guess_head_tail.csv"])
    for tag in TAGS:
        train_and_evaluate(main, "corpus.sgjsonl", tag, 40)
    os.mkdir("n17")
    with open("n17/gen.cfg", "w", encoding="utf-8") as fh:
        fh.write("n_scenes = 12\nnodes_per_scene = 17\n")
    run(main, ["generate", "--out", "n17/corpus.sgjsonl", "--config", "n17/gen.cfg", "--seed", "517"])
    for tag in N17_TAGS:
        train_and_evaluate(main, "n17/corpus.sgjsonl", tag, 4)
    os.mkdir("rotation")
    with open("rotation/gen.cfg", "w", encoding="utf-8") as fh:
        fh.write("n_entity_categories = 40\ncontext_categories = 6\ncontext_switched_pairs = 5\nn_scenes = 60\n")
    run(main, ["generate", "--out", "rotation/corpus.sgjsonl", "--config", "rotation/gen.cfg", "--seed", "521"])
    os.mkdir("stress")
    write_stress_corpus("corpus.sgjsonl", "stress/corpus.sgjsonl")
    evaluate(main, "stress/corpus.sgjsonl", "parallel-gih-lih/model.ckpt.json", "stress", rescore=False)
    train_and_evaluate(main, "stress/corpus.sgjsonl", STRESS_TAG, 40)
    os.mkdir("multipair")
    write_multi_pair("multipair/corpus.sgjsonl", "multipair/scores.pred.jsonl")
    for name, flags in (("default", []), ("overlap", ["--ks-recall", "2,4", "--ks-pair", "2,4"]),
                        ("extremes", ["--ks-recall", "1,500", "--ks-pair", "1,3"])):
        run(main, ["eval", "--corpus", "multipair/corpus.sgjsonl", "--predictions", "multipair/scores.pred.jsonl",
                   "--out", f"multipair/{name}.csv", *flags])
    run(main, ["analyze", "--corpus", "multipair/corpus.sgjsonl", "--out-dir", "multipair/analysis"])
    run(main, ["br-build", "--corpus", "multipair/corpus.sgjsonl", "--out", "multipair/br.sgjsonl"])
    run(main, ["guess-curve", "--train-corpus", "corpus.sgjsonl", "--eval-corpus", "multipair/corpus.sgjsonl",
               "--out", "multipair/guess_cross.csv"])
    for name, flags in (("t2h", ["--conditioning", "t2h"]),
                        ("head_tail_t2h", ["--target", "head", "--conditioning", "tail,t2h"]),
                        ("tail_head_h2t", ["--target", "tail", "--conditioning", "head,h2t"])):
        run(main, ["guess-curve", "--train-corpus", "multipair/corpus.sgjsonl", *flags,
                   "--out", f"multipair/guess_{name}.csv"])
    os.mkdir("logged")
    run(main, ["train", "--corpus", "corpus.sgjsonl", "--out", "logged/model.ckpt.json", "--epochs", "1",
               "--holdout", "40", "--log-csv", "logged/epochs.csv"])


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_clock_seconds")
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# compare mode


def probe(main, reference: str) -> None:
    """This checkout's outputs from the checkpoints and corpora of the sweep in `reference`, under probe/.

    Per variant, the N = 17 and stress-trained ones included, and for the stress evaluation:
    step.npz (one training step's loss and parameter gradients on the
    corpus's first scene), logits.npz (every scene's edge logits) and the
    eval CSVs and dumps.
    """
    from sggkit.attract_repel import ReferenceBank, sample_negatives, update_references
    from sggkit.autodiff import Tape
    from sggkit.data import PREDICATE_NO_RELATION, GeneratorSpec, read_scenes
    from sggkit.model import Model, ModelConfig, prepare_scene, total_loss

    runs = ([(tag, tag, "corpus.sgjsonl") for tag in TAGS] + [(tag, tag, "n17/corpus.sgjsonl") for tag in N17_TAGS]
            + [("stress", "parallel-gih-lih", "stress/corpus.sgjsonl"),
               (STRESS_TAG, STRESS_TAG, "stress/corpus.sgjsonl")])
    for tag, ckpt_tag, corpus_name in runs:
        out_dir = f"probe/{tag}"
        ckpt = os.path.join(reference, ckpt_tag, "model.ckpt.json")
        corpus = os.path.join(reference, corpus_name)
        os.makedirs(out_dir)
        evaluate(main, corpus, ckpt, out_dir, rescore=True)
        with open(ckpt, encoding="utf-8") as fh:
            saved = json.load(fh)
        model = Model(ModelConfig.from_dict(saved["config"]), saved=saved["params"])
        with open(f"{corpus}.meta.json", encoding="utf-8") as fh:
            spec = GeneratorSpec.from_dict(json.load(fh)["spec"])
        preps = [prepare_scene(record, spec) for record in read_scenes(corpus)]
        np.savez(f"{out_dir}/logits.npz", **{prep.scene_id: model.forward(prep).edge_logits.data for prep in preps})
        prep = preps[0]
        bank = ReferenceBank(model.config.n_predicate_categories, model.config.d_edge)
        update_references(bank, model.forward(prep).edge_embeddings.data, prep.edge_labels,
                          sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION),
                          skip_category=PREDICATE_NO_RELATION)
        with Tape() as tape:
            out = model.forward(prep)
            negatives = (sample_negatives(bank, prep.edge_labels, skip_category=PREDICATE_NO_RELATION)
                         if model.config.w_ar else None)
            loss, _ = total_loss(out, prep, bank, model.config, negatives)
            tape.backward(loss)
        grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
        np.savez(f"{out_dir}/step.npz", loss=loss.data, **grads)


def rel_diff(new, old) -> float:
    """max |new - old| / max(1, |old|) over two arrays; inf when their shapes differ."""
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    if new.shape != old.shape:
        return float("inf")
    return float((np.abs(new - old) / np.maximum(1.0, np.abs(old))).max(initial=0.0))


def npz_diff(new_path: str, old_path: str) -> float:
    """rel_diff over every array of two .npz files; inf when their keys differ."""
    with np.load(new_path) as new, np.load(old_path) as old:
        if set(new.files) != set(old.files):
            return float("inf")
        return max(rel_diff(new[key], old[key]) for key in old.files)


def ranked_diff(new_path: str, old_path: str) -> tuple[float, int, int]:
    """(largest score difference, triplets moved among parent ties, triplets out of place) over two dumps.

    A parent tie group is a run of its ranked list whose consecutive scores lie
    within TOLERANCE; the change may order each group's triplets freely.
    """
    with open(new_path, encoding="utf-8") as fh:
        new_lines = [json.loads(line) for line in fh]
    with open(old_path, encoding="utf-8") as fh:
        old_lines = [json.loads(line) for line in fh]
    worst, moved, wrong = 0.0, 0, 0
    if [line["scene_id"] for line in new_lines] != [line["scene_id"] for line in old_lines]:
        return float("inf"), 0, sum(len(line["triplets"]) for line in old_lines)
    for new_line, old_line in zip(new_lines, old_lines):
        new, old = new_line["triplets"], old_line["triplets"]
        if len(new) != len(old):
            wrong += max(len(new), len(old))
            continue
        lo = 0
        for hi in range(1, len(old) + 1):
            if hi < len(old) and old[hi - 1][3] - old[hi][3] <= TOLERANCE * max(1.0, abs(old[hi - 1][3])):
                continue
            new_scores = {tuple(t[:3]): t[3] for t in new[lo:hi]}
            old_scores = {tuple(t[:3]): t[3] for t in old[lo:hi]}
            if new_scores.keys() != old_scores.keys():
                wrong += hi - lo
            else:
                moved += sum(a[:3] != b[:3] for a, b in zip(new[lo:hi], old[lo:hi]))
                worst = max(worst, max(abs(new_scores[t] - s) / max(1.0, abs(s)) for t, s in old_scores.items()))
            lo = hi
    return worst, moved, wrong


def trained_drift(new_ckpt: str, old_ckpt: str) -> float:
    """rel_diff over the parameters of two checkpoints trained by the sweep."""
    with open(new_ckpt, encoding="utf-8") as fh:
        new = json.load(fh)["params"]
    with open(old_ckpt, encoding="utf-8") as fh:
        old = json.load(fh)["params"]
    if new.keys() != old.keys():
        return float("inf")
    return max(rel_diff(new[name], old[name]) for name in old)


def compare_variant(cand: str, ref: str, tag: str) -> dict:
    new, old = os.path.join(cand, "probe", tag), os.path.join(ref, "probe", tag)
    row = {"step": npz_diff(f"{new}/step.npz", f"{old}/step.npz"),
           "logits": npz_diff(f"{new}/logits.npz", f"{old}/logits.npz"),
           "scores": 0.0, "tie_moves": 0, "misranked": 0, "csv_equal": True}
    for mode in ("constrained", "unconstrained"):
        worst, moved, wrong = ranked_diff(f"{new}/{mode}.pred.jsonl", f"{old}/{mode}.pred.jsonl")
        row["scores"] = max(row["scores"], worst)
        row["tie_moves"] += moved
        row["misranked"] += wrong
        for csv_name in (f"{mode}.csv", f"{mode}.rescore.csv"):
            row["csv_equal"] &= filecmp.cmp(f"{new}/{csv_name}", f"{old}/{csv_name}", shallow=False)
    row["pass"] = (max(row["step"], row["logits"], row["scores"]) <= TOLERANCE
                   and row["misranked"] == 0 and row["csv_equal"])
    trained = os.path.join(tag, "model.ckpt.json")
    row["trained_drift"] = None  # the stress evaluation trains nothing
    if os.path.exists(os.path.join(ref, trained)):
        row["trained_drift"] = trained_drift(os.path.join(cand, trained), os.path.join(ref, trained))
    return row


def compare(parent_src: str, src: str, out: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ref, cand = os.path.join(tmp, "parent"), os.path.join(tmp, "change")
        for checkout, work in ((parent_src, ref), (src, cand)):
            subprocess.run([sys.executable, os.path.abspath(__file__), "--src", checkout,
                            "--out", f"{work}.digests.json", "--workdir", work, "--probe-from", ref], check=True)
        rows = {tag: compare_variant(cand, ref, tag) for tag in [*TAGS, *N17_TAGS, "stress", STRESS_TAG]}
        with open(f"{ref}.digests.json", encoding="utf-8") as fh:
            old_digests = json.load(fh)
        with open(f"{cand}.digests.json", encoding="utf-8") as fh:
            new_digests = json.load(fh)
    changed = sorted(name for name in old_digests.keys() | new_digests.keys()
                     if old_digests.get(name) != new_digests.get(name))
    report = {"tolerance": TOLERANCE, "variants": rows, "changed_digests": changed,
              "pass": all(row["pass"] for row in rows.values())}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"{'variant':<24}{'step':>10}{'logits':>10}{'scores':>10}{'tie moves':>10}{'misranked':>10}"
          f"{'csv':>6}{'drift':>10}  result")
    for tag, row in rows.items():
        drift = "-" if row["trained_drift"] is None else f"{row['trained_drift']:.1e}"
        print(f"{tag:<24}{row['step']:>10.1e}{row['logits']:>10.1e}{row['scores']:>10.1e}{row['tie_moves']:>10}"
              f"{row['misranked']:>10}{'equal' if row['csv_equal'] else 'DIFF':>6}{drift:>10}  "
              f"{'pass' if row['pass'] else 'FAIL'}")
    print(f"{len(changed)} of {len(old_digests)} sweep digests differ; "
          f"{sum(row['pass'] for row in rows.values())} of {len(rows)} variants pass; report in {out}")
    return 0 if report["pass"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of the checkout to run")
    ap.add_argument("--out", required=True, help="digest JSON path, or with --compare the report JSON path")
    ap.add_argument("--compare", metavar="PARENT_SRC", help="check --src against this parent src/ directory")
    ap.add_argument("--workdir", help=argparse.SUPPRESS)  # compare mode: sweep here and keep the outputs
    ap.add_argument("--probe-from", help=argparse.SUPPRESS)  # compare mode: probe this workdir's checkpoints
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    out = os.path.abspath(args.out)
    reference = os.path.abspath(args.probe_from) if args.probe_from else None
    if args.compare:
        return compare(os.path.abspath(args.compare), src, out)
    sys.path.insert(0, src)
    import sggkit.cli

    if not os.path.abspath(sggkit.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported sggkit from {sggkit.cli.__file__}, not from {src}")
    start = os.getcwd()
    with contextlib.ExitStack() as stack:
        work = args.workdir or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(work, exist_ok=True)
        os.chdir(work)
        try:
            sweep(sggkit.cli.main)
            digests = {os.path.relpath(os.path.join(root, name)): digest(os.path.join(root, name))
                       for root, _dirs, names in os.walk(".") for name in names}
            if reference:
                probe(sggkit.cli.main, reference)
        finally:
            os.chdir(start)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
