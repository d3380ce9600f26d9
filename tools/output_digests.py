"""Digest every output of a fixed sggkit sweep, to compare two checkouts byte for byte.

    python3 tools/output_digests.py --src <checkout>/src --out digests.json

imports sggkit from ``--src`` and runs its CLI in this process, in a temporary
directory, with BLAS pinned to one thread:

* ``generate`` writes one 160-scene corpus (seed 501);
* for each fusion x propagation variant, with and without LIH (``gih_layers``
  2), ``train --epochs 2 --metrics-every 1 --holdout 40``; then ``eval
  --checkpoint`` constrained and ``--unconstrained``, each with
  ``--dump-predictions``; then ``eval --predictions`` on each dump;
* ``eval --checkpoint`` of the parallel-gih-lih model, constrained and
  ``--unconstrained`` with ``--dump-predictions``, on a stress copy of the
  corpus: its sidecar sets a corpus seed beyond 2**32, ``logit_flip_rate``
  0.5 and ``scene_offset_sigma`` 0.3, and a third of its appearance seeds lie
  beyond 2**32. These outputs change when a node's appearance or observed
  label is drawn from another generator state, for any seed width;
* generated scenes hold one bidirectional pair and at most two predicate
  categories each, so the sweep also writes a multi-pair corpus (seed 601):
  scenes with 2 to 4 bidirectional pairs, one-way edges and up to 6 predicate
  categories, plus scored triplets for it with tied scores and repeated
  triplets. The tool writes both as plain JSON lines itself, so every checkout
  scores the same bytes, and scores them with ``eval --predictions`` at the
  default ks and at the overlapping ``--ks-recall 2,4 --ks-pair 2,4``. These
  outputs change when per-scene mR sums its categories in another order or
  when pR pools pairs differently.

``--out`` maps every file the sweep wrote (path relative to the temporary
directory) to its sha256. A manifest is hashed with ``wall_clock_seconds``
removed, the only field that differs between equal runs. Two checkouts
produce the same outputs when ``diff`` finds their digest files equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# fixed here rather than read from sggkit, so that every checkout runs the same sweep
FUSIONS = ("union", "concat", "sequential", "parallel")
PROPAGATIONS = ("gih", "gcn", "gat", "none")


def run(main, argv: list[str]) -> None:
    """One CLI command, recorded in its manifest as `sggkit <argv>`."""
    saved = sys.argv
    sys.argv = ["sggkit", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        sys.argv = saved
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


def sweep(main) -> None:
    """Write every output of the sweep into the current directory."""
    with open("gen.cfg", "w", encoding="utf-8") as fh:
        fh.write("n_scenes = 160\n")
    run(main, ["generate", "--out", "corpus.sgjsonl", "--config", "gen.cfg", "--seed", "501"])
    for fusion in FUSIONS:
        for propagation in PROPAGATIONS:
            for use_lih in (True, False):
                tag = f"{fusion}-{propagation}-{'lih' if use_lih else 'nolih'}"
                os.mkdir(tag)
                cfg = f"{tag}/model.cfg"
                with open(cfg, "w", encoding="utf-8") as fh:
                    fh.write(f"fusion = {fusion}\ngih_variant = {propagation}\n"
                             f"use_lih = {str(use_lih).lower()}\ngih_layers = 2\n")
                ckpt = f"{tag}/model.ckpt.json"
                run(main, ["train", "--corpus", "corpus.sgjsonl", "--out", ckpt, "--config", cfg,
                           "--epochs", "2", "--metrics-every", "1", "--holdout", "40"])
                for mode, flags in (("constrained", []), ("unconstrained", ["--unconstrained"])):
                    dump = f"{tag}/{mode}.pred.jsonl"
                    run(main, ["eval", "--corpus", "corpus.sgjsonl", "--checkpoint", ckpt,
                               "--out", f"{tag}/{mode}.csv", "--dump-predictions", dump, *flags])
                    run(main, ["eval", "--corpus", "corpus.sgjsonl", "--predictions", dump,
                               "--out", f"{tag}/{mode}.rescore.csv"])
    os.mkdir("stress")
    write_stress_corpus("corpus.sgjsonl", "stress/corpus.sgjsonl")
    for mode, flags in (("constrained", []), ("unconstrained", ["--unconstrained"])):
        run(main, ["eval", "--corpus", "stress/corpus.sgjsonl", "--checkpoint", "parallel-gih-lih/model.ckpt.json",
                   "--out", f"stress/{mode}.csv", "--dump-predictions", f"stress/{mode}.pred.jsonl", *flags])
    os.mkdir("multipair")
    write_multi_pair("multipair/corpus.sgjsonl", "multipair/scores.pred.jsonl")
    for name, flags in (("default", []), ("overlap", ["--ks-recall", "2,4", "--ks-pair", "2,4"])):
        run(main, ["eval", "--corpus", "multipair/corpus.sgjsonl", "--predictions", "multipair/scores.pred.jsonl",
                   "--out", f"multipair/{name}.csv", *flags])


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".manifest.json"):
        manifest = json.loads(data)
        manifest.pop("wall_clock_seconds")
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of the checkout to run")
    ap.add_argument("--out", required=True, help="digest JSON path")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    out = os.path.abspath(args.out)
    sys.path.insert(0, src)
    import sggkit.cli

    if not os.path.abspath(sggkit.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported sggkit from {sggkit.cli.__file__}, not from {src}")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            sweep(sggkit.cli.main)
            digests = {os.path.relpath(os.path.join(root, name)): digest(os.path.join(root, name))
                       for root, _dirs, names in os.walk(".") for name in names}
        finally:
            os.chdir(start)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
