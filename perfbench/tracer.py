"""Span tracing for the sggkit benchmark, installed from outside the program.

`Tracer.install` replaces names that sggkit's modules look up at call time
(module globals such as ``sggkit.model.lih_forward_batch`` or
``sggkit.cli.predict_scene``, plus the class attribute ``Model.forward`` and
the ``Tape`` class that ``model.train`` instantiates) with wrappers that
record one span per call; `uninstall` puts the originals back. Nothing in
the package itself changes.

Spans stay in memory as ``[name, start, end, parent]`` rows, with
``time.perf_counter`` times and the parent's row index (-1 for a root), and
are written out once by `write`. A span's layer is its name up to the first
dot; its self time is its duration minus that of its child spans.

Backward time is split by tape-record range. While a tape is active, every
wrapped call that owns tape records claims the records it appended that no
inner wrapped call claimed first. `Tape.backward` then times each record's
closure and adds the time to its owner, so ``local_attention`` gets the
backward of exactly the records ``lih_forward_batch`` appended.

Each SGD step is a ``model.step`` span that opens when ``train`` creates the
step's tape and closes at the next step, at ``evaluate`` or when ``train``
returns. Its self time is what the step does outside the forward, loss,
backward and reference-bank calls, which is the optimizer update.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

perf = time.perf_counter

LAYERS = ("autodiff", "local_attention", "fusion", "propagation", "attract_repel",
          "model", "metrics", "data", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.bwd_s: dict[str, float] = defaultdict(float)  # backward seconds per record owner
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tape = None
        self._owner: list[str | None] = []
        self._step: int | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span idx and any span still open inside it."""
        now = perf()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == self._step:
                self._step = None
            if top == idx:
                return

    def end_step(self) -> None:
        if self._step is not None:
            self.close(self._step)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner_obj, attr: str, replacement) -> None:
        self._patches.append((owner_obj, attr, getattr(owner_obj, attr)))
        setattr(owner_obj, attr, replacement)

    def _claim(self, first: int, last: int, owner: str) -> None:
        claimed = self._owner
        if len(claimed) < last:
            claimed.extend([None] * (last - len(claimed)))
        for i in range(first, last):
            if claimed[i] is None:
                claimed[i] = owner

    def _wrap(self, fn, name, owner=None, eval_name=None, before=None, after=None):
        """Span around fn; owner claims tape records, eval_name names tape-less calls."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            tape = tracer._tape
            span = name if tape is not None or eval_name is None else eval_name
            first = len(tape.records) if tape is not None else 0
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if owner is not None and tape is not None:
                    tracer._claim(first, len(tape.records), owner)
            if after is not None:
                after(result)
            return result

        return traced

    def _ar_loss(self, fn):
        """attract_repel_loss plus the skipped/attempted pair counts it implies."""
        tracer = self
        traced = self._wrap(fn, "attract_repel.loss", owner="attract_repel")

        @functools.wraps(fn)
        def counted(bank, embeddings, labels, negatives, skip_category=None):
            before = bank.skipped_pairs
            result = traced(bank, embeddings, labels, negatives, skip_category=skip_category)
            labels = [int(x) for x in labels]
            clustered = {m for m in labels if m != skip_category}
            tracer.counts["ar_pairs"] += (sum(1 for m in labels if m in clustered)
                                          + sum(len(negatives.get(m, ())) for m in clustered))
            tracer.counts["ar_skipped"] += bank.skipped_pairs - before
            return result

        return counted

    def _tape_class(self, base):
        tracer = self

        class TracedTape(base):
            def __init__(self):
                super().__init__()
                tracer.end_step()
                tracer._step = tracer.open("model.step")

            def __enter__(self):
                tracer._tape = self
                tracer._owner = []
                return super().__enter__()

            def __exit__(self, exc_type, exc, tb):
                tracer._tape = None
                return super().__exit__(exc_type, exc, tb)

            def backward(self, loss):
                records = self.records
                tracer._claim(0, len(records), "autodiff")
                for i, (op, out, fn) in enumerate(records):
                    records[i] = (op, out, tracer._timed(fn, tracer._owner[i]))
                tracer.counts["tape_records"] += len(records)
                tracer.counts["lih_records"] += tracer._owner.count("local_attention")
                tracer.call("autodiff.backward", super().backward, loss)

        return TracedTape

    def _timed(self, fn, owner: str):
        bwd_s = self.bwd_s

        def timed(g):
            t0 = perf()
            fn(g)
            bwd_s[owner] += perf() - t0

        return timed

    def _count_scenes(self, records) -> None:
        self.counts["generated_scenes"] += len(records)

    def install(self, cli, model) -> None:
        """Wrap the names sggkit.cli and sggkit.model call through."""
        w = self._wrap
        self._patch(cli, "generate", w(cli.generate, "data.generate", after=self._count_scenes))
        for attr, span in (("write_scenes", "data.write_scenes"), ("read_scenes", "data.read_scenes"),
                           ("read_predictions", "data.read_predictions"),
                           ("write_predictions", "data.write_predictions"),
                           ("train", "model.train"), ("save_checkpoint", "model.checkpoint_save"),
                           ("load_checkpoint", "model.checkpoint_load"),
                           ("prepare_scene", "model.prepare_scene"),
                           ("predict_scene", "model.predict_scene"), ("rank_triplets", "metrics.rank"),
                           ("corpus_recall_at_k", "metrics.corpus"), ("mean_recall_at_k", "metrics.corpus"),
                           ("corpus_pairwise_recall_at_k", "metrics.corpus"),
                           ("_scene_rows", "cli.scene_rows")):
            self._patch(cli, attr, w(getattr(cli, attr), span))
        for attr, span, owner in (("prepare_scene", "model.prepare_scene", None),
                                  ("build_adjacency", "propagation.build_adjacency", None),
                                  ("lih_forward_batch", "local_attention.forward", "local_attention"),
                                  ("encode_edges", "fusion.forward", "fusion"),
                                  ("propagate", "propagation.forward", "propagation"),
                                  ("total_loss", "model.total_loss", "model.total_loss"),
                                  ("sample_negatives", "attract_repel.sample", None),
                                  ("update_references", "attract_repel.update", None),
                                  ("predict_scene", "model.predict_scene", None),
                                  ("ranked_from_scores", "metrics.rank", None),
                                  ("corpus_recall_at_k", "metrics.corpus", None),
                                  ("mean_recall_at_k", "metrics.corpus", None),
                                  ("corpus_pairwise_recall_at_k", "metrics.corpus", None)):
            self._patch(model, attr, w(getattr(model, attr), span, owner=owner))
        self._patch(model, "evaluate", w(model.evaluate, "model.evaluate", before=self.end_step))
        self._patch(model, "attract_repel_loss", self._ar_loss(model.attract_repel_loss))
        self._patch(model, "Tape", self._tape_class(model.Tape))
        self._patch(model.Model, "forward", w(model.Model.forward, "model.forward",
                                              owner="model.forward", eval_name="model.forward_eval"))

    def uninstall(self) -> None:
        while self._patches:
            owner_obj, attr, original = self._patches.pop()
            setattr(owner_obj, attr, original)
        self._tape = None

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, _total, self_s) in self.summary().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def root_s(self) -> float:
        return sum(end - start for _name, start, end, parent in self.spans if parent < 0)

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], (s - t0) * 1e6, (e - t0) * 1e6, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "time_unit": "us", "columns": ["name", "start", "end", "parent"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def verify(spans: list[list], tolerance: float = 1e-9) -> list[str]:
    """Problems with the span tree: open spans, children outside parents,
    negative self time, or a root whose subtree self times do not add up to it."""
    problems = []
    child = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} is not closed")
            continue
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if parent >= i or p_end is None or start < p_start or end > p_end:
                problems.append(f"span {i} {name} lies outside its parent {p_name}")
            child[parent] += end - start
    subtree_self = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        if end is None:
            continue
        self_s = end - start - child[i]
        if self_s < -tolerance:
            problems.append(f"span {i} {name} has negative self time {self_s}")
        subtree_self[i] += self_s
        if parent >= 0:
            subtree_self[parent] += subtree_self[i]
        elif abs(subtree_self[i] - (end - start)) > tolerance * max(1.0, end - start):
            problems.append(f"root {name}: self times add to {subtree_self[i]}, wall {end - start}")
    return problems
