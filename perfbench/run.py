"""sggkit benchmark: time the real CLI commands in-process and check their outputs.

Run from the repository root:

    python3 perfbench/run.py --workload train-n6 --seed 1 --seconds 35 --trace 0

One run is one process (peak RSS is a per-process high-water mark). It pins
BLAS to one thread before numpy loads, imports sggkit from ``src/`` of the
checkout it sits in and warms up on a tiny corpus. Then it sets up the
workload and repeats set-up, train, eval and rescore through
``sggkit.cli.main(argv)`` for about ``--seconds`` seconds. Every command's
exit code and outputs are checked; failures count into ``failed``.

The host's speed drifts by up to 1.5x over tens of seconds, so a reference
kernel (calibrate.py) runs about every 0.3 s between the program's steps and
scenes, and each stretch of a timing is scaled by the kernel's time at its
ends to the reference host's speed. Unscaled medians are in the report.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations, prints the per-layer metrics of the traced
ones, reports tracing overhead as traced minus untraced, and writes the spans
to ``.perfbench_out/trace-<workload>.json``.

The last stdout line is the result JSON; the line before it is a report with
the environment, sample counts, output digests and checks. See NOTES.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracer import LAYERS, Tracer, verify

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EPOCHS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_wall_s": "s",
    "train_steps_per_s": "1/s",
    "eval_wall_s": "s",
    "eval_scene_ms_p50": "ms",
    "eval_scene_ms_tail": "ms",
    "rescore_wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "autodiff.backward_ms": "ms",
    "autodiff.records_per_step": "count",
    "local_attention.fwd_ms": "ms",
    "local_attention.bwd_ms": "ms",
    "local_attention.records": "count",
    "fusion.fwd_ms": "ms",
    "fusion.bwd_ms": "ms",
    "propagation.fwd_ms": "ms",
    "propagation.bwd_ms": "ms",
    "propagation.build_adjacency_ms": "ms",
    "model.prepare_scene_ms": "ms",
    "model.forward_ms": "ms",
    "model.forward_eval_ms": "ms",
    "model.head_self_ms": "ms",
    "model.total_loss_ms": "ms",
    "model.optimizer_ms": "ms",
    "model.evaluate_ms": "ms",
    "model.checkpoint_save_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "attract_repel.sample_ms": "ms",
    "attract_repel.loss_ms": "ms",
    "attract_repel.update_ms": "ms",
    "attract_repel.skipped_ratio": "ratio",
    "metrics.rank_ms": "ms",
    "metrics.corpus_ms": "ms",
    "cli.scene_rows_ms": "ms",
    "data.generate_ms_per_scene": "ms",
    "data.read_scenes_ms": "ms",
    "data.read_predictions_ms": "ms",
    "data.write_predictions_ms": "ms",
    "cli.self_ms": "ms",
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    name: str
    gen_config: dict  # generator keys that differ from `sggkit generate` defaults
    holdout: int  # last scenes kept out of training
    train_in_setup: bool  # train as part of set-up, so the timed part is eval only
    setup_repeats: int  # set-ups per iteration: more samples where a set-up is short


# Why each workload exists is in NOTES.md. holdout=50 is the `train` default.
WORKLOADS = {
    "train-n6": Workload("train-n6", {}, 50, False, 3),
    "train-n17": Workload("train-n17", {"nodes_per_scene": 17, "n_scenes": 100}, 50, False, 5),
    "eval-n10": Workload("eval-n10", {"nodes_per_scene": 10, "n_scenes": 400}, 250, True, 1),
}
RESCORES = 2  # rescores per iteration: a rescore is short, so it gets more samples

# The same commands on corpora small enough to finish in about a second, for selfcheck.py.
TINY = {
    "train-n6": replace(WORKLOADS["train-n6"], gen_config={"n_scenes": 16}, holdout=6),
    "train-n17": replace(WORKLOADS["train-n17"], gen_config={"nodes_per_scene": 17, "n_scenes": 5},
                         holdout=2),
    "eval-n10": replace(WORKLOADS["eval-n10"], gen_config={"nodes_per_scene": 10, "n_scenes": 12},
                        holdout=8),
}


def pin_environment() -> None:
    """One BLAS thread, and no SGGKIT_* variable leaking into the configs."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("SGGKIT_")]:
        del os.environ[var]


def load_program(root: Path):
    """Import sggkit from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "sggkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sggkit sources under {src}")
    sys.path.insert(0, str(src))
    import sggkit
    import sggkit.cli
    import sggkit.model

    if Path(sggkit.__file__).resolve().parent != (src / "sggkit").resolve():
        raise SystemExit(f"perfbench: imported sggkit from {sggkit.__file__}, not {src}")
    return sggkit.cli, sggkit.model


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least 10 of n samples beyond it (50 at least)."""
    return max([p for p in range(50, 100) if n - math.ceil(n * p / 100) >= 10], default=50)


def environment(root: Path) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    src_digest = hashlib.sha256()
    for path in sorted((root / "src" / "sggkit").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "src_sha256": src_digest.hexdigest(),
    }


def git_commit(root: Path) -> str:
    """HEAD read from .git without starting git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Probes:
    """What the untraced run needs from inside commands.

    - Per-scene eval time, from prepare start to predict end in cmd_eval, as
      (thread CPU ms, index of the clock chunk it ran in).
    - Time spent in model.evaluate, raw and scaled, which train_steps_per_s
      leaves out.
    - Clock ticks at the program's per-step and per-scene calls (a train
      step's tape, prepare_scene, a scene's CSV rows), so that a long command
      is scaled chunk by chunk.

    Per-scene time is thread CPU time. Prepare and predict do no I/O, so on a
    dedicated host it equals wall time; on a shared VM it leaves out the
    moments the VM is descheduled, which otherwise make up the tail of
    equal-size scenes. A tick comes before a scene's start, never inside it."""

    def __init__(self, cli, model, clock):
        self.scene_ms: dict[str, tuple[float, int]] = {}
        self.evaluate_s = self.evaluate_scaled_s = 0.0
        self._scene = ("", 0.0)
        self._patches = []
        prepare, predict, evaluate = cli.prepare_scene, cli.predict_scene, model.evaluate
        model_prepare, scene_rows = model.prepare_scene, cli._scene_rows

        def timed_prepare(record, *args, **kwargs):
            clock.tick()
            self._scene = (record.scene_id, time.thread_time())
            return prepare(record, *args, **kwargs)

        def timed_predict(*args, **kwargs):
            result = predict(*args, **kwargs)
            scene_id, start = self._scene
            self.scene_ms[scene_id] = ((time.thread_time() - start) * 1e3, len(clock.chunk_scales))
            return result

        def timed_evaluate(*args, **kwargs):
            clock.tick(force=True)
            t0, scaled0 = time.perf_counter(), clock.scaled_s
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.evaluate_s += time.perf_counter() - t0
                clock.tick(force=True)
                self.evaluate_scaled_s += clock.scaled_s - scaled0

        def ticking_prepare(*args, **kwargs):
            clock.tick()
            return model_prepare(*args, **kwargs)

        def ticking_scene_rows(*args, **kwargs):
            clock.tick()
            return scene_rows(*args, **kwargs)

        class TickingTape(model.Tape):
            def __init__(self, *args, **kwargs):
                clock.tick()
                super().__init__(*args, **kwargs)

        for obj, attr, fn in ((cli, "prepare_scene", timed_prepare), (cli, "predict_scene", timed_predict),
                              (model, "evaluate", timed_evaluate), (model, "prepare_scene", ticking_prepare),
                              (cli, "_scene_rows", ticking_scene_rows), (model, "Tape", TickingTape)):
            self._patches.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, fn)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)


class Harness:
    """The program under test plus the tally of commands and output checks.

    Every command runs on the host clock (calibrate.HostClock): untraced
    commands tick at the program's per-step and per-scene calls, traced ones
    are one chunk, so the kernel never runs inside a span. `wall_scale` is
    the last command's scaled over raw wall time."""

    def __init__(self, trace: bool):
        import calibrate  # imports numpy, so only after pin_environment()

        self.cli, self.model = load_program(ROOT)
        self.clock = calibrate.HostClock()
        self.probes = Probes(self.cli, self.model, self.clock)
        self.tracer = Tracer() if trace else None
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.commands: dict[str, int] = {}
        self.wall_scale = 1.0
        self.unscaled_wall_s: dict[str, list[float]] = {}
        self.host_speed: list[float] = []  # one wall_scale per command

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def command(self, kind: str, argv: list[str], traced: bool) -> float | None:
        """Run one CLI command; its scaled wall time, or None if it did not exit 0."""
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install(self.cli, self.model)
        raw0, scaled0 = self.clock.raw_s, self.clock.scaled_s
        self.clock.start(ticking=not traced)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    code = self.tracer.call(f"cli.{kind}", self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        self.clock.stop()
        if traced:
            self.tracer.uninstall()
        raw, scaled = self.clock.raw_s - raw0, self.clock.scaled_s - scaled0
        self.wall_scale = scaled / raw
        self.host_speed.append(self.wall_scale)
        self.commands[kind] = self.commands.get(kind, 0) + 1
        if not self.check(f"{kind} exited {code}: {err.getvalue().strip()[-300:]}", code == 0):
            return None
        self.unscaled_wall_s.setdefault(kind, []).append(raw)
        return scaled


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    train_wall_s: list[float] = field(default_factory=list)
    train_steps_per_s: list[float] = field(default_factory=list)
    eval_wall_s: list[float] = field(default_factory=list)
    eval_scene_ms: dict[str, list[float]] = field(default_factory=dict)  # scene id -> one per eval
    rescore_wall_s: list[float] = field(default_factory=list)
    iteration_s: list[float] = field(default_factory=list)


class Bench:
    """One workload's files, commands and samples. With trace on, odd
    iterations (their set-up included) run traced and fill `traced`; the rest
    fill `untraced`."""

    def __init__(self, h: Harness, workload: Workload, seed: int, trace: bool, work: Path):
        self.h, self.w, self.seed, self.trace = h, workload, seed, trace
        work.mkdir()
        self.gen_cfg = work / "gen.cfg"
        self.corpus = work / "corpus.sgjsonl"
        self.ckpt = work / "model.ckpt.json"
        self.log = work / "model.ckpt.json.log.csv"
        self.metrics_csv = work / "metrics.csv"
        self.preds = work / "preds.pred.jsonl"
        self.rescored = work / "rescored.csv"
        self.n_train = 0
        self.untraced, self.traced = Samples(), Samples()
        self.digests: dict[str, str] = {}
        self.guards: dict[str, float | None] = {}

    def same_digest(self, label: str, path: Path) -> bool:
        """Outputs must repeat byte for byte across the set-ups and iterations of a run."""
        digest = sha256(path)
        first = self.digests.setdefault(label, digest)
        return self.h.check(f"{label} differs between repeats", digest == first)

    def generate(self, traced: bool) -> bool:
        argv = ["generate", "--out", str(self.corpus), "--seed", str(self.seed)]
        if self.w.gen_config:
            argv += ["--config", str(self.gen_cfg)]
        if self.h.command("generate", argv, traced) is None:
            return False
        with open(f"{self.corpus}.meta.json", encoding="utf-8") as fh:
            self.n_train = json.load(fh)["n_scenes"] - self.w.holdout
        return self.same_digest("corpus", self.corpus)

    def train(self, samples: Samples, traced: bool) -> bool:
        argv = ["train", "--corpus", str(self.corpus), "--out", str(self.ckpt), "--seed", str(self.seed),
                "--epochs", str(EPOCHS), "--holdout", str(self.w.holdout),
                "--metrics-every", "0" if self.w.train_in_setup else "1"]
        probes = self.h.probes
        probes.evaluate_s = probes.evaluate_scaled_s = 0.0
        wall = self.h.command("train", argv, traced)
        if wall is None:
            return False
        # A traced command is one chunk, so its evaluate time takes the command's scale.
        evaluate_s = probes.evaluate_s * self.h.wall_scale if traced else probes.evaluate_scaled_s
        samples.train_wall_s.append(wall)
        samples.train_steps_per_s.append(EPOCHS * self.n_train / (wall - evaluate_s))
        with open(self.log, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r[k]) for r in rows for k in ("L_ent", "L_pred", "L_ar")]
        self.h.check("epoch log has a non-finite loss", bool(rows) and all(map(math.isfinite, losses)))
        self.guards["final_loss_pred"] = float(rows[-1]["L_pred"])
        self.guards["heldout_pr2"] = float(rows[-1]["pR@2"]) if rows[-1]["pR@2"] else None
        return self.same_digest("checkpoint", self.ckpt) & self.same_digest("epoch_log", self.log)

    def evaluate(self, samples: Samples, traced: bool) -> bool:
        corpus = str(self.corpus)
        self.h.probes.scene_ms = {}
        wall = self.h.command("eval", ["eval", "--corpus", corpus, "--checkpoint", str(self.ckpt),
                                       "--out", str(self.metrics_csv), "--dump-predictions", str(self.preds)],
                              traced)
        if wall is None:
            return False
        samples.eval_wall_s.append(wall)
        chunk_scales = self.h.clock.chunk_scales
        for scene_id, (ms, chunk) in self.h.probes.scene_ms.items():
            samples.eval_scene_ms.setdefault(scene_id, []).append(ms * chunk_scales[chunk][1])
        for _ in range(RESCORES):
            wall = self.h.command("rescore", ["eval", "--corpus", corpus, "--predictions", str(self.preds),
                                              "--out", str(self.rescored)], traced)
            if wall is None:
                return False
            samples.rescore_wall_s.append(wall)
            self.h.check("eval --predictions does not reproduce the eval --checkpoint CSV",
                         self.metrics_csv.read_bytes() == self.rescored.read_bytes())
            self.rescored.unlink()
        with open(self.metrics_csv, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if (row["scene_id"], row["metric"], row["k"]) == ("ALL", "pR", "2"):
                    self.guards["eval_pr2"] = float(row["value"])
        return self.same_digest("metrics_csv", self.metrics_csv) & self.same_digest("predictions", self.preds)

    def set_up(self, traced: bool) -> bool:
        samples = self.traced if traced else self.untraced
        start = self.h.clock.scaled_s
        if not self.generate(traced):
            return False
        if self.w.train_in_setup and not self.train(samples, traced):
            return False
        samples.setup_s.append(self.h.clock.scaled_s - start)
        return True

    def measure(self, seconds: float) -> bool:
        """Set up once, then iterate set-up (setup_repeats times), train, eval
        and rescore (RESCORES times) until the next iteration would end after
        `seconds`. Repeating the set-up inside the loop spreads its samples
        over the run like everyone else's."""
        self.gen_cfg.write_text("".join(f"{k} = {v}\n" for k, v in self.w.gen_config.items()),
                                encoding="utf-8")
        if not self.set_up(False):
            return False
        min_iterations = 2 if self.trace else 1
        start = time.perf_counter()
        last = 0.0
        i = 0
        while i < min_iterations or time.perf_counter() - start + last <= seconds:
            traced = self.trace and i % 2 == 1
            samples = self.traced if traced else self.untraced
            t0, scaled0 = time.perf_counter(), self.h.clock.scaled_s
            if not (all(self.set_up(traced) for _ in range(self.w.setup_repeats))
                    and (self.w.train_in_setup or self.train(samples, traced))
                    and self.evaluate(samples, traced)):
                return False
            last = time.perf_counter() - t0
            samples.iteration_s.append(self.h.clock.scaled_s - scaled0)
            i += 1
        return True

    def end_to_end(self, s: Samples) -> dict[str, float]:
        # A scene's latency is its mean over the run's evals of it. The host's
        # slow phases then shift every scene alike instead of flipping the
        # median between a fast and a slow mode.
        scene_ms = [statistics.fmean(v) for v in s.eval_scene_ms.values()]
        return {
            "setup_s": statistics.median(s.setup_s),
            "train_wall_s": statistics.median(s.train_wall_s),
            "train_steps_per_s": statistics.median(s.train_steps_per_s),
            "eval_wall_s": statistics.median(s.eval_wall_s),
            "eval_scene_ms_p50": percentile(scene_ms, 50),
            "eval_scene_ms_tail": percentile(scene_ms, tail_pct(len(scene_ms))),
            "rescore_wall_s": statistics.median(s.rescore_wall_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def sample_counts(self, s: Samples) -> dict:
        out = {}
        for name in ("setup_s", "train_wall_s", "train_steps_per_s", "eval_wall_s", "rescore_wall_s"):
            values = getattr(s, name)
            out[name] = {"n": len(values), "median": statistics.median(values), "max": max(values)}
        n = len(s.eval_scene_ms)
        out["eval_scene_ms"] = {"scenes": n, "evals_per_scene": len(next(iter(s.eval_scene_ms.values()))),
                                "tail_percentile": tail_pct(n),
                                "scenes_beyond_tail": n - math.ceil(n * tail_pct(n) / 100)}
        return out


def per_layer(t: Tracer, untraced: Samples, traced: Samples) -> dict[str, float]:
    summary = t.summary()

    def mean_ms(*names, self_time=False):
        calls = sum(summary[n][0] for n in names if n in summary)
        total = sum(summary[n][2 if self_time else 1] for n in names if n in summary)
        return 1e3 * total / calls if calls else 0.0

    steps = summary.get("autodiff.backward", [0])[0]

    def per_step(x):
        return x / steps if steps else 0.0

    scenes = t.counts["generated_scenes"]
    roots = {name for name, _start, _end, parent in t.spans if parent < 0}
    root_s = t.root_s()
    metrics = {
        "autodiff.backward_ms": mean_ms("autodiff.backward"),
        "autodiff.records_per_step": per_step(t.counts["tape_records"]),
        "local_attention.fwd_ms": mean_ms("local_attention.forward"),
        "local_attention.bwd_ms": per_step(1e3 * t.bwd_s["local_attention"]),
        "local_attention.records": per_step(t.counts["lih_records"]),
        "fusion.fwd_ms": mean_ms("fusion.forward"),
        "fusion.bwd_ms": per_step(1e3 * t.bwd_s["fusion"]),
        "propagation.fwd_ms": mean_ms("propagation.forward"),
        "propagation.bwd_ms": per_step(1e3 * t.bwd_s["propagation"]),
        "propagation.build_adjacency_ms": mean_ms("propagation.build_adjacency"),
        "model.prepare_scene_ms": mean_ms("model.prepare_scene"),
        "model.forward_ms": mean_ms("model.forward"),
        "model.forward_eval_ms": mean_ms("model.forward_eval"),
        "model.head_self_ms": mean_ms("model.forward", "model.forward_eval", self_time=True),
        "model.total_loss_ms": mean_ms("model.total_loss"),
        "model.optimizer_ms": mean_ms("model.step", self_time=True),
        "model.evaluate_ms": mean_ms("model.evaluate"),
        "model.checkpoint_save_ms": mean_ms("model.checkpoint_save"),
        "model.checkpoint_load_ms": mean_ms("model.checkpoint_load"),
        "attract_repel.sample_ms": mean_ms("attract_repel.sample"),
        "attract_repel.loss_ms": mean_ms("attract_repel.loss"),
        "attract_repel.update_ms": mean_ms("attract_repel.update"),
        "attract_repel.skipped_ratio": (t.counts["ar_skipped"] / t.counts["ar_pairs"]
                                        if t.counts["ar_pairs"] else 0.0),
        "metrics.rank_ms": mean_ms("metrics.rank"),
        "metrics.corpus_ms": mean_ms("metrics.corpus"),
        "cli.scene_rows_ms": mean_ms("cli.scene_rows"),
        "data.generate_ms_per_scene": (1e3 * summary["data.generate"][1] / scenes if scenes else 0.0),
        "data.read_scenes_ms": mean_ms("data.read_scenes"),
        "data.read_predictions_ms": mean_ms("data.read_predictions"),
        "data.write_predictions_ms": mean_ms("data.write_predictions"),
        "cli.self_ms": mean_ms(*roots, self_time=True),
    }
    for layer, self_s in t.layer_self_s().items():
        metrics[f"{layer}.self_pct"] = 100.0 * self_s / root_s if root_s else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced.iteration_s)
                                             / statistics.median(untraced.iteration_s) - 1.0)
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run in a fresh work directory under the checkout."""
    h = Harness(trace)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        if not Bench(h, TINY["train-n6"], seed, False, work / "warmup").measure(0):
            raise RuntimeError(f"warm-up failed: {h.failures}")
        warmup_s = time.perf_counter() - t0
        bench = Bench(h, workload, seed, trace, work / "run")
        bench.measure(seconds)  # a failed command ends the loop; it is counted in h.failed
        if not bench.untraced.iteration_s or (trace and not bench.traced.iteration_s):
            raise RuntimeError(f"no complete iteration: {h.failures}")
    finally:
        h.probes.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    base = bench.end_to_end(bench.untraced)
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(ROOT), "warmup_s": warmup_s, "commands": h.commands,
        "samples": bench.sample_counts(bench.untraced), "digests": bench.digests,
        "unscaled_wall_s_median": {k: statistics.median(v) for k, v in h.unscaled_wall_s.items()},
        "host_speed": {"median": statistics.median(h.host_speed), "min": min(h.host_speed),
                       "max": max(h.host_speed)},
    }
    values, units = base, END_TO_END_UNITS
    if trace:
        problems = verify(h.tracer.spans)
        h.check(f"span tree: {problems[:3]}", not problems)
        traced = bench.end_to_end(bench.traced)
        report["end_to_end_untraced"] = base
        report["trace_overhead"] = {k: {"traced_minus_untraced": traced[k] - base[k],
                                        "pct": 100.0 * (traced[k] / base[k] - 1.0)}
                                    for k in ("train_wall_s", "eval_wall_s", "rescore_wall_s")}
        report["layer_self_ms"] = {k: 1e3 * v for k, v in h.tracer.layer_self_s().items()}
        report["backward_ms_by_owner"] = {k: 1e3 * v for k, v in sorted(h.tracer.bwd_s.items())}
        report["traced_command_s"] = h.tracer.root_s()
        values, units = per_layer(h.tracer, bench.untraced, bench.traced), PER_LAYER_UNITS
        trace_file = Path(".perfbench_out") / f"trace-{workload.name}.json"
        (ROOT / trace_file).parent.mkdir(exist_ok=True)
        h.tracer.write(ROOT / trace_file, {"workload": workload.name, "seed": seed})
        report["trace_file"] = str(trace_file)
    report["guards"] = {**bench.guards, "ops_failed": f"{h.failed}/{h.attempted}"}
    report["failures"] = h.failures
    result = {"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, report


def main(argv=None) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
