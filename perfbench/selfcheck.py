"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload's commands on tiny corpora, untraced and traced, and
asserts that:
  * the run is correct: every command exited 0 and every output check held;
  * every metric BENCHMARK.json names is printed with its unit, and no other;
  * spans in the written trace nest: each child inside its parent, self >= 0;
  * per-layer self times add up to the traced commands' wall time.
It also feeds `verify` a broken span tree to show the nesting check can fail.
Exits 0 when all hold; an AssertionError names the first that does not.
"""

from __future__ import annotations

import json
import math
import sys

import run
from tracer import LAYERS, verify


def check_trace_file(path) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [[names[n], start / 1e6, end / 1e6, parent] for n, start, end, parent in data["spans"]]
    assert spans, f"{path}: no spans"
    problems = verify(spans)
    assert not problems, f"{path}: {problems[:5]}"


def main() -> int:
    run.pin_environment()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(run.TINY)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert wanted[False] == run.END_TO_END_UNITS and wanted[True] == run.PER_LAYER_UNITS

    broken = [["cli.train", 0.0, 1.0, -1], ["model.forward", 0.5, 1.5, 0]]
    assert verify(broken), "verify accepted a child that ends after its parent"

    for name, workload in run.TINY.items():
        for trace in (False, True):
            result, report = run.run(workload, seed=3, seconds=0, trace=trace)
            printed = json.loads(json.dumps(result))
            label = f"{name} trace={int(trace)}"
            assert set(printed) == {"correct", "attempted", "failed", "metrics"}, label
            assert printed["correct"] and printed["failed"] == 0, (label, report["failures"])
            got = {k: v["unit"] for k, v in printed["metrics"].items()}
            assert got == wanted[trace], (label, set(got) ^ set(wanted[trace]))
            for metric, entry in printed["metrics"].items():
                assert math.isfinite(entry["value"]), (label, metric, entry)
            if trace:
                check_trace_file(run.ROOT / report["trace_file"])
                assert set(report["layer_self_ms"]) == set(LAYERS), label
                layer_sum = sum(report["layer_self_ms"].values())
                wall = 1e3 * report["traced_command_s"]
                assert abs(layer_sum - wall) <= 1e-6 * wall, (label, layer_sum, wall)
            print(f"ok {label}: {printed['attempted']} checks", flush=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
