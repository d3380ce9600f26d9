"""The benchmark in perfbench/ wraps names of sggkit.cli and sggkit.model from
outside the package; renaming or removing one of them breaks the benchmark
without failing any other test. This installs both of its wrappers and
checks that uninstalling them restores every attribute."""

import importlib
import sys
from pathlib import Path

import pytest

import sggkit.cli
import sggkit.model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracer and run modules, imported as perfbench/run.py imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = [name for name in ("tracer", "run") if name in sys.modules]
    assert not loaded, f"modules {loaded} are already imported from elsewhere"
    try:
        yield importlib.import_module("tracer"), importlib.import_module("run")
    finally:
        for name in ("tracer", "run"):
            sys.modules.pop(name, None)


class StubClock:
    """The part of perfbench's host clock that Probes calls."""

    chunk_scales: list = []

    def tick(self, force: bool = False) -> None:
        pass


def _bindings():
    owners = (sggkit.cli, sggkit.model, sggkit.model.Model)
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_benchmark_wrappers_install_and_restore_every_name(perfbench):
    tracer, run = perfbench
    before = _bindings()
    probes = trace = None
    try:
        probes = run.Probes(sggkit.cli, sggkit.model, StubClock())
        trace = tracer.Tracer()
        trace.install(sggkit.cli, sggkit.model)
        assert sggkit.model.encode_edges is not before["sggkit.model", "encode_edges"]
    finally:
        if trace is not None:
            trace.uninstall()
        if probes is not None:
            probes.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
