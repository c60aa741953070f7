"""The benchmark tracer (perfbench/tracer.py) wraps bcvgeo functions that it
looks up by name; a deleted or renamed one would break `--trace 1`."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracer")


def test_traced_names_resolve_to_callables(tracer):
    assert tracer.TRACED
    for modname, attr, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"
