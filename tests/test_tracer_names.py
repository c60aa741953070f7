"""The benchmark tracer (perfbench/tracer.py) wraps bcvgeo functions that it
looks up by name; a deleted or renamed one would break `--trace 1`, and so
would a per-layer metric that is missing or not strict JSON."""

import contextlib
import importlib
import io
import json
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


def test_install_and_restore_round_trip(tracer):
    # install() imports names of its own from bcvgeo and wraps every traced
    # function; a traced jet call must run, and restore() must undo it all
    from bcvgeo import immersion as imm
    from bcvgeo.ambient import BcvParams
    from bcvgeo.rotation import generic_revolution_surface

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.TRACED}
    coords = imm.ParametricSurface.coords
    P = BcvParams(1.0, 0.5)
    t = tracer.Tracer()
    t.install()
    try:
        assert imm.surface_jet is not before[("bcvgeo.immersion", "surface_jet")]
        t.begin_op(0)
        imm.surface_jet(generic_revolution_surface(), P, 0.3, 0.2)
        calls = t.summary({0})["calls"]
        assert calls["immersion.surface_jet"] == 1 and calls["immersion.chart"] >= 1
        assert t.jet_keys_unique == 1
    finally:
        t.restore()
    for (m, a), fn in before.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a}"
    assert imm.ParametricSurface.coords is coords


def test_row_counter_is_the_kernel_row_count(tracer):
    # the tracer adds the first result of run_branch_kernel to its rows
    from bcvgeo.ambient import BcvParams
    from bcvgeo.rotation import IntegrationConfig, ProfileState, integrate_noncmc_branch

    for modname, _, _ in tracer.TRACED:   # install() looks them up in sys.modules
        importlib.import_module(modname)
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_op(0)
        traj = integrate_noncmc_branch(BcvParams(1.0, 0.5), ProfileState(0.0, 1.0, 0.0, 1.0),
                                       IntegrationConfig(s_max=0.5))
    finally:
        t.restore()
    assert t.rows == len(traj) == 501


def test_layer_metrics_cover_the_benchmark_names(tracer):
    # one full traced verify op gives every per-layer name that BENCHMARK.json
    # declares, but the two that run.py adds itself, each value strict JSON
    from bcvgeo import cli

    for modname, _, _ in tracer.TRACED:
        importlib.import_module(modname)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"] for m in declared["per_layer"]} - {"fail_frac", "max_margin"}
    t = tracer.Tracer()
    t.install()
    out = io.StringIO()
    try:
        t.begin_op(0)
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--kappa", "1", "--tau", "1"])
    finally:
        t.restore()
    assert code == 0
    report = json.loads(out.getvalue())
    samples = sum(s["samples"] for s in report["suites"])
    metrics = tracer.layer_metrics(t, t.summary({0}), samples, len(out.getvalue()), 0.0)
    assert want <= set(metrics)
    json.dumps({k: v for k, (v, _) in metrics.items()}, allow_nan=False)
