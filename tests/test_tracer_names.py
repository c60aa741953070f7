"""The benchmark tracer (perfbench/tracer.py) wraps bcvgeo functions that it
looks up by name; a deleted or renamed one would break `--trace 1`, and so
would a per-layer metric that is missing or not strict JSON.  A traced run
of the harness itself must end with a strict-JSON result line."""

import contextlib
import importlib
import io
import json
import pathlib
import shutil
import subprocess
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
    # the traced names are the batched oracles that the suites call: a
    # pass-through in their place would count 0, and an added or lost
    # oracle call moves these counts
    assert metrics["immersion.shape_operator.calls"][0] == 2
    assert metrics["biconservative.tangential_bitension.calls"][0] == 1


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("workload", ["verify-grid", "branch-sweep", "mesh-bitension"])
def test_traced_harness_ends_with_a_strict_json_result(tmp_path, workload):
    # the harness and the sources copied into tmp_path, where the run writes
    # its span file, so nothing lands in the checkout
    root = PERFBENCH.parent
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for path in PERFBENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    res = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
                          workload, "--trace", "1", "--seconds", "1"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=600)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in declared["per_layer"]} <= set(result["metrics"])
