"""The verification suites' sampling, their reductions over residuals and
their default reports."""

import contextlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from bcvgeo import ambient, cli, immersion, suites
from bcvgeo import biconservative as bic
from bcvgeo import rotation as rot
from bcvgeo.ambient import BcvParams
from bcvgeo.suites import (Check, _cylinder_radii, _entry, _random_branch_state, domain_radius,
                           run_report, run_suite, sample_domain_points)
from conftest import PAIRS7

P_NIL = BcvParams(0.0, 0.5)
PINNED = pathlib.Path(__file__).parent / "data" / "verify_reports.json"


def pinned_reports():
    """Exit code and output of `verify` with every suite at each pair of
    PAIRS7 and (1, 0.25), seeds 0 and 42, from `cli.main` in this process."""
    reports = []
    for P in PAIRS7 + [BcvParams(1.0, 0.25)]:
        for seed in (0, 42):
            argv = ["verify", "--kappa", repr(P.kappa), "--tau", repr(P.tau), "--seed", str(seed)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            reports.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    return reports


def test_default_reports_are_pinned():
    """The reports equal tests/data/verify_reports.json byte for byte.  When
    a report is meant to change, regenerate the file from the repository
    root with

        PYTHONPATH=src:tests python -c "import json, test_suites as t; \\
            print(json.dumps(t.pinned_reports(), indent=1))" > tests/data/verify_reports.json
    """
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    got = pinned_reports()
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert (g["exit"], g["stdout"]) == (w["exit"], w["stdout"]), g["argv"]


def test_pinned_diff_lets_only_residuals_move():
    """tests/pinned_diff.py reports each moved field, and flags every one
    but max_residual, sha256 and bytes."""
    import pinned_diff

    def entry(residual, passed):
        suite = {"name": "ricci", "samples": 5, "max_residual": residual,
                 "tolerance": 1e-4, "pass": passed, "note": ""}
        return {"argv": ["verify"], "exit": 0,
                "stdout": json.dumps({"seed": 0, "suites": [suite], "pass": passed})}

    lines, violations, fields, counts = pinned_diff.diff_entries(
        [entry(1e-5, True), entry(1e-5, True)], [entry(2e-5, True), entry(1e-5, False)],
        pinned_diff.report_units)
    assert fields == {"max_residual", "pass"}
    assert lines[0] == "[verify] ricci.max_residual: 1e-05 -> 2e-05 (rel 1.00e+00)"
    assert violations == lines[1:] == ["[verify] run.pass: True -> False",
                                       "[verify] ricci.pass: True -> False"]
    assert (counts["moved"], counts["total"]) == ({"run": 1, "suite": 2}, {"run": 2, "suite": 2})


def scalar_sample(params, rng, n):
    """Point-by-point reference: three `uniform` calls per point, in the
    order rho, phi, z, mapped through scalar `math` functions."""
    rmax = domain_radius(params)
    x, y, z = np.empty((3, n))
    for i in range(n):
        rho = rmax * math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z[i] = rng.uniform(-1.0, 1.0)
        x[i], y[i] = rho * math.cos(phi), rho * math.sin(phi)
    return x, y, z


class TestSampleDomainPoints:
    @pytest.mark.parametrize("params", [BcvParams(-2.0, 0.3), BcvParams(-100.0, 0.5),
                                        BcvParams(0.0, 0.0), BcvParams(1.0, 1.0)])
    def test_bit_equal_to_scalar_draws(self, params):
        # relies on numpy and math rounding sqrt, cos and sin alike
        for seed in range(10):
            for n in (1, 7, 100):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = scalar_sample(params, ref_rng, n)
                got = sample_domain_points(params, rng, n)
                for a, b in zip(expected, got):
                    assert b.shape == (n,)
                    assert a.tobytes() == b.tobytes(), (seed, n)
                # the suite's later draws start where they did
                assert rng.random() == ref_rng.random()


class TestRandomBranchState:
    @pytest.mark.parametrize("kappa", [-4.0, -2.0, -1.0, 0.0, 1.0, 4.0])
    def test_draw_unchanged_where_the_window_is_not_empty(self, kappa):
        params = BcvParams(kappa, 0.5)
        hi = min(1.6, 0.8 * domain_radius(params))
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _random_branch_state(params, rng).r == ref.uniform(0.6, hi)

    @pytest.mark.parametrize("kappa", [-4.5, -6.0, -14.4, -100.0])
    def test_r0_lies_in_the_domain_below_kappa_minus_four(self, kappa):
        params = BcvParams(kappa, 0.5)
        for seed in range(20):
            r0 = _random_branch_state(params, np.random.default_rng(seed)).r
            assert 0.0 < r0 <= 0.8 * domain_radius(params)


def nan_like(a):
    return np.full_like(a, np.nan)


class TestNanResidualFails:
    """A NaN residual fails its suite wherever it sits among the maxima,
    and shows in the note; Python's max would drop one that is not first.
    The suite's max_residual is then None, which prints as JSON null."""

    def gauss_codazzi(self):
        result = run_suite("gauss-codazzi", P_NIL)
        assert result["pass"] is False
        assert result["max_residual"] is None
        return result["note"]

    def test_jet(self, monkeypatch):
        init = immersion.Stages.__init__

        def nan_cos_alpha(self, *args):
            init(self, *args)
            self.centres.shape.jet.cos_alpha[0] = np.nan
        monkeypatch.setattr(immersion.Stages, "__init__", nan_cos_alpha)
        assert "jet nan" in self.gauss_codazzi()

    def test_gauss(self, monkeypatch):
        gauss = immersion.gauss_residual
        monkeypatch.setattr(immersion, "gauss_residual", lambda *a: nan_like(gauss(*a)))
        assert "gauss nan" in self.gauss_codazzi()

    def test_second_codazzi_component(self, monkeypatch):
        codazzi = immersion.codazzi_residual

        def nan_c2(*args):
            c1, c2 = codazzi(*args)
            return c1, nan_like(c2)
        monkeypatch.setattr(immersion, "codazzi_residual", nan_c2)
        assert "codazzi nan" in self.gauss_codazzi()

    def test_compatibility_scalar(self, monkeypatch):
        compat = immersion.compatibility_residual

        def nan_scalar(*args, **kwargs):
            vec, sc = compat(*args, **kwargs)
            return vec, nan_like(sc)
        monkeypatch.setattr(immersion, "compatibility_residual", nan_scalar)
        assert "compat nan" in self.gauss_codazzi()

    def test_theorem44_ellipse_tube(self, monkeypatch):
        # the lower-bound check on the largest |B| of the ellipse tube
        bitension = bic.tangential_bitension

        def nan_last_point(*args):
            tb = bitension(*args)
            tb[:, -1] = np.nan
            return tb
        monkeypatch.setattr(bic, "tangential_bitension", nan_last_point)
        result = run_suite("theorem44", P_NIL)
        assert result["pass"] is False
        assert "ellipse tube max nan > 1.00e-03" in result["note"]

    def test_frame_single_check(self, monkeypatch):
        frame_at = ambient.frame_at

        def nan_last_point(*args):
            E = frame_at(*args)
            E[..., -1] = np.nan
            return E
        monkeypatch.setattr(ambient, "frame_at", nan_last_point)
        result = run_suite("frame", P_NIL)
        assert result["pass"] is False
        assert result["max_residual"] is None
        # one unlabelled check: the note is the value alone
        assert result["note"] == "nan"

    def test_submersion_vertical_image(self, monkeypatch):
        dpsi = ambient.hopf_dpsi
        calls = []

        def nan_from_second_call(v):
            # the second call is the image of e3
            calls.append(v)
            return dpsi(v) if len(calls) == 1 else nan_like(dpsi(v))
        monkeypatch.setattr(ambient, "hopf_dpsi", nan_from_second_call)
        result = run_suite("submersion", P_NIL)
        assert result["pass"] is False
        assert result["max_residual"] is None

    @pytest.mark.parametrize("column,label", [("R1", "|R1|/gap"), ("R2", "|R2|")])
    def test_theorem52_column_of_a_later_run(self, monkeypatch, column, label):
        integrate = rot.integrate_noncmc_branch
        runs = []

        def nan_column(*args):
            traj = integrate(*args)
            runs.append(traj)
            if len(runs) == 2:
                getattr(traj, column)[:] = np.nan
            return traj
        monkeypatch.setattr(rot, "integrate_noncmc_branch", nan_column)
        result = run_suite("theorem52", BcvParams(1.0, 1.0))
        assert len(runs) == 3
        assert result["pass"] is False
        assert f"{label} nan" in result["note"]


@pytest.mark.parametrize("kappa", [1.0 - 1e-6, 1.0 - 1e-4, 1.0 + 1e-6])
def test_theorem52_passes_near_the_space_form(kappa):
    # R1 carries the factor 4 tau^2 - kappa, and so does its floor: an
    # absolute floor failed here, where max |R1| reads 3e-7 to 3e-5
    P = BcvParams(kappa, 0.5)
    assert [seed for seed in range(20) if not run_suite("theorem52", P, seed)["pass"]] == []


def test_computed_bound_prints_its_digits():
    # theorem52's floor at (1, 1) is (8/9) sin cos (sin^2(0.15) + tau^2 lo^2)
    # / (hi (1 + tau^2 hi^2)^1.5) with sin cos at |cos| = 0.1 and r0 drawn
    # from [lo, hi] = [0.6, 1.2], 0.8 of the domain radius 1.5; the note
    # prints it to three digits, not rounded to 7e-03
    floor = 8.0 / 9.0 * 0.1 * math.sqrt(0.99) * (math.sin(0.15) ** 2 + 0.36) / (1.2 * 2.44 ** 1.5)
    assert f"{floor:.2e}" == "7.39e-03"
    note = run_suite("theorem52", BcvParams(1.0, 1.0))["note"]
    assert note.rpartition("; ")[2].startswith("|R1|/gap ")
    assert note.endswith(" > 7.39e-03")


def test_law_of_T_defect_along_e1_fails(monkeypatch):
    # the scalar law of T broken along e1 alone: the e2 column is intact
    compat = immersion.compatibility_residual

    def defect_along_e1(*args):
        vec, sc = compat(*args)
        sc = sc.copy()
        sc[..., 0] = 1.0
        return vec, sc
    monkeypatch.setattr(immersion, "compatibility_residual", defect_along_e1)
    result = run_suite("gauss-codazzi", P_NIL)
    assert result["pass"] is False
    assert "compat 1.00e+00/1.00e-04" in result["note"]


def test_a_lower_bound_holds_for_every_value():
    # a failed lower bound fails the suite, whatever the upper-bound ratio
    checks = [Check("up", np.array([0.5]), 1.0), Check("low", [0.2, 2e-4], 1e-3, above=True)]
    entry = _entry("s", 1, checks)
    assert (entry["max_residual"], entry["tolerance"], entry["pass"]) == (0.5, 1.0, False)
    assert entry["note"] == "up 5.00e-01 < 1.00e+00; low 2.00e-04 > 1.00e-03"


@pytest.mark.parametrize("kappa", [-14.4, -100.0])
def test_suites_with_no_cylinder_skip_its_checks(kappa):
    # no cylinder radius of the suites lies in the domain
    params = BcvParams(kappa, 0.5)
    assert _cylinder_radii(params) == []
    report = run_report(params, ["biconservative", "theorem44"])
    bicon, t44 = report["suites"]
    assert bicon == {"name": "biconservative", "samples": 0, "max_residual": 0.0,
                     "tolerance": 1.0, "pass": True, "note": "skipped: cylinder bitension"}
    assert run_suite("biconservative", params) == bicon
    assert (t44["samples"], t44["max_residual"], t44["pass"]) == (18, 0.0, True)
    assert t44["note"].startswith("ellipse tube max ")


def test_surface_suites_read_the_structural_surfaces(monkeypatch):
    # gauss-codazzi reads every surface of the list, biconservative its Hopf
    # cylinders and theorem44 its Hopf tube, each on the list's grid
    surfaces = [(rot.hopf_cylinder(P_NIL, 1.0), 3, 2), (rot.generic_revolution_surface(), 4, 3),
                (rot.hopf_tube(*rot.ellipse_curve(1.2, 0.75)), 5, 2)]
    monkeypatch.setattr("bcvgeo.suites._structural_surfaces", lambda params: surfaces)
    report = run_report(P_NIL, ["gauss-codazzi", "biconservative", "theorem44"])
    assert [(e["name"], e["samples"], e["pass"]) for e in report["suites"]] == [
        ("gauss-codazzi", 28, True), ("biconservative", 6, True), ("theorem44", 10, True)]


def report_cache(monkeypatch, params, names=None):
    """The surface-check cache that a run_report call passes to run_suite."""
    caches, run = [], suites.run_suite

    def recording(name, params, seed=42, _surfaces=None):
        caches.append(_surfaces)
        return run(name, params, seed, _surfaces)
    with monkeypatch.context() as m:
        m.setattr(suites, "run_suite", recording)
        run_report(params, names)
    assert all(c is caches[0] for c in caches)
    return caches[0]


@pytest.mark.parametrize("names", [None, ["theorem44"]], ids=str)
def test_a_report_cache_gives_the_entries_of_the_pair_it_is_called_at(monkeypatch, names):
    # the cache of a report at (1, 1) holds that pair's checks; called at
    # another pair it computes that pair's, so no entry of (1, 1) leaks
    cache = report_cache(monkeypatch, BcvParams(1.0, 1.0), names)
    assert cache.cache_info().currsize == 1
    for name in ("gauss-codazzi", "biconservative", "theorem44"):
        assert run_suite(name, P_NIL, 42, cache) == run_suite(name, P_NIL)


def test_consecutive_reports_each_compute_the_surface_checks(monkeypatch):
    # the cache lives for one report: nothing carries over to the next
    calls, checks = [], suites._surface_checks

    def counted(params):
        calls.append(params)
        return checks(params)
    monkeypatch.setattr(suites, "_surface_checks", counted)
    assert run_report(P_NIL) == run_report(P_NIL)
    assert calls == [P_NIL, P_NIL]
