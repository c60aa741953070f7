"""The verification suites' sampling and their reductions over residuals."""

import math

import numpy as np
import pytest

from bcvgeo import ambient, immersion
from bcvgeo import rotation as rot
from bcvgeo.ambient import BcvParams
from bcvgeo.suites import _random_branch_state, domain_radius, run_suite, sample_domain_points

P_NIL = BcvParams(0.0, 0.5)


def scalar_sample(params, rng, n, z_span=1.0):
    """Point-by-point reference: three `uniform` calls per point, in the
    order rho, phi, z, mapped through scalar `math` functions."""
    rmax = domain_radius(params)
    x, y, z = np.empty((3, n))
    for i in range(n):
        rho = rmax * math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z[i] = rng.uniform(-z_span, z_span)
        x[i], y[i] = rho * math.cos(phi), rho * math.sin(phi)
    return x, y, z


class TestSampleDomainPoints:
    @pytest.mark.parametrize("params", [BcvParams(-2.0, 0.3), BcvParams(-100.0, 0.5),
                                        BcvParams(0.0, 0.0), BcvParams(1.0, 1.0)])
    @pytest.mark.parametrize("z_span", [1.0, 0.3, 2.5])
    def test_bit_equal_to_scalar_draws(self, params, z_span):
        # relies on numpy and math rounding sqrt, cos and sin alike
        for seed in range(10):
            for n in (1, 7, 100):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = scalar_sample(params, ref_rng, n, z_span)
                got = sample_domain_points(params, rng, n, z_span)
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
    and shows in the note; Python's max would drop one that is not first."""

    def gauss_codazzi(self):
        result = run_suite("gauss-codazzi", P_NIL)
        assert result.passed is False
        assert math.isnan(result.max_residual)
        return result.note

    def test_jet(self, monkeypatch):
        init = immersion.Stages.__init__

        def nan_cos_alpha(self, *args):
            init(self, *args)
            self.centres.jet.cos_alpha[0] = np.nan
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

    def test_biconservative_reduced_pair(self, monkeypatch):
        system = rot.reduced_bicon_system

        def nan_r2(*args):
            r1, r2 = system(*args)
            return r1, nan_like(r2)
        monkeypatch.setattr(rot, "reduced_bicon_system", nan_r2)
        result = run_suite("biconservative", P_NIL)
        assert result.passed is False
        assert "reduced pair nan" in result.note

    def test_submersion_vertical_image(self, monkeypatch):
        dpsi = ambient.hopf_dpsi
        calls = []

        def nan_from_second_call(v):
            # the second call is the image of e3
            calls.append(v)
            return dpsi(v) if len(calls) == 1 else nan_like(dpsi(v))
        monkeypatch.setattr(ambient, "hopf_dpsi", nan_from_second_call)
        result = run_suite("submersion", P_NIL)
        assert result.passed is False
        assert math.isnan(result.max_residual)

    @pytest.mark.parametrize("column", ["R1", "R2"])
    def test_theorem52_column_of_a_later_run(self, monkeypatch, column):
        integrate = rot.integrate_noncmc_branch
        runs = []

        def nan_column(*args):
            traj = integrate(*args)
            runs.append(traj)
            if len(runs) == 2:
                traj.column(column)[:] = np.nan
            return traj
        monkeypatch.setattr(rot, "integrate_noncmc_branch", nan_column)
        result = run_suite("theorem52", BcvParams(1.0, 1.0))
        assert len(runs) == 3
        assert result.passed is False
        assert f"max |{column}| nan" in result.note
