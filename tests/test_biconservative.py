import math

import numpy as np
import pytest

from bcvgeo.ambient import BcvParams, frame_dot
from bcvgeo.biconservative import (
    _ricci_n_tangential,
    constant_angle_codazzi_residual,
    constant_angle_datum_residual,
    constant_angle_quartic_coeffs,
    constant_angle_suite,
    frame_system_residual,
    normal_bitension,
    tangential_bitension,
)
from bcvgeo.errors import DegenerateSurfaceError
from bcvgeo.immersion import Stages, shape_operator, surface_jets
from bcvgeo.rotation import (
    ellipse_curve,
    generic_revolution_surface,
    hopf_cylinder,
    hopf_tube,
    revolution_surface,
)

from conftest import (CYLINDER_PAIRS, adapted_components, flat_plane, frame_norm, kinked_plane,
                      sphere_surface)
from profiles import line_curve, slant_profile

P_FLAT = BcvParams(0.0, 0.0)
P_NIL = BcvParams(0.0, 0.5)
P_FORM = BcvParams(4.0, 1.0)   # space form with tau = 1


def slant_surface(params=P_NIL):
    return revolution_surface(params, slant_profile(params, 1.0, 1.0), (-0.5, 1.5))


def closed_ricci_n_tangential(params, jet):
    """The adapted-frame closed form (4 tau^2 - kappa) cos(a) sin(a) e1 of
    Ric(N)^T, in frame components; the oracle for the basis expansion."""
    coef = (4.0 * params.tau ** 2 - params.kappa) * jet.cos_alpha * jet.sin_alpha
    return coef * jet.T / jet.sin_alpha


class TestRicciTangential:
    def test_closed_form_matches_generic(self, rng):
        S = slant_surface()
        for _ in range(8):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(-0.3, 1.3)
            sh = shape_operator(S, P_NIL, u, v)
            jet = sh.jet
            closed = closed_ricci_n_tangential(P_NIL, jet)
            generic = _ricci_n_tangential(P_NIL, sh)
            assert frame_norm(closed - generic) < 1e-8
            # the coefficient itself
            coef = frame_dot(generic, jet.T / jet.sin_alpha)
            expected = (4 * P_NIL.tau ** 2 - P_NIL.kappa) * jet.cos_alpha * jet.sin_alpha
            assert coef == pytest.approx(expected, abs=1e-10)

    def test_coefficient_arithmetic(self):
        # (4 tau^2 - kappa) cos(a) sin(a) at kappa=0, tau=1/2, a=pi/4
        val = (4 * 0.25 - 0.0) * math.cos(math.pi / 4) * math.sin(math.pi / 4)
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_vertical_tangency_kills_it(self):
        S = hopf_cylinder(P_NIL, 1.0)
        sh = shape_operator(S, P_NIL, 0.8, 0.2)
        assert frame_norm(closed_ricci_n_tangential(P_NIL, sh.jet)) < 1e-13
        assert frame_norm(_ricci_n_tangential(P_NIL, sh)) < 1e-13

    def test_space_form_kills_it_pointwise(self, rng):
        S = generic_revolution_surface(r_mid=0.8, amp=0.15, pitch=0.3)
        for _ in range(6):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(-1.2, 1.2)
            sh = shape_operator(S, P_FORM, u, v)
            assert frame_norm(_ricci_n_tangential(P_FORM, sh)) < 1e-12


class TestTangentialBitension:
    def test_minimal_surfaces_vanish(self):
        # plane (f = 0, grad f = 0)
        tb = tangential_bitension(Stages(flat_plane(), P_FLAT, 0.1, 0.2))
        assert frame_norm(tb) < 1e-8
        # vertical cylinder over a radial geodesic of the positively curved base
        P = BcvParams(1.0, 0.5)
        tube = hopf_tube(*line_curve((0.3, 0.0), (1.0, 0.0)), u_domain=(0.0, 1.2))
        assert abs(shape_operator(tube, P, 0.6, 0.3).f) < 1e-8
        assert frame_norm(tangential_bitension(Stages(tube, P, 0.6, 0.3))) < 1e-6

    @pytest.mark.parametrize("params", CYLINDER_PAIRS, ids=str)
    def test_vertical_cylinders_conservative(self, params):
        for r0 in (0.5, 1.0, 2.0):
            S = hopf_cylinder(params, r0)
            for u, v in [(0.4, -0.5), (2.8, 0.3)]:
                assert frame_norm(tangential_bitension(Stages(S, params, u, v))) < 1e-6

    def test_space_form_cmc_conservative(self):
        S = hopf_cylinder(P_FORM, 0.5)
        assert frame_norm(tangential_bitension(Stages(S, P_FORM, 0.8, 0.2))) < 1e-6

    def test_nonconstant_curvature_tube_is_not(self):
        tube = hopf_tube(*ellipse_curve(1.6, 1.0))
        vals = [frame_norm(tangential_bitension(Stages(tube, P_NIL, u, 0.1)))
                for u in np.linspace(0.0, 2 * math.pi, 13)]
        assert max(vals) > 1e-3

    def test_result_is_tangent(self, rng):
        S = slant_surface()
        for _ in range(5):
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(-0.3, 1.3)
            jet = surface_jets(S, P_NIL, u, v)
            tb = tangential_bitension(Stages(S, P_NIL, u, v))
            assert abs(frame_dot(tb, jet.n)) < 1e-8


class TestNormalBitension:
    def test_plane_zero(self):
        assert abs(normal_bitension(Stages(flat_plane(), P_FLAT, 0.1, 0.2))) < 1e-10

    @pytest.mark.parametrize("params", CYLINDER_PAIRS, ids=str)
    def test_cylinder_closed_form(self, params):
        for r0 in (0.5, 1.0, 2.0):
            S = hopf_cylinder(params, r0)
            sh = shape_operator(S, params, 0.8, 0.2)
            expected = sh.f * (sh.A[1][1] ** 2 + 4 * params.tau ** 2 - params.kappa)
            got = normal_bitension(Stages(S, params, 0.8, 0.2))
            assert got == pytest.approx(expected, abs=1e-5)

    def test_round_sphere_value(self):
        S = sphere_surface(1.0)
        assert shape_operator(S, P_FLAT, 1.1, 0.8).f == pytest.approx(2.0, abs=1e-8)
        assert normal_bitension(Stages(S, P_FLAT, 1.1, 0.8)) == pytest.approx(4.0, abs=1e-5)

    def test_sphere_radius_scaling(self):
        R = 2.0
        S = sphere_surface(R)
        got = normal_bitension(Stages(S, P_FLAT, 1.1, 0.8))
        assert got == pytest.approx(4.0 / R ** 3, abs=1e-5)

    @pytest.mark.parametrize("surface,params", [
        (hopf_cylinder(P_NIL, 1.0), P_NIL),
        (sphere_surface(1.0), P_FLAT),
        (generic_revolution_surface(), P_NIL),
    ])
    def test_grid_call_equals_per_point_calls(self, surface, params):
        (u0, u1), (v0, v1) = surface.domain
        U, V = np.meshgrid(np.linspace(u0 + 0.1, u1 - 0.1, 4), np.linspace(v0 + 0.1, v1 - 0.1, 3),
                           indexing="ij")
        grid = normal_bitension(Stages(surface, params, U, V))
        assert grid.shape == U.shape
        for i, j in np.ndindex(U.shape):
            one = normal_bitension(Stages(surface, params, U[i, j], V[i, j]))
            assert abs(grid[i, j] - one) <= 1e-12


class TestFrameSystem:
    def test_minimal_tube_zero(self):
        P = BcvParams(1.0, 0.5)
        tube = hopf_tube(*line_curve((0.3, 0.0), (1.0, 0.0)), u_domain=(0.0, 1.2))
        r1, r2 = frame_system_residual(Stages(tube, P, 0.6, 0.3))
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6

    def test_cylinder_zero(self):
        S = hopf_cylinder(P_NIL, 1.0)
        r1, r2 = frame_system_residual(Stages(S, P_NIL, 0.8, 0.2))
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6

    def test_matches_bitension_components(self, rng):
        # the two routes share no intermediates; empirically they agree with
        # proportionality factor exactly one
        S = generic_revolution_surface()
        count = 0
        while count < 12:
            u = rng.uniform(0, 2 * math.pi)
            v = rng.uniform(-1.2, 1.2)
            jet = surface_jets(S, P_NIL, u, v)
            if jet.sin_alpha <= 0.1:
                continue
            count += 1
            r1, r2 = frame_system_residual(Stages(S, P_NIL, u, v))
            c1, c2 = adapted_components(S, P_NIL, u, v)
            assert abs(r1 - c1) < 1e-4
            assert abs(r2 - c2) < 1e-4


class TestConstantAngle:
    def test_flat_tau_zero_roots(self):
        report = constant_angle_suite(BcvParams(1.0, 0.0), math.pi / 3)
        assert not report.degenerate
        nonzero = [r for r in report.real_roots if r != 0.0]
        assert nonzero == pytest.approx([-math.sqrt(3) / 2, math.sqrt(3) / 2], abs=1e-12)

    def test_roots_satisfy_polynomial(self):
        P = BcvParams(0.0, 0.5)
        report = constant_angle_suite(P, math.pi / 4)
        c4, c2, c0 = report.coefficients
        scale = 1.0 + max(abs(c4), abs(c2), abs(c0))
        assert report.real_roots
        for lam in report.real_roots:
            val = c4 * lam ** 4 + c2 * lam ** 2 + c0
            assert abs(val) < 1e-10 * scale

    def test_right_angle_degenerate(self):
        report = constant_angle_suite(BcvParams(1.0, 0.5), math.pi / 2)
        assert report.degenerate
        assert report.real_roots == []
        assert max(abs(c) for c in report.coefficients) < 1e-12

    def test_tau_zero_coefficient_structure(self):
        # no constant term when tau = 0, so the root set is symmetric in lam
        for alpha in (0.4, 1.0, 2.0):
            c4, c2, c0 = constant_angle_quartic_coeffs(BcvParams(2.0, 0.0), alpha)
            assert c0 == 0.0
            report = constant_angle_suite(BcvParams(2.0, 0.0), alpha)
            roots = report.real_roots
            assert roots == sorted(-r for r in roots)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            constant_angle_suite(BcvParams(1.0, 0.5), 0.0)
        with pytest.raises(ValueError):
            constant_angle_suite(BcvParams(1.0, 0.5), math.pi)

    def test_reduced_codazzi_zero_needs_negative_base_curvature(self):
        # with tau = 0 and e1(lam) = 0 the single compatibility equation
        # vanishes exactly at lam^2 = -kappa sin^2(alpha)
        P = BcvParams(-1.0, 0.0)
        alpha = math.pi / 3
        lam = math.sin(alpha) * math.sqrt(-P.kappa)
        for sign in (1.0, -1.0):
            assert abs(constant_angle_codazzi_residual(P, alpha, sign * lam)) < 1e-14
        # positive base curvature admits no real zero
        vals = [constant_angle_codazzi_residual(BcvParams(1.0, 0.0), alpha, lam)
                for lam in np.linspace(-3, 3, 25)]
        assert min(abs(v) for v in vals) > 0.1

    @pytest.mark.parametrize("params,alpha", [
        (BcvParams(0.0, 0.5), math.pi / 4),
        (BcvParams(1.0, 0.5), 1.1),
        (BcvParams(-1.0, 0.5), 2.0),
        (BcvParams(1.0, 0.0), math.pi / 3),
    ])
    def test_roots_close_the_datum_system(self, params, alpha):
        report = constant_angle_suite(params, alpha)
        for lam in report.real_roots:
            r1, r2 = constant_angle_datum_residual(params, alpha, lam)
            assert abs(r1) < 1e-8
            assert abs(r2) < 1e-8


class TestBitensionArrays:
    @pytest.mark.parametrize("surface,params", [
        (slant_surface(), P_NIL),
        (hopf_cylinder(P_NIL, 1.0), P_NIL),
        (hopf_tube(*ellipse_curve(1.6, 1.0)), P_NIL),
    ])
    def test_grid_call_equals_per_point_calls(self, surface, params):
        (u0, u1), (v0, v1) = surface.domain
        U, V = np.meshgrid(np.linspace(u0, u1, 4), np.linspace(v0 + 0.1, v1 - 0.1, 3),
                           indexing="ij")
        grid = tangential_bitension(Stages(surface, params, U, V))
        assert grid.shape == (3,) + U.shape
        for i, j in np.ndindex(U.shape):
            one = tangential_bitension(Stages(surface, params, U[i, j], V[i, j]))
            assert np.abs(grid[:, i, j] - one).max() <= 1e-12

    @pytest.mark.parametrize("surface,params", [
        (slant_surface(), P_NIL),
        (generic_revolution_surface(), P_NIL),
        (hopf_tube(*ellipse_curve(1.6, 1.0)), P_NIL),
    ])
    def test_frame_system_grid_call_equals_per_point_calls(self, surface, params):
        (u0, u1), (v0, v1) = surface.domain
        U, V = np.meshgrid(np.linspace(u0 + 0.1, u1 - 0.1, 3), np.linspace(v0 + 0.3, v1 - 0.3, 4),
                           indexing="ij")
        grid = frame_system_residual(Stages(surface, params, U, V))
        for i, j in np.ndindex(U.shape):
            one = frame_system_residual(Stages(surface, params, U[i, j], V[i, j]))
            assert max(abs(g[i, j] - o) for g, o in zip(grid, one)) <= 1e-12

    def test_batch_error_names_first_failing_stencil_point(self):
        # the point u = 0.4995 is regular, but its gradient-stencil centre
        # u + 1e-3 is not, and it fails before the later point u = 0.9
        with pytest.raises(DegenerateSurfaceError, match=r"\(u, v\) = \(0\.5005, 0\.25\)"):
            tangential_bitension(Stages(kinked_plane(), P_FLAT, [0.2, 0.4995, 0.9], 0.25))
