import math

import numpy as np
import pytest

from bcvgeo.ambient import (BcvParams, coordinate_components, frame_cross, frame_dot,
                            smoothing_factor)
from bcvgeo.errors import DegenerateSurfaceError, DomainError
from bcvgeo.immersion import (
    EPS_ALPHA,
    ParametricSurface,
    alpha_field,
    brioschi_curvature,
    codazzi_residual,
    compatibility_residual,
    directional_derivative,
    gauss_residual,
    shape_arrays,
    surface_connection_residual,
    surface_jet,
    surface_jets,
    surface_laplacian,
)
from bcvgeo.rotation import (
    ellipse_curve,
    generic_revolution_surface,
    hopf_cylinder,
    hopf_tube,
    revolution_surface,
    slant_profile,
)
from bcvgeo.suites import _structural_maxima

from conftest import PAIRS6, flat_plane, frame_norm, kinked_plane, sphere_surface

P_FLAT = BcvParams(0.0, 0.0)
P_NIL = BcvParams(0.0, 0.5)


def slant_surface(params=P_NIL, r0=1.0, sigma0=1.0, span=(-0.5, 1.5)):
    return revolution_surface(params, slant_profile(params, r0, sigma0), span)


def coords(params, jet, a):
    """Coordinate components of the vector with frame components a at the jet."""
    return np.array(coordinate_components(params, jet.x, jet.y, a))


def random_samples(surface, rng, n, sin_floor=0.0, params=P_NIL):
    (u0, u1), (v0, v1) = surface.domain
    out = []
    while len(out) < n:
        u = rng.uniform(u0, u1)
        v = rng.uniform(v0 + 0.1 * (v1 - v0), v1 - 0.1 * (v1 - v0))
        jet = surface_jets(surface, params, u, v)
        if jet.sin_alpha > sin_floor:
            out.append((u, v, jet))
    return out


class TestSurfaceJet:
    def test_horizontal_plane_degenerate(self):
        S = flat_plane()
        jet = surface_jets(S, P_FLAT, 0.2, -0.3)
        assert abs(abs(jet.cos_alpha) - 1.0) < 1e-15
        assert frame_norm(jet.T) < 1e-15
        assert jet.sin_alpha <= EPS_ALPHA   # no adapted frame
        assert abs(abs(coords(P_FLAT, jet, jet.n)[2]) - 1.0) < 1e-15

    def test_cylinder_vertical_tangency(self):
        P = BcvParams(0.0, 0.7)
        S = hopf_cylinder(P, 1.3)
        jet = surface_jets(S, P, 0.9, 0.3)
        assert abs(jet.cos_alpha) < 1e-14
        assert np.allclose(coords(P, jet, jet.T / jet.sin_alpha), [0, 0, 1], atol=1e-14)

    def test_slant_angle_formula(self):
        prof = slant_profile(P_NIL, 1.0, 1.0)
        S = slant_surface()
        for u, v in [(0.3, -0.2), (1.7, 0.4), (4.0, 1.2)]:
            jet = surface_jets(S, P_NIL, u, v)
            st = prof(v)
            F = smoothing_factor(P_NIL, st.r, 0.0)
            rp = F * math.cos(st.sigma)
            expected = rp / (F * math.sqrt(1.0 + P_NIL.tau ** 2 * st.r ** 2))
            assert jet.cos_alpha == pytest.approx(expected, abs=1e-8)

    def test_jet_identities(self, rng):
        for surface, params in [
            (slant_surface(), P_NIL),
            (generic_revolution_surface(P_NIL), P_NIL),
            (sphere_surface(), P_FLAT),
        ]:
            for u, v, jet in random_samples(surface, rng, 8, params=params):
                assert abs(frame_dot(jet.T, jet.T) - jet.sin_alpha ** 2) < 1e-9
                resid = (np.array([0.0, 0.0, 1.0]) - coords(params, jet, jet.T)
                         - jet.cos_alpha * coords(params, jet, jet.n))
                assert np.abs(resid).max() < 1e-10
                assert abs(frame_dot(jet.n, jet.n) - 1.0) < 1e-10
                assert abs(frame_dot(jet.n, jet.au)) < 1e-10
                assert abs(frame_dot(jet.n, jet.av)) < 1e-10

    def test_quarter_turn_isometry(self, rng):
        S = generic_revolution_surface(P_NIL)
        for u, v, jet in random_samples(S, rng, 10):
            a, b = rng.normal(size=2)
            X = a * jet.au + b * jet.av
            JX = frame_cross(jet.n, X)
            assert abs(frame_dot(JX, JX) - frame_dot(X, X)) < 1e-9
            assert abs(frame_dot(JX, X)) < 1e-9

    def test_degenerate_chart_rejected(self):
        S = ParametricSurface(lambda u, v: (u + v, u + v, 0.0), ((0, 1), (0, 1)))
        with pytest.raises(DegenerateSurfaceError):
            surface_jets(S, P_FLAT, 0.5, 0.5)


class TestJetArrays:
    SURFACES = [(slant_surface(), P_NIL), (generic_revolution_surface(P_NIL), P_NIL),
                (hopf_tube(P_NIL, *ellipse_curve(1.6, 1.0)), P_NIL),
                (sphere_surface(), P_FLAT)]

    @pytest.mark.parametrize("surface,params", SURFACES)
    def test_grid_call_equals_per_point_calls(self, surface, params):
        (u0, u1), (v0, v1) = surface.domain
        U, V = np.meshgrid(np.linspace(u0, u1, 5), np.linspace(v0 + 0.1, v1 - 0.1, 4),
                           indexing="ij")
        grid = surface_jets(surface, params, U, V)
        sh = shape_arrays(surface, params, U, V)
        for i, j in np.ndindex(U.shape):
            one = surface_jets(surface, params, U[i, j], V[i, j])
            for name, a, b in zip(grid._fields, grid, one):
                assert np.allclose(a[..., i, j], b, rtol=0.0, atol=1e-12), name
            single = shape_arrays(surface, params, U[i, j], V[i, j])
            A = np.array(sh.A)[:, :, i, j]
            assert np.abs(A - np.array(single.A)).max() <= 1e-12
            assert sh.adapted[i, j] == single.adapted

    def test_scalar_jet_wraps_the_array_jet(self):
        # surface_jet stays as a pass-through to surface_jets
        S = slant_surface()
        jet = surface_jet(S, P_NIL, 0.7, 0.4)
        arr = surface_jets(S, P_NIL, np.array([0.7]), np.array([0.4]))
        for name in ("x", "y", "z", "E", "F", "G"):
            assert np.allclose(getattr(jet, name), getattr(arr, name)[0], rtol=0.0, atol=1e-15)
        assert jet.cos_alpha == pytest.approx(float(arr.cos_alpha[0]), abs=1e-15)
        assert np.allclose(jet.n, arr.n[:, 0], rtol=0.0, atol=1e-15)

    def test_batch_error_names_first_failing_point(self):
        us = np.array([0.1, 0.3, 0.7, 0.9])
        with pytest.raises(DegenerateSurfaceError, match=r"\(u, v\) = \(0\.7, 0\.25\)"):
            surface_jets(kinked_plane(), P_FLAT, us, 0.25)

    def test_batch_domain_error_names_first_failing_point(self):
        P = BcvParams(-1.0, 0.0)   # domain x^2 + y^2 < 4
        S = ParametricSurface(lambda u, v: (u, v, 0.0), ((0.0, 3.0), (0.0, 1.0)))
        with pytest.raises(DomainError, match=r"\(u, v\) = \(2\.5, 0\.5\)"):
            surface_jets(S, P, np.array([[1.0, 2.5], [3.0, 1.5]]), 0.5)


class TestShapeOperator:
    def test_plane_totally_geodesic(self):
        sh = shape_arrays(flat_plane(), P_FLAT, 0.1, 0.2)
        assert np.abs(sh.A).max() < 1e-10
        assert abs(sh.f) < 1e-10

    @pytest.mark.parametrize("tau,r0", [(0.5, 1.0), (0.7, 1.3), (0.25, 2.0)])
    def test_cylinder_matrix(self, tau, r0):
        P = BcvParams(0.0, tau)
        S = hopf_cylinder(P, r0)
        sh = shape_arrays(S, P, 0.8, 0.2)
        expected = np.array([[0.0, -tau], [-tau, 1.0 / r0]])
        assert np.abs(np.array(sh.A) - expected).max() < 1e-4
        assert sh.f == pytest.approx(1.0 / r0, abs=1e-6)
        assert sh.A[1][1] == pytest.approx(1.0 / r0, abs=1e-6)

    def test_symmetry(self, rng):
        for surface, params in [
            (slant_surface(), P_NIL),
            (generic_revolution_surface(P_NIL), P_NIL),
            (hopf_tube(P_NIL, *ellipse_curve(1.6, 1.0)), P_NIL),
        ]:
            for u, v, _ in random_samples(surface, rng, 5, params=params):
                sh = shape_arrays(surface, params, u, v)
                assert abs(sh.A[0][1] - sh.A[1][0]) < 1e-6

    def test_offdiagonal_matches_angle_derivative(self, rng):
        S = slant_surface()
        afld = alpha_field(S, P_NIL)
        for u, v, jet in random_samples(S, rng, 5, sin_floor=0.2):
            sh = shape_arrays(S, P_NIL, u, v)
            W = (jet.JT / jet.sin_alpha)[:, None]
            _, e2a = directional_derivative(jet, u, v, W, afld)
            assert abs(sh.A[0][1] - (e2a[0] - P_NIL.tau)) < 1e-4


class TestFields:
    # each case takes one grid call; the Laplacian returns (field, Delta field)
    def test_constant_field(self):
        U, V = np.meshgrid([0.1, -0.6], [0.4, 0.7, -0.2], indexing="ij")
        val, lap = surface_laplacian(flat_plane(), P_FLAT, U, V,
                                     lambda u, v: np.full(np.shape(u), 3.25))
        assert lap.shape == U.shape and np.all(val == 3.25)
        assert np.abs(lap).max() < 1e-12

    def test_flat_laplacian_sign(self):
        U, V = np.meshgrid([0.2, -0.5], [-0.3, 0.6], indexing="ij")
        _, lap = surface_laplacian(flat_plane(), P_FLAT, U, V, lambda u, v: u * u + v * v)
        assert np.abs(lap + 4.0).max() < 1e-6

    def test_sphere_eigenfunction(self):
        # cos(polar angle) is a first spherical harmonic: with the
        # Delta = -div grad convention its Laplacian is +2 cos(u) on the
        # unit sphere.
        us = np.array([0.8, 1.4, 2.2])
        _, lap = surface_laplacian(sphere_surface(1.0), P_FLAT, us, 0.9, lambda u, v: np.cos(u))
        assert np.abs(lap - 2.0 * np.cos(us)).max() < 1e-4


class TestCurvatureResiduals:
    def test_plane_gauss_zero(self):
        assert abs(gauss_residual(flat_plane(), P_FLAT, 0.1, 0.2)) < 1e-8

    def test_sphere_intrinsic_curvature(self):
        S = sphere_surface(1.0)
        assert brioschi_curvature(S, P_FLAT, 1.1, 0.8) == pytest.approx(1.0, abs=1e-5)
        assert abs(gauss_residual(S, P_FLAT, 1.1, 0.8)) < 1e-5

    def test_cylinder_gauss_closed_forms(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        sh = shape_arrays(S, P, 0.8, 0.2)
        assert np.linalg.det(np.array(sh.A)) == pytest.approx(-P.tau ** 2, abs=1e-6)
        assert abs(brioschi_curvature(S, P, 0.8, 0.2)) < 1e-6
        assert abs(gauss_residual(S, P, 0.8, 0.2)) < 1e-4

    def test_gauss_residual_grid(self, rng):
        S = slant_surface()
        for u, v, _ in random_samples(S, rng, 12):
            assert abs(gauss_residual(S, P_NIL, u, v)) < 1e-4

    def test_codazzi_cylinder(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        r1, r2 = codazzi_residual(S, P, 0.8, 0.2)
        assert abs(r1) < 1e-4
        assert abs(r2) < 1e-4

    def test_codazzi_random_surfaces(self, rng):
        for surface, params in [
            (slant_surface(), P_NIL),
            (generic_revolution_surface(P_NIL), P_NIL),
        ]:
            for u, v, jet in random_samples(surface, rng, 6, sin_floor=0.15, params=params):
                if abs(jet.cos_alpha / jet.sin_alpha) > 10:
                    continue
                r1, r2 = codazzi_residual(surface, params, u, v)
                assert abs(r1) < 1e-3
                assert abs(r2) < 1e-3

    def test_compatibility_plane(self):
        S = flat_plane()
        jet = surface_jets(S, P_FLAT, 0.1, 0.2)
        vec, sc = compatibility_residual(S, P_FLAT, 0.1, 0.2, jet.au)
        assert frame_norm(vec) < 1e-10
        assert abs(sc) < 1e-10

    def test_compatibility_cylinder_vertical(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        jet = surface_jets(S, P, 0.8, 0.2)
        vec, sc = compatibility_residual(S, P, 0.8, 0.2, jet.T / jet.sin_alpha)
        assert frame_norm(vec) < 1e-5
        assert abs(sc) < 1e-5

    def test_compatibility_generic(self, rng):
        S = slant_surface()
        for u, v, jet in random_samples(S, rng, 6, sin_floor=0.15):
            vec, sc = compatibility_residual(S, P_NIL, u, v, jet.JT / jet.sin_alpha)
            assert frame_norm(vec) < 1e-4
            assert abs(sc) < 1e-4

    def test_surface_connection_closed_forms(self, rng):
        S = slant_surface()
        for u, v, jet in random_samples(S, rng, 5, sin_floor=0.15):
            if abs(jet.cos_alpha / jet.sin_alpha) > 10:
                continue
            assert surface_connection_residual(S, P_NIL, u, v) < 1e-3


def interior_grid(surface, nu=3, nv=4, margin=0.15):
    (u0, u1), (v0, v1) = surface.domain
    return np.meshgrid(np.linspace(u0 + margin * (u1 - u0), u1 - margin * (u1 - u0), nu),
                       np.linspace(v0 + margin * (v1 - v0), v1 - margin * (v1 - v0), nv),
                       indexing="ij")


def e2_field(S, params, u, v):
    """The adapted e2 = JT / sin(alpha) at (u, v), in frame components."""
    J = surface_jets(S, params, u, v)
    return J.JT / J.sin_alpha


class TestResidualArrays:
    SURFACES = [(slant_surface(), P_NIL), (generic_revolution_surface(P_NIL), P_NIL),
                (hopf_tube(P_NIL, *ellipse_curve(1.6, 1.0)), P_NIL)]
    EVALUATORS = {
        "brioschi": lambda S, P, u, v: brioschi_curvature(S, P, u, v),
        "gauss": lambda S, P, u, v: gauss_residual(S, P, u, v),
        "codazzi": lambda S, P, u, v: codazzi_residual(S, P, u, v),
        "compatibility": lambda S, P, u, v: compatibility_residual(S, P, u, v,
                                                                   e2_field(S, P, u, v)),
        "connection": lambda S, P, u, v: surface_connection_residual(S, P, u, v),
    }

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    @pytest.mark.parametrize("surface,params", SURFACES)
    def test_grid_call_equals_per_point_calls(self, surface, params, name):
        fn = self.EVALUATORS[name]
        U, V = interior_grid(surface)
        grid = fn(surface, params, U, V)
        points = [fn(surface, params, float(u), float(v)) for u, v in zip(U.flat, V.flat)]
        # stack the per-point results in the grid's layout, one array per output
        parts = zip(*points) if isinstance(grid, tuple) else [points]
        grid = grid if isinstance(grid, tuple) else (grid,)
        for g, part in zip(grid, parts):
            one = np.moveaxis(np.array(part), 0, -1).reshape(g.shape)
            assert np.abs(g - one).max() <= 1e-12, name

    def test_codazzi_batch_names_first_unadapted_point(self):
        # z = u^2 / 2 in flat space: the normal is vertical along u = 0
        S = ParametricSurface(lambda u, v: (u, v, 0.5 * u * u), ((-1.0, 1.0), (-1.0, 1.0)),
                              partials=lambda u, v: ((1.0, 0.0, u), (0.0, 1.0, 0.0)))
        U, V = np.array([0.3, 0.0, 0.0]), np.array([0.1, 0.2, 0.4])
        assert surface_jets(S, P_FLAT, U, V).sin_alpha[1] < EPS_ALPHA
        with pytest.raises(DegenerateSurfaceError, match=r"\(u, v\) = \(0, 0\.2\)"):
            codazzi_residual(S, P_FLAT, U, V)


# Worst jet, gauss, codazzi and compatibility residuals of the gauss-codazzi
# suite, recorded with the per-point evaluators these batches replaced.
PER_POINT_MAXIMA = {
    (0.0, 0.0): (1.1102230246251565e-16, 1.564363367734245e-07, 2.1634516372152494e-08, 8.351142317543509e-10),
    (1.0, 0.0): (1.1102230246251565e-16, 9.185709817782772e-08, 2.5948923426666326e-07, 8.726398157855111e-10),
    (-1.0, 0.0): (1.1102230246251565e-16, 2.778577638945512e-07, 1.5606971609516407e-07, 7.841037342092839e-10),
    (0.0, 0.5): (1.1102230246251565e-16, 2.438871604393267e-07, 1.2779016611563776e-07, 3.809492637844318e-09),
    (1.0, 0.5): (3.3306690738754696e-16, 1.3484184346879147e-07, 2.249831493328358e-07, 3.050319346789069e-09),
    (4.0, 1.0): (2.220446049250313e-16, 1.607122444013953e-07, 5.470695738640785e-07, 3.694236986286806e-09),
    (1.0, 1.0): (1.1102230246251565e-16, 3.2462635095320547e-07, 2.4524084807353574e-07, 5.450149535765134e-09),
    (-1.0, 0.5): (2.220446049250313e-16, 3.390981730688747e-07, 1.4782066465324206e-07, 6.0610808348054595e-09),
}


@pytest.mark.parametrize("params", PAIRS6 + [BcvParams(1.0, 1.0), BcvParams(-1.0, 0.5)],
                         ids=str)
def test_structural_maxima_match_per_point_values(params):
    worst, samples = _structural_maxima(params)
    recorded = dict(zip(("jet", "gauss", "codazzi", "compat"),
                        PER_POINT_MAXIMA[(params.kappa, params.tau)]))
    # Codazzi nests two differences of the angle at step 1e-4, so an ulp of
    # arccos moves it by ~1e-8; the other families agree to rounding.
    atol = {"jet": 1e-15, "gauss": 1e-12, "codazzi": 1e-7, "compat": 1e-12}
    for k in recorded:
        assert abs(worst[k] - recorded[k]) <= atol[k], k
