import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcvgeo.ambient import (BcvParams, coordinate_components, frame_components, frame_cross,
                            frame_dot, smoothing_factor)
from bcvgeo import biconservative as bic, immersion, suites
from bcvgeo._stencil import CROSS, NINE, Stencil
from bcvgeo.biconservative import frame_system_residual, normal_bitension, tangential_bitension
from bcvgeo.errors import DegenerateSurfaceError, DomainError
from bcvgeo.immersion import (
    DIRECTIONAL_STEP,
    EPS_ALPHA,
    LAPLACIAN_STEP,
    SECOND_STEP,
    ParametricSurface,
    Stages,
    SurfaceBatch,
    _brioschi,
    _laplacian,
    codazzi_residual,
    compatibility_residual,
    gauss_residual,
    shape_operator,
    surface_jet,
    surface_jets,
)
from bcvgeo.rotation import (
    ellipse_curve,
    generic_revolution_surface,
    hopf_cylinder,
    hopf_tube,
    revolution_surface,
)
from bcvgeo.suites import (_cylinder_radii, _interior_grid, _scaled_ellipse, _structural_checks,
                           _structural_surfaces, run_report, run_suite)

from conftest import PAIRS6, flat_plane, frame_norm, kinked_plane, sphere_surface
from profiles import slant_profile

P_FLAT = BcvParams(0.0, 0.0)
P_NIL = BcvParams(0.0, 0.5)


def slant_surface(params=P_NIL, r0=1.0, sigma0=1.0, span=(-0.5, 1.5)):
    return revolution_surface(params, slant_profile(params, r0, sigma0), span)


def coords(params, jet, a):
    """Coordinate components of the vector with frame components a at the jet."""
    return np.array(coordinate_components(params, jet.x, jet.y, a))


def surface_connection_residual(stages: Stages):
    """Max deviation of the adapted-frame surface connection from its
    closed form, at the centres:

        nabla_e1 e1 =  cot(a) (e2(a) - 2 tau) e2
        nabla_e2 e1 =  lam cot(a) e2
        nabla_e1 e2 = -cot(a) (e2(a) - 2 tau) e1
        nabla_e2 e2 = -lam cot(a) e1

    where nabla is the tangential projection of the ambient derivative,
    computed by finite differences of the adapted frame fields over the
    points of `steps`.  No subcommand checks the connection, so this oracle
    lives with its tests.
    """
    params, c = stages.params, stages.centres
    frame, U, V, t, J = stages.steps
    e = np.moveaxis(immersion._adapted_frame(J, U, V, "surface connection check"), -1, 1)
    # de[:, j, ..., i] = d_{e_i} e_j
    e0, de = immersion._central(np.array(coordinate_components(params, J.x, J.y, e)), t)
    e2a = stages.angles[1][..., 0]
    lam = c.shape.A[1][1]
    tau = params.tau
    cot = c.jet.cos_alpha / c.jet.sin_alpha
    e1, e2 = frame[..., 0], frame[..., 1]
    closed = {
        (0, 0): cot * (e2a - 2.0 * tau) * e2,
        (1, 0): lam * cot * e2,
        (0, 1): -cot * (e2a - 2.0 * tau) * e1,
        (1, 1): -lam * cot * e1,
    }
    worst = 0.0
    for (i, j), expect in closed.items():
        X = np.array(coordinate_components(params, c.jet.x, c.jet.y, frame[..., i]))
        got = immersion._tangential_covariant(params, c.jet, c.gamma, X, e0[:, j], de[:, j, ..., i])
        diff = got - expect
        worst = np.maximum(worst, np.sqrt(np.maximum(frame_dot(diff, diff), 0.0)))
    return worst


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
            (generic_revolution_surface(), P_NIL),
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
        S = generic_revolution_surface()
        for u, v, jet in random_samples(S, rng, 10):
            a, b = rng.normal(size=2)
            X = a * jet.au + b * jet.av
            JX = frame_cross(jet.n, X)
            assert abs(frame_dot(JX, JX) - frame_dot(X, X)) < 1e-9
            assert abs(frame_dot(JX, X)) < 1e-9

    def test_flat_chart_normal_is_minus_e3(self):
        # every surface has N = -(X_u ^ X_v) / |X_u ^ X_v|, so the chart
        # (u, v, 0) has N = -E3 and cos(alpha) = -1
        U, V = np.meshgrid([-0.5, 0.0, 0.5], [-0.3, 0.4], indexing="ij")
        jet = surface_jets(flat_plane(), P_FLAT, U, V)
        assert np.array_equal(jet.n, np.broadcast_to([[[0.0]], [[0.0]], [[-1.0]]], jet.n.shape))
        assert np.array_equal(jet.cos_alpha, np.full(U.shape, -1.0))
        # at the origin the frame of every space is (d_x, d_y, d_z)
        jet = surface_jets(flat_plane(), P_NIL, 0.0, 0.0)
        assert np.abs(jet.n - [0.0, 0.0, -1.0]).max() < 1e-15
        assert jet.cos_alpha == pytest.approx(-1.0, abs=1e-15)

    def test_degenerate_chart_rejected(self):
        S = ParametricSurface(lambda u, v: (u + v, u + v, 0.0), ((0, 1), (0, 1)))
        with pytest.raises(DegenerateSurfaceError):
            surface_jets(S, P_FLAT, 0.5, 0.5)


class TestJetArrays:
    SURFACES = [(slant_surface(), P_NIL), (generic_revolution_surface(), P_NIL),
                (hopf_tube(*ellipse_curve(1.6, 1.0)), P_NIL),
                (sphere_surface(), P_FLAT)]

    @pytest.mark.parametrize("surface,params", SURFACES)
    def test_grid_call_equals_per_point_calls(self, surface, params):
        (u0, u1), (v0, v1) = surface.domain
        U, V = np.meshgrid(np.linspace(u0, u1, 5), np.linspace(v0 + 0.1, v1 - 0.1, 4),
                           indexing="ij")
        grid = surface_jets(surface, params, U, V)
        sh = shape_operator(surface, params, U, V)
        for i, j in np.ndindex(U.shape):
            one = surface_jets(surface, params, U[i, j], V[i, j])
            for name, a, b in zip(grid._fields, grid, one):
                assert np.allclose(a[..., i, j], b, rtol=0.0, atol=1e-12), name
            single = shape_operator(surface, params, U[i, j], V[i, j])
            A = np.array(sh.A)[:, :, i, j]
            assert np.abs(A - np.array(single.A)).max() <= 1e-12
            assert sh.adapted[i, j] == single.adapted

    def test_scalar_jet_wraps_the_array_jet(self):
        # surface_jet stays as a pass-through to surface_jets
        S = slant_surface()
        jet = surface_jet(S, P_NIL, 0.7, 0.4)
        arr = surface_jets(S, P_NIL, np.array([0.7]), np.array([0.4]))
        for name in ("x", "y", "E", "F", "G"):
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
        sh = shape_operator(flat_plane(), P_FLAT, 0.1, 0.2)
        assert np.abs(sh.A).max() < 1e-10
        assert abs(sh.f) < 1e-10

    @pytest.mark.parametrize("tau,r0", [(0.5, 1.0), (0.7, 1.3), (0.25, 2.0)])
    def test_cylinder_matrix(self, tau, r0):
        P = BcvParams(0.0, tau)
        S = hopf_cylinder(P, r0)
        sh = shape_operator(S, P, 0.8, 0.2)
        expected = np.array([[0.0, -tau], [-tau, 1.0 / r0]])
        assert np.abs(np.array(sh.A) - expected).max() < 1e-4
        assert sh.f == pytest.approx(1.0 / r0, abs=1e-6)
        assert sh.A[1][1] == pytest.approx(1.0 / r0, abs=1e-6)

    def test_symmetry(self, rng):
        for surface, params in [
            (slant_surface(), P_NIL),
            (generic_revolution_surface(), P_NIL),
            (hopf_tube(*ellipse_curve(1.6, 1.0)), P_NIL),
        ]:
            for u, v, _ in random_samples(surface, rng, 5, params=params):
                sh = shape_operator(surface, params, u, v)
                assert abs(sh.A[0][1] - sh.A[1][0]) < 1e-6

    def test_offdiagonal_matches_angle_derivative(self, rng):
        S = slant_surface()
        for u, v, jet in random_samples(S, rng, 5, sin_floor=0.2):
            sh = shape_operator(S, P_NIL, u, v)
            e2a = Stages(S, P_NIL, u, v).angles[1][..., 0]   # e2(a) at the centre
            assert abs(sh.A[0][1] - (e2a - P_NIL.tau)) < 1e-4


def laplacian(S, params, u, v, field):
    """Delta of the chart field `field` at (u, v), from the stencils and
    jets of the Laplacian stage of Stages."""
    st, mst = Stencil(NINE, LAPLACIAN_STEP, u, v), Stencil(CROSS, DIRECTIONAL_STEP, u, v)
    return _laplacian(st, mst, surface_jets(S, params, mst.U, mst.V), field(st.U, st.V))


def brioschi(S, params, u, v):
    """Brioschi K at (u, v) from its own jets over the NINE stencil."""
    st = Stencil(NINE, SECOND_STEP, u, v)
    return _brioschi(st, surface_jets(S, params, st.U, st.V))


class TestFields:
    # each case takes one grid call
    def test_constant_field(self):
        U, V = np.meshgrid([0.1, -0.6], [0.4, 0.7, -0.2], indexing="ij")
        lap = laplacian(flat_plane(), P_FLAT, U, V, lambda u, v: np.full(np.shape(u), 3.25))
        assert lap.shape == U.shape
        assert np.abs(lap).max() < 1e-12

    def test_flat_laplacian_sign(self):
        U, V = np.meshgrid([0.2, -0.5], [-0.3, 0.6], indexing="ij")
        lap = laplacian(flat_plane(), P_FLAT, U, V, lambda u, v: u * u + v * v)
        assert np.abs(lap + 4.0).max() < 1e-6

    def test_sphere_eigenfunction(self):
        # cos(polar angle) is a first spherical harmonic: with the
        # Delta = -div grad convention its Laplacian is +2 cos(u) on the
        # unit sphere.
        us = np.array([0.8, 1.4, 2.2])
        lap = laplacian(sphere_surface(1.0), P_FLAT, us, 0.9, lambda u, v: np.cos(u))
        assert np.abs(lap - 2.0 * np.cos(us)).max() < 1e-4


class TestCurvatureResiduals:
    def test_plane_gauss_zero(self):
        assert abs(gauss_residual(Stages(flat_plane(), P_FLAT, 0.1, 0.2))) < 1e-8

    def test_sphere_intrinsic_curvature(self):
        S = sphere_surface(1.0)
        assert brioschi(S, P_FLAT, 1.1, 0.8) == pytest.approx(1.0, abs=1e-5)
        assert abs(gauss_residual(Stages(S, P_FLAT, 1.1, 0.8))) < 1e-5

    def test_cylinder_gauss_closed_forms(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        sh = shape_operator(S, P, 0.8, 0.2)
        assert np.linalg.det(np.array(sh.A)) == pytest.approx(-P.tau ** 2, abs=1e-6)
        assert abs(brioschi(S, P, 0.8, 0.2)) < 1e-6
        assert abs(gauss_residual(Stages(S, P, 0.8, 0.2))) < 1e-4

    def test_gauss_residual_grid(self, rng):
        S = slant_surface()
        for u, v, _ in random_samples(S, rng, 12):
            assert abs(gauss_residual(Stages(S, P_NIL, u, v))) < 1e-4

    def test_codazzi_cylinder(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        r1, r2 = codazzi_residual(Stages(S, P, 0.8, 0.2))
        assert abs(r1) < 1e-4
        assert abs(r2) < 1e-4

    def test_codazzi_random_surfaces(self, rng):
        for surface, params in [
            (slant_surface(), P_NIL),
            (generic_revolution_surface(), P_NIL),
        ]:
            for u, v, jet in random_samples(surface, rng, 6, sin_floor=0.15, params=params):
                if abs(jet.cos_alpha / jet.sin_alpha) > 10:
                    continue
                r1, r2 = codazzi_residual(Stages(surface, params, u, v))
                assert abs(r1) < 1e-3
                assert abs(r2) < 1e-3

    def test_compatibility_cylinder_vertical(self):
        P = BcvParams(0.0, 0.5)
        S = hopf_cylinder(P, 1.0)
        vec, sc = compatibility_residual(Stages(S, P, 0.8, 0.2))
        assert frame_norm(vec[..., 0]) < 1e-5   # along e1
        assert abs(sc[0]) < 1e-5

    def test_compatibility_generic(self, rng):
        S = slant_surface()
        for u, v, jet in random_samples(S, rng, 6, sin_floor=0.15):
            vec, sc = compatibility_residual(Stages(S, P_NIL, u, v))
            for i in range(2):   # along e1 and e2
                assert frame_norm(vec[..., i]) < 1e-4
                assert abs(sc[i]) < 1e-4

    def test_surface_connection_closed_forms(self, rng):
        S = slant_surface()
        for u, v, jet in random_samples(S, rng, 5, sin_floor=0.15):
            if abs(jet.cos_alpha / jet.sin_alpha) > 10:
                continue
            assert surface_connection_residual(Stages(S, P_NIL, u, v)) < 1e-3


def interior_grid(surface, nu=3, nv=4, margin=0.15):
    (u0, u1), (v0, v1) = surface.domain
    return np.meshgrid(np.linspace(u0 + margin * (u1 - u0), u1 - margin * (u1 - u0), nu),
                       np.linspace(v0 + margin * (v1 - v0), v1 - margin * (v1 - v0), nv),
                       indexing="ij")


def parabolic_cylinder():
    """z = u^2 / 2 in flat space: the normal is vertical along u = 0, where
    sin(alpha) = |u| / sqrt(1 + u^2) vanishes."""
    return ParametricSurface(lambda u, v: (u, v, 0.5 * u * u), ((-1.0, 1.0), (-1.0, 1.0)),
                             partials=lambda u, v: ((1.0, 0.0, u), (0.0, 1.0, 0.0)),
                             name="parabolic-cylinder")


def e2_column(compat):
    """The law of T along e2, from the (vector, scalar) of
    compatibility_residual."""
    return tuple(r[..., 1] for r in compat)


class TestResidualArrays:
    SURFACES = [(slant_surface(), P_NIL), (generic_revolution_surface(), P_NIL),
                (hopf_tube(*ellipse_curve(1.6, 1.0)), P_NIL)]
    EVALUATORS = {
        "brioschi": brioschi,
        "gauss": lambda S, P, u, v: gauss_residual(Stages(S, P, u, v)),
        "codazzi": lambda S, P, u, v: codazzi_residual(Stages(S, P, u, v)),
        # (e1, e2) on the first axis, so that the centres come last
        "compatibility": lambda S, P, u, v: tuple(
            np.moveaxis(r, -1, 0) for r in compatibility_residual(Stages(S, P, u, v))),
        "compatibility-e2": lambda S, P, u, v: e2_column(compatibility_residual(Stages(S, P, u, v))),
        "connection": lambda S, P, u, v: surface_connection_residual(Stages(S, P, u, v)),
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
        S = parabolic_cylinder()
        U, V = np.array([0.3, 0.0, 0.0]), np.array([0.1, 0.2, 0.4])
        assert surface_jets(S, P_FLAT, U, V).sin_alpha[1] < EPS_ALPHA
        with pytest.raises(DegenerateSurfaceError, match=r"\(u, v\) = \(0, 0\.2\)"):
            codazzi_residual(Stages(S, P_FLAT, U, V))


def structural_maxima(params):
    """The worst value of each check of _structural_checks, None for a
    check with no values, and the number of grid points."""
    stages = suites._SurfacePass(params, ["gauss-codazzi"]).stages
    return {c.label: c.worst for c in _structural_checks(stages)}, stages.u.size


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

# The suite reads the law of T along e1 too, which the per-point evaluators
# above did not record: its worst value, recorded from the batched
# evaluator, whose e2 column matches the record above to 2.1e-16.
E1_COMPAT_MAXIMA = {
    (0.0, 0.0): 4.338177653863224e-09,
    (1.0, 0.0): 3.6619158315159242e-09,
    (-1.0, 0.0): 9.09303013717055e-09,
    (0.0, 0.5): 5.206550518071319e-09,
    (1.0, 0.5): 3.771220245201418e-09,
    (4.0, 1.0): 2.6453482479021356e-09,
    (1.0, 1.0): 4.1848889884980785e-09,
    (-1.0, 0.5): 1.04970142625905e-08,
}


@pytest.mark.parametrize("params", PAIRS6 + [BcvParams(1.0, 1.0), BcvParams(-1.0, 0.5)],
                         ids=str)
def test_structural_maxima_match_per_point_values(params):
    worst, samples = structural_maxima(params)
    recorded = dict(zip(("jet", "gauss", "codazzi", "compat"),
                        PER_POINT_MAXIMA[(params.kappa, params.tau)]))
    recorded["compat"] = max(recorded["compat"], E1_COMPAT_MAXIMA[(params.kappa, params.tau)])
    # Codazzi nests two differences of the angle at step 1e-4, so an ulp of
    # arccos moves it by ~1e-8; the other families agree to rounding.
    atol = {"jet": 1e-15, "gauss": 1e-12, "codazzi": 1e-7, "compat": 1e-12}
    for k in recorded:
        assert abs(worst[k] - recorded[k]) <= atol[k], k


def suite_mask(jet):
    """The points where the gauss-codazzi suite evaluates Codazzi and the
    law of T.  The suite tests sin(alpha) > 0.1 alone, which keeps
    |cot(alpha)| below 9.95; the second pass here, |cot(alpha)| < 10, lets
    the tests that compare with the suite see that it drops no further
    point."""
    ok = jet.sin_alpha > 0.1
    ok[ok] = np.abs(jet.cos_alpha[ok] / jet.sin_alpha[ok]) < 10.0
    return ok


def assert_same_bits(a, b):
    """a and b are equal bit for bit: arrays, or (nested) tuples of them."""
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def standalone_maxima(params, surfaces):
    """The gauss, codazzi and compat maxima of _structural_checks, from the
    own Stages of each grid and of its kept points, so with no batch."""
    worst = dict.fromkeys(("gauss", "codazzi", "compat"), 0.0)
    for surface, nu, nv in surfaces:
        U, V = _interior_grid(surface, nu, nv)
        jet = surface_jets(surface, params, U, V)
        worst["gauss"] = max(worst["gauss"],
                             float(np.abs(gauss_residual(Stages(surface, params, U, V))).max()))
        ok = suite_mask(jet)
        if ok.any():
            kept = Stages(surface, params, U[ok], V[ok])
            c1, c2 = codazzi_residual(kept)
            worst["codazzi"] = max(worst["codazzi"], float(np.abs(c1).max()),
                                   float(np.abs(c2).max()))
            vec, sc = compatibility_residual(kept)
            worst["compat"] = max(worst["compat"],
                                  float(np.sqrt(np.maximum(frame_dot(vec, vec), 0.0)).max()),
                                  float(np.abs(sc).max()))
    return worst


class TestStages:
    GRIDS = [(S, P, nu, nv) for P in PAIRS6 for S, nu, nv in _structural_surfaces(P)]
    # the mask drops the column u = 0, where sin(alpha) = 0
    GRIDS.append((parabolic_cylinder(), P_FLAT, 5, 3))

    @pytest.mark.parametrize("surface,params,nu,nv", GRIDS,
                             ids=lambda x: getattr(x, "name", None) or str(x))
    def test_staged_residuals_equal_standalone_calls(self, surface, params, nu, nv):
        U, V = _interior_grid(surface, nu, nv)
        stages = Stages(surface, params, U, V)
        c = stages.centres
        # stage 1 is one jet call over the normal and Brioschi stencils
        assert_same_bits(c.jet, surface_jets(surface, params, U, V))
        assert_same_bits(c.shape.A, shape_operator(surface, params, U, V).A)
        assert_same_bits(c.K, brioschi(surface, params, U, V))
        ok = suite_mask(c.jet)
        assert ok.any()
        u, v, sub = U[ok], V[ok], stages.at(ok)
        kept = Stages(surface, params, u, v)
        assert_same_bits(codazzi_residual(sub), codazzi_residual(kept))
        assert_same_bits(compatibility_residual(sub), compatibility_residual(kept))

    @pytest.mark.parametrize("params", PAIRS6, ids=str)
    def test_structural_maxima_equal_standalone_maxima(self, params):
        worst, _ = structural_maxima(params)
        assert {k: worst[k] for k in ("gauss", "codazzi", "compat")} == \
            standalone_maxima(params, _structural_surfaces(params))

    def test_mask_dropping_some_points(self, monkeypatch):
        S = parabolic_cylinder()
        U, V = _interior_grid(S, 5, 3)
        ok = suite_mask(surface_jets(S, P_FLAT, U, V))
        assert ok.sum() == 12
        monkeypatch.setattr("bcvgeo.suites._structural_surfaces", lambda params: [(S, 5, 3)])
        worst, samples = structural_maxima(P_FLAT)
        assert samples == 15
        assert {k: worst[k] for k in ("gauss", "codazzi", "compat")} == \
            standalone_maxima(P_FLAT, [(S, 5, 3)])
        # the law of T is evaluated at the 12 kept points: along e2, where the
        # surface is straight, it reads rounding, and the suite reports the
        # truncation of the differences of T along e1
        vec, sc = compatibility_residual(Stages(S, P_FLAT, U[ok], V[ok]))
        e1, e2 = (max(float(np.sqrt(np.maximum(frame_dot(vec[..., i], vec[..., i]), 0.0)).max()),
                      float(np.abs(sc[..., i]).max())) for i in (0, 1))
        assert 0.0 < e2 < 1e-12 and worst["compat"] == e1 > e2
        assert worst["codazzi"] < 1e-12

    def test_mask_dropping_every_point(self, monkeypatch):
        # sin(alpha) = 0 on the plane z = 0: Codazzi and the law of T would
        # raise there, so only the jet and Gauss residuals are reported and
        # the checks of the other two are skipped
        plane = flat_plane()
        U, V = _interior_grid(plane, 3, 3)
        with pytest.raises(DegenerateSurfaceError):
            codazzi_residual(Stages(plane, P_FLAT, U, V))
        monkeypatch.setattr("bcvgeo.suites._structural_surfaces", lambda params: [(plane, 3, 3)])
        worst, samples = structural_maxima(P_FLAT)
        assert samples == 9
        assert worst["codazzi"] is worst["compat"] is None
        assert worst["jet"] < 1e-9 and worst["gauss"] < 1e-8


def count_jets(monkeypatch):
    """The number of points of each surface_jets call from now on."""
    sizes = []
    jets = immersion.surface_jets

    def counted(S, params, u, v):
        sizes.append(np.broadcast(u, v).size)
        return jets(S, params, u, v)

    monkeypatch.setattr(immersion, "surface_jets", counted)
    return sizes


def test_gauss_codazzi_jet_count(monkeypatch):
    """One gauss-codazzi run at (0, 0.5) makes 4 surface_jets calls over
    4,440 points: 74 grid points on 5 grids in one surface batch, with
    stage 1 (17 points per grid point), stage 2 (5), the angle around stage
    2 (20) and the shape operator at the +-e1 steps (18).  With one
    pipeline per grid the same run made 20 calls, and with no stages shared
    between the residuals 45 calls over 6,586 points."""
    sizes = count_jets(monkeypatch)
    assert run_suite("gauss-codazzi", BcvParams(0.0, 0.5))["pass"]
    assert (len(sizes), sum(sizes)) == (4, 4440)


@pytest.mark.parametrize("params", PAIRS6, ids=str)
@pytest.mark.parametrize("suite", ["biconservative", "theorem44"])
def test_bitension_suites_make_one_jet_call(monkeypatch, suite, params):
    # every surface of the suite in one tangential_bitension call:
    # 45 jets per point, its 5 gradient points times 9 normal-stencil points
    sizes = count_jets(monkeypatch)
    result = run_suite(suite, params)
    assert sizes == [45 * result["samples"]]


@pytest.mark.parametrize("params", PAIRS6 + [BcvParams(-14.0, 0.5), BcvParams(-16.0, 0.5)],
                         ids=str)
def test_report_makes_one_bitension_jet_call(monkeypatch, params):
    # both halves of the Hopf-tube statement read one tangential_bitension
    # call over the cylinders (one at kappa = -14, none at -16) and the
    # ellipse tube, and each reports what it reports alone
    alone = {n: run_report(params, [n])["suites"][0] for n in ("biconservative", "theorem44")}
    sizes, under_bitension = count_jets(monkeypatch), []
    bitension = bic.tangential_bitension

    def counted(stages):
        start = len(sizes)
        out = bitension(stages)
        under_bitension.extend(sizes[start:])
        return out

    monkeypatch.setattr(bic, "tangential_bitension", counted)
    report = {e["name"]: e for e in run_report(params)["suites"]}
    assert under_bitension == [45 * sum(e["samples"] for e in alone.values())]
    for name, entry in alone.items():
        assert json.dumps(report[name]) == json.dumps(entry)


class TestSharedStages:
    """Each stage of a Stages is one jet call, made on first read and never
    again, whichever residual reads it."""

    SURFACE = generic_revolution_surface()

    def centres_grid(self):
        U, V = interior_grid(self.SURFACE)
        return U, V, Stages(self.SURFACE, P_NIL, U, V)

    def test_bitension_reads_only_its_gradient_stage(self, monkeypatch):
        U, V, stages = self.centres_grid()
        sizes = count_jets(monkeypatch)
        tangential_bitension(stages)
        assert sizes == [45 * U.size]
        assert "centres" not in vars(stages)
        tangential_bitension(stages)
        assert len(sizes) == 1

    def test_frame_system_after_codazzi_reuses_steps_and_angles(self, monkeypatch):
        U, V, stages = self.centres_grid()
        codazzi_residual(stages)
        steps, angles = stages.steps, stages.angles
        sizes = count_jets(monkeypatch)
        frame_system_residual(stages)
        # only lam at the +-e2 steps, 9 normal-stencil points each
        assert sizes == [18 * U.size]
        assert stages.steps is steps and stages.angles is angles

    def test_normal_bitension_reads_only_its_laplacian_stage(self, monkeypatch):
        U, V, stages = self.centres_grid()
        sizes = count_jets(monkeypatch)
        normal_bitension(stages)
        # the shape operator over the 9-point stencil, and the metric over 5 points
        assert sizes == [81 * U.size, 5 * U.size]
        assert not {"centres", "steps", "gradient"} & set(vars(stages))


def joined(parts, axis):
    """Per-member results, arrays or (nested, named) tuples of them, joined
    along `axis`."""
    if isinstance(parts[0], tuple):
        items = [joined(list(p), axis) for p in zip(*parts)]
        return parts[0]._make(items) if hasattr(parts[0], "_make") else tuple(items)
    return np.concatenate([np.asarray(p) for p in parts], axis=axis)


def fd_graph():
    """A graph over the flat plane with finite-difference chart partials."""
    return ParametricSurface(lambda u, v: (u, v, 0.3 * np.sin(u) * np.cos(v) + 0.2 * u * v),
                             ((-1.0, 1.0), (-1.0, 1.0)), name="fd-graph")


def with_fd_member(params):
    """The structural grids at params, and the ellipse tube again with
    finite-difference partials."""
    curve, _ = _scaled_ellipse(params)
    return _structural_surfaces(params) + [(hopf_tube(curve, name="fd-tube"), 4, 3)]


class TestSurfaceBatch:
    # (params, grids, rows of each member that the suite's mask keeps)
    CASES = [(P, with_fd_member(P), None) for P in PAIRS6]
    # the mask drops one column of the parabolic cylinder and all of the plane
    CASES.append((P_FLAT, [(parabolic_cylinder(), 5, 3), (flat_plane(), 3, 3), (fd_graph(), 4, 3)],
                  [12, 0, 12]))

    @pytest.mark.parametrize("params,grids,kept", CASES,
                             ids=[f"{P}-{len(grids)}-members" for P, grids, _ in CASES])
    def test_batch_equals_member_calls(self, monkeypatch, params, grids, kept):
        monkeypatch.setattr(suites, "_structural_surfaces", lambda params: grids)
        stages = suites._SurfacePass(params, ()).stages
        batch = stages.S
        ok = suite_mask(stages.centres.jet)
        sub = stages.at(ok)
        counts = [n for _, n in sub.S.members]
        assert counts == [int(ok[rows].sum()) for _, rows in batch._rows()]
        assert kept is None or counts == kept
        got = {"centres": stages.centres, "gauss": gauss_residual(stages),
               "steps": sub.steps, "codazzi": codazzi_residual(sub),
               "compat": compatibility_residual(sub),
               "bitension": tangential_bitension(stages)}
        want = {k: [] for k in got}
        for S, nu, nv in grids:
            u, v = (a.ravel() for a in _interior_grid(S, nu, nv))
            own = Stages(S, params, u, v)
            want["centres"].append(own.centres)
            want["gauss"].append(gauss_residual(own))
            want["bitension"].append(tangential_bitension(own))
            keep = suite_mask(own.centres.jet)
            if keep.any():
                u, v = u[keep], v[keep]
                want["steps"].append(own.at(keep).steps)
                kept = Stages(S, params, u, v)
                want["codazzi"].append(codazzi_residual(kept))
                want["compat"].append(compatibility_residual(kept))
        for name, value in got.items():
            # stage 2 and the law of T along (e1, e2) keep the centres on the
            # next-to-last axis
            assert_same_bits(value, joined(want[name], -2 if name in ("steps", "compat") else -1))

    def test_member_with_no_rows(self):
        # a member stays in the batch with count 0: its chart sees empty arrays
        batch = SurfaceBatch([(flat_plane(), 0), (fd_graph(), 2)])
        u, v = np.array([0.1, 0.4]), np.array([0.2, -0.3])
        assert_same_bits(surface_jets(batch, P_FLAT, u, v), surface_jets(fd_graph(), P_FLAT, u, v))
        with pytest.raises(ValueError, match="2 centres on axis 0"):
            surface_jets(batch, P_FLAT, np.zeros(3), np.zeros(3))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            SurfaceBatch([])

    def test_degenerate_error_names_member(self):
        batch = SurfaceBatch([(flat_plane(), 2), (kinked_plane(), 3)])
        u = np.array([0.1, 0.7, 0.3, 0.6, 0.9])
        with pytest.raises(DegenerateSurfaceError,
                           match=r"^kinked-plane: .*\(u, v\) = \(0\.6, 0\.25\)"):
            surface_jets(batch, P_FLAT, u, 0.25)

    def test_domain_error_names_member(self):
        P = BcvParams(-1.0, 0.0)   # domain x^2 + y^2 < 4
        def plane(name):
            return ParametricSurface(lambda u, v: (u, v, 0.0), ((0.0, 3.0), (0.0, 1.0)), name=name)
        batch = SurfaceBatch([(plane("inner"), 2), (plane("outer"), 2)])
        u = np.array([1.0, 1.5, 1.0, 2.5])
        with pytest.raises(DomainError, match=r"^outer: .*\(u, v\) = \(2\.5, 0\.5\)"):
            surface_jets(batch, P, u, 0.5)
        # the first failing stencil point of stage 1 lies on the outer member
        with pytest.raises(DomainError, match=r"^outer: "):
            Stages(batch, P, np.array([1.0, 1.5, 1.0, 1.99999]), np.full(4, 0.5)).centres


def bitension_norms(S, params, u, v):
    """|tangential bitension| of one surface, with no batch."""
    return np.linalg.norm(tangential_bitension(Stages(S, params, u, v)), axis=0)


def per_surface_entries(params):
    """The gauss-codazzi, biconservative and theorem44 entries of run_report
    computed as the suites computed them before they batched their
    surfaces: one standalone pipeline per surface.  The Hopf cylinders (4x3
    grids) and the ellipse tube (6x3) of the last two are built here, so
    the entries also pin which structural surfaces each suite reads."""
    grids = _structural_surfaces(params)
    worst = standalone_maxima(params, grids)
    worst["jet"], samples = 0.0, 0
    for surface, nu, nv in grids:
        U, V = _interior_grid(surface, nu, nv)
        J = surface_jets(surface, params, U, V)
        samples += U.size
        T, N = coords(params, J, J.T), coords(params, J, J.n)
        Tf = frame_components(params, J.x, J.y, T)
        worst["jet"] = max(worst["jet"], float(np.abs(frame_dot(Tf, Tf) - J.sin_alpha ** 2).max()),
                           float(np.abs(np.array([0.0, 0.0, 1.0])[:, None, None]
                                        - T - J.cos_alpha * N).max()))
    tols = {"jet": 1e-9, "gauss": 1e-4, "codazzi": 1e-3, "compat": 1e-4}
    keys = ("jet", "gauss", "codazzi", "compat")
    ratio = max(worst[k] / tols[k] for k in keys)
    entries = {"gauss-codazzi": (samples, ratio, ratio < 1.0,
                                 "; ".join(f"{k} {worst[k]:.2e}/{tols[k]:.2e}" for k in keys))}

    worst_tb, samples = 0.0, 0
    radii = _cylinder_radii(params)
    for r0 in radii:
        cyl = hopf_cylinder(params, r0)
        tb = bitension_norms(cyl, params, *_interior_grid(cyl, 4, 3))
        worst_tb = max(worst_tb, float(tb.max()))
        samples += tb.size
    entries["biconservative"] = (samples, worst_tb / 1e-6, worst_tb < 1e-6,
                                 f"cylinder bitension {worst_tb:.2e}/1.00e-06" if radii else
                                 "skipped: cylinder bitension")

    tube = hopf_tube(*_scaled_ellipse(params))
    tb = bitension_norms(tube, params, *_interior_grid(tube, 6, 3))
    ellipse = float(tb.max())
    entries["theorem44"] = (tb.size, 0.0, ellipse > 1e-3,
                            f"ellipse tube max {ellipse:.2e} > 1.00e-03")
    return entries


@st.composite
def edge_pairs(draw):
    """kappa < 0 with a cylinder radius of the suites next to F = 0.1, the
    floor below which a radius is dropped; or |kappa - 4 tau^2| about 1e-6."""
    if draw(st.booleans()):
        r = draw(st.sampled_from([0.5, 1.0, 2.0]))
        return BcvParams(-3.6 / (r * r) * (1.0 + draw(st.floats(-1e-3, 1e-3))),
                         draw(st.floats(0.0, 1.2)))
    tau = draw(st.floats(0.05, 1.2))
    gap = draw(st.floats(0.5e-6, 2e-6)) * draw(st.sampled_from([-1.0, 1.0]))
    return BcvParams(4.0 * tau * tau + gap, tau)


@given(edge_pairs(), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_batched_suites_equal_per_surface_reference(params, seed):
    report = run_report(params, ["gauss-codazzi", "biconservative", "theorem44"], seed)
    want = per_surface_entries(params)
    for entry in report["suites"]:
        got = (entry["samples"], entry["max_residual"], entry["pass"], entry["note"])
        assert got == want[entry["name"]], (params, entry["name"])
