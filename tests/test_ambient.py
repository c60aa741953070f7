import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvgeo._stencil import CROSS, Stencil
from bcvgeo.ambient import (
    FD_STEP,
    BcvParams,
    GeometryClass,
    _inverse_metric,
    base_metric,
    christoffels,
    classify_space,
    coordinate_components,
    frame_at,
    frame_components,
    frame_cross,
    frame_dot,
    hopf_dpsi,
    metric_matrix,
    ricci,
    ricci_tensor_fd,
    smoothing_factor,
)
from bcvgeo.errors import DomainError
from bcvgeo.suites import sample_domain_points

from conftest import PAIRS6, PAIRS7, frame_of, make_rng


def g(params, x, y, a, b):
    """The metric on the coordinate components a, b at (x, y), componentwise."""
    return frame_dot(frame_components(params, x, y, a), frame_components(params, x, y, b))


def norm(params, x, y, a):
    return np.sqrt(g(params, x, y, a, a))


def _stencil_derivatives(field, p, step=FD_STEP):
    """d_i of field(x, y, z) at the points p = (x, y, z), i = 0, 1, 2, by
    central differences with steps scaled by coordinate size."""
    p = np.asarray(p, dtype=float)
    h = step * np.maximum(1.0, np.abs(p))
    d = []
    for i in range(3):
        e = np.zeros_like(p)
        e[i] = h[i]
        d.append((field(*(p + e)) - field(*(p - e))) / (2.0 * h[i]))
    return np.array(d)


def connection(params, p, X, field):
    """Covariant derivative nabla_X V at the points p of the vector field
    V = field(x, y, z); X, V and the result in coordinate components.  The
    chart derivative of V is taken on this module's own stencil at the
    step of :func:`christoffels`; only the Christoffel symbols come from
    that function."""
    dV = _stencil_derivatives(field, p)
    gamma = christoffels(params, p[0], p[1])
    return (np.einsum("i...,ik...->k...", X, dV)
            + np.einsum("kij...,i...,j...->k...", gamma, X, field(*p)))


def lie_bracket(p, xfield, yfield, step=FD_STEP):
    """Coordinate Lie bracket [X, Y] of two vector fields at the points p."""
    dX = _stencil_derivatives(xfield, p, step)
    dY = _stencil_derivatives(yfield, p, step)
    return (np.einsum("i...,ik...->k...", xfield(*p), dY)
            - np.einsum("i...,ik...->k...", yfield(*p), dX))


def _poly_field(a):
    """Smooth vector field with polynomial/trig coordinate dependence; the
    coefficients a[0..8] may be arrays, one value per point."""

    def field(x, y, z):
        return np.array([
            a[0] + a[1] * y + a[2] * np.sin(x),
            a[3] + a[4] * x * x + a[5] * z,
            a[6] + a[7] * x + a[8] * np.cos(y),
        ])

    return field


class TestSmoothingFactor:
    def test_flat_is_one_everywhere(self):
        P = BcvParams(0.0, 0.3)
        for x, y in [(0, 0), (1, 1), (-3, 7)]:
            assert smoothing_factor(P, x, y) == 1.0

    def test_positive_curvature_value(self):
        assert smoothing_factor(BcvParams(4.0, 0.0), 1.0, 1.0) == 3.0

    def test_boundary_point_rejected(self):
        P = BcvParams(-4.0, 0.0)
        assert smoothing_factor(P, 1.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            metric_matrix(P, 1.0, 0.0)
        with pytest.raises(DomainError):
            christoffels(P, 1.0, 0.0)

    @pytest.mark.parametrize("evaluate,prefix", [
        (metric_matrix, "metric evaluated outside domain"),
        (lambda P, x, y: base_metric(P, x, y, (1.0, 0.0), (1.0, 0.0)),
         "base point outside domain")], ids=["metric_matrix", "base_metric"])
    def test_domain_error_names_the_first_point(self, evaluate, prefix):
        # kappa = -4: F = 1 - x^2 is 0.75, 0 and -1.25 at the three points
        where = r", F = 0\.000e\+00 at \(x, y\) = \(1, 0\)"
        with pytest.raises(DomainError, match=prefix + where):
            evaluate(BcvParams(-4.0, 0.0), np.array([0.5, 1.0, 1.5]), 0.0)

    def test_singular_metric_rejected(self):
        # F = 2.5e307: 1/F^2 underflows, so g would have rank 1; the error
        # names the first such point
        P = BcvParams(1e308, 0.5)
        with pytest.raises(DomainError, match=r"singular at \(x, y\) = \(1, 0\)"):
            metric_matrix(P, np.array([0.0, 1.0]), 0.0)
        with pytest.raises(DomainError, match="singular"):
            christoffels(P, 1.0, 0.0)

    @given(st.floats(-10, 10), st.floats(allow_nan=False, allow_infinity=False),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sampled_points_inside_domain(self, kappa, tau, seed):
        P = BcvParams(kappa, tau)
        x, y, z = sample_domain_points(P, make_rng(seed), 50)
        assert np.isfinite([x, y, z]).all()
        F = smoothing_factor(P, x, y)
        assert F.min() >= (1.0 if kappa >= 0.0 else 1.0 - 0.75 ** 2)


class TestClassification:
    @pytest.mark.parametrize("kappa,tau,expected", [
        (0.0, 0.0, GeometryClass.EUCLIDEAN),
        (4.0, 1.0, GeometryClass.SPHERE_MINUS_POINT),
        (1.0, -0.5, GeometryClass.SPHERE_MINUS_POINT),
        (2.0, 0.0, GeometryClass.SPHERE_TIMES_LINE),
        (-1.0, 0.0, GeometryClass.HYPERBOLIC_TIMES_LINE),
        (1.0, 0.7, GeometryClass.SU2_MINUS_POINT),
        (-1.0, 0.5, GeometryClass.SL2R_COVER),
        (0.0, 0.5, GeometryClass.NIL3),
        (0.0, -2.0, GeometryClass.NIL3),
    ])
    def test_scheme(self, kappa, tau, expected):
        assert classify_space(BcvParams(kappa, tau)) is expected

    @given(st.floats(-10, 10), st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_total_and_tau_sign_invariant(self, kappa, tau):
        cls = classify_space(BcvParams(kappa, tau))
        assert isinstance(cls, GeometryClass)
        assert cls is classify_space(BcvParams(kappa, -tau))

    def test_space_form_predicate(self):
        assert BcvParams(4.0, 1.0).is_space_form
        assert BcvParams(0.0, 0.0).is_space_form
        assert not BcvParams(1.0, 1.0).is_space_form


class TestMetric:
    def test_vertical_direction_unit(self):
        dz = np.array([0.0, 0.0, 1.0])[:, None]
        for P in PAIRS6:
            x, y, _ = sample_domain_points(P, make_rng(1), 5)
            assert g(P, x, y, dz, dz) == pytest.approx(1.0, abs=1e-15)

    def test_origin_dx_unit(self):
        for P in PAIRS6:
            dx = (1.0, 0.0, 0.0)
            assert g(P, 0.0, 0.0, dx, dx) == pytest.approx(1.0, abs=1e-15)

    def test_dy_value_off_axis(self):
        # independent oracle: sum the two quadratic-form terms of the metric
        # at (1, 0, 0) with kappa=0, tau=1/2: (dy/F)^2 = 1 and
        # (dz + tau(y dx - x dy)/F)(d_y) = -tau, so the value is 1 + tau^2.
        P = BcvParams(0.0, 0.5)
        x, y = 1.0, 0.0
        dy = (0.0, 1.0, 0.0)
        F = smoothing_factor(P, x, y)
        w2_term = (1.0 / F) ** 2
        w3_term = (P.tau * (y * 0 - x * 1) / F) ** 2
        assert w2_term + w3_term == 1.25
        assert g(P, x, y, dy, dy) == pytest.approx(1.25, abs=1e-15)

    @given(st.integers(0, len(PAIRS6) - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_positive_definite(self, pair_idx, seed):
        P = PAIRS6[pair_idx]
        rng = make_rng(seed)
        x, y, _ = sample_domain_points(P, rng, 1)
        comps = rng.normal(size=3)
        if np.abs(comps).max() < 1e-6:
            comps = np.array([1.0, 0.0, 0.0])
        assert g(P, x[0], y[0], comps, comps) > 0.0


class TestFrame:
    def test_origin_is_coordinate_frame(self):
        for P in PAIRS6:
            assert np.allclose(frame_at(P, 0.0, 0.0), np.eye(3))

    def test_twisted_frame_components(self):
        P = BcvParams(0.0, 1.0)
        e1, e2, _ = frame_at(P, 1.0, 2.0)
        assert np.allclose(e1, [1.0, 0.0, -2.0])
        assert np.allclose(e2, [0.0, 1.0, 1.0])

    def test_orthonormality(self):
        worst = 0.0
        for P in PAIRS6:
            x, y, _ = sample_domain_points(P, make_rng(7), 30)
            f = frame_of(P, x, y, frame_at(P, x, y))
            gram = frame_dot(f[:, :, None], f[:, None, :])
            worst = max(worst, float(np.abs(gram - np.eye(3)[..., None]).max()))
        assert worst < 1e-10

    def test_cross_is_right_handed(self):
        for P in PAIRS6:
            x, y, _ = sample_domain_points(P, make_rng(3), 1)
            E = frame_at(P, x, y)
            f = frame_of(P, x, y, E)
            for i, j, k in [(0, 1, 2), (1, 2, 0)]:
                c = np.array(coordinate_components(P, x, y, frame_cross(f[:, i], f[:, j])))
                assert norm(P, x, y, c - E[k]).max() < 1e-12

    @given(st.integers(0, len(PAIRS6) - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_component_round_trip(self, pair_idx, seed):
        P = PAIRS6[pair_idx]
        rng = make_rng(seed)
        x, y, _ = sample_domain_points(P, rng, 8)
        a = rng.normal(size=(3, 8))
        back = np.array(frame_components(P, x, y, coordinate_components(P, x, y, a)))
        assert np.all(np.linalg.norm(back - a, axis=0) <= 1e-12 * np.linalg.norm(a, axis=0))

    @given(st.integers(0, len(PAIRS6) - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_frame_rows_are_coordinate_unit_vectors(self, pair_idx, seed):
        P = PAIRS6[pair_idx]
        x, y, _ = sample_domain_points(P, make_rng(seed), 8)
        E = frame_at(P, x, y)
        assert E.shape == (3, 3, 8)
        for i, e in enumerate(np.eye(3)):
            np.testing.assert_array_equal(
                E[i], np.array(coordinate_components(P, x, y, e[:, None])))


class TestConnection:
    def test_euclidean_coordinate_fields_parallel(self):
        P = BcvParams(0.0, 0.0)
        p = np.array([0.4, 0.2, -0.1])
        X = np.array([1.0, 0.0, 0.0])

        def dx_field(x, y, z):
            return np.array([1.0, 0.0, 0.0])

        assert norm(P, p[0], p[1], connection(P, p, X, dx_field)) < 1e-12

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_metric_compatibility(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(11 + pair_idx)
        p = np.array(sample_domain_points(P, rng, 3))
        # per point: X, then the coefficients of Y and of Z
        draws = rng.normal(size=(3, 21)).T
        X = draws[:3]
        Y = _poly_field(draws[3:12])
        Z = _poly_field(draws[12:])

        def g_yz(x, y, z):
            return g(P, x, y, Y(x, y, z), Z(x, y, z))

        lhs = np.einsum("i...,i...->...", X, _stencil_derivatives(g_yz, p))
        rhs = (g(P, p[0], p[1], connection(P, p, X, Y), Z(*p))
               + g(P, p[0], p[1], Y(*p), connection(P, p, X, Z)))
        assert np.abs(lhs - rhs).max() < 1e-5

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_torsion_free(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(23 + pair_idx)
        p = np.array(sample_domain_points(P, rng, 3))
        draws = rng.normal(size=(3, 18)).T
        Xf = _poly_field(draws[:9])
        Yf = _poly_field(draws[9:])
        nxy = connection(P, p, Xf(*p), Yf)
        nyx = connection(P, p, Yf(*p), Xf)
        br = lie_bracket(p, Xf, Yf)
        assert norm(P, p[0], p[1], nxy - nyx - br).max() < 1e-5


def christoffels_by_lapack(params, x, y):
    """Christoffel symbols by the Koszul formula on the same metric
    differences as :func:`christoffels`, with g^-1 from np.linalg.inv of
    the metric at each centre and the sums by einsum."""
    st = Stencil(CROSS, FD_STEP, x, y)
    gs = metric_matrix(params, st.U, st.V)
    dg = np.zeros((3,) + gs.shape[:-1])
    dg[0], dg[1] = st.d(gs, 1, 0), st.d(gs, 0, 1)
    g = np.moveaxis(gs[..., 0], (0, 1), (-2, -1))
    ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
    sym = np.einsum("ijl...->lij...", dg) + np.einsum("jil...->lij...", dg) - dg
    return 0.5 * np.einsum("kl...,lij...->kij...", ginv, sym)


class TestCoframeInverse:
    """g^-1 from the coframe against LAPACK's inverse and against g."""

    @pytest.mark.parametrize("P", PAIRS7 + [
        BcvParams(1.0, 0.25), BcvParams(8.0, 1.0), BcvParams(-14.4, 0.5),
        BcvParams(-2.0, 4.0), BcvParams(0.0, 4.0), BcvParams(-1.0, 16.0)],
        ids=lambda P: f"{P.kappa:g},{P.tau:g}")
    def test_connection_equals_the_lapack_route(self, P):
        x, y, _ = sample_domain_points(P, make_rng(0), 200)
        ref = christoffels_by_lapack(P, x, y)
        assert np.abs(christoffels(P, x, y) - ref).max() <= 1e-12 * (np.abs(ref).max() + 1.0)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 16.0, 1000.0])
    @pytest.mark.parametrize("kappa", [-4.0, -1.0, 0.0, 1.0])
    def test_inverse_is_exact_to_rounding(self, kappa, tau):
        # at kappa < 0 the radii put F on 1e-4 .. 1; else r runs 1e-3 .. 10
        if kappa < 0.0:
            r = np.sqrt(4.0 * (1.0 - np.geomspace(1e-4, 1.0, 17)) / -kappa)
        else:
            r = np.geomspace(1e-3, 10.0, 17)
        phi = np.linspace(0.0, 2.0 * np.pi, 13)[:, None]
        P, x, y = BcvParams(kappa, tau), r * np.cos(phi), r * np.sin(phi)
        g = metric_matrix(P, x, y)
        ginv = _inverse_metric(smoothing_factor(P, x, y), g[0, 2], g[1, 2])
        err = np.abs(np.einsum("ij...,jk...->ik...", g, ginv)
                     - np.eye(3)[:, :, None, None]).max(axis=(0, 1))
        scale = np.abs(g).max(axis=(0, 1)) * np.abs(ginv).max(axis=(0, 1))
        assert np.all(err <= 8.0 * np.finfo(float).eps * scale)


class TestRicci:
    def test_product_space_values(self):
        P = BcvParams(1.0, 0.0)
        f = frame_of(P, 0.2, -0.1, frame_at(P, 0.2, -0.1))
        assert ricci(P, f[:, 0], f[:, 0]) == pytest.approx(1.0, abs=1e-14)
        assert ricci(P, f[:, 1], f[:, 1]) == pytest.approx(1.0, abs=1e-14)
        assert ricci(P, f[:, 2], f[:, 2]) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_terms_vanish(self):
        for P in PAIRS6:
            x, y, _ = sample_domain_points(P, make_rng(5), 1)
            f = frame_of(P, x, y, frame_at(P, x, y))
            assert np.abs(ricci(P, f[:, 0], f[:, 2])).max() < 1e-14
            assert np.abs(ricci(P, f[:, 0], f[:, 1])).max() < 1e-14

    def test_vertical_direction_value(self):
        P = BcvParams(0.0, 0.5)
        f = frame_of(P, 0.7, 0.1, frame_at(P, 0.7, 0.1))
        assert ricci(P, f[:, 2], f[:, 2]) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_matches_fd_curvature(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(31 + pair_idx)
        x, y, _ = sample_domain_points(P, rng, 5)
        # per point: the frame and one random vector, in coordinate components
        V = np.concatenate([frame_at(P, x, y), rng.normal(size=(1, 5, 3)).transpose(0, 2, 1)])
        f = frame_of(P, x, y, V)
        closed = ricci(P, f[:, :, None], f[:, None, :])
        fd = np.einsum("ain,ijn,bjn->abn", V, ricci_tensor_fd(P, x, y), V)
        assert np.abs(closed - fd).max() < 1e-4


class TestHopfFibration:
    def test_projection_drops_height(self):
        assert np.all(hopf_dpsi(np.array([1.0, 2.0, 5.0])) == (1.0, 2.0))

    def test_vertical_kernel(self):
        P = BcvParams(1.0, 0.5)
        _, _, e3 = frame_at(P, 0.3, 0.1)
        assert np.all(hopf_dpsi(e3) == 0.0)

    def test_horizontal_isometry(self):
        for P in PAIRS6:
            rng = make_rng(17)
            x, y, _ = sample_domain_points(P, rng, 10)
            e1, e2, _ = frame_at(P, x, y)
            a = rng.normal(size=(10, 2))
            H = a[:, 0] * e1 + a[:, 1] * e2
            img = hopf_dpsi(H)
            h_norm = np.sqrt(base_metric(P, x, y, img, img))
            assert np.abs(h_norm - norm(P, x, y, H)).max() < 1e-8
            e1_norm = np.sqrt(base_metric(P, x, y, hopf_dpsi(e1), hopf_dpsi(e1)))
            assert np.abs(e1_norm - 1.0).max() < 1e-12
