import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvgeo.ambient import (
    AmbientPoint,
    BcvParams,
    GeometryClass,
    TangentVector,
    base_metric,
    classify_space,
    connection,
    cross,
    frame_at,
    hopf_dpsi,
    lie_bracket,
    metric,
    norm,
    ricci,
    ricci_fd,
    smoothing_factor,
)
from bcvgeo.errors import DomainError
from bcvgeo.suites import sample_domain_points

from conftest import PAIRS6, make_rng


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
            AmbientPoint(P, 1.0, 0.0, 0.0)


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
        for P in PAIRS6:
            for p in sample_domain_points(P, make_rng(1), 5):
                dz = TangentVector(p, (0, 0, 1))
                assert metric(P, dz, dz) == pytest.approx(1.0, abs=1e-15)

    def test_origin_dx_unit(self):
        for P in PAIRS6:
            p = AmbientPoint(P, 0.0, 0.0, 0.0)
            dx = TangentVector(p, (1, 0, 0))
            assert metric(P, dx, dx) == pytest.approx(1.0, abs=1e-15)

    def test_dy_value_off_axis(self):
        # independent oracle: sum the two quadratic-form terms of the metric
        # at (1, 0, 0) with kappa=0, tau=1/2: (dy/F)^2 = 1 and
        # (dz + tau(y dx - x dy)/F)(d_y) = -tau, so the value is 1 + tau^2.
        P = BcvParams(0.0, 0.5)
        p = AmbientPoint(P, 1.0, 0.0, 0.0)
        dy = TangentVector(p, (0, 1, 0))
        F = smoothing_factor(P, p.x, p.y)
        w2_term = (1.0 / F) ** 2
        w3_term = (P.tau * (p.y * 0 - p.x * 1) / F) ** 2
        assert w2_term + w3_term == 1.25
        assert metric(P, dy, dy) == pytest.approx(1.25, abs=1e-15)

    def test_mismatched_base_points_rejected(self):
        P = BcvParams(0.0, 0.0)
        p1 = AmbientPoint(P, 0.0, 0.0, 0.0)
        p2 = AmbientPoint(P, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            metric(P, TangentVector(p1, (1, 0, 0)), TangentVector(p2, (1, 0, 0)))

    @given(st.integers(0, len(PAIRS6) - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_positive_definite(self, pair_idx, seed):
        P = PAIRS6[pair_idx]
        rng = make_rng(seed)
        p = sample_domain_points(P, rng, 1)[0]
        comps = rng.normal(size=3)
        if np.abs(comps).max() < 1e-6:
            comps = np.array([1.0, 0.0, 0.0])
        v = TangentVector(p, comps)
        assert metric(P, v, v) > 0.0


class TestFrame:
    def test_origin_is_coordinate_frame(self):
        for P in PAIRS6:
            p = AmbientPoint(P, 0.0, 0.0, 0.0)
            e1, e2, e3 = frame_at(P, p)
            assert np.allclose(e1.comps, [1, 0, 0])
            assert np.allclose(e2.comps, [0, 1, 0])
            assert np.allclose(e3.comps, [0, 0, 1])

    def test_twisted_frame_components(self):
        P = BcvParams(0.0, 1.0)
        p = AmbientPoint(P, 1.0, 2.0, 0.0)
        e1, e2, _ = frame_at(P, p)
        assert np.allclose(e1.comps, [1.0, 0.0, -2.0])
        assert np.allclose(e2.comps, [0.0, 1.0, 1.0])

    def test_orthonormality(self):
        worst = 0.0
        for P in PAIRS6:
            for p in sample_domain_points(P, make_rng(7), 30):
                es = frame_at(P, p)
                for i in range(3):
                    for j in range(3):
                        val = metric(P, es[i], es[j]) - (1.0 if i == j else 0.0)
                        worst = max(worst, abs(val))
        assert worst < 1e-10

    def test_cross_is_right_handed(self):
        for P in PAIRS6:
            p = sample_domain_points(P, make_rng(3), 1)[0]
            e1, e2, e3 = frame_at(P, p)
            assert norm(P, cross(P, e1, e2) - e3) < 1e-12
            assert norm(P, cross(P, e2, e3) - e1) < 1e-12


def _poly_field(params, coeffs):
    """Smooth vector field with polynomial/trig coordinate dependence."""
    a = coeffs

    def field(p):
        return TangentVector(p, (
            a[0] + a[1] * p.y + a[2] * math.sin(p.x),
            a[3] + a[4] * p.x * p.x + a[5] * p.z,
            a[6] + a[7] * p.x + a[8] * math.cos(p.y),
        ))

    return field


class TestConnection:
    def test_euclidean_coordinate_fields_parallel(self):
        P = BcvParams(0.0, 0.0)
        p = AmbientPoint(P, 0.4, 0.2, -0.1)
        X = TangentVector(p, (1, 0, 0))
        dx_field = lambda q: TangentVector(q, (1, 0, 0))
        assert norm(P, connection(P, X, dx_field)) < 1e-12

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_metric_compatibility(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(11 + pair_idx)
        for p in sample_domain_points(P, rng, 3):
            X = TangentVector(p, rng.normal(size=3))
            Y = _poly_field(P, rng.normal(size=9))
            Z = _poly_field(P, rng.normal(size=9))

            def g_yz(q):
                return metric(P, Y(q), Z(q))

            h = 1e-5
            dg = 0.0
            for i in range(3):
                hi = h * max(1.0, abs(p.coords()[i]))
                dg += X.comps[i] * (
                    g_yz(p.shifted(P, i, hi)) - g_yz(p.shifted(P, i, -hi))
                ) / (2 * hi)
            lhs = dg
            rhs = metric(P, connection(P, X, Y), Z(p)) + metric(P, Y(p), connection(P, X, Z))
            assert abs(lhs - rhs) < 1e-5

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_torsion_free(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(23 + pair_idx)
        for p in sample_domain_points(P, rng, 3):
            Xf = _poly_field(P, rng.normal(size=9))
            Yf = _poly_field(P, rng.normal(size=9))
            nxy = connection(P, Xf(p), Yf)
            nyx = connection(P, Yf(p), Xf)
            br = lie_bracket(P, p, Xf, Yf)
            assert norm(P, nxy - nyx - br) < 1e-5


class TestRicci:
    def test_product_space_values(self):
        P = BcvParams(1.0, 0.0)
        p = AmbientPoint(P, 0.2, -0.1, 0.4)
        e1, e2, e3 = frame_at(P, p)
        assert ricci(P, e1, e1) == pytest.approx(1.0, abs=1e-14)
        assert ricci(P, e2, e2) == pytest.approx(1.0, abs=1e-14)
        assert ricci(P, e3, e3) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_terms_vanish(self):
        for P in PAIRS6:
            p = sample_domain_points(P, make_rng(5), 1)[0]
            e1, e2, e3 = frame_at(P, p)
            assert abs(ricci(P, e1, e3)) < 1e-14
            assert abs(ricci(P, e1, e2)) < 1e-14

    def test_vertical_direction_value(self):
        P = BcvParams(0.0, 0.5)
        p = AmbientPoint(P, 0.7, 0.1, 0.0)
        _, _, e3 = frame_at(P, p)
        assert ricci(P, e3, e3) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("pair_idx", range(len(PAIRS6)))
    def test_matches_fd_curvature(self, pair_idx):
        P = PAIRS6[pair_idx]
        rng = make_rng(31 + pair_idx)
        worst = 0.0
        for p in sample_domain_points(P, rng, 5):
            es = frame_at(P, p)
            vecs = list(es) + [TangentVector(p, rng.normal(size=3))]
            for X in vecs:
                for Y in vecs:
                    worst = max(worst, abs(ricci(P, X, Y) - ricci_fd(P, X, Y)))
        assert worst < 1e-4


class TestHopfFibration:
    def test_projection_drops_height(self):
        P = BcvParams(0.0, 0.5)
        p = AmbientPoint(P, 1.0, 2.0, 5.0)
        assert np.all(hopf_dpsi(TangentVector(p, (1.0, 2.0, 5.0))) == (1.0, 2.0))

    def test_vertical_kernel(self):
        P = BcvParams(1.0, 0.5)
        p = AmbientPoint(P, 0.3, 0.1, 0.2)
        _, _, e3 = frame_at(P, p)
        assert np.all(hopf_dpsi(e3) == 0.0)

    def test_horizontal_isometry(self):
        for P in PAIRS6:
            rng = make_rng(17)
            for p in sample_domain_points(P, rng, 10):
                e1, e2, _ = frame_at(P, p)
                a1, a2 = rng.normal(size=2)
                H = a1 * e1 + a2 * e2
                img = hopf_dpsi(H)
                h_norm = math.sqrt(base_metric(P, p.x, p.y, img, img))
                assert abs(h_norm - norm(P, H)) < 1e-8
                assert abs(math.sqrt(base_metric(P, p.x, p.y, hopf_dpsi(e1), hopf_dpsi(e1))) - 1.0) < 1e-12
