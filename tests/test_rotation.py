import math
import re

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bcvgeo.rotation as rot
from bcvgeo import _kernels
from bcvgeo._kernels import (STATUS_DOMAIN_EXIT, STATUS_NAMES, STATUS_NEAR_AXIS, branch_march,
                             run_branch_kernel)
from bcvgeo.ambient import EPS_F, BcvParams, coordinate_components, smoothing_factor
from bcvgeo.errors import DomainError, SelfConsistencyError
from bcvgeo.immersion import shape_arrays, surface_jets
from bcvgeo.rotation import (
    FD_CHECK_R_FLOOR,
    IntegrationConfig,
    ProfileState,
    branch_f_prime,
    branch_mean_curvature,
    branch_residuals,
    ellipse_curve,
    hopf_cylinder,
    hopf_tube,
    integrate_noncmc_branch,
    reduced_bicon_system,
    reduced_mean_curvature,
    reduced_quantities,
    refine_sign_change,
    revolution_surface,
    spline_profile_columns,
)
from bcvgeo.suites import run_suite

from conftest import make_rng
from profiles import (base_geodesic_curvature, fixed_point_radius, observed_order, orbit_metric,
                      slant_profile, spline_profile)
from reference_kernel import COLUMNS, branch_kernel as reference_kernel

P_NIL = BcvParams(0.0, 0.5)
TWISTED = [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.5)]


def float_or_array(lo, hi):
    """A float in [lo, hi], or an array of them: the reduced helpers take
    either."""
    elements = st.floats(lo, hi)
    return st.one_of(elements, hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=3),
                                          elements=elements))


def projected_normal(params, jet):
    """The differential of the fibration applied to the unit normal of the
    jet: its first two coordinate components."""
    return np.array(coordinate_components(params, jet.x, jet.y, jet.n)[:2])


class TestOrbitMetric:
    def test_flat_identity(self):
        P = BcvParams(0.0, 0.0)
        for r in (0.0, 0.7, 3.0):
            assert np.allclose(orbit_metric(P, r), np.eye(2))

    def test_axis_value(self):
        assert np.allclose(orbit_metric(BcvParams(7.0, 2.0), 0.0), np.eye(2))

    def test_positive_curvature_entry(self):
        g = orbit_metric(BcvParams(4.0, 1.0), 1.0)
        assert g[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert g[1, 1] == pytest.approx(0.5, abs=1e-15)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            orbit_metric(BcvParams(-4.0, 0.0), 1.0)


class TestReducedQuantities:
    def test_tau_zero_kills_twist_terms(self):
        P = BcvParams(1.0, 0.0)
        st_ = ProfileState(0.0, 0.8, 0.1, 0.7)
        red = reduced_quantities(P, st_)
        assert red.a == 0.0
        assert red.d == 0.0

    def test_vertical_profile(self):
        P = BcvParams(0.0, 0.5)
        r = 1.2
        red = reduced_quantities(P, ProfileState(0.0, r, 0.0, math.pi / 2))
        q = math.sqrt(1.0 + P.tau ** 2 * r * r)
        assert abs(red.cos_alpha) < 1e-15
        assert red.a == pytest.approx(0.0, abs=1e-15)
        assert red.b == pytest.approx(1.0 / q, abs=1e-14)
        assert red.d == pytest.approx(P.tau * r / q, abs=1e-14)
        assert red.b ** 2 + red.d ** 2 == pytest.approx(1.0, abs=1e-14)

    @given(float_or_array(0.2, 2.0), st.floats(0.01, 3.1), st.floats(-1.5, 1.5))
    @settings(max_examples=80, deadline=None)
    def test_tangency_identity(self, r, sigma, tau):
        P = BcvParams(0.5, tau)
        red = reduced_quantities(P, ProfileState(0.0, r, 0.0, sigma))
        sin2_alpha = 1.0 - red.cos_alpha ** 2
        assert np.all(np.abs(red.b ** 2 + red.d ** 2 - sin2_alpha) < 1e-10)
        # an array gives, entry by entry, the bits of the float call
        for i in np.ndindex(np.shape(r)):
            one = reduced_quantities(P, ProfileState(0.0, float(np.asarray(r)[i]), 0.0, sigma))
            for name in ("cos_alpha", "a", "b", "d"):
                entry = np.broadcast_to(getattr(red, name), np.shape(r))[i]
                assert entry.tobytes() == np.float64(getattr(one, name)).tobytes()

    def test_domain_error_names_first_failing_radius(self):
        # kappa = -1: F = 1 - r^2 / 4 crosses 0 at r = 2
        P = BcvParams(-1.0, 0.5)
        r = np.array([1.9, 1.9999999, 2.0, 2.0000001, 2.1])
        state = ProfileState(0.0, r, 0.0, 1.0)
        for evaluate in (reduced_quantities, branch_residuals,
                         lambda p, s: reduced_mean_curvature(p, s, 0.0)):
            with pytest.raises(DomainError, match=r"radius r = 2\.0 has F = 0\.000e\+00"):
                evaluate(P, state)
        with pytest.raises(DomainError, match=r"radius r = 2\.0000001 has F = -1\.000e-07"):
            reduced_quantities(P, ProfileState(0.0, r[3:], 0.0, 1.0))
        reduced_quantities(P, ProfileState(0.0, r[:2], 0.0, 1.0))   # F(1.9999999) = 1e-7


class TestReducedMeanCurvature:
    def test_horizontal_profile(self):
        P = BcvParams(1.0, 0.5)
        st_ = ProfileState(0.0, 0.9, 0.0, 0.0)
        assert reduced_mean_curvature(P, st_, 0.37) == 0.37

    def test_vertical_circle(self):
        P = BcvParams(0.0, 0.5)
        st_ = ProfileState(0.0, 1.25, 0.0, math.pi / 2)
        assert reduced_mean_curvature(P, st_, 0.0) == pytest.approx(0.8, abs=1e-14)

    def test_matches_shape_trace_on_slant(self):
        prof = slant_profile(P_NIL, 1.0, 1.0)
        S = revolution_surface(P_NIL, prof, (-0.5, 1.5))
        for v in (-0.2, 0.5, 1.1):
            st_ = prof(v)
            fred = reduced_mean_curvature(P_NIL, st_, 0.0)  # constant sigma
            fshape = shape_arrays(S, P_NIL, 0.7, v).f
            assert fred == pytest.approx(fshape, abs=1e-4)


class TestReducedSystem:
    def test_cmc_structure(self):
        P = BcvParams(1.0, 0.5)
        st_ = ProfileState(0.0, 0.8, 0.0, 0.9)
        f = 0.42
        r1, r2 = reduced_bicon_system(P, st_, f, 0.0)
        red = reduced_quantities(P, st_)
        expected_r1 = -2.0 * f * (4 * P.tau ** 2 - P.kappa) * red.cos_alpha * (1 - red.cos_alpha ** 2)
        assert r2 == 0.0
        assert r1 == pytest.approx(expected_r1, abs=1e-14)

    def test_cylinder_closes_system(self):
        for P in (BcvParams(1.0, 0.0), BcvParams(0.0, 0.5), BcvParams(1.0, 1.0)):
            for r0 in (0.5, 1.0, 2.0):
                st_ = ProfileState(0.0, r0, 0.0, math.pi / 2)
                f = reduced_mean_curvature(P, st_, 0.0)
                r1, r2 = reduced_bicon_system(P, st_, f, 0.0)
                assert abs(r1) < 1e-10
                assert abs(r2) < 1e-10

    @given(float_or_array(0.3, 1.8), st.floats(0.2, 2.9), st.floats(0.1, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_branch_curvature_kills_r2(self, r, sigma, tau):
        P = BcvParams(1.0, tau)
        st_ = ProfileState(0.0, r, 0.0, sigma)
        f = branch_mean_curvature(st_)
        r1, r2 = reduced_bicon_system(P, st_, f, branch_f_prime(st_))
        assert np.all(np.abs(r2) < 1e-13)
        columns = branch_residuals(P, st_)
        assert np.array(columns[2:4]).tobytes() == np.array((r1, r2)).tobytes()


def obstruction(params, state):
    return branch_residuals(params, state)[4]


def branch_r1(params, state):
    return branch_residuals(params, state)[2]


class TestObstruction:
    def test_explicit_factors(self):
        # kappa=1, tau=1, r=1, sigma=pi/4:
        # (kappa - 4 tau^2) = -3, f = sqrt(2)/3, (cos 2s - 1 - 2 tau^2 r^2) = -3,
        # cos(s) = sqrt(2)/2, product = 3
        P = BcvParams(1.0, 1.0)
        st_ = ProfileState(0.0, 1.0, 0.0, math.pi / 4)
        assert obstruction(P, st_) == pytest.approx(3.0, abs=1e-12)

    def test_vertical_and_space_form_zeros(self):
        st_ = ProfileState(0.0, 1.0, 0.0, math.pi / 2)
        assert abs(obstruction(BcvParams(1.0, 1.0), st_)) < 1e-15
        st2 = ProfileState(0.0, 1.0, 0.0, 0.7)
        assert abs(obstruction(BcvParams(4.0, 1.0), st2)) < 1e-15


# kernel arguments, those of the reference loop and of run_branch_kernel:
# kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop


def kernel_rows(*args):
    """The (s, r, z, sigma) rows of run_branch_kernel and its status,
    checking that its sin and cos columns are math.sin and math.cos of the
    recorded sigma, bit for bit."""
    n, status, *columns = run_branch_kernel(*args)
    assert len(columns) == 6
    # compact arrays of their own, not views of a row buffer
    assert all(len(c) == n and c.base is None and c.flags.c_contiguous for c in columns)
    s, r, z, sigma, sin_sigma, cos_sigma = columns
    assert sin_sigma.tobytes() == np.array([math.sin(x) for x in sigma.tolist()]).tobytes()
    assert cos_sigma.tobytes() == np.array([math.cos(x) for x in sigma.tolist()]).tobytes()
    return np.column_stack((s, r, z, sigma)), status


KERNEL_CASES = {
    "smax": (1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1e-3, 20000, 3.0, 0.05, EPS_F),
    "max_steps": (0.0, 0.5, 1.0, 0.0, 0.8, 0.0, 1e-3, 50, 10.0, 1e-7, EPS_F),
    "max_rows_1": (1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1e-3, 1, 3.0, 0.05, EPS_F),
    "near_axis_funnel": (0.0, 0.5, 0.5, 0.0, math.pi, 0.0, 1e-3, 20000, 10.0, 0.05, EPS_F),
    # r0 + step k1r / 2 = 0.25 <= r_stop: the stage-2 guard ends the first step
    "near_axis_stage": (0.0, 0.5, 0.5, 0.0, math.pi, 0.0, 0.5, 10, 10.0, 0.3, EPS_F),
    # F(r0) = 0.0975 but F(r0 + step k1r / 2) = 0.0025 <= f_stop: stage 2 again
    "domain_exit_stage": (-1.0, 0.5, 1.9, 0.0, 0.0, 0.0, 2.0, 10, 100.0, 1e-8, 0.05),
    # sigma stays at pi and r falls with F growing, so |r'| grows stage by
    # stage: r2 = 1.8025 > r_stop, r3 = 1.712 <= r_stop, and r4 = 1.366
    "near_axis_stage_3": (-1.0, 0.5, 1.9, 0.0, math.pi, 0.0, 2.0, 10, 100.0, 1.75, EPS_F),
    "near_axis_stage_4": (-1.0, 0.5, 1.9, 0.0, math.pi, 0.0, 2.0, 10, 100.0, 1.5, EPS_F),
    # sigma0 a little past pi/2 moves r inward at stage 2, but stage 2's
    # angle is below pi/2, so stage 3's point lies outward of r0:
    # F2 = 0.1021 > f_stop >= F3 = 0.0867
    "domain_exit_stage_3": (-1.0, 0.5, 1.9, 0.0, 0.5 * math.pi + 0.1, 0.0, 1.0, 10, 100.0, 1e-8,
                            0.095),
    # sigma stays at 0: F2 = 0.0506 and F3 = 0.0733 > f_stop >= F4 = 0.0265
    "domain_exit_stage_4": (-1.0, 0.5, 1.9, 0.0, 0.0, 0.0, 1.0, 10, 100.0, 1e-8, 0.04),
    "domain_exit_outside": (-1.0, 0.5, 2.1, 0.0, 0.3, 0.0, 1e-3, 10, 1.0, 1e-8, 1e-9),
    "boundary_approach": (-1.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1e-3, 20000, 10.0, 1e-7, EPS_F),
    # more rows than the compiled march's first buffer of 4,096: 13,501 rows
    # over three buffers, and a row budget of 9,000 that ends with the
    # second; both start from s0 != 0 and z0 != 0, so every column resumes
    # across the buffers
    "smax_buffers": (1.0, 1.0, 1.0, 0.5, 1.0, -1.5, 1e-3, 20000, 12.0, 0.05, EPS_F),
    "max_steps_buffers": (0.0, 0.5, 0.8, -0.75, 1.0, 0.25, 1e-3, 9000, 100.0, 1e-7, EPS_F),
}

# marches that reach an infinite sin or cos argument at the start of a step
# or at stage 2, 3 or 4: math.sin and math.cos raise ValueError there, where
# libm returns NaN
OVERFLOW_CASES = {
    "start": (1.0, 0.5, 1.0, 0.25, math.inf, 0.0, 1e-3, 10, 1.0, 1e-7, EPS_F),
    "stage_2": (40.0, 0.5, 1e308, 0.25, 1.0, 0.0, 1e-3, 10, 1.0, 1e-7, EPS_F),
    "stage_3": (1.0, 0.5, 1e300, 0.25, 0.5, 0.0, 1e-3, 10, 1.0, 1e-7, EPS_F),
    "stage_4": (1.0, 0.5, 1e150, 0.25, 0.1, 0.0, 1e-3, 10, 1.0, 1e-7, EPS_F),
    # r grows to overflow before s = pi while sigma stays near 0 (stage 4)
    "trajectory": (1.0, 0.5, 1.0, 0.25, 1e-300, 0.0, 1e-3, 10000, 5.0, 1e-6, EPS_F),
}


def first_guarded_stage(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """The first of stages 2, 3 and 4 of a march's first RK4 step whose point
    meets a guard, and whether that is r_stop's (else F's); None if none."""
    kq = 0.25 * kappa
    r, sigma = r0, sigma0
    for stage, offset in ((2, 0.5 * step), (3, 0.5 * step), (4, step)):
        kr = (1.0 + kq * r * r) * math.cos(sigma)
        kg = math.sin(sigma) * (kq * r - 1.0 / (3.0 * r))
        r, sigma = r0 + offset * kr, sigma0 + offset * kg
        if r <= r_stop or 1.0 + kq * r * r <= f_stop:
            return stage, r <= r_stop
    return None


class TestBranchKernel:
    @pytest.mark.usefixtures("march")
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_matches_reference_loop(self, case):
        args = KERNEL_CASES[case]
        ref = np.empty((args[7], len(COLUMNS)))
        n_ref, status_ref = reference_kernel(*args, ref)
        rows, status = kernel_rows(*args)
        n = len(rows)
        assert (n, status) == (n_ref, status_ref)
        # the state columns bit for bit
        assert rows.tobytes() == ref[:n, :4].tobytes()
        # the diagnostic columns from the reduced helpers on the reference's
        # states: their algebra differs from the loop's, and np.sin may
        # differ from math.sin by an ulp on some platforms, so to 1e-12
        P = BcvParams(*args[:2])
        states = ProfileState(*ref[:n, :4].T)
        if case == "domain_exit_outside":   # its one row has F <= 0
            with pytest.raises(DomainError):
                branch_residuals(P, states)
        else:
            assert np.abs(np.array(branch_residuals(P, states)).T - ref[:n, 4:]).max() <= 1e-12

    @pytest.mark.usefixtures("march")
    def test_seeded_sweep_matches_reference_loop(self):
        # random starts, sigma0 outside (0, pi) too, every row budget
        # regime: every column has the loop's bits wherever the march stops
        rng = make_rng(52)
        statuses = set()
        for _ in range(240):
            kappa, tau = rng.uniform(-2.0, 2.0, 2)
            r0 = rng.uniform(0.05, 2.0)
            if kappa < 0.0:   # most starts inside the domain, a few outside
                r0 = min(r0, rng.uniform(0.9, 1.01) * 2.0 / math.sqrt(-kappa))
            step = 10.0 ** rng.uniform(-3.0, -2.0)
            s0 = rng.uniform(-1.0, 1.0)
            args = (kappa, tau, r0, rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, 2.0 * math.pi),
                    s0, step, int(rng.choice([1, 2, 5, 3000, 20000])), s0 + rng.uniform(0.0, 3.0),
                    float(rng.choice([10 * rot.EPS_R, 0.05, 0.3])), float(rng.choice([EPS_F, 0.05])))
            ref = np.empty((args[7], len(COLUMNS)))
            n_ref, status_ref = reference_kernel(*args, ref)
            rows, status = kernel_rows(*args)
            n = len(rows)
            assert (n, status) == (n_ref, status_ref), args
            assert rows.tobytes() == ref[:n, :4].tobytes(), args
            statuses.add(status)
        assert statuses == set(STATUS_NAMES)

    @pytest.mark.usefixtures("march")
    def test_march_does_not_depend_on_tau(self):
        # r' and sigma' do not involve tau: only z' does
        cols = {}
        for tau in (0.0, 1.5):
            cols[tau], _ = kernel_rows(1.0, tau, 1.0, 0.0, 1.0, 0.0, 1e-3, 20000, 3.0, 0.05, EPS_F)
        flat, twisted = cols[0.0], cols[1.5]
        assert len(flat) == len(twisted) == 3001
        assert flat[:, [0, 1, 3]].tobytes() == twisted[:, [0, 1, 3]].tobytes()
        assert np.all(np.abs(flat[1:, 2] - twisted[1:, 2]) > 0.0)

    @pytest.mark.usefixtures("march")
    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_infinite_angle_raises_as_math_does(self, case):
        args = OVERFLOW_CASES[case]
        with pytest.raises(ValueError, match="^math domain error$"):
            branch_march(*args)
        with pytest.raises(ValueError, match="^math domain error$"):
            run_branch_kernel(*args)

    @pytest.mark.parametrize("case, stage", [
        ("near_axis_stage", 2), ("near_axis_stage_3", 3), ("near_axis_stage_4", 4),
        ("domain_exit_stage", 2), ("domain_exit_stage_3", 3), ("domain_exit_stage_4", 4)])
    def test_stage_guard_cases_end_where_named(self, case, stage):
        # the named stage is the first whose r or F meets its guard, and the
        # march records row 0 alone
        args = KERNEL_CASES[case]
        near_axis = case.startswith("near_axis")
        assert first_guarded_stage(*args) == (stage, near_axis)
        n, status = reference_kernel(*args, np.empty((args[7], len(COLUMNS))))
        assert (n, status) == (1, STATUS_NEAR_AXIS if near_axis else STATUS_DOMAIN_EXIT)

    def test_cases_reach_every_status(self):
        statuses = {reference_kernel(*a, np.empty((a[7], len(COLUMNS))))[1]
                    for a in KERNEL_CASES.values()}
        assert statuses == set(STATUS_NAMES)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.6, 1.6),
           st.floats(0.15, math.pi - 0.15))
    # no shrinking: each example is a 3,000-row march, and a broken stage
    # fails at every input, so a shrunk example only costs minutes
    @settings(max_examples=40, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @pytest.mark.usefixtures("march")
    def test_first_integral_is_conserved(self, kappa, tau, r0, sigma0):
        # d ln sin(sigma) / dr = (kappa r / 4 - 1 / (3 r)) / F along the flow,
        # so I = sin(sigma) r^(1/3) F^(-2/3) is constant on every trajectory
        assume(1.0 + 0.25 * kappa * r0 * r0 >= 0.36)   # r0 <= 0.8 of the boundary radius
        cfg = IntegrationConfig(s_max=3.0, r_stop=0.05)
        traj = integrate_noncmc_branch(BcvParams(kappa, tau),
                                       ProfileState(0.0, r0, 0.0, sigma0), cfg)
        r = traj.r
        F = 1.0 + 0.25 * kappa * r * r
        first = np.sin(traj.sigma) * np.cbrt(r / (F * F))
        kept = r >= FD_CHECK_R_FLOOR
        assert np.abs(first[kept] / first[0] - 1.0).max() <= 1e-10


class TestBranchIntegration:
    def test_infinite_z_leaves_the_residuals(self):
        # tau^2 overflows, so the marched z is inf after row 0; the residual
        # states carry z = 0, which ProfileState accepts, and the run still
        # records its f column, with no numpy warning from the overflowing R1
        traj = integrate_noncmc_branch(BcvParams(1.0, 1e155), ProfileState(0.0, 1.0, 0.25, 1.0),
                                       IntegrationConfig(s_max=0.01))
        assert traj.status == "smax_reached" and len(traj) == 11
        assert traj.z[0] == 0.25 and np.all(np.isposinf(traj.z[1:]))
        assert np.all(np.isfinite(traj.f))

    def test_stationary_radius(self):
        kappa = 3.0
        P = BcvParams(kappa, 1.0)
        r_star = fixed_point_radius(kappa)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, r_star, 0.0, math.pi / 2),
            IntegrationConfig(s_max=2.0),
        )
        assert traj.status == "smax_reached"
        assert np.abs(traj.r - r_star).max() < 1e-12
        assert np.abs(traj.sigma - math.pi / 2).max() < 1e-12

    def test_flat_base_sigma_decreases(self):
        traj = integrate_noncmc_branch(
            P_NIL, ProfileState(0.0, 1.0, 0.0, 1.2), IntegrationConfig(s_max=3.0)
        )
        assert np.all(np.diff(traj.sigma) < 0.0)

    def test_s_column_uniform(self):
        traj = integrate_noncmc_branch(
            P_NIL, ProfileState(0.0, 1.0, 0.0, 0.8), IntegrationConfig(s_max=0.5)
        )
        ds = np.diff(traj.s)
        assert np.allclose(ds, traj.config.step, atol=1e-12)
        assert len(traj) <= traj.config.max_steps

    def test_arclength_identity(self):
        P = BcvParams(1.0, 1.0)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 1.0, 0.0, 0.9), IntegrationConfig(s_max=2.0)
        )
        r = traj.r
        sig = traj.sigma
        F = 1.0 + 0.25 * P.kappa * r * r
        q2 = 1.0 + P.tau ** 2 * r * r
        rp = F * np.cos(sig)
        zp = np.sin(sig) * np.sqrt(q2)
        ident = rp ** 2 / F ** 2 + zp ** 2 / q2
        assert np.abs(ident - 1.0).max() < 1e-8
        # same identity from finite differences of the recorded columns
        h = traj.config.step
        rp_fd = (r[2:] - r[:-2]) / (2 * h)
        z = traj.z
        zp_fd = (z[2:] - z[:-2]) / (2 * h)
        ident_fd = rp_fd ** 2 / F[1:-1] ** 2 + zp_fd ** 2 / q2[1:-1]
        assert np.abs(ident_fd - 1.0).max() < 1e-5

    def test_f_prime_closed_form_vs_differences(self):
        P = BcvParams(-1.0, 0.5)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 0.8, 0.0, 1.1), IntegrationConfig(s_max=2.0)
        )
        f = traj.f
        fp = traj.f_prime
        fd = (f[2:] - f[:-2]) / (2 * traj.config.step)
        assert np.abs(fd - fp[1:-1]).max() < 1e-6

    def test_near_axis_termination(self):
        # a profile headed straight at the axis (horizontal, inward)
        traj = integrate_noncmc_branch(
            P_NIL, ProfileState(0.0, 0.5, 0.0, math.pi), IntegrationConfig(s_max=10.0)
        )
        assert traj.status == "near_axis"
        assert traj.r[-1] < 0.51

    def test_negative_curvature_boundary_approach(self):
        # r' is proportional to F, so the flow only reaches the domain
        # boundary asymptotically: the run exhausts its horizon with r
        # pinned just inside.
        P = BcvParams(-1.0, 0.5)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 1.0, 0.0, 0.0), IntegrationConfig(s_max=10.0)
        )
        assert traj.status == "smax_reached"
        r = traj.r
        assert np.all(np.diff(r) > 0.0)
        assert r[-1] < 2.0
        assert smoothing_factor(P, r[-1], 0.0) < 1e-3

    def test_domain_guard_in_kernel(self):
        # the stage guard itself, fed a state already outside the domain
        rows, status = branch_march(-1.0, 0.5, 2.1, 0.25, 0.3, 0.0, 1e-3, 10, 1.0, 1e-8, 1e-9)
        assert status == STATUS_DOMAIN_EXIT
        assert rows == [0.0, 2.1, 0.25, 0.3, math.sin(0.3), math.cos(0.3)]

    @pytest.mark.parametrize("field,value", [
        ("step", math.nan), ("step", math.inf), ("step", 0.0), ("step", -1e-3),
        ("s_max", math.nan), ("s_max", math.inf), ("s_max", 0.0), ("max_steps", 0)])
    def test_settings_must_be_finite_and_positive(self, field, value):
        # a NaN horizon would march the whole row budget, an infinite step
        # stop after one row
        with pytest.raises(ValueError, match=field):
            IntegrationConfig(**{field: value})

    def test_stop_radius_must_clear_the_axis_floor(self):
        # rows stop above r_stop, and a ProfileState needs r > EPS_R
        assert IntegrationConfig().r_stop == 10 * rot.EPS_R
        with pytest.raises(ValueError, match="r_stop"):
            IntegrationConfig(r_stop=rot.EPS_R)

    def test_max_steps_termination(self):
        traj = integrate_noncmc_branch(
            P_NIL, ProfileState(0.0, 1.0, 0.0, 0.8),
            IntegrationConfig(s_max=10.0, max_steps=50),
        )
        assert traj.status == "max_steps_reached"
        assert len(traj) == 50

    def test_f_prime_check_catches_wrong_closed_form(self, monkeypatch):
        # the fourth-order check must still reject an f' that is off by 2e-4,
        # twice FD_CHECK_TOL
        exact = rot.branch_f_prime
        monkeypatch.setattr(rot, "branch_f_prime", lambda state: exact(state) + 2e-4)
        with pytest.raises(SelfConsistencyError, match="2.000e-04"):
            integrate_noncmc_branch(BcvParams(1.0, 1.0), ProfileState(0.0, 1.0, 0.0, 1.0))

    def test_fd_check_margin_recorded(self):
        traj = integrate_noncmc_branch(BcvParams(1.0, 1.0), ProfileState(0.0, 1.0, 0.0, 1.0))
        assert 0.0 < traj.fd_check_margin < 1e-3
        # every row below FD_CHECK_R_FLOOR: no row is checked
        below = integrate_noncmc_branch(P_NIL, ProfileState(0.0, 0.15, 0.0, 1.5),
                                        IntegrationConfig(s_max=0.01))
        assert len(below) >= 5 and below.r.max() < FD_CHECK_R_FLOOR
        assert below.fd_check_margin is None

    def test_observed_order_is_four(self):
        P = BcvParams(1.0, 1.0)
        order = observed_order(P, ProfileState(0.0, 1.0, 0.0, 0.7), 0.04, 2.0)
        assert abs(order - 4.0) < 0.3


class TestBranchClassification:
    @pytest.mark.parametrize("kappa,tau", TWISTED)
    def test_residual_one_never_closes(self, kappa, tau):
        P = BcvParams(kappa, tau)
        rng = make_rng(hash((kappa, tau)) % 2 ** 31)
        for _ in range(3):
            r0 = rng.uniform(0.6, 1.4)
            sigma0 = rng.uniform(0.2, math.pi / 2 - 0.2)
            traj = integrate_noncmc_branch(
                P, ProfileState(0.0, r0, 0.0, sigma0), IntegrationConfig(s_max=3.0)
            )
            assert np.abs(traj.R2).max() < 1e-10
            assert np.abs(traj.R1).max() > 1e-3

    @pytest.mark.parametrize("kappa,tau", TWISTED)
    def test_theorem52_suite_passes_for_every_seed(self, kappa, tau):
        # the f' self-check runs on every trajectory, so its truncation error
        # must stay under FD_CHECK_TOL at every seed, not only the default one
        P = BcvParams(kappa, tau)
        failed = [seed for seed in range(40) if not run_suite("theorem52", P, seed)["pass"]]
        assert failed == []

    @pytest.mark.parametrize("kappa,tau", TWISTED)
    def test_columns_are_the_public_helpers(self, kappa, tau):
        P = BcvParams(kappa, tau)
        traj = integrate_noncmc_branch(P, ProfileState(0.0, 0.9, 0.0, 1.2),
                                       IntegrationConfig(s_max=3.0, r_stop=0.05))
        # the columns do not depend on z, which the trajectory's states leave at 0
        states = ProfileState(traj.s, traj.r, traj.z, traj.sigma)
        f, f_prime = branch_mean_curvature(states), branch_f_prime(states)
        want = (f, f_prime, *reduced_bicon_system(P, states, f, f_prime))
        for name, got, column in zip(("f", "f_prime", "R1", "R2", "obstruction"),
                                     branch_residuals(P, states), want + (None,)):
            assert got.tobytes() == getattr(traj, name).tobytes(), name
            assert column is None or column.tobytes() == got.tobytes(), name

    @pytest.mark.usefixtures("march")
    def test_residual_pass_reads_the_recorded_trig(self, monkeypatch):
        # the state of the residual pass carries the march's sin and cos
        # columns themselves, so no np.sin or np.cos pass computes them again
        seen = []

        def spy(params, state):
            seen.append(state)
            return branch_residuals(params, state)

        monkeypatch.setattr(rot, "branch_residuals", spy)
        traj = integrate_noncmc_branch(BcvParams(1.0, 1.0), ProfileState(0.0, 0.9, 0.0, 1.2),
                                       IntegrationConfig(s_max=3.0, r_stop=0.05))
        assert len(seen) == 1
        assert vars(seen[0])["sin_sigma"] is traj.sin_sigma
        assert vars(seen[0])["cos_sigma"] is traj.cos_sigma

    @pytest.mark.parametrize("kappa,tau", TWISTED)
    def test_theorem52_neither_bisects_nor_marches_in_python(self, kappa, tau, monkeypatch):
        # the suite checks the zeros row by row, so with the compiled march
        # loaded no (r, sigma) step runs in Python
        if _kernels._compiled_march() is None:
            pytest.skip("no C compiler could build _march.c here")
        calls = []

        def spy(*args):
            calls.append(args)
            raise AssertionError("called")

        monkeypatch.setattr(rot, "refine_sign_change", spy)
        monkeypatch.setattr(_kernels, "branch_march", spy)
        for seed in range(5):
            assert run_suite("theorem52", BcvParams(kappa, tau), seed)["pass"]
        assert calls == []

    def test_residual_proportional_to_obstruction(self):
        P = BcvParams(1.0, 1.0)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 1.0, 0.0, 1.0), IntegrationConfig(s_max=2.0)
        )
        R1 = traj.R1
        obs = traj.obstruction
        r = traj.r
        q3 = (1.0 + P.tau ** 2 * r * r) ** 1.5
        mask = np.abs(obs) > 1e-8
        # fixed smooth nonvanishing ratio, so the zero sets coincide
        assert np.abs(R1[mask] / obs[mask] + 2.0 / (3.0 * q3[mask])).max() < 1e-12

    def test_zero_crossings_coincide(self):
        P = BcvParams(1.0, 1.0)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 0.9, 0.0, 1.2), IntegrationConfig(s_max=4.0)
        )
        R1 = traj.R1
        flips = np.where(R1[:-1] * R1[1:] < 0.0)[0]
        assert len(flips) >= 1
        for i in flips:
            s1 = refine_sign_change(P, traj, int(i), branch_r1)
            s2 = refine_sign_change(P, traj, int(i), obstruction)
            assert abs(s1 - s2) < 1e-8

    def test_bisection_zeros_equal_under_either_march(self, monkeypatch):
        # the probes march as the trajectory does: with the compiled march
        # loaded no step runs in Python, and the zeros have the bits of the
        # Python march's
        if _kernels._compiled_march() is None:
            pytest.skip("no C compiler could build _march.c here")
        P = BcvParams(1.0, 1.0)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 0.9, 0.0, 1.2), IntegrationConfig(s_max=4.0)
        )
        flips = np.flatnonzero(traj.R1[:-1] * traj.R1[1:] < 0.0)
        assert len(flips) >= 1

        def zeros():
            return np.array([refine_sign_change(P, traj, int(i), q)
                             for i in flips for q in (branch_r1, obstruction)])

        with monkeypatch.context() as m:
            m.setattr(_kernels, "branch_march", None)
            compiled = zeros()
        monkeypatch.setattr(_kernels, "_compiled_march", lambda: None)
        assert compiled.tobytes() == zeros().tobytes()


class TestConstructors:
    def test_profile_state_validation(self):
        with pytest.raises(DomainError):
            ProfileState(0.0, 1e-9, 0.0, 0.5)
        with pytest.raises(DomainError):
            ProfileState(0.0, math.nan, 0.0, 0.5)

    def test_profile_state_validates_elementwise(self):
        st_ = ProfileState(np.zeros(3), np.array([0.5, 1.0, 2.0]), 0.0, 0.3)
        assert st_.r.shape == (3,)
        with pytest.raises(DomainError):
            ProfileState(np.zeros(3), np.array([0.5, 1e-9, 2.0]), 0.0, 0.3)
        with pytest.raises(DomainError):
            ProfileState(np.zeros(3), np.ones(3), np.array([0.0, math.inf, 0.0]), 0.3)

    def test_profile_state_checks_each_field(self):
        # finite fields whose sum overflows are a valid state
        st_ = ProfileState(1e308, 1.0, 1e308, 0.0)
        assert (st_.s, st_.z) == (1e308, 1e308)
        for i in range(4):
            fields = [0.5, 1.0, 0.25, 0.3]
            fields[i] = math.nan
            with pytest.raises(DomainError, match=re.escape(f"= {tuple(fields)} is not finite")):
                ProfileState(*fields)

    def test_profile_state_error_names_first_failing_state(self):
        # the first failure in C order, as floats, and not the arrays
        s = np.arange(12.0).reshape(3, 4)
        r = np.ones((3, 4))
        r[1, 2] = r[2, 0] = -1.0
        with pytest.raises(DomainError) as err:
            ProfileState(s, r, 0.0, 0.3)
        assert str(err.value) == ("profile state (s, r, z, sigma) = (6.0, -1.0, 0.0, 0.3) "
                                  "is not finite or has r <= 1e-08")
        z = np.zeros((3, 4))
        z[0, 3] = math.inf
        with pytest.raises(DomainError, match=r"= \(3\.0, 1\.0, inf, 0\.3\) is not finite"):
            ProfileState(s, r, z, 0.3)
        with pytest.raises(DomainError, match=r"= \(0\.0, nan, 0\.0, 0\.5\) is not finite"):
            ProfileState(0.0, math.nan, 0.0, 0.5)

    def test_spline_profile_on_arrays(self):
        s = np.linspace(0.0, 1.0, 11)
        prof = spline_profile_columns(s, 1.0 + s * s, 0.5 * s, 0.2 + s)
        ss = np.array([0.05, 0.5, 0.93])
        batch = prof(ss)
        for i, x in enumerate(ss):
            one = prof(float(x))
            assert np.ndim(one.r) == 0
            for name in ("r", "z", "sigma"):
                assert getattr(batch, name)[i] == getattr(one, name)

    def test_tube_without_curve_derivative(self):
        curve, d_curve = ellipse_curve(1.6, 1.0)
        differenced = hopf_tube(curve)
        exact = hopf_tube(curve, d_curve)
        for u in (0.4, 1.9, 3.3):
            assert shape_arrays(differenced, P_NIL, u, 0.2).f == pytest.approx(
                shape_arrays(exact, P_NIL, u, 0.2).f, abs=1e-6)

    def test_cylinder_radius_validation(self):
        with pytest.raises(DomainError):
            hopf_cylinder(BcvParams(-4.0, 0.0), 1.0)

    def test_circle_tube_curvatures(self):
        r0 = 1.3
        curve, d_curve = ellipse_curve(r0, r0)
        # flat base: geodesic curvature 1/r0
        S = hopf_tube(curve, d_curve)
        jet = surface_jets(S, P_NIL, 0.7, 0.0)
        kg = base_geodesic_curvature(P_NIL, curve, 0.7, projected_normal(P_NIL, jet),
                                     curve_derivative=d_curve)
        f = shape_arrays(S, P_NIL, 0.7, 0.0).f
        assert kg == pytest.approx(1.0 / r0, abs=1e-8)
        assert f == pytest.approx(1.0 / r0, abs=1e-4)
        # curved base: 1/r0 - kappa r0 / 4
        P = BcvParams(1.0, 0.5)
        S1 = hopf_tube(curve, d_curve)
        jet1 = surface_jets(S1, P, 0.7, 0.0)
        kg1 = base_geodesic_curvature(P, curve, 0.7, projected_normal(P, jet1),
                                      curve_derivative=d_curve)
        f1 = shape_arrays(S1, P, 0.7, 0.0).f
        expected = 1.0 / r0 - 0.25 * P.kappa * r0
        assert kg1 == pytest.approx(expected, abs=1e-8)
        assert f1 == pytest.approx(expected, abs=1e-4)

    def test_tube_curvature_matches_base_pointwise(self):
        curve, d_curve = ellipse_curve(1.6, 1.0)
        tube = hopf_tube(curve, d_curve)
        for u in (0.4, 1.9, 3.3, 5.0):
            jet = surface_jets(tube, P_NIL, u, 0.0)
            kg = base_geodesic_curvature(P_NIL, curve, u, projected_normal(P_NIL, jet),
                                         curve_derivative=d_curve)
            f = shape_arrays(tube, P_NIL, u, 0.0).f
            assert f == pytest.approx(kg, abs=1e-4)

    def test_horizontal_profile_gives_flat_plane(self):
        P = BcvParams(0.0, 0.0)
        profile = lambda s: ProfileState(s, 1.0 + s, 0.0, 0.0)
        S = revolution_surface(P, profile, (-0.4, 0.8))
        assert np.abs(S.coords(0.3, 0.2)[2]) < 1e-15
        assert abs(shape_arrays(S, P, 0.3, 0.2).f) < 1e-8

    def test_spline_profile_consistency(self):
        P = BcvParams(1.0, 1.0)
        traj = integrate_noncmc_branch(
            P, ProfileState(0.0, 1.0, 0.0, 1.0), IntegrationConfig(s_max=1.5)
        )
        prof = spline_profile(traj)
        S = revolution_surface(P, prof, (0.1, 1.4))
        for v in (0.3, 0.8, 1.2):
            st_ = prof(v)
            jet = surface_jets(S, P, 0.5, v)
            q = math.sqrt(1.0 + P.tau ** 2 * st_.r ** 2)
            assert jet.cos_alpha == pytest.approx(math.cos(st_.sigma) / q, abs=1e-6)
            assert shape_arrays(S, P, 0.5, v).f == pytest.approx(branch_mean_curvature(st_),
                                                                abs=1e-4)
