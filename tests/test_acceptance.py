"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line; the whole module is
property-based verification at desk scale and runs in well under five
minutes on one workstation.
"""

import math
import time

import numpy as np

from bcvgeo.ambient import (
    BcvParams,
    base_metric,
    coordinate_components,
    frame_at,
    frame_components,
    frame_dot,
    hopf_dpsi,
    ricci,
    ricci_tensor_fd,
)
from bcvgeo.biconservative import (
    _ricci_n_tangential,
    constant_angle_suite,
    frame_system_residual,
    normal_bitension,
    tangential_bitension_arrays,
)
from bcvgeo.immersion import (
    Stages,
    codazzi_residual,
    compatibility_residual,
    gauss_residual,
    shape_arrays,
    surface_jets,
)
from bcvgeo.rotation import (
    IntegrationConfig,
    ProfileState,
    branch_residuals,
    ellipse_curve,
    generic_revolution_surface,
    hopf_cylinder,
    hopf_tube,
    integrate_noncmc_branch,
    reduced_bicon_system,
    reduced_mean_curvature,
    refine_sign_change,
    revolution_surface,
)
from bcvgeo.suites import sample_domain_points

from conftest import (PAIRS6, CYLINDER_PAIRS, adapted_components, frame_norm, frame_of,
                      make_rng, sphere_surface)
from profiles import observed_order, slant_profile

P_NIL = BcvParams(0.0, 0.5)


def report(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_frame_orthonormality():
    rng = make_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for P in PAIRS6:
        x, y, _ = sample_domain_points(P, rng, 100)
        f = frame_of(P, x, y, frame_at(P, x, y))
        gram = frame_dot(f[:, :, None], f[:, None, :])
        worst = max(worst, float(np.abs(gram - np.eye(3)[..., None]).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, ok, f"frame orthonormality: max |g(Ei,Ej)-d_ij| = {worst:.2e} < 1e-10, "
                  f"{elapsed:.2f} s < 1 s")


def test_criterion_02_ricci_oracle():
    rng = make_rng(102)
    started = time.perf_counter()
    worst = 0.0
    for P in PAIRS6:
        x, y, _ = sample_domain_points(P, rng, 20)
        # per point: the frame and one random vector, in coordinate components
        V = np.concatenate([frame_at(P, x, y), rng.normal(size=(1, 20, 3)).transpose(0, 2, 1)])
        f = frame_of(P, x, y, V)
        fd = np.einsum("ain,ijn,bjn->abn", V, ricci_tensor_fd(P, x, y), V)
        worst = max(worst, float(np.abs(ricci(P, f[:, :, None], f[:, None, :]) - fd).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report(2, ok, f"closed-form vs FD curvature: max deviation = {worst:.2e} < 1e-4, "
                  f"{elapsed:.1f} s < 30 s")


def test_criterion_03_submersion():
    rng = make_rng(103)
    worst = 0.0
    vertical_exact = True
    for P in PAIRS6:
        x, y, _ = sample_domain_points(P, rng, 25)
        e1, e2, e3 = frame_at(P, x, y)
        a = rng.normal(size=(25, 2))
        H = a[:, 0] * e1 + a[:, 1] * e2
        img = hopf_dpsi(H)
        h_norm = np.sqrt(base_metric(P, x, y, img, img))
        Hf = frame_components(P, x, y, H)
        worst = max(worst, float(np.abs(h_norm - np.sqrt(frame_dot(Hf, Hf))).max()))
        vertical_exact &= bool(np.all(hopf_dpsi(e3) == 0.0))
    ok = worst < 1e-8 and vertical_exact
    report(3, ok, f"horizontal isometry: max norm deviation = {worst:.2e} < 1e-8; "
                  f"vertical kernel exact: {vertical_exact}")


def _criterion4_surfaces():
    surfaces = [(hopf_cylinder(P_NIL, r0), P_NIL, 4, 3, f"cylinder r0={r0}")
                for r0 in (0.5, 1.0, 2.0)]
    slant = revolution_surface(P_NIL, slant_profile(P_NIL, 1.0, 1.0), (-0.5, 1.5))
    surfaces.append((slant, P_NIL, 5, 4, "revolution"))
    tube = hopf_tube(*ellipse_curve(1.6, 1.0))
    surfaces.append((tube, P_NIL, 6, 3, "ellipse tube"))
    return surfaces, slant


def test_criterion_04_structural_identities():
    worst = {"gauss": 0.0, "codazzi": 0.0, "compat": 0.0, "jet": 0.0}
    surfaces, slant = _criterion4_surfaces()
    for surface, P, nu, nv, _ in surfaces:
        (u0, u1), (v0, v1) = surface.domain
        us = np.linspace(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0), nu)
        vs = np.linspace(v0 + 0.1 * (v1 - v0), v1 - 0.1 * (v1 - v0), nv)
        for u in us:
            for v in vs:
                jet = surface_jets(surface, P, u, v)
                T, N = (np.array(coordinate_components(P, jet.x, jet.y, a))
                        for a in (jet.T, jet.n))
                worst["jet"] = max(
                    worst["jet"],
                    abs(frame_dot(jet.T, jet.T) - jet.sin_alpha ** 2),
                    float(np.abs(np.array([0.0, 0.0, 1.0]) - T - jet.cos_alpha * N).max()),
                )
                stages = Stages(surface, P, u, v)
                worst["gauss"] = max(worst["gauss"], abs(gauss_residual(stages)))
                if jet.sin_alpha > 0.1 and abs(jet.cos_alpha / jet.sin_alpha) < 10.0:
                    c1, c2 = codazzi_residual(stages)
                    worst["codazzi"] = max(worst["codazzi"], abs(c1), abs(c2))
                    # along e2, as the gauss-codazzi suite reads it
                    vec, sc = (r[..., 1] for r in compatibility_residual(stages))
                    worst["compat"] = max(worst["compat"], float(np.sqrt(frame_dot(vec, vec))),
                                          abs(sc))
    # dense intrinsic-vs-extrinsic sweep on the revolution surface
    for u in np.linspace(0.2, 2 * math.pi - 0.2, 20):
        for v in np.linspace(-0.35, 1.35, 20):
            worst["gauss"] = max(worst["gauss"], abs(gauss_residual(Stages(slant, P_NIL, u, v))))
    ok = (worst["gauss"] < 1e-4 and worst["codazzi"] < 1e-3
          and worst["compat"] < 1e-4 and worst["jet"] < 1e-9)
    report(4, ok, "structural identities: "
                  f"gauss {worst['gauss']:.2e} < 1e-4, "
                  f"codazzi {worst['codazzi']:.2e} < 1e-3, "
                  f"compat {worst['compat']:.2e} < 1e-4, "
                  f"jet {worst['jet']:.2e} < 1e-9")


def test_criterion_05_cylinders_biconservative():
    worst_tb = 0.0
    worst_red = 0.0
    for P in CYLINDER_PAIRS:
        assert not P.is_space_form
        for r0 in (0.5, 1.0, 2.0):
            S = hopf_cylinder(P, r0)
            for u in np.linspace(0.3, 5.9, 3):
                for v in (-0.5, 0.0, 0.6):
                    tb = tangential_bitension_arrays(Stages(S, P, u, v))
                    worst_tb = max(worst_tb, frame_norm(tb))
            state = ProfileState(0.0, r0, 0.0, math.pi / 2)
            f = reduced_mean_curvature(P, state, 0.0)
            r1, r2 = reduced_bicon_system(P, state, f, 0.0)
            worst_red = max(worst_red, abs(r1), abs(r2))
    ok = worst_tb < 1e-6 and worst_red < 1e-8
    report(5, ok, f"circular cylinders conservative: max |tangential| = "
                  f"{worst_tb:.2e} < 1e-6, reduced pair {worst_red:.2e} < 1e-8 "
                  f"(3 radii x {len(CYLINDER_PAIRS)} non-space-form pairs)")


def test_criterion_06_tube_discrimination():
    tube = hopf_tube(*ellipse_curve(1.6, 1.0))
    ellipse_max = 0.0
    for u in np.linspace(0.0, 2 * math.pi, 13):
        for v in (-0.3, 0.4):
            ellipse_max = max(ellipse_max,
                              frame_norm(tangential_bitension_arrays(Stages(tube, P_NIL, u, v))))
    circle = hopf_cylinder(P_NIL, 1.0)
    circle_max = 0.0
    for u in np.linspace(0.3, 5.9, 5):
        circle_max = max(circle_max,
                         frame_norm(tangential_bitension_arrays(Stages(circle, P_NIL, u, 0.1))))
    ok = ellipse_max > 1e-3 and circle_max < 1e-6
    report(6, ok, f"discrimination: ellipse tube max = {ellipse_max:.2e} > 1e-3, "
                  f"circular tube max = {circle_max:.2e} < 1e-6")


def _branch_r1(params, state):
    return branch_residuals(params, state)[2]


def _obstruction(params, state):
    return branch_residuals(params, state)[4]


def test_criterion_07_branch_never_closes():
    # R1 and the obstruction share their zeros, located by bisection inside
    # each step where R1 changes sign; `verify` checks the same rows by the
    # factored identity and needs no bisection
    rng = make_rng(107)
    started = time.perf_counter()
    worst_r2 = 0.0
    min_max_r1 = math.inf
    worst_window = 0.0
    runs = 0
    for kappa, tau in [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.5)]:
        P = BcvParams(kappa, tau)
        for _ in range(10):
            r0 = rng.uniform(0.6, 1.5)
            while True:
                # keep the profile angle off the horizontal so the branch
                # mean curvature is nonzero, and off the vertical per the
                # |cos sigma| > 0.1 sampling requirement
                sigma0 = rng.uniform(0.15, math.pi - 0.15)
                if abs(math.cos(sigma0)) > 0.1:
                    break
            traj = integrate_noncmc_branch(
                P, ProfileState(0.0, r0, 0.0, sigma0),
                # stop at r = 0.05: below that f' ~ 1/r^2 turns ulp-level
                # cancellation noise in the recorded residuals into values
                # above the asserted floors
                IntegrationConfig(s_max=3.0, r_stop=0.05),
            )
            runs += 1
            worst_r2 = max(worst_r2, float(np.abs(traj.R2).max()))
            R1 = traj.R1
            min_max_r1 = min(min_max_r1, float(np.abs(R1).max()))
            for i in np.where(R1[:-1] * R1[1:] < 0.0)[0]:
                s1 = refine_sign_change(P, traj, int(i), _branch_r1)
                s2 = refine_sign_change(P, traj, int(i), _obstruction)
                worst_window = max(worst_window, abs(s1 - s2))
    elapsed = time.perf_counter() - started
    ok = (worst_r2 < 1e-10 and min_max_r1 > 1e-3 and worst_window < 1e-8
          and elapsed < 60.0)
    report(7, ok, f"branch obstruction over {runs} runs: max |R2| = {worst_r2:.2e} "
                  f"< 1e-10, min of max |R1| = {min_max_r1:.2e} > 1e-3, "
                  f"zero windows {worst_window:.2e} < 1e-8, {elapsed:.1f} s < 60 s")


def test_criterion_08_space_form_remark():
    P = BcvParams(4.0, 1.0)
    S = hopf_cylinder(P, 0.5)   # CMC revolution surface, f = 2 - kappa/8 != 0
    worst_tb = 0.0
    worst_curv = 0.0
    for u in np.linspace(0.3, 5.9, 4):
        for v in (-0.4, 0.2):
            worst_tb = max(worst_tb, frame_norm(tangential_bitension_arrays(Stages(S, P, u, v))))
            sh = shape_arrays(S, P, u, v)
            worst_curv = max(worst_curv, frame_norm(_ricci_n_tangential(P, sh)))
    ok = worst_tb < 1e-6 and worst_curv < 1e-12
    report(8, ok, f"space form: CMC revolution surface tangential = {worst_tb:.2e} "
                  f"< 1e-6 with curvature term {worst_curv:.2e} < 1e-12 pointwise")


def test_criterion_09_constant_angle_polynomial():
    rep1 = constant_angle_suite(BcvParams(1.0, 0.0), math.pi / 3)
    nonzero = sorted(r for r in rep1.real_roots if r != 0.0)
    target = math.sqrt(3.0) * 0.5
    ok1 = (len(nonzero) == 2
           and abs(nonzero[0] + target) < 1e-10
           and abs(nonzero[1] - target) < 1e-10)
    rep2 = constant_angle_suite(BcvParams(0.0, 0.5), math.pi / 4)
    c4, c2, c0 = rep2.coefficients
    scale = 1.0 + max(abs(c4), abs(c2), abs(c0))
    ok2 = bool(rep2.real_roots) and all(
        abs(c4 * lam ** 4 + c2 * lam ** 2 + c0) < 1e-10 * scale
        for lam in rep2.real_roots
    )
    rep3 = constant_angle_suite(BcvParams(1.0, 0.5), math.pi / 2)
    ok3 = rep3.degenerate
    ok = ok1 and ok2 and ok3
    report(9, ok, f"constant-angle polynomial: roots +/-sqrt(3)/2 ({ok1}), "
                  f"roots satisfy polynomial to 1e-10 ({ok2}), "
                  f"right angle degenerate ({ok3})")


def test_criterion_10_oracle_equivalence():
    rng = make_rng(110)
    S = generic_revolution_surface()
    worst = 0.0
    count = 0
    while count < 50:
        u = rng.uniform(0.0, 2 * math.pi)
        v = rng.uniform(-1.4, 1.4)
        jet = surface_jets(S, P_NIL, u, v)
        if jet.sin_alpha <= 0.1:
            continue
        count += 1
        r1, r2 = frame_system_residual(Stages(S, P_NIL, u, v))
        c1, c2 = adapted_components(S, P_NIL, u, v)
        worst = max(worst, abs(r1 - c1), abs(r2 - c2))
    ok = worst < 1e-4
    report(10, ok, f"frame system vs tangential components on {count} samples: "
                   f"max deviation = {worst:.2e} < 1e-4")


def test_criterion_11_integrator_order():
    P = BcvParams(1.0, 1.0)
    order = observed_order(P, ProfileState(0.0, 1.0, 0.0, 0.7), 0.04, 2.0)
    ok = abs(order - 4.0) < 0.3
    report(11, ok, f"step-halving convergence order = {order:.3f} within 4 +/- 0.3")


def test_criterion_12_normal_bitension_closed_forms():
    worst = 0.0
    for P in CYLINDER_PAIRS:
        for r0 in (0.5, 1.0, 2.0):
            S = hopf_cylinder(P, r0)
            sh = shape_arrays(S, P, 0.8, 0.2)
            expected = sh.f * (sh.A[1][1] ** 2 + 4 * P.tau ** 2 - P.kappa)
            worst = max(worst, abs(normal_bitension(Stages(S, P, 0.8, 0.2)) - expected))
    sphere = sphere_surface(1.0)
    sphere_val = normal_bitension(Stages(sphere, BcvParams(0.0, 0.0), 1.1, 0.8))
    sphere_dev = abs(sphere_val - 4.0)
    ok = worst < 1e-5 and sphere_dev < 1e-5
    report(12, ok, f"normal component: cylinder closed form deviation = "
                   f"{worst:.2e} < 1e-5, unit sphere value = {sphere_val:.8f} "
                   f"(|dev| = {sphere_dev:.2e} < 1e-5)")
