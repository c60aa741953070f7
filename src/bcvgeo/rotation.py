"""Rotationally invariant surfaces: orbit space, profiles, and the branch ODE.

Rotation about the z-axis is an isometry of every ambient space in the
family, so surfaces invariant under it live over the orbit space
B = {(r, z) : r >= 0} carrying the orbital distance metric

    g~ = dr^2 / F(r)^2 + dz^2 / (1 + tau^2 r^2),       F(r) = 1 + kappa r^2 / 4.

A profile curve (r(s), z(s)) parametrised by g~-arclength is driven by its
inclination angle sigma:

    r' = F cos(sigma),        z' = sin(sigma) sqrt(1 + tau^2 r^2),

which makes the arclength identity structural rather than numerically
enforced.  The reduced mean curvature is

    f = (1/r - kappa r / 4) sin(sigma) + sigma',

and biconservativity of the revolved surface is equivalent to the pair

    R1 = f' [b f - 2 tau d - 2 (cos a)'] - 2 f (4 tau^2 - kappa) cos(a) sin^2(a)
    R2 = f' (3 d f - 2 tau b)

vanishing along the profile, with the reduced coefficients (a, b, c, d)
expressing T and JT over the chart basis.  The non-CMC candidate branch
substitutes f = 2 sin(sigma) / (3 r), turning sigma into an autonomous flow
that the integrator below follows while recording the residual pair and the
factorised obstruction whose zero set R1 must share.

Constructors return `ParametricSurface` charts in Cartesian coordinates:
vertical cylinders over plane curves (curve parameter first, height second)
and revolution charts (angle first, arclength second).  Both carry
normal_sign = -1 so the wedge normal matches the profile normal that makes
a vertical cylinder of radius r0 have mean curvature +1/r0 - kappa r0 / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import (
    COLUMNS,
    STATUS_NAMES,
    branch_march,
    run_branch_kernel,
)
from ._spline import CubicSpline
from .ambient import EPS_F, BcvParams, smoothing_factor
from .errors import DomainError, SelfConsistencyError
from .immersion import ParametricSurface

__all__ = [
    "EPS_R",
    "ProfileState",
    "ReducedCoefficients",
    "IntegrationConfig",
    "BranchTrajectory",
    "orbit_metric",
    "reduced_quantities",
    "reduced_mean_curvature",
    "reduced_bicon_system",
    "branch_mean_curvature",
    "branch_f_prime",
    "branch_sigma_prime",
    "theorem52_obstruction",
    "integrate_noncmc_branch",
    "refine_sign_change",
    "observed_order",
    "fixed_point_radius",
    "hopf_cylinder",
    "hopf_tube",
    "revolution_surface",
    "generic_revolution_surface",
    "slant_profile",
    "spline_profile",
    "spline_profile_columns",
    "circle_curve",
    "ellipse_curve",
    "line_curve",
    "base_christoffels",
    "base_geodesic_curvature",
]

EPS_R = 1e-8
FD_CHECK_TOL = 1e-4   # closed-form f' vs finite differences along the flow


@dataclass(frozen=True)
class ProfileState:
    """Arclength state (s, r, z, sigma) of a profile curve.

    Fields are floats, or arrays when a profile is evaluated on an array of
    s; validation then applies elementwise.
    """

    s: float
    r: float
    z: float
    sigma: float

    def __post_init__(self):
        # elementwise; a sum is finite exactly when every term is (short of
        # overflow)
        if not (np.isfinite(self.s + self.r + self.z + self.sigma) & (self.r > EPS_R)).all():
            raise DomainError(f"profile state (s, r, z, sigma) = {(self.s, self.r, self.z, self.sigma)} "
                              f"is not finite or has r <= {EPS_R}")


def _check_radius(params: BcvParams, r: float):
    F = smoothing_factor(params, r, 0.0)
    if not F > EPS_F:
        raise DomainError(f"radius r = {r:.6g} has F = {F:.3e} <= {EPS_F}")
    return F


@dataclass(frozen=True)
class ReducedCoefficients:
    """Pointwise reduced data of a revolved profile.

    (a, b) expand T and (c, d) expand JT over the chart basis (angle
    derivative, arclength derivative); cos_alpha = cos(sigma) / sqrt(1 +
    tau^2 r^2).  The identity b^2 + d^2 = sin^2(alpha) holds exactly.
    """

    cos_alpha: float
    a: float
    b: float
    c: float
    d: float
    sin_sigma: float
    cos_sigma: float


def orbit_metric(params: BcvParams, r: float) -> np.ndarray:
    """Orbital distance metric diag(1/F^2, 1/(1 + tau^2 r^2)) at radius r."""
    if r < 0.0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    F = _check_radius(params, r)
    q2 = 1.0 + params.tau ** 2 * r * r
    return np.diag([1.0 / (F * F), 1.0 / q2])


def reduced_quantities(params: BcvParams, state: ProfileState) -> ReducedCoefficients:
    """Evaluate (cos alpha, a, b, c, d, sin sigma, cos sigma) at a state.

    r' and z' are reconstructed from sigma via the arclength relations
    cos(sigma) = r'/F, sin(sigma) = z'/sqrt(1 + tau^2 r^2).
    """
    F = _check_radius(params, state.r)
    t = params.tau
    r = state.r
    q2 = 1.0 + t * t * r * r
    q = math.sqrt(q2)
    sin_s = math.sin(state.sigma)
    cos_s = math.cos(state.sigma)
    rp = F * cos_s
    zp = sin_s * q
    cos_alpha = cos_s / q
    a = -rp * rp * t / (F * q2)
    b = zp / q2
    c = F * zp / (r * q)
    d = t * r / q
    return ReducedCoefficients(cos_alpha=cos_alpha, a=a, b=b, c=c, d=d,
                               sin_sigma=sin_s, cos_sigma=cos_s)


def reduced_mean_curvature(params: BcvParams, state: ProfileState, sigma_prime: float) -> float:
    """f = (1/r - kappa r / 4) sin(sigma) + sigma'."""
    _check_radius(params, state.r)
    r = state.r
    return (1.0 / r - 0.25 * params.kappa * r) * math.sin(state.sigma) + sigma_prime


def reduced_bicon_system(params: BcvParams, state: ProfileState, f: float, f_prime: float):
    """Residual pair (R1, R2) of the reduced biconservativity system.

    sigma' is recovered from f through the reduced mean curvature formula,
    and (cos alpha)' follows by differentiating cos(sigma)/sqrt(1+tau^2 r^2)
    along arclength with r' = F cos(sigma).
    """
    F = _check_radius(params, state.r)
    t = params.tau
    k = params.kappa
    r = state.r
    red = reduced_quantities(params, state)
    q2 = 1.0 + t * t * r * r
    q = math.sqrt(q2)
    sigma_prime = f - (1.0 / r - 0.25 * k * r) * red.sin_sigma
    rp = F * red.cos_sigma
    cos_a_p = -red.sin_sigma * sigma_prime / q - t * t * r * rp * red.cos_sigma / (q2 * q)
    sin2_a = 1.0 - red.cos_alpha ** 2
    curv = 4.0 * t * t - k
    r1 = f_prime * (red.b * f - 2.0 * t * red.d - 2.0 * cos_a_p) - 2.0 * f * curv * red.cos_alpha * sin2_a
    r2 = f_prime * (3.0 * red.d * f - 2.0 * t * red.b)
    return r1, r2


def branch_mean_curvature(state: ProfileState) -> float:
    """f = 2 sin(sigma) / (3 r) along the non-CMC candidate branch."""
    return 2.0 * math.sin(state.sigma) / (3.0 * state.r)


def branch_sigma_prime(params: BcvParams, state: ProfileState) -> float:
    """sigma' = sin(sigma) (kappa r / 4 - 1/(3 r)) along the branch."""
    r = state.r
    return math.sin(state.sigma) * (0.25 * params.kappa * r - 1.0 / (3.0 * r))


def branch_f_prime(state: ProfileState) -> float:
    """Arclength derivative of the branch mean curvature.

    Differentiating f = 2 sin(sigma)/(3 r) with the branch laws for sigma'
    and r' = F cos(sigma) cancels every kappa term:
    f' = -4 sin(2 sigma) / (9 r^2).  A finite-difference cross-check along
    every integrated trajectory enforces this closed form.
    """
    return -4.0 * math.sin(2.0 * state.sigma) / (9.0 * state.r ** 2)


def theorem52_obstruction(params: BcvParams, state: ProfileState) -> float:
    """(kappa - 4 tau^2) f (cos 2 sigma - 1 - 2 tau^2 r^2) cos(sigma),
    with f taken from the branch; its zero set must coincide with the zero
    set of R1 along the branch."""
    _check_radius(params, state.r)
    t = params.tau
    r = state.r
    f = branch_mean_curvature(state)
    return ((params.kappa - 4.0 * t * t) * f
            * (math.cos(2.0 * state.sigma) - 1.0 - 2.0 * t * t * r * r)
            * math.cos(state.sigma))


@dataclass
class IntegrationConfig:
    """Fixed-step RK4 settings for branch trajectories.

    There is no adaptive control, so trajectories are reproducible
    bit-for-bit; :func:`observed_order` measures the integrator's order.
    `fd_check` cross-validates the closed-form f' against the
    fourth-order 5-point central difference of the recorded f column and
    aborts on disagreement.  That stencil's truncation error is
    h^4 f^(5) / 30, which grows like 1/r^6; the check only applies to rows
    with r >= fd_check_r_floor, where at the default step the truncation
    stays about four orders of magnitude under FD_CHECK_TOL, so any excess
    is a genuine disagreement.  Below the floor the truncation alone would
    approach the tolerance and the oracle stops being informative.

    `r_stop` optionally raises the near-axis termination radius above the
    default 10 * EPS_R; recommended for verification sweeps, because along
    the axis funnel f' ~ 1/r^2 amplifies ulp-level cancellation noise in
    the recorded residuals.
    """

    step: float = 1e-3
    max_steps: int = 20000
    s_max: float = 5.0
    near_axis_factor: float = 10.0
    r_stop: Optional[float] = None
    fd_check: bool = True
    fd_check_r_floor: float = 0.2

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    @property
    def effective_r_stop(self) -> float:
        floor = self.near_axis_factor * EPS_R
        if self.r_stop is not None:
            floor = max(floor, self.r_stop)
        return floor


@dataclass
class BranchTrajectory:
    """Recorded branch run: uniform-step rows plus termination status."""

    params: BcvParams
    data: np.ndarray           # rows x 9, columns as _kernels.COLUMNS
    status: str
    config: IntegrationConfig
    fd_check_margin: Optional[float] = None   # worst |fd - f'| / FD_CHECK_TOL, None if unchecked

    def column(self, name: str) -> np.ndarray:
        return self.data[:, COLUMNS.index(name)]

    def __len__(self):
        return self.data.shape[0]


def integrate_noncmc_branch(params: BcvParams, init: ProfileState,
                            config: IntegrationConfig = None) -> BranchTrajectory:
    """Integrate the branch flow from `init`, recording diagnostics per step.

    Runs with kappa = 4 tau^2 are permitted but warn through the returned
    status only; callers verifying the rotational classification should
    enforce kappa != 4 tau^2 themselves.  Early termination (axis, domain
    boundary, row budget) is reported in `status` with the partial
    trajectory attached.
    """
    if config is None:
        config = IntegrationConfig()
    _check_radius(params, init.r)
    out = np.empty((config.max_steps, len(COLUMNS)))
    n, status = run_branch_kernel(
        params.kappa, params.tau, init.r, init.z, init.sigma, init.s, config.step,
        config.max_steps, config.s_max, config.effective_r_stop, EPS_F, out,
    )
    traj = BranchTrajectory(params=params, data=out[:n].copy(), status=STATUS_NAMES[status],
                            config=config)
    if config.fd_check and len(traj) >= 5:
        f = traj.column("f")
        fp = traj.column("f_prime")
        fd = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * config.step)
        mask = traj.column("r")[2:-2] >= config.fd_check_r_floor
        if np.any(mask):
            worst = float(np.max(np.abs(fd[mask] - fp[2:-2][mask])))
            traj.fd_check_margin = worst / FD_CHECK_TOL
            if worst > FD_CHECK_TOL:
                raise SelfConsistencyError(
                    f"closed-form f' deviates from finite differences by {worst:.3e}"
                )
    return traj


def refine_sign_change(params: BcvParams, traj: BranchTrajectory, i: int,
                       quantity: Callable[[BcvParams, ProfileState], float],
                       tol: float = 1e-12) -> float:
    """Locate a zero of `quantity` inside the step [s_i, s_{i+1}].

    Bisection on the sub-step offset; each probe advances the row-i state by
    a single RK4 step of the probed size, which is accurate to O(step^5) and
    keeps the refinement deterministic.  Probes march the state only; the
    probe at offset 0 returns the row-i state itself.
    """
    s0, r0, z0, g0 = (float(x) for x in traj.data[i, :4])
    kappa, tau = float(params.kappa), float(params.tau)
    h = traj.config.step

    def value_at(offset: float) -> float:
        cols, _ = branch_march(kappa, tau, r0, z0, g0, s0, offset, 2, s0 + offset,
                               EPS_R, EPS_F)
        return quantity(params, ProfileState(*(c[-1] for c in cols)))

    lo, hi = 0.0, h
    flo = value_at(lo)
    fhi = value_at(hi)
    if flo == 0.0:
        return s0
    if fhi == 0.0:
        return s0 + h
    if flo * fhi > 0.0:
        raise ValueError("no sign change in the given step")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = value_at(mid)
        if fm == 0.0:
            return s0 + mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return s0 + 0.5 * (lo + hi)


def observed_order(params: BcvParams, init: ProfileState, base_step: float,
                   s_end: float) -> float:
    """Richardson estimate of the integrator's convergence order.

    Compares final states of runs at h, h/2, h/4 over [0, s_end]:
    order = log2(|y_h - y_{h/2}| / |y_{h/2} - y_{h/4}|).
    """
    finals = []
    for k in range(3):
        h = base_step / 2 ** k
        cfg = IntegrationConfig(step=h, max_steps=int(round(s_end / h)) + 2,
                                s_max=s_end, fd_check=False)
        traj = integrate_noncmc_branch(params, init, cfg)
        finals.append(traj.data[-1, 1:4])
    d1 = float(np.max(np.abs(finals[0] - finals[1])))
    d2 = float(np.max(np.abs(finals[1] - finals[2])))
    return math.log2(d1 / d2)


def fixed_point_radius(kappa: float) -> float:
    """Stationary radius sqrt(4 / (3 kappa)) of the branch flow, kappa > 0."""
    if kappa <= 0:
        raise ValueError("stationary radius exists only for kappa > 0")
    return math.sqrt(4.0 / (3.0 * kappa))


# ---------------------------------------------------------------------------
# surface constructors


def circle_curve(r0: float):
    """Counterclockwise circle of radius r0 with its derivative."""
    def curve(u):
        return (r0 * np.cos(u), r0 * np.sin(u))

    def d_curve(u):
        return (-r0 * np.sin(u), r0 * np.cos(u))

    return curve, d_curve


def ellipse_curve(a: float, b: float):
    """Axis-aligned ellipse (a cos u, b sin u) with its derivative."""
    def curve(u):
        return (a * np.cos(u), b * np.sin(u))

    def d_curve(u):
        return (-a * np.sin(u), b * np.cos(u))

    return curve, d_curve


def line_curve(p0, direction):
    """Affine line u -> p0 + u * direction in the base plane."""
    p0 = (float(p0[0]), float(p0[1]))
    d = (float(direction[0]), float(direction[1]))

    def curve(u):
        return (p0[0] + u * d[0], p0[1] + u * d[1])

    def d_curve(u):
        return d

    return curve, d_curve


def hopf_tube(params: BcvParams, base_curve, curve_derivative=None,
              u_domain=(0.0, 2.0 * math.pi), v_domain=(-1.0, 1.0),
              name: str = "hopf-tube") -> ParametricSurface:
    """Vertical cylinder over a plane curve: (u, v) -> (x(u), y(u), v).

    The chart is tangent to the vertical direction everywhere, so the angle
    function is pi/2 and the mean curvature equals the geodesic curvature
    of the projected curve in the base surface.  With normal_sign = -1 the
    normal points toward the curve's curvature centre for a
    counterclockwise circle, giving mean curvature +1/r0 - kappa r0/4.
    """
    def chart(u, v):
        x, y = base_curve(u)
        return (x, y, v)

    partials = None   # without a curve derivative the chart is differenced
    if curve_derivative is not None:
        def partials(u, v):
            dx, dy = curve_derivative(u)
            return (dx, dy, 0.0), (0.0, 0.0, 1.0)

    return ParametricSurface(chart, (u_domain, v_domain), partials=partials,
                             normal_sign=-1.0, name=name)


def hopf_cylinder(params: BcvParams, r0: float, v_domain=(-1.0, 1.0)) -> ParametricSurface:
    """Vertical cylinder over the circle of radius r0 about the axis."""
    if not r0 > EPS_R:
        raise DomainError(f"cylinder radius r0 = {r0:.3e} <= {EPS_R}")
    _check_radius(params, r0)
    curve, d_curve = circle_curve(r0)
    return hopf_tube(params, curve, d_curve, v_domain=v_domain,
                     name=f"hopf-cylinder-r{r0:g}")


def revolution_surface(params: BcvParams, profile: Callable[[float], ProfileState],
                       s_domain, theta_domain=(0.0, 2.0 * math.pi),
                       name: str = "revolution") -> ParametricSurface:
    """Revolve an arclength profile: (theta, s) -> (r cos, r sin, z).

    Chart partials are analytic: the theta direction rotates the profile
    point, and the arclength direction uses the structural relations
    r' = F cos(sigma), z' = sin(sigma) sqrt(1 + tau^2 r^2).
    """
    def chart(theta, s):
        st = profile(s)
        return (st.r * np.cos(theta), st.r * np.sin(theta), st.z)

    def partials(theta, s):
        st = profile(s)
        F = smoothing_factor(params, st.r, 0.0)
        rp = F * np.cos(st.sigma)
        zp = np.sin(st.sigma) * np.sqrt(1.0 + params.tau ** 2 * st.r ** 2)
        ct, sn = np.cos(theta), np.sin(theta)
        x_theta = (-st.r * sn, st.r * ct, 0.0)
        x_s = (rp * ct, rp * sn, zp)
        return x_theta, x_s

    return ParametricSurface(chart, (theta_domain, s_domain), partials=partials,
                             normal_sign=-1.0, name=name)


def slant_profile(params: BcvParams, r0: float, sigma0: float) -> Callable[[float], ProfileState]:
    """Closed-form constant-sigma profile for kappa = 0.

    With F = 1 the radius grows linearly, r(s) = r0 + s cos(sigma0), and the
    height integrates in closed form through
    G(u) = (u sqrt(1 + tau^2 u^2) + asinh(tau u)/tau) / 2.  The revolved
    surface has varying angle function and varying mean curvature
    sin(sigma0)/r, which makes it the workhorse generic test surface.
    """
    if params.kappa != 0.0:
        raise ValueError("closed-form slant profiles require kappa = 0")
    c0 = math.cos(sigma0)
    s0 = math.sin(sigma0)
    if abs(c0) < 1e-12:
        raise ValueError("sigma0 = pi/2 is the cylinder; use hopf_cylinder")
    t = params.tau

    def G(u):
        if t == 0.0:
            return u
        return 0.5 * (u * np.sqrt(1.0 + t * t * u * u) + np.arcsinh(t * u) / t)

    G0 = G(r0)

    def profile(s):
        r = r0 + s * c0
        z = (s0 / c0) * (G(r) - G0)
        return ProfileState(s=s, r=r, z=z, sigma=sigma0)

    return profile


def spline_profile(traj: BranchTrajectory):
    """Cubic-spline interpolant of an integrated trajectory as a profile."""
    return spline_profile_columns(*(traj.column(c) for c in ("s", "r", "z", "sigma")))


def spline_profile_columns(s, r, z, sigma):
    """Profile interpolating (s, r, z, sigma) columns by cubic splines in s.

    The profile takes s as a float or an array; an array gives one
    ProfileState of arrays.
    """
    r_sp, z_sp, g_sp = (CubicSpline(s, c) for c in (r, z, sigma))

    def profile(ss):
        return ProfileState(s=ss, r=r_sp(ss), z=z_sp(ss), sigma=g_sp(ss))

    return profile


def generic_revolution_surface(params: BcvParams, r_mid: float = 1.2,
                               amp: float = 0.25, pitch: float = 0.4,
                               s_domain=(-1.5, 1.5)) -> ParametricSurface:
    """Smooth non-arclength revolution chart (r_mid + amp sin s, theta, pitch s).

    Handy for identities that hold for arbitrary immersed charts; the
    structural residual evaluators never assume arclength parametrisation.
    """
    def chart(theta, s):
        r = r_mid + amp * np.sin(s)
        return (r * np.cos(theta), r * np.sin(theta), pitch * s)

    def partials(theta, s):
        r = r_mid + amp * np.sin(s)
        rp = amp * np.cos(s)
        ct, sn = np.cos(theta), np.sin(theta)
        return (-r * sn, r * ct, 0.0), (rp * ct, rp * sn, pitch)

    return ParametricSurface(chart, ((0.0, 2.0 * math.pi), s_domain),
                             partials=partials, normal_sign=-1.0,
                             name="generic-revolution")


# ---------------------------------------------------------------------------
# base-surface geodesic curvature (for tube diagnostics)


def base_christoffels(params: BcvParams, x: float, y: float, step: float = 1e-5) -> np.ndarray:
    """Christoffel symbols of the base metric h = (dx^2 + dy^2)/F^2 by FD."""
    def h_mat(xx, yy):
        F = smoothing_factor(params, xx, yy)
        if not F > EPS_F:
            raise DomainError(f"base point ({xx:.4g}, {yy:.4g}) outside domain")
        return np.eye(2) / (F * F)

    hx = step * max(1.0, abs(x))
    hy = step * max(1.0, abs(y))
    dg = np.empty((2, 2, 2))
    dg[0] = (h_mat(x + hx, y) - h_mat(x - hx, y)) / (2 * hx)
    dg[1] = (h_mat(x, y + hy) - h_mat(x, y - hy)) / (2 * hy)
    ginv = np.linalg.inv(h_mat(x, y))
    sym = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, sym)


def base_geodesic_curvature(params: BcvParams, curve, u: float, normal2,
                            curve_derivative=None, step: float = 1e-5) -> float:
    """Geodesic curvature of a plane curve in the base metric h.

    `normal2` fixes the co-orientation (it should be the projected surface
    normal for tube diagnostics, h-unit for horizontal normals); for a
    regular curve gamma,

        kappa_g = h(gamma'' + Gamma(gamma', gamma'), n) / h(gamma', gamma').
    """
    x, y = curve(u)
    h = step * max(1.0, abs(u))
    if curve_derivative is not None:
        d = np.asarray(curve_derivative(u), dtype=float)
        dp = np.asarray(curve_derivative(u + h), dtype=float)
        dm = np.asarray(curve_derivative(u - h), dtype=float)
        dd = (dp - dm) / (2 * h)
    else:
        cp = np.asarray(curve(u + h), dtype=float)
        cm = np.asarray(curve(u - h), dtype=float)
        c0 = np.asarray(curve(u), dtype=float)
        d = (cp - cm) / (2 * h)
        dd = (cp - 2 * c0 + cm) / (h * h)
    gamma = base_christoffels(params, x, y)
    acc = dd + np.einsum("kij,i,j->k", gamma, d, d)
    F = smoothing_factor(params, x, y)
    n = np.asarray(normal2, dtype=float)
    h_acc_n = float(acc @ n) / (F * F)
    h_dd = float(d @ d) / (F * F)
    return h_acc_n / h_dd
