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

vanishing along the profile, with the reduced coefficients (a, b) of T
and d of JT over the chart basis.  The non-CMC candidate branch
substitutes f = 2 sin(sigma) / (3 r), turning sigma into an autonomous flow
that the integrator below follows; `branch_residuals` then gives f, its
arclength derivative, the residual pair and the factorised obstruction,
of which Theorem 5.2's proof makes R1 a fixed multiple.

Every reduced formula is written once and takes numpy arrays of any shape,
or floats, as `surface_jets` does: the same code fills the diagnostic
columns of a whole trajectory in one pass.  Each evaluation checks the
domain once (naming the first failing r) and takes sin(sigma), cos(sigma)
and sqrt(1 + tau^2 r^2) once.  Of the equivalent closed forms of the
branch's f', the one kept is -8 sin(sigma) cos(sigma) / (9 r^2), because it
reuses that sin and cos.

Constructors return `ParametricSurface` charts in Cartesian coordinates:
vertical cylinders over plane curves (curve parameter first, height second)
and revolution charts (angle first, arclength second).  With the one
orientation of :mod:`bcvgeo.immersion`, N = -(X_u ^ X_v) / |X_u ^ X_v|, the
normal of a cylinder points to the axis and matches the profile normal that
makes a vertical cylinder of radius r0 have mean curvature +1/r0 - kappa r0 / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._kernels import STATUS_NAMES, run_branch_kernel
from ._spline import CubicSpline
from ._stencil import derivative
from .ambient import EPS_F, BcvParams, _first_failure, smoothing_factor
from .errors import DomainError, SelfConsistencyError
from .immersion import ParametricSurface

__all__ = [
    "EPS_R",
    "ProfileState",
    "ReducedCoefficients",
    "IntegrationConfig",
    "BranchTrajectory",
    "reduced_quantities",
    "reduced_bicon_system",
    "branch_mean_curvature",
    "branch_f_prime",
    "branch_residuals",
    "integrate_noncmc_branch",
    "refine_sign_change",
    "hopf_cylinder",
    "hopf_tube",
    "revolution_surface",
    "generic_revolution_surface",
    "spline_profile_columns",
    "ellipse_curve",
]

EPS_R = 1e-8
FD_CHECK_TOL = 1e-4   # closed-form f' vs finite differences along the flow
FD_CHECK_R_FLOOR = 0.2   # rows below it are left out of that check
BISECTION_TOL = 1e-12   # width at which `refine_sign_change` stops bisecting


@dataclass(frozen=True)
class ProfileState:
    """Arclength state (s, r, z, sigma) of a profile curve.

    Fields are floats, or arrays when a profile is evaluated on an array of
    s; validation then applies elementwise.  sin(sigma) and cos(sigma) are
    taken on first use and kept, so the reduced formulas share them; a
    `BranchTrajectory` puts the march's recorded columns there instead.
    """

    s: float
    r: float
    z: float
    sigma: float

    def __post_init__(self):
        fields = (self.s, self.r, self.z, self.sigma)
        ok = self.r > EPS_R
        for field in fields:
            ok = ok & np.isfinite(field)
        bad = _first_failure(ok, *fields)
        if bad:
            raise DomainError(f"profile state (s, r, z, sigma) = {tuple(bad)} "
                              f"is not finite or has r <= {EPS_R}")

    @cached_property
    def sin_sigma(self):
        return np.sin(self.sigma)

    @cached_property
    def cos_sigma(self):
        return np.cos(self.sigma)


def _check_radius(params: BcvParams, r):
    """F at r, floats or arrays; raises DomainError naming the first r, in C
    order, with F <= EPS_F."""
    F = smoothing_factor(params, r, 0.0)
    bad = _first_failure(F > EPS_F, r, F)
    if bad:
        raise DomainError(f"radius r = {bad[0]!r} has F = {bad[1]:.3e} <= {EPS_F}")
    return F


class ReducedCoefficients(NamedTuple):
    """Pointwise reduced data of a revolved profile.

    (a, b) expand T over the chart basis (angle derivative, arclength
    derivative), and d is the arclength component of JT; cos_alpha =
    cos(sigma) / sqrt(1 + tau^2 r^2).  The identity b^2 + d^2 =
    sin^2(alpha) holds exactly.
    """

    cos_alpha: float
    a: float
    b: float
    d: float


def reduced_quantities(params: BcvParams, state: ProfileState) -> ReducedCoefficients:
    """Evaluate (cos alpha, a, b, d) at a state.

    r' and z' are reconstructed from sigma via the arclength relations
    cos(sigma) = r'/F, sin(sigma) = z'/q with q = sqrt(1 + tau^2 r^2), which
    give a = -tau F cos^2(alpha), b = sin(sigma)/q and d = tau r/q.
    """
    F = _check_radius(params, state.r)
    t = params.tau
    r = state.r
    q = np.sqrt(1.0 + t * t * r * r)
    cos_alpha = state.cos_sigma / q
    return ReducedCoefficients(cos_alpha, -t * F * cos_alpha * cos_alpha, state.sin_sigma / q,
                               t * r / q)


def _parallel_term(params: BcvParams, state: ProfileState):
    """(1/r - kappa r / 4) sin(sigma): the parallel circles' share of f."""
    r = state.r
    return (1.0 / r - 0.25 * params.kappa * r) * state.sin_sigma


def reduced_bicon_system(params: BcvParams, state: ProfileState, f, f_prime):
    """Residual pair (R1, R2) of the reduced biconservativity system.

    sigma' is recovered from f through the reduced mean curvature formula.
    Differentiating cos(alpha) = cos(sigma)/q along arclength with
    r' = F cos(sigma) gives (cos alpha)' = a d - b sigma'.
    """
    red = reduced_quantities(params, state)
    t = params.tau
    sigma_prime = f - _parallel_term(params, state)
    cos_a_p = red.a * red.d - red.b * sigma_prime
    sin2_a = 1.0 - red.cos_alpha * red.cos_alpha
    r1 = (f_prime * (red.b * f - 2.0 * t * red.d - 2.0 * cos_a_p)
          - 2.0 * f * (4.0 * t * t - params.kappa) * red.cos_alpha * sin2_a)
    r2 = f_prime * (3.0 * red.d * f - 2.0 * t * red.b)
    return r1, r2


def branch_mean_curvature(state: ProfileState):
    """f = 2 sin(sigma) / (3 r) along the non-CMC candidate branch."""
    return 2.0 * state.sin_sigma / (3.0 * state.r)


def branch_f_prime(state: ProfileState):
    """Arclength derivative of the branch mean curvature.

    Differentiating f = 2 sin(sigma)/(3 r) with the branch laws for sigma'
    and r' = F cos(sigma) cancels every kappa term:
    f' = -4 sin(2 sigma) / (9 r^2), evaluated as
    -8 sin(sigma) cos(sigma) / (9 r^2) from the state's sin and cos.  A
    finite-difference cross-check along every integrated trajectory
    enforces this closed form.
    """
    return -8.0 * state.sin_sigma * state.cos_sigma / (9.0 * state.r * state.r)


def _obstruction(params: BcvParams, state: ProfileState, f):
    """Theorem 5.2's obstruction (kappa - 4 tau^2) f (cos 2 sigma - 1 -
    2 tau^2 r^2) cos(sigma) at the branch's f, with cos 2 sigma - 1 =
    -2 sin^2(sigma): along the branch R1 is -2 / (3 (1 + tau^2 r^2)^(3/2))
    times it."""
    t2 = params.tau * params.tau
    r = state.r
    sin_s = state.sin_sigma
    return 2.0 * (4.0 * t2 - params.kappa) * f * (sin_s * sin_s + t2 * r * r) * state.cos_sigma


def branch_residuals(params: BcvParams, state: ProfileState):
    """(f, f', R1, R2, obstruction) along the branch at `state`: the
    diagnostic columns of a trajectory, from one domain check."""
    f = branch_mean_curvature(state)
    f_prime = branch_f_prime(state)
    r1, r2 = reduced_bicon_system(params, state, f, f_prime)
    return f, f_prime, r1, r2, _obstruction(params, state, f)


@dataclass
class IntegrationConfig:
    """Fixed-step RK4 settings for branch trajectories.

    There is no adaptive control, so trajectories are reproducible
    bit-for-bit.  Every trajectory cross-validates the closed-form f'
    against the fourth-order 5-point central difference of the recorded f
    column and aborts on disagreement.  That stencil's truncation error is
    h^4 f^(5) / 30, which grows like 1/r^6; the check only applies to rows
    with r >= FD_CHECK_R_FLOOR, where at the default step the truncation
    stays about four orders of magnitude under FD_CHECK_TOL, so any excess
    is a genuine disagreement.  Below the floor the truncation alone would
    approach the tolerance and the oracle stops being informative.

    `r_stop` is the near-axis termination radius.  Raise it for
    verification sweeps, because along the axis funnel f' ~ 1/r^2
    amplifies ulp-level cancellation noise in the recorded residuals.

    Raises ValueError unless `step` and `s_max` are finite and positive,
    `max_steps` is at least 1 and `r_stop` exceeds EPS_R.
    """

    step: float = 1e-3
    max_steps: int = 20000
    s_max: float = 5.0
    r_stop: float = 10 * EPS_R

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.s_max < math.inf):
            raise ValueError(f"step {self.step!r} and s_max {self.s_max!r} must be finite "
                             "and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.r_stop > EPS_R:
            raise ValueError(f"r_stop must exceed EPS_R = {EPS_R}")


class BranchTrajectory:
    """Recorded branch run: one 1-D column per quantity, one entry per
    uniform-step row, plus the termination status.

    s, r, z, sigma, sin_sigma and cos_sigma are the march's rows; f,
    f_prime, R1, R2 and obstruction come from one `branch_residuals` pass
    over them.  That pass reads the recorded sin and cos, which its state
    carries as its cached `sin_sigma` and `cos_sigma`, so no trigonometry
    is computed again.
    """

    def __init__(self, params: BcvParams, s, r, z, sigma, sin_sigma, cos_sigma, status: str,
                 config: IntegrationConfig):
        self.status, self.config = status, config
        self.s, self.r, self.z, self.sigma = s, r, z, sigma
        self.sin_sigma, self.cos_sigma = sin_sigma, cos_sigma
        # no branch quantity reads z, and ProfileState rejects a non-finite
        # one: once tau^2 overflows the marched z is inf, so the states carry
        # z = 0 and such a run still records its residuals
        state = ProfileState(s, r, 0.0, sigma)
        vars(state).update(sin_sigma=sin_sigma, cos_sigma=cos_sigma)
        # at huge tau R1 and the obstruction overflow; their non-finite
        # values reach the checks that read them (theorem52's, integrate's)
        with np.errstate(over="ignore", invalid="ignore"):
            self.f, self.f_prime, self.R1, self.R2, self.obstruction = branch_residuals(
                params, state)
        self.fd_check_margin: Optional[float] = None   # worst |fd - f'| / FD_CHECK_TOL

    def __len__(self):
        return len(self.s)


def integrate_noncmc_branch(params: BcvParams, init: ProfileState,
                            config: IntegrationConfig = None) -> BranchTrajectory:
    """Integrate the branch flow from `init`, recording diagnostics per step.

    The kernel marches the state (s, r, z, sigma) from `init` and returns
    six columns, the state's and its sin and cos, sized to the rows
    marched; the trajectory adds its diagnostic columns
    (:class:`BranchTrajectory`), and f' is checked as
    :class:`IntegrationConfig` says.  Before f', the s column is checked
    against the march's stop rule: it rises strictly, and only its last row
    may reach s_max - step / 2, which it does exactly when the run ended
    `smax_reached`; SelfConsistencyError otherwise.  Runs with
    kappa = 4 tau^2 are permitted and not flagged; callers verifying the
    rotational classification enforce kappa != 4 tau^2 themselves.  Early
    termination (axis, domain boundary, row budget) is reported in `status`
    with the partial trajectory attached.
    """
    if config is None:
        config = IntegrationConfig()
    n, status, *columns = run_branch_kernel(
        params.kappa, params.tau, init.r, init.z, init.sigma, init.s, config.step,
        config.max_steps, config.s_max, config.r_stop, EPS_F,
    )
    traj = BranchTrajectory(params, *columns, STATUS_NAMES[status], config)
    # the march's stop rule: s rises, and the first row with s >= s_last,
    # the march's own float expression, ends the run as smax_reached; with s
    # rising, the last two rows tell
    s, s_last = traj.s, config.s_max - 0.5 * config.step
    if (np.any(s[1:] <= s[:-1]) or np.any(s[-2:-1] >= s_last)
            or (s[-1] >= s_last) != (traj.status == "smax_reached")):
        raise SelfConsistencyError(f"the branch march broke its stop rule: {n} rows, "
                                   f"status {traj.status}, s from {s[0]!r} to {s[-1]!r}, "
                                   f"s_max {config.s_max!r}")
    if n >= 5:
        f, fp = traj.f, traj.f_prime
        fd = derivative([f[i:n - 4 + i] for i in (0, 1, 3, 4)], (-2, -1, 1, 2), 1, config.step)
        mask = traj.r[2:-2] >= FD_CHECK_R_FLOOR
        if np.any(mask):
            worst = float(np.max(np.abs(fd[mask] - fp[2:-2][mask])))
            traj.fd_check_margin = worst / FD_CHECK_TOL
            if worst > FD_CHECK_TOL:
                raise SelfConsistencyError(
                    f"closed-form f' deviates from finite differences by {worst:.3e}"
                )
    return traj


def refine_sign_change(params: BcvParams, traj: BranchTrajectory, i: int,
                       quantity: Callable[[BcvParams, ProfileState], float]) -> float:
    """Locate a zero of `quantity` inside the step [s_i, s_{i+1}].

    Bisection on the sub-step offset, down to a width of BISECTION_TOL;
    each probe advances the row-i state by a single RK4 step of the probed
    size, which is accurate to O(step^5) and keeps the refinement
    deterministic.  Probes call the trajectory's march,
    :func:`bcvgeo._kernels.run_branch_kernel`, and read the s, r and sigma
    of the row they end on; their states carry z = 0, as the trajectory's
    do.  The probe at offset 0 returns the row-i state itself.  Halving the
    step h reaches that width in ceil(log2(h / BISECTION_TOL)) loops; 4
    loops later it raises SelfConsistencyError naming the step.  No suite calls
    it: `theorem52` checks the sign changes of R1 row by row.
    """
    s0, r0, z0, g0 = (float(c[i]) for c in (traj.s, traj.r, traj.z, traj.sigma))
    kappa, tau = float(params.kappa), float(params.tau)
    h = traj.config.step

    def value_at(offset: float) -> float:
        _, _, s, r, _, sig, _, _ = run_branch_kernel(kappa, tau, r0, z0, g0, s0, offset, 2,
                                                     s0 + offset, EPS_R, EPS_F)
        return quantity(params, ProfileState(float(s[-1]), float(r[-1]), 0.0, float(sig[-1])))

    lo, hi = 0.0, h
    flo = value_at(lo)
    fhi = value_at(hi)
    if flo == 0.0:
        return s0
    if fhi == 0.0:
        return s0 + h
    if flo * fhi > 0.0:
        raise ValueError("no sign change in the given step")
    cap = math.ceil(math.log2(h / BISECTION_TOL)) + 4
    loops = 0
    while hi - lo > BISECTION_TOL:
        if loops == cap:
            raise SelfConsistencyError(f"bisection in step {i} (s = {s0!r}) is still "
                                       f"{hi - lo:.3e} wide after {cap} halvings")
        loops += 1
        mid = 0.5 * (lo + hi)
        fm = value_at(mid)
        if fm == 0.0:
            return s0 + mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return s0 + 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# surface constructors


def ellipse_curve(a: float, b: float):
    """Axis-aligned ellipse (a cos u, b sin u) with its derivative."""
    def curve(u):
        return (a * np.cos(u), b * np.sin(u))

    def d_curve(u):
        return (-a * np.sin(u), b * np.cos(u))

    return curve, d_curve


def hopf_tube(base_curve, curve_derivative=None, u_domain=(0.0, 2.0 * math.pi),
              name: str = "hopf-tube") -> ParametricSurface:
    """Vertical cylinder over a plane curve: (u, v) -> (x(u), y(u), v), v in [-1, 1].

    The chart is tangent to the vertical direction everywhere, so the angle
    function is pi/2 and the mean curvature equals the geodesic curvature
    of the projected curve in the base surface.  The chart does not depend
    on the ambient parameters.  The normal -(X_u ^ X_v) / |X_u ^ X_v| points
    toward the curve's curvature centre for a counterclockwise circle,
    giving mean curvature +1/r0 - kappa r0/4.
    """
    def chart(u, v):
        x, y = base_curve(u)
        return (x, y, v)

    partials = None   # without a curve derivative the chart is differenced
    if curve_derivative is not None:
        def partials(u, v):
            dx, dy = curve_derivative(u)
            return (dx, dy, 0.0), (0.0, 0.0, 1.0)

    return ParametricSurface(chart, (u_domain, (-1.0, 1.0)), partials=partials, name=name)


def hopf_cylinder(params: BcvParams, r0: float) -> ParametricSurface:
    """Vertical cylinder over the circle of radius r0 about the axis."""
    if not r0 > EPS_R:
        raise DomainError(f"cylinder radius r0 = {r0:.3e} <= {EPS_R}")
    _check_radius(params, r0)
    curve, d_curve = ellipse_curve(r0, r0)
    return hopf_tube(curve, d_curve, name=f"hopf-cylinder-r{r0:g}")


def revolution_surface(params: BcvParams, profile: Callable[[float], ProfileState],
                       s_domain) -> ParametricSurface:
    """Revolve an arclength profile: (theta, s) -> (r cos, r sin, z), theta in [0, 2 pi].

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

    return ParametricSurface(chart, ((0.0, 2.0 * math.pi), s_domain), partials=partials,
                             name="revolution")


def spline_profile_columns(s, r, z, sigma):
    """Profile interpolating (s, r, z, sigma) columns by one cubic spline
    of (r, z, sigma) in s.

    The profile takes s as a float or an array; an array gives one
    ProfileState of arrays.
    """
    sp = CubicSpline(s, (r, z, sigma))

    def profile(ss):
        return ProfileState(ss, *sp(ss))

    return profile


def generic_revolution_surface(r_mid: float = 1.2, amp: float = 0.25,
                               pitch: float = 0.4) -> ParametricSurface:
    """Smooth non-arclength revolution chart (r_mid + amp sin s, theta, pitch s),
    with theta in [0, 2 pi] and s in [-1.5, 1.5].

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

    return ParametricSurface(chart, ((0.0, 2.0 * math.pi), (-1.5, 1.5)),
                             partials=partials, name="generic-revolution")
