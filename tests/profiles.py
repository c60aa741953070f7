"""Closed-form profiles, curves and orbit-space helpers that only the tests use.

Each checks or builds a test surface; no `bcvgeo` subcommand needs them.
"""

import math

import numpy as np

from bcvgeo._stencil import derivative
from bcvgeo.ambient import BcvParams, christoffels, smoothing_factor
from bcvgeo.errors import DomainError
from bcvgeo.rotation import (BranchTrajectory, IntegrationConfig, ProfileState, _check_radius,
                             _parallel_term, integrate_noncmc_branch, spline_profile_columns)

CURVE_STEP = 1e-5     # differences of a base curve, scaled by max(1, |u|)


def slant_profile(params: BcvParams, r0: float, sigma0: float):
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


def reduced_mean_curvature(params: BcvParams, state: ProfileState, sigma_prime):
    """f = (1/r - kappa r / 4) sin(sigma) + sigma'."""
    _check_radius(params, state.r)
    return _parallel_term(params, state) + sigma_prime


def spline_profile(traj: BranchTrajectory):
    """Cubic-spline interpolant of an integrated trajectory as a profile."""
    return spline_profile_columns(traj.s, traj.r, traj.z, traj.sigma)


def line_curve(p0, direction):
    """Affine line u -> p0 + u * direction in the base plane."""
    p0 = (float(p0[0]), float(p0[1]))
    d = (float(direction[0]), float(direction[1]))

    def curve(u):
        return (p0[0] + u * d[0], p0[1] + u * d[1])

    def d_curve(u):
        return d

    return curve, d_curve


def orbit_metric(params: BcvParams, r: float) -> np.ndarray:
    """Orbital distance metric diag(1/F^2, 1/(1 + tau^2 r^2)) at radius r."""
    if r < 0.0:
        raise DomainError(f"radius must be nonnegative, got {r}")
    F = _check_radius(params, r)
    q2 = 1.0 + params.tau ** 2 * r * r
    return np.diag([1.0 / (F * F), 1.0 / q2])


def fixed_point_radius(kappa: float) -> float:
    """Stationary radius sqrt(4 / (3 kappa)) of the branch flow, kappa > 0."""
    if kappa <= 0:
        raise ValueError("stationary radius exists only for kappa > 0")
    return math.sqrt(4.0 / (3.0 * kappa))


def base_geodesic_curvature(params: BcvParams, curve, u: float, normal2,
                            curve_derivative=None) -> float:
    """Geodesic curvature of a plane curve in the base metric h.

    `normal2` fixes the co-orientation (it should be the projected surface
    normal for tube diagnostics, h-unit for horizontal normals); for a
    regular curve gamma,

        kappa_g = h(gamma'' + Gamma(gamma', gamma'), n) / h(gamma', gamma'),

    with Gamma the (x, y) block of :func:`christoffels` at tau = 0.
    """
    x, y = curve(u)
    h = CURVE_STEP * max(1.0, abs(u))
    line = curve if curve_derivative is None else curve_derivative
    vals = [np.asarray(line(w), dtype=float) for w in (u, u + h, u - h)]
    if curve_derivative is not None:
        d, dd = vals[0], derivative(vals, (0, 1, -1), 1, h)
    else:
        d, dd = derivative(vals, (0, 1, -1), 1, h), derivative(vals, (0, 1, -1), 2, h)
    gamma = christoffels(BcvParams(params.kappa, 0.0), x, y)[:2, :2, :2]
    acc = dd + np.einsum("kij,i,j->k", gamma, d, d)
    F = smoothing_factor(params, x, y)
    n = np.asarray(normal2, dtype=float)
    h_acc_n = float(acc @ n) / (F * F)
    h_dd = float(d @ d) / (F * F)
    return h_acc_n / h_dd


def observed_order(params: BcvParams, init: ProfileState, base_step: float,
                   s_end: float) -> float:
    """Richardson estimate of the integrator's convergence order.

    Compares final states of runs at h, h/2, h/4 over [0, s_end]:
    order = log2(|y_h - y_{h/2}| / |y_{h/2} - y_{h/4}|).
    """
    finals = []
    for k in range(3):
        h = base_step / 2 ** k
        cfg = IntegrationConfig(step=h, max_steps=int(round(s_end / h)) + 2, s_max=s_end)
        traj = integrate_noncmc_branch(params, init, cfg)
        finals.append(np.array([traj.r[-1], traj.z[-1], traj.sigma[-1]]))
    d1 = float(np.max(np.abs(finals[0] - finals[1])))
    d2 = float(np.max(np.abs(finals[1] - finals[2])))
    return math.log2(d1 / d2)
