"""Conservation residuals of the bienergy stress for immersed surfaces.

A surface with shape operator A, mean curvature f = tr A and unit normal N
is *biconservative* when the tangential component

    2 A(grad f) + f grad f - 2 f Ric(N)^T

vanishes identically; together with the normal component

    Delta f + f |A|^2 - f Ric(N, N)

it makes up the full second-order residual pair (both zero = biharmonic).
Here Ric(N)^T is the tangential projection of the ambient Ricci operator
applied to N, expanded over an orthonormal tangent basis so that it is
valid at every angle.  In the adapted frame it collapses to the closed form
(4 tau^2 - kappa) cos(a) sin(a) e1, which the test suite uses as an oracle
for that expansion.

The module also carries the constant-angle machinery: for a surface with
constant angle a, the biconservativity system forces lam = A(e2, e2) to
satisfy a quartic with constant coefficients,

    6 cot(a) lam^4
    + [3 sin(2a) (8 tau^2 - kappa) + 8 tau^2 cot(a) (3 cos^2(a) - 1)] lam^2
    - 8 tau^2 cos(a) (kappa sin(a) + 4 tau^2 cot(a) cos(a)) = 0,

degenerate exactly at a = pi/2 where every coefficient vanishes and lam is
instead forced constant by the system itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stencil import CROSS, Stencil
from .ambient import BcvParams, ricci
from .immersion import (
    ShapeArrays,
    _adapted_frame,
    _at,
    alpha_field,
    directional_derivative,
    shape_arrays,
    surface_jets,
    surface_laplacian,
)

__all__ = [
    "QuarticReport",
    "tangential_bitension",
    "tangential_bitension_arrays",
    "normal_bitension",
    "frame_system_residual",
    "constant_angle_quartic_coeffs",
    "constant_angle_suite",
    "constant_angle_codazzi_residual",
    "constant_angle_datum_residual",
]

QUARTIC_DEGENERATE_TOL = 1e-12
NEGATIVE_ROOT_TOL = 1e-12
# chart partials of the mean curvature; wider than the directional step, as a
# small step would amplify the finite-difference jitter of the mean curvature
GRADIENT_STEP = 1e-3


def tangential_bitension(S, params, u, v) -> np.ndarray:
    """Same as :func:`tangential_bitension_arrays`.  No bcvgeo code calls it:
    the name stays only because the benchmark tracer (perfbench/tracer.py)
    looks it up, and its `--trace 1` raises AttributeError without it."""
    return tangential_bitension_arrays(S, params, u, v)


def _ricci_n_tangential(params: BcvParams, sh: ShapeArrays) -> np.ndarray:
    """Frame components of Ric(N)^T, expanded over the tangent basis of the
    shape arrays `sh`; valid at every angle."""
    n = sh.jet.n
    return ricci(params, n, sh.b1) * sh.b1 + ricci(params, n, sh.b2) * sh.b2


def tangential_bitension_arrays(S, params, u, v) -> np.ndarray:
    """Frame components of 2 A(grad f) + f grad f - 2 f Ric(N)^T at (u, v).

    Zero (to tolerance) at every sample exactly when the surface is
    biconservative there.  The mean curvature enters as a chart field so
    its gradient is an honest finite difference, with no closed form
    assumed.  u and v are floats or arrays of one shape; the result has
    shape (3,) + that shape.  The shape operator at each point and at its 4
    gradient-stencil points, 45 jets per point, comes from one
    :func:`shape_arrays` call, with Ric(N)^T expanded over its tangent basis.
    S may be a :class:`bcvgeo.immersion.SurfaceBatch`, with its centres on
    axis 0, so one call covers several surfaces.
    """
    st = Stencil(CROSS, GRADIENT_STEP, u, v)
    sh = shape_arrays(S, params, st.U, st.V)
    du, dv = st.d(sh.f, 1, 0), st.d(sh.f, 0, 1)
    c = _at(sh, 0)
    j = c.jet
    det = j.E * j.G - j.F * j.F
    grad_f = (j.G * du - j.F * dv) / det * j.au + (j.E * dv - j.F * du) / det * j.av
    return 2.0 * c.apply(grad_f) + c.f * grad_f - 2.0 * c.f * _ricci_n_tangential(params, c)


def normal_bitension(S, params, u, v):
    """Delta f + f |A|^2 - f Ric(N, N) at (u, v), floats or arrays of one
    shape.  One :func:`shape_arrays` call covers each point and the 8 points
    of its Laplacian stencil; the entry at the point gives f, |A|^2 and N."""

    def invariants(U, V):
        """(f, |A|^2, Ric(N, N)) at (U, V), shape (3,) + U.shape."""
        sh = shape_arrays(S, params, U, V)
        (a00, a01), (a10, a11) = sh.A
        return np.array([sh.f, a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11,
                         ricci(params, sh.jet.n, sh.jet.n)])

    (f, norm2, ric_nn), (lap, _, _) = surface_laplacian(S, params, u, v, invariants)
    return lap + f * norm2 - f * ric_nn


def frame_system_residual(S, params, u, v):
    """The two adapted-frame biconservativity equations at (u, v).

    With f = lam + e1(a):

        R1 = e1(f) (lam + 3 e1(a)) + 2 e2(f) (e2(a) - tau)
             - 2 (4 tau^2 - kappa) f cos(a) sin(a)
        R2 = 2 e1(f) (e2(a) - tau) + (3 lam + e1(a)) e2(f)

    e1(a), e2(a) are directional differences of the angle field and
    e_i(f) differences of the field lam + e1(a), so this route shares no
    intermediate values with :func:`tangential_bitension_arrays`; the two
    agree component-by-component (factor one), which the test suite pins
    down.
    The stages are batched as in :func:`bcvgeo.immersion.codazzi_residual`:
    lam and the angle derivatives at each centre and its +-e1, +-e2 steps,
    the angle at +-e1, +-e2 around each of those points.
    """
    jet = surface_jets(S, params, u, v)
    frame = _adapted_frame(jet, u, v, "frame system")
    alpha = alpha_field(S, params)

    def lam_and_alpha_derivatives(U, V):
        """(lam, e1(a), e2(a)) at (U, V), shape (3,) + U.shape."""
        sh = shape_arrays(S, params, U, V)
        _, d = directional_derivative(sh.jet, U, V, _adapted_frame(sh.jet, U, V, "frame system"),
                                      alpha)
        return np.array([sh.A[1][1], d[..., 0], d[..., 1]])

    (lam, e1a, e2a), d = directional_derivative(jet, u, v, frame, lam_and_alpha_derivatives)
    f = lam + e1a
    e1f, e2f = d[0, ..., 0] + d[1, ..., 0], d[0, ..., 1] + d[1, ..., 1]
    k, t = params.kappa, params.tau
    r1 = (e1f * (lam + 3.0 * e1a) + 2.0 * e2f * (e2a - t)
          - 2.0 * (4.0 * t * t - k) * f * jet.cos_alpha * jet.sin_alpha)
    r2 = 2.0 * e1f * (e2a - t) + (3.0 * lam + e1a) * e2f
    return r1, r2


@dataclass
class QuarticReport:
    """Constant-angle polynomial in lam: coefficients of degrees (4, 2, 0),
    its real roots, and the degeneracy flag for a = pi/2 (all coefficients
    vanish; the system then forces lam constant instead)."""

    coefficients: tuple
    real_roots: list
    degenerate: bool


def constant_angle_quartic_coeffs(params: BcvParams, alpha: float):
    """Coefficients (c4, c2, c0) of the constant-angle polynomial in lam."""
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    k, t = params.kappa, params.tau
    c, s = math.cos(alpha), math.sin(alpha)
    cot = c / s
    c4 = 6.0 * cot
    c2 = 3.0 * math.sin(2.0 * alpha) * (8.0 * t * t - k) + 8.0 * t * t * cot * (3.0 * c * c - 1.0)
    c0 = -8.0 * t * t * c * (k * s + 4.0 * t * t * cot * c)
    return c4, c2, c0


def constant_angle_suite(params: BcvParams, alpha: float) -> QuarticReport:
    """Solve the constant-angle polynomial for lam.

    Roots come from the quadratic in mu = lam^2; mu below -1e-12 is
    discarded, small negatives are clamped to zero, and each surviving mu
    maps back through both square-root branches.
    """
    c4, c2, c0 = constant_angle_quartic_coeffs(params, alpha)
    if max(abs(c4), abs(c2), abs(c0)) < QUARTIC_DEGENERATE_TOL:
        return QuarticReport(coefficients=(c4, c2, c0), real_roots=[], degenerate=True)
    if abs(c4) < QUARTIC_DEGENERATE_TOL:
        mus = [] if abs(c2) < QUARTIC_DEGENERATE_TOL else [-c0 / c2]
    else:
        disc = c2 * c2 - 4.0 * c4 * c0
        if disc < 0.0:
            mus = []
        else:
            sq = math.sqrt(disc)
            mus = [(-c2 + sq) / (2.0 * c4), (-c2 - sq) / (2.0 * c4)]
    roots = set()
    for mu in mus:
        if mu < -NEGATIVE_ROOT_TOL:
            continue
        lam = math.sqrt(max(mu, 0.0))
        roots.add(lam)
        roots.add(-lam)
    return QuarticReport(
        coefficients=(c4, c2, c0),
        real_roots=sorted(roots),
        degenerate=False,
    )


def constant_angle_codazzi_residual(params: BcvParams, alpha: float, lam: float,
                                    e1_lam: float = 0.0) -> float:
    """The single compatibility equation left at constant angle:

        e1(lam) + lam^2 cot(a) + kappa cos(a) sin(a)
        + 4 tau^2 cot(a) cos^2(a).
    """
    k, t = params.kappa, params.tau
    c, s = math.cos(alpha), math.sin(alpha)
    cot = c / s
    return e1_lam + lam * lam * cot + k * c * s + 4.0 * t * t * cot * c * c


def constant_angle_datum_residual(params: BcvParams, alpha: float, lam: float):
    """Biconservativity residuals of a constant-angle datum (alpha, lam).

    The derivatives of lam are not free: e1(lam) is pinned by the
    constant-angle compatibility equation and e2(lam) by the second system
    equation 3 lam e2(lam) = 2 tau e1(lam).  With those substituted, the
    pair below vanishes exactly when lam is a root of the constant-angle
    polynomial:

        R1 = lam e1(lam) - 2 tau e2(lam)
             - 2 lam (4 tau^2 - kappa) cos(a) sin(a)
        R2 = 3 lam e2(lam) - 2 tau e1(lam)
    """
    k, t = params.kappa, params.tau
    c, s = math.cos(alpha), math.sin(alpha)
    e1_lam = -(constant_angle_codazzi_residual(params, alpha, lam, 0.0))
    if lam == 0.0:
        e2_lam = 0.0
        r2 = -2.0 * t * e1_lam
    else:
        e2_lam = 2.0 * t * e1_lam / (3.0 * lam)
        r2 = 3.0 * lam * e2_lam - 2.0 * t * e1_lam
    r1 = lam * e1_lam - 2.0 * t * e2_lam - 2.0 * lam * (4.0 * t * t - k) * c * s
    return r1, r2
