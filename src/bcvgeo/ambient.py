"""Ambient geometry of the Bianchi-Cartan-Vranceanu homogeneous 3-spaces.

The space is the open set N = {(x, y, z) in R^3 : F(x, y) > 0} with
conformal factor F(x, y) = 1 + kappa (x^2 + y^2) / 4, carrying the
two-parameter metric

    g = (dx^2 + dy^2) / F^2 + (dz + tau (y dx - x dy) / F)^2 .

The orthonormal coframe of g is

    w1 = dx / F,    w2 = dy / F,    w3 = dz + tau (y dx - x dy) / F,

dual to the global frame

    E1 = F d_x - tau y d_z,    E2 = F d_y + tau x d_z,    E3 = d_z.

Every function is componentwise on coordinate arrays: points are given by
their coordinates x, y (nothing depends on z), vectors by their coordinate
or frame components, and floats or arrays of one shape broadcast alike.
Each operation has one name.  All pointwise metric algebra (inner
products, norms, cross products) passes through frame components and is
exact up to rounding.  The Levi-Civita connection and the curvature are
deliberately *not* hand-derived: :func:`christoffels` takes central finite
differences of the metric components (Koszul formula on coordinate
fields), so that closed-form curvature data can be validated against an
independent route.  The test suite checks that FD connection in turn, by
metric compatibility and torsion-freeness against its own covariant
derivative and Lie bracket.

(E1, E2, E3) is declared positively oriented and :func:`frame_cross` is
right-handed with respect to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._stencil import CROSS, Stencil
from .errors import DomainError

__all__ = [
    "EPS_F",
    "SPACE_FORM_TOL",
    "BcvParams",
    "GeometryClass",
    "smoothing_factor",
    "classify_space",
    "frame_at",
    "frame_components",
    "coordinate_components",
    "frame_dot",
    "frame_cross",
    "metric_matrix",
    "christoffels",
    "ricci",
    "ricci_tensor_fd",
    "hopf_dpsi",
    "base_metric",
]

EPS_F = 1e-9          # domain guard on the conformal factor F
SPACE_FORM_TOL = 1e-12
FD_STEP = 1e-5        # first-derivative step, scaled by coordinate size
FD_STEP2 = 1e-4       # second-derivative step for curvature assembly


@dataclass(frozen=True)
class BcvParams:
    """Parameter pair (kappa, tau): base curvature and bundle curvature."""

    kappa: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.tau)):
            raise ValueError("kappa and tau must be finite")

    @property
    def is_space_form(self) -> bool:
        """True when kappa = 4 tau^2, i.e. the curvature tensor is constant."""
        return abs(self.kappa - 4.0 * self.tau * self.tau) < SPACE_FORM_TOL


class GeometryClass(Enum):
    """The seven model geometries realised by the parameter plane."""

    EUCLIDEAN = "euclidean"
    SPHERE_MINUS_POINT = "sphere_minus_point"
    SPHERE_TIMES_LINE = "sphere_times_line"
    HYPERBOLIC_TIMES_LINE = "hyperbolic_times_line"
    SU2_MINUS_POINT = "su2_minus_point"
    SL2R_COVER = "sl2r_cover"
    NIL3 = "nil3"


def smoothing_factor(params: BcvParams, x: float, y: float) -> float:
    """Conformal factor F(x, y) = 1 + kappa (x^2 + y^2) / 4."""
    return 1.0 + 0.25 * params.kappa * (x * x + y * y)


def classify_space(params: BcvParams) -> GeometryClass:
    """Classify (kappa, tau) among the model geometries.

    The space-form test kappa = 4 tau^2 is applied before the sign-of-kappa
    branches, so the classification depends exactly on (sign of kappa,
    tau = 0 or not, space form or not).
    """
    if params.is_space_form:
        if abs(params.kappa) < SPACE_FORM_TOL:
            return GeometryClass.EUCLIDEAN
        return GeometryClass.SPHERE_MINUS_POINT
    if params.tau == 0.0:
        if params.kappa > 0.0:
            return GeometryClass.SPHERE_TIMES_LINE
        return GeometryClass.HYPERBOLIC_TIMES_LINE
    if params.kappa == 0.0:
        return GeometryClass.NIL3
    if params.kappa > 0.0:
        return GeometryClass.SU2_MINUS_POINT
    return GeometryClass.SL2R_COVER


def frame_at(params: BcvParams, x, y) -> np.ndarray:
    """The orthonormal frame in coordinate components: row i holds E_(i+1).

    Floats give a 3x3 matrix; arrays of one shape give shape (3, 3) + that
    shape."""
    F = smoothing_factor(params, x, y)
    t = params.tau
    zero = np.zeros_like(F)
    return np.array([[F, zero, -t * y], [zero, F, t * x], [zero, zero, zero + 1.0]])


def frame_components(params: BcvParams, x, y, c):
    """Frame components (a1, a2, a3) of the vector with coordinate components
    c = (c0, c1, c2) at (x, y).  Componentwise: floats or arrays of one
    shape, constants broadcast."""
    F = smoothing_factor(params, x, y)
    t = params.tau
    return (c[0] / F, c[1] / F, c[2] + t * (y * c[0] - x * c[1]) / F)


def coordinate_components(params: BcvParams, x, y, a):
    """Coordinate components of the vector with frame components a at
    (x, y); the inverse of :func:`frame_components`, also componentwise."""
    F = smoothing_factor(params, x, y)
    t = params.tau
    return (a[0] * F, a[1] * F, -a[0] * t * y + a[1] * t * x + a[2])


def frame_dot(a, b):
    """g in frame components: a1 b1 + a2 b2 + a3 b3, componentwise."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def frame_cross(a, b):
    """Cross product in frame components, right-handed, componentwise."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def metric_matrix(params: BcvParams, x, y) -> np.ndarray:
    """Coordinate components g_ij(x, y); independent of z.

    Floats give a 3x3 matrix; arrays of one shape give shape (3, 3) + that
    shape."""
    F = smoothing_factor(params, x, y)
    if not np.all(F > EPS_F):
        raise DomainError(f"metric evaluated outside domain, F = {np.min(F):.3e}")
    t = params.tau
    q = 1.0 / F
    a = t * y / F     # the dx and dy coefficients of w3
    b = -t * x / F
    g = np.empty((3, 3) + np.shape(F))
    g[0, 0] = q * q + a * a
    g[1, 1] = q * q + b * b
    g[2, 2] = 1.0
    g[0, 1] = g[1, 0] = a * b
    g[0, 2] = g[2, 0] = a
    g[1, 2] = g[2, 1] = b
    return g


def christoffels(params: BcvParams, x, y) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at the points (x, y, any z) by
    finite differences.

    Central differences of the metric components over the CROSS stencil
    feed the Koszul formula on coordinate fields; no hand-derived connection
    enters anywhere.  Arrays of one shape give Gamma of shape (3, 3, 3) +
    that shape.  The metric does not depend on z, so its z-difference is
    exactly zero.
    """
    st = Stencil(CROSS, FD_STEP, x, y)
    gs = metric_matrix(params, st.U, st.V)
    dg = np.zeros((3,) + gs.shape[:-1])
    dg[0], dg[1] = st.d(gs, 1, 0), st.d(gs, 0, 1)
    g = np.moveaxis(gs[..., 0], (0, 1), (-2, -1))
    ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    sym = np.einsum("ijl...->lij...", dg) + np.einsum("jil...->lij...", dg) - dg
    return 0.5 * np.einsum("kl...,lij...->kij...", ginv, sym)


def ricci(params: BcvParams, a, b):
    """Closed-form Ricci curvature Ric(a, b) of the vectors with frame
    components a and b, componentwise.

    In the orthonormal frame the only nonzero components are
    Ric(E1,E1) = Ric(E2,E2) = kappa - 2 tau^2 and Ric(E3,E3) = 2 tau^2;
    the value extends bilinearly.
    """
    k, t = params.kappa, params.tau
    return (k - 2.0 * t * t) * (a[0] * b[0] + a[1] * b[1]) + 2.0 * t * t * a[2] * b[2]


def ricci_tensor_fd(params: BcvParams, x, y) -> np.ndarray:
    """Ricci tensor Ric_ij in coordinate components at the points
    (x, y, any z), assembled from the FD connection.

    Uses second finite differences of the metric: Christoffel symbols and
    their coordinate derivatives are contracted into
    Ric_ij = d_k Gamma^k_ij - d_j Gamma^k_ik + Gamma^k_kl Gamma^l_ij
             - Gamma^k_jl Gamma^l_ik.
    Arrays of one shape give Ric of shape (3, 3) + that shape.  One
    :func:`christoffels` call covers every point and its CROSS stencil; the
    metric does not depend on z, so the z-difference of Gamma is exactly zero.
    """
    st = Stencil(CROSS, FD_STEP2, x, y)
    G = christoffels(params, st.U, st.V)
    g0 = G[..., 0]
    dG = np.zeros((3,) + g0.shape)
    dG[0], dG[1] = st.d(G, 1, 0), st.d(G, 0, 1)
    return (
        np.einsum("kkij...->ij...", dG)
        - np.einsum("jkik...->ij...", dG)
        + np.einsum("kkl...,lij...->ij...", g0, g0)
        - np.einsum("kjl...,lik...->ij...", g0, g0)
    )


def hopf_dpsi(c) -> np.ndarray:
    """Differential of the fibration on coordinate components c: drops the
    z-component, componentwise."""
    return np.array(c[:2], dtype=float)


def base_metric(params: BcvParams, x, y, w1, w2):
    """Base metric h = (dx^2 + dy^2) / F^2 applied to the 2-vectors w1, w2
    at (x, y), componentwise."""
    F = smoothing_factor(params, x, y)
    if not np.all(F > EPS_F):
        raise DomainError(f"base point outside domain, F = {np.min(F):.3e}")
    return (w1[0] * w2[0] + w1[1] * w2[1]) / (F * F)
