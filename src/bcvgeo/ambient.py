"""Ambient geometry of the Bianchi-Cartan-Vranceanu homogeneous 3-spaces.

The space is the open set N = {(x, y, z) in R^3 : F(x, y) > 0} with
conformal factor F(x, y) = 1 + kappa (x^2 + y^2) / 4, carrying the
two-parameter metric

    g = (dx^2 + dy^2) / F^2 + (dz + tau (y dx - x dy) / F)^2 .

The orthonormal coframe of g is

    w1 = dx / F,    w2 = dy / F,    w3 = dz + tau (y dx - x dy) / F,

dual to the global frame

    E1 = F d_x - tau y d_z,    E2 = F d_y + tau x d_z,    E3 = d_z.

All pointwise metric algebra (inner products, norms, cross products) passes
through frame components and is exact up to rounding.  The Levi-Civita
connection and the curvature are deliberately *not* hand-derived: they come
from central finite differences of the metric components (Koszul formula on
coordinate fields), so that closed-form curvature data can be validated
against an independent route.

(E1, E2, E3) is declared positively oriented and :func:`cross` is
right-handed with respect to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "EPS_F",
    "SPACE_FORM_TOL",
    "BcvParams",
    "GeometryClass",
    "AmbientPoint",
    "TangentVector",
    "smoothing_factor",
    "classify_space",
    "frame_at",
    "frame_components",
    "coordinate_components",
    "to_frame",
    "from_frame",
    "frame_dot",
    "frame_cross",
    "metric",
    "norm",
    "cross",
    "metric_matrix",
    "christoffels",
    "christoffels_at",
    "connection",
    "lie_bracket",
    "ricci",
    "ricci_frame",
    "ricci_tensor_fd",
    "ricci_tensor_fd_at",
    "ricci_fd",
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


class AmbientPoint:
    """Point of the ambient open set; construction enforces F(x, y) > EPS_F."""

    __slots__ = ("x", "y", "z")

    def __init__(self, params: BcvParams, x: float, y: float, z: float):
        x, y, z = float(x), float(y), float(z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DomainError(f"non-finite coordinates ({x}, {y}, {z})")
        F = smoothing_factor(params, x, y)
        if not F > EPS_F:
            raise DomainError(
                f"point ({x:.6g}, {y:.6g}, {z:.6g}) has F = {F:.3e} <= {EPS_F}"
            )
        self.x = x
        self.y = y
        self.z = z

    def coords(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def shifted(self, params: BcvParams, axis: int, delta: float) -> "AmbientPoint":
        """Point displaced by delta along coordinate axis (0: x, 1: y, 2: z)."""
        c = [self.x, self.y, self.z]
        c[axis] += delta
        return AmbientPoint(params, *c)

    def __eq__(self, other):
        return (
            isinstance(other, AmbientPoint)
            and self.x == other.x
            and self.y == other.y
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return f"AmbientPoint({self.x:.6g}, {self.y:.6g}, {self.z:.6g})"


class TangentVector:
    """Vector in the coordinate basis (d_x, d_y, d_z) at an ambient point."""

    __slots__ = ("base", "comps")

    def __init__(self, base: AmbientPoint, comps):
        comps = np.asarray(comps, dtype=float)
        if comps.shape != (3,):
            raise ValueError("tangent vector needs exactly 3 components")
        if not np.isfinite(comps).all():
            raise ValueError(f"non-finite components {comps}")
        self.base = base
        self.comps = comps

    def _check_base(self, other: "TangentVector"):
        if self.base != other.base:
            raise ValueError(
                f"vectors based at different points: {self.base} vs {other.base}"
            )

    def __add__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.comps + other.comps)

    def __sub__(self, other):
        self._check_base(other)
        return TangentVector(self.base, self.comps - other.comps)

    def __neg__(self):
        return TangentVector(self.base, -self.comps)

    def __mul__(self, scalar: float):
        return TangentVector(self.base, self.comps * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TangentVector({self.comps} at {self.base})"


def frame_at(params: BcvParams, p: AmbientPoint):
    """The orthonormal frame (E1, E2, E3) in coordinate components at p."""
    F = smoothing_factor(params, p.x, p.y)
    t = params.tau
    e1 = TangentVector(p, (F, 0.0, -t * p.y))
    e2 = TangentVector(p, (0.0, F, t * p.x))
    e3 = TangentVector(p, (0.0, 0.0, 1.0))
    return e1, e2, e3


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


def to_frame(params: BcvParams, X: TangentVector) -> np.ndarray:
    """Components of X in the orthonormal frame (coframe application)."""
    return np.array(frame_components(params, X.base.x, X.base.y, X.comps))


def from_frame(params: BcvParams, p: AmbientPoint, a) -> TangentVector:
    """Vector with frame components a = (a1, a2, a3) at p, in coordinates."""
    return TangentVector(p, coordinate_components(params, p.x, p.y, a))


def frame_dot(a, b):
    """g in frame components: a1 b1 + a2 b2 + a3 b3, componentwise."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def frame_cross(a, b):
    """Cross product in frame components, right-handed, componentwise."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def metric(params: BcvParams, X: TangentVector, Y: TangentVector) -> float:
    """The metric g(X, Y); errors on mismatched base points."""
    X._check_base(Y)
    return float(frame_dot(to_frame(params, X), to_frame(params, Y)))


def norm(params: BcvParams, X: TangentVector) -> float:
    return math.sqrt(max(metric(params, X, X), 0.0))


def cross(params: BcvParams, X: TangentVector, Y: TangentVector) -> TangentVector:
    """Metric cross product, right-handed in the (E1, E2, E3) orientation."""
    X._check_base(Y)
    return from_frame(params, X.base, frame_cross(to_frame(params, X), to_frame(params, Y)))


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


def _coord_steps(p: AmbientPoint, base_step: float) -> np.ndarray:
    c = p.coords()
    return base_step * np.maximum(1.0, np.abs(c))


def christoffels(params: BcvParams, p: AmbientPoint, step: float = FD_STEP) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] at p by finite differences.

    Central differences of the metric components feed the Koszul formula on
    coordinate fields; no hand-derived connection enters anywhere.
    """
    return christoffels_at(params, p.x, p.y, step)


def christoffels_at(params: BcvParams, x, y, step: float = FD_STEP) -> np.ndarray:
    """:func:`christoffels` at the points with coordinates (x, y, any z).

    Arrays of one shape give Gamma of shape (3, 3, 3) + that shape.  The
    metric does not depend on z, so its z-difference is exactly zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = step * np.maximum(1.0, np.abs(x))
    hy = step * np.maximum(1.0, np.abs(y))
    dg = np.zeros((3, 3, 3) + x.shape)
    dg[0] = (metric_matrix(params, x + hx, y) - metric_matrix(params, x - hx, y)) / (2.0 * hx)
    dg[1] = (metric_matrix(params, x, y + hy) - metric_matrix(params, x, y - hy)) / (2.0 * hy)
    g = np.moveaxis(metric_matrix(params, x, y), (0, 1), (-2, -1))
    ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    sym = np.einsum("ijl...->lij...", dg) + np.einsum("jil...->lij...", dg) - dg
    return 0.5 * np.einsum("kl...,lij...->kij...", ginv, sym)


def connection(
    params: BcvParams,
    X: TangentVector,
    yfield,
    step: float = FD_STEP,
) -> TangentVector:
    """Covariant derivative of the vector field yfield along X at X.base.

    yfield maps an AmbientPoint to a TangentVector; it must be evaluable on
    the central-difference stencil around the base point, otherwise the
    domain guard raises.
    """
    p = X.base
    h = _coord_steps(p, step)
    dY = np.empty((3, 3))
    for i in range(3):
        yp = yfield(p.shifted(params, i, h[i])).comps
        ym = yfield(p.shifted(params, i, -h[i])).comps
        dY[i] = (yp - ym) / (2.0 * h[i])
    gamma = christoffels(params, p, step)
    y0 = yfield(p).comps
    comps = X.comps @ dY + np.einsum("kij,i,j->k", gamma, X.comps, y0)
    return TangentVector(p, comps)


def lie_bracket(params: BcvParams, p: AmbientPoint, xfield, yfield, step: float = FD_STEP) -> TangentVector:
    """Coordinate Lie bracket [X, Y] of two vector fields at p, by FD."""
    h = _coord_steps(p, step)
    dX = np.empty((3, 3))
    dY = np.empty((3, 3))
    for i in range(3):
        pp = p.shifted(params, i, h[i])
        pm = p.shifted(params, i, -h[i])
        dX[i] = (xfield(pp).comps - xfield(pm).comps) / (2.0 * h[i])
        dY[i] = (yfield(pp).comps - yfield(pm).comps) / (2.0 * h[i])
    x0 = xfield(p).comps
    y0 = yfield(p).comps
    return TangentVector(p, x0 @ dY - y0 @ dX)


def ricci(params: BcvParams, X: TangentVector, Y: TangentVector) -> float:
    """Closed-form Ricci curvature Ric(X, Y).

    In the orthonormal frame the only nonzero components are
    Ric(E1,E1) = Ric(E2,E2) = kappa - 2 tau^2 and Ric(E3,E3) = 2 tau^2;
    the value extends bilinearly.
    """
    X._check_base(Y)
    return float(ricci_frame(params, to_frame(params, X), to_frame(params, Y)))


def ricci_frame(params: BcvParams, a, b):
    """Ric of the vectors with frame components a and b, componentwise."""
    k, t = params.kappa, params.tau
    return (k - 2.0 * t * t) * (a[0] * b[0] + a[1] * b[1]) + 2.0 * t * t * a[2] * b[2]


def ricci_tensor_fd(params: BcvParams, p: AmbientPoint, step2: float = FD_STEP2) -> np.ndarray:
    """Ricci tensor Ric_ij at p assembled from the FD connection.

    Uses second finite differences of the metric: Christoffel symbols and
    their coordinate derivatives are contracted into
    Ric_ij = d_k Gamma^k_ij - d_j Gamma^k_ik + Gamma^k_kl Gamma^l_ij
             - Gamma^k_jl Gamma^l_ik.
    """
    return ricci_tensor_fd_at(params, p.x, p.y, step2)


def ricci_tensor_fd_at(params: BcvParams, x, y, step2: float = FD_STEP2) -> np.ndarray:
    """:func:`ricci_tensor_fd` at the points with coordinates (x, y, any z).

    Arrays of one shape give Ric of shape (3, 3) + that shape.  One
    :func:`christoffels_at` call covers every point and its x- and y-shifted
    points; the metric does not depend on z, so the z-difference of Gamma is
    exactly zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx = step2 * np.maximum(1.0, np.abs(x))
    hy = step2 * np.maximum(1.0, np.abs(y))
    # last axis: the point, (x +- hx, y), (x, y +- hy)
    G = christoffels_at(params, np.stack([x, x + hx, x - hx, x, x], axis=-1),
                        np.stack([y, y, y, y + hy, y - hy], axis=-1))
    g0 = G[..., 0]
    dG = np.zeros((3, 3, 3, 3) + x.shape)
    dG[0] = (G[..., 1] - G[..., 2]) / (2.0 * hx)
    dG[1] = (G[..., 3] - G[..., 4]) / (2.0 * hy)
    return (
        np.einsum("kkij...->ij...", dG)
        - np.einsum("jkik...->ij...", dG)
        + np.einsum("kkl...,lij...->ij...", g0, g0)
        - np.einsum("kjl...,lik...->ij...", g0, g0)
    )


def ricci_fd(params: BcvParams, X: TangentVector, Y: TangentVector) -> float:
    """Ric(X, Y) via the finite-difference curvature assembly (oracle route)."""
    X._check_base(Y)
    ric = ricci_tensor_fd(params, X.base)
    return float(X.comps @ ric @ Y.comps)


def hopf_dpsi(X: TangentVector) -> np.ndarray:
    """Differential of the fibration: drops the z-component."""
    return X.comps[:2].copy()


def base_metric(params: BcvParams, x: float, y: float, w1, w2) -> float:
    """Base metric h = (dx^2 + dy^2) / F^2 applied to 2-vectors at (x, y)."""
    F = smoothing_factor(params, x, y)
    if not F > EPS_F:
        raise DomainError(f"base point outside domain, F = {F:.3e}")
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return float((w1 @ w2) / (F * F))
