"""First-order geometry of parametric surfaces in the ambient spaces.

A surface is a chart (u, v) -> (x, y, z) landing in the domain F > 0.  From
one chart evaluation this module derives the full pointwise package: tangent
basis, first fundamental form, unit normal N (metric wedge of the chart
partials, optionally sign-flipped per surface), the angle function alpha
with cos(alpha) = g(E3, N), the tangential projection T of the vertical
direction (E3 = T + cos(alpha) N), the quarter-turn J = N ^ . , and the
adapted tangent frame e1 = T / sin(alpha), e2 = JT / sin(alpha) away from
the degenerate angles.

The jet is computed by one array layer, :func:`surface_jets`: it runs the
same componentwise arithmetic on x, y, z component floats or on arrays of
any shape, so a whole stencil or grid row costs one chart call.
:func:`shape_arrays` evaluates the shape operator at arrays of centres from
one jet call over the centres and their 8 normal-stencil points.  The
pointwise API (:func:`surface_jet`, :func:`shape_operator`) wraps these
results in vector objects for the residual evaluators.

On top of the jet sit the shape operator A = -(nabla N)^T and mean curvature
f = tr A, surface gradient / Laplacian of scalar fields over the chart, and
residual evaluators for the structural identities every immersed surface
must satisfy (intrinsic-vs-extrinsic curvature, the two scalar compatibility
equations of the adapted frame, and the derivative law of T).  All surface
derivatives are finite differences along the chart; nothing requires
symbolic input from chart authors.

Sign conventions.  A X = -(nabla_X N)^T, and the Laplacian is the geometer's
one, Delta = -div grad on scalars, so Delta(u^2 + v^2) = -4 on a flat chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import namedtuple
from typing import Callable, Optional

import numpy as np

from .ambient import (
    EPS_F,
    AmbientPoint,
    BcvParams,
    TangentVector,
    christoffels,
    christoffels_at,
    coordinate_components,
    cross,
    frame_components,
    frame_cross,
    frame_dot,
    from_frame,
    metric,
    norm,
    smoothing_factor,
    to_frame,
)
from .errors import DegenerateSurfaceError, DomainError

__all__ = [
    "EPS_ALPHA",
    "EPS_GRAM",
    "FdConfig",
    "DEFAULT_FD",
    "ParametricSurface",
    "JetArrays",
    "ShapeArrays",
    "SurfaceJet",
    "ShapeData",
    "ScalarField",
    "surface_jets",
    "shape_arrays",
    "surface_jet",
    "shape_operator",
    "mean_curvature_field",
    "alpha_field",
    "tangent_coefficients",
    "tangential_part",
    "directional_derivative",
    "covariant_along",
    "surface_gradient",
    "surface_laplacian",
    "brioschi_curvature",
    "gauss_residual",
    "codazzi_residual",
    "compatibility_residual",
    "surface_connection_residual",
]

EPS_ALPHA = 1e-7   # below this sin(alpha), the adapted frame is reported absent
EPS_GRAM = 1e-12   # regularity floor for det of the first fundamental form


@dataclass
class FdConfig:
    """Finite-difference step sizes for surface derivatives.

    chart_step       central differences of the chart itself (no analytic
                     partials supplied)
    normal_step      fourth-order differences of the normal field feeding
                     the shape operator
    directional_step first directional derivatives of fields along tangent
                     vectors
    gradient_step    chart partials of scalar fields inside the surface
                     gradient; wider than directional_step because the mean
                     curvature field carries finite-difference jitter that
                     a small step would amplify
    second_step      second partials of the fundamental form (intrinsic
                     curvature stencil)
    laplacian_step   second-difference stencil of the surface Laplacian;
                     jitter in the differentiated field grows as 1/h^2, so
                     this is the widest step of all
    """

    chart_step: float = 1e-5
    normal_step: float = 1e-4
    directional_step: float = 1e-4
    gradient_step: float = 1e-3
    second_step: float = 1e-3
    laplacian_step: float = 5e-3


DEFAULT_FD = FdConfig()


def _components(c, u, v) -> np.ndarray:
    """Three chart components as one array of shape (3,) + the broadcast
    shape of u and v; constant components are broadcast."""
    out = np.empty((3,) + np.broadcast(u, v).shape)
    out[0], out[1], out[2] = c
    return out


class ParametricSurface:
    """Chart (u, v) -> (x, y, z) with an optional analytic tangent map.

    Chart contract: arrays in, arrays out.  `chart` and `partials` are
    called with u and v as floats or as numpy arrays of one shape, and are
    written with numpy ufuncs (np.sin, np.sqrt, ...), never with `math`, so
    that one call evaluates a whole stencil or grid row.  A component that
    does not depend on (u, v) may be returned as a plain constant; it is
    broadcast to the shape of the others.

    Parameters
    ----------
    chart : callable (u, v) -> 3-sequence
        Coordinates of the surface point.  Must be defined on an open
        neighbourhood of `domain` (finite-difference stencils poke slightly
        outside sample points).
    domain : ((u0, u1), (v0, v1))
        Parameter rectangle used by samplers and mesh export.
    partials : callable (u, v) -> (3-seq, 3-seq), optional
        Analytic chart partials (X_u, X_v); finite differences otherwise.
    normal_sign : +1.0 or -1.0
        Per-surface orientation flag multiplying the wedge normal, so each
        constructor can fix which of the two unit normals it means.
    """

    def __init__(self, chart, domain, partials=None, normal_sign: float = 1.0, name: str = "surface"):
        self.chart = chart
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        self.partials = partials
        self.normal_sign = float(normal_sign)
        self.name = name

    def coords(self, u, v) -> np.ndarray:
        """Chart coordinates, shape (3,) + the broadcast shape of u and v."""
        return _components(self.chart(u, v), u, v)

    def point(self, params: BcvParams, u: float, v: float) -> AmbientPoint:
        c = self.coords(u, v)
        return AmbientPoint(params, c[0], c[1], c[2])

    def partials_at(self, u, v, cfg: FdConfig = DEFAULT_FD):
        """(X_u, X_v) in coordinate components, each shaped like coords."""
        if self.partials is not None:
            xu, xv = self.partials(u, v)
            return _components(xu, u, v), _components(xv, u, v)
        hu = cfg.chart_step * np.maximum(1.0, np.abs(u))
        hv = cfg.chart_step * np.maximum(1.0, np.abs(v))
        xu = (self.coords(u + hu, v) - self.coords(u - hu, v)) / (2.0 * hu)
        xv = (self.coords(u, v + hv) - self.coords(u, v - hv)) / (2.0 * hv)
        return xu, xv

    def grid(self, nu: int, nv: int):
        (u0, u1), (v0, v1) = self.domain
        return np.linspace(u0, u1, nu), np.linspace(v0, v1, nv)

    def __repr__(self):
        return f"ParametricSurface({self.name}, domain={self.domain})"


class JetArrays(namedtuple("JetArrays", "x y z xu xv au av E F G n cos_alpha sin_alpha T JT")):
    """First-order jet at floats or arrays (u, v), one entry per point.

    Vectors are arrays of shape (3,) + the point shape: X_u and X_v in
    coordinate components (xu, xv) and in frame components (au, av); the
    unit normal n, the tangential part T of E3 and JT = N ^ T in frame
    components.  E, F, G are the first fundamental form.
    """

    __slots__ = ()


def _first_failure(ok, *fields):
    """The values of `fields` at the first point, in C order, where `ok` is
    false; None when it holds everywhere."""
    if ok.all():
        return None
    i = int(np.argmin(ok))
    return [float(np.broadcast_to(f, np.shape(ok)).flat[i]) for f in fields]


def surface_jets(S: ParametricSurface, params: BcvParams, u, v,
                 cfg: FdConfig = DEFAULT_FD) -> JetArrays:
    """First-order jet of S at (u, v), floats or arrays of one shape.

    The arithmetic is componentwise, so floats and arrays run the same
    code.  Raises DomainError when a chart point is not finite or has
    F <= EPS_F, and DegenerateSurfaceError when the chart partials are
    dependent (Gram determinant at or below EPS_GRAM); either names the
    first failing (u, v).
    """
    x, y, z = S.coords(u, v)
    Fc = smoothing_factor(params, x, y)
    bad = _first_failure(np.isfinite(x) & np.isfinite(y) & np.isfinite(z) & (Fc > EPS_F),
                         u, v, x, y, z, Fc)
    if bad:
        uu, vv, xx, yy, zz, ff = bad
        raise DomainError(f"{S.name}: point ({xx:.6g}, {yy:.6g}, {zz:.6g}) at (u, v) = "
                          f"({uu:.6g}, {vv:.6g}) is not finite or has F = {ff:.3e} <= {EPS_F}")
    xu, xv = S.partials_at(u, v, cfg)
    au = frame_components(params, x, y, xu)
    av = frame_components(params, x, y, xv)
    E, F, G = frame_dot(au, au), frame_dot(au, av), frame_dot(av, av)
    det = E * G - F * F
    bad = _first_failure(det > EPS_GRAM, u, v, det)
    if bad:
        raise DegenerateSurfaceError(
            f"{S.name}: chart partials dependent at (u, v) = ({bad[0]:.6g}, {bad[1]:.6g}), "
            f"det I = {bad[2]:.3e}")
    w = frame_cross(au, av)
    nn = np.sqrt(frame_dot(w, w))
    n = (S.normal_sign * w[0] / nn, S.normal_sign * w[1] / nn, S.normal_sign * w[2] / nn)
    cos_a = np.minimum(1.0, np.maximum(-1.0, n[2]))  # = g(E3, N)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
    T = (-cos_a * n[0], -cos_a * n[1], 1.0 - cos_a * n[2])
    return JetArrays(x=x, y=y, z=z, xu=xu, xv=xv, au=np.array(au), av=np.array(av),
                     E=E, F=F, G=G, n=np.array(n), cos_alpha=cos_a, sin_alpha=sin_a,
                     T=np.array(T), JT=np.array(frame_cross(n, T)))


@dataclass
class SurfaceJet:
    """All first-order data of a surface at one parameter value."""

    params: BcvParams
    u: float
    v: float
    p: AmbientPoint
    X_u: TangentVector
    X_v: TangentVector
    I: np.ndarray              # 2x2 first fundamental form
    N: TangentVector           # unit normal (normal_sign applied)
    cos_alpha: float
    sin_alpha: float
    T: TangentVector           # tangential part of E3
    JT: TangentVector          # N ^ T
    e1: Optional[TangentVector]
    e2: Optional[TangentVector]
    adapted: bool              # e1, e2 present (sin_alpha > EPS_ALPHA)


def surface_jet(S: ParametricSurface, params: BcvParams, u: float, v: float,
                cfg: FdConfig = DEFAULT_FD) -> SurfaceJet:
    """The jet of :func:`surface_jets` at one (u, v), as vector objects.

    Raises DegenerateSurfaceError when the chart partials are dependent
    (Gram determinant at or below EPS_GRAM).
    """
    j = surface_jets(S, params, u, v, cfg)
    p = AmbientPoint(params, j.x, j.y, j.z)
    T = from_frame(params, p, j.T)
    JT = from_frame(params, p, j.JT)
    sin_a = float(j.sin_alpha)
    adapted = sin_a > EPS_ALPHA
    return SurfaceJet(
        params=params, u=u, v=v, p=p, X_u=TangentVector(p, j.xu),
        X_v=TangentVector(p, j.xv), I=np.array([[j.E, j.F], [j.F, j.G]]),
        N=from_frame(params, p, j.n), cos_alpha=float(j.cos_alpha), sin_alpha=sin_a,
        T=T, JT=JT, e1=(1.0 / sin_a) * T if adapted else None,
        e2=(1.0 / sin_a) * JT if adapted else None, adapted=adapted,
    )


def tangent_coefficients(params: BcvParams, jet: SurfaceJet, W: TangentVector):
    """Coefficients (xi, eta) with W = xi X_u + eta X_v (W assumed tangent)."""
    rhs = np.array([metric(params, W, jet.X_u), metric(params, W, jet.X_v)])
    xi, eta = np.linalg.solve(jet.I, rhs)
    return float(xi), float(eta)


def tangential_part(params: BcvParams, jet: SurfaceJet, W: TangentVector) -> TangentVector:
    """Projection of W onto the tangent plane, W - g(W, N) N."""
    return W - metric(params, W, jet.N) * jet.N


def _basis(au, av, T, JT, sin_a):
    """Orthonormal tangent basis in frame components: the adapted (e1, e2)
    where sin(alpha) > EPS_ALPHA, else Gram-Schmidt of the chart partials.
    Returns (b1, b2, adapted)."""
    adapted = sin_a > EPS_ALPHA
    s = np.where(adapted, sin_a, 1.0)
    g1 = au / np.sqrt(frame_dot(au, au))
    w = av - frame_dot(av, g1) * g1
    g2 = w / np.sqrt(frame_dot(w, w))
    return np.where(adapted, T / s, g1), np.where(adapted, JT / s, g2), adapted


def _tangent_basis(params: BcvParams, jet: SurfaceJet):
    """The basis of :func:`_basis` at one jet, as vectors."""
    b1, b2, adapted = _basis(to_frame(params, jet.X_u), to_frame(params, jet.X_v),
                             to_frame(params, jet.T), to_frame(params, jet.JT), jet.sin_alpha)
    return from_frame(params, jet.p, b1), from_frame(params, jet.p, b2), bool(adapted)


class ShapeArrays(namedtuple("ShapeArrays", "jet A f b1 b2 adapted")):
    """Shape operator at arrays of centres: the centre jet, the matrix
    entries A[i][j] = g(A b_j, b_i) in the basis (b1, b2) of frame
    components, its trace f and the `adapted` mask of that basis."""

    __slots__ = ()


def _at(x, i):
    """Entry i along the last axis of an array, or of every array in a
    (nested, possibly named) tuple of arrays."""
    if isinstance(x, tuple):
        items = [_at(e, i) for e in x]
        return x._make(items) if hasattr(x, "_make") else tuple(items)
    return x[..., i]


def shape_arrays(S: ParametricSurface, params: BcvParams, u, v,
                 cfg: FdConfig = DEFAULT_FD) -> ShapeArrays:
    """Shape operator A X = -(nabla_X N)^T at centres (u, v) of any shape.

    One jet call covers every centre and its 8 normal-stencil points: the
    coordinate components of N are differenced to fourth order along the
    chart directions and corrected with the finite-difference Christoffel
    symbols.  The matrix is taken in the adapted frame where sin(alpha) >
    EPS_ALPHA, else in a Gram-Schmidt basis of the chart partials.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    hu = cfg.normal_step * np.maximum(1.0, np.abs(u))
    hv = cfg.normal_step * np.maximum(1.0, np.abs(v))
    # last axis: the centre, its u-stencil, then its v-stencil
    U = np.stack([u, u + 2 * hu, u + hu, u - hu, u - 2 * hu, u, u, u, u], axis=-1)
    V = np.stack([v, v, v, v, v, v + 2 * hv, v + hv, v - hv, v - 2 * hv], axis=-1)
    J = surface_jets(S, params, U, V, cfg)
    N = np.array(coordinate_components(params, J.x, J.y, J.n))
    dNu = (-N[..., 1] + 8.0 * N[..., 2] - 8.0 * N[..., 3] + N[..., 4]) / (12.0 * hu)
    dNv = (-N[..., 5] + 8.0 * N[..., 6] - 8.0 * N[..., 7] + N[..., 8]) / (12.0 * hv)
    c = _at(J, 0)
    gamma = christoffels_at(params, c.x, c.y)

    def shape_of(dN, X):
        """A X in frame components: minus the tangential part of
        nabla_X N = dN + Gamma(X, N)."""
        W = dN + np.einsum("kij...,i...,j...->k...", gamma, X, N[..., 0])
        W = np.array(frame_components(params, c.x, c.y, W))
        return frame_dot(W, c.n) * c.n - W

    Au, Av = shape_of(dNu, c.xu), shape_of(dNv, c.xv)
    b1, b2, adapted = _basis(c.au, c.av, c.T, c.JT, c.sin_alpha)
    det = c.E * c.G - c.F * c.F
    Ab = []
    for b in (b1, b2):
        # b = xi X_u + eta X_v (Cramer's rule on I), so A b = xi A X_u + eta A X_v
        r0, r1 = frame_dot(b, c.au), frame_dot(b, c.av)
        Ab.append((c.G * r0 - c.F * r1) / det * Au + (c.E * r1 - c.F * r0) / det * Av)
    A = tuple(tuple(frame_dot(Abj, bi) for Abj in Ab) for bi in (b1, b2))
    return ShapeArrays(jet=c, A=A, f=A[0][0] + A[1][1], b1=b1, b2=b2, adapted=adapted)


@dataclass
class ShapeData:
    """Shape operator in an orthonormal tangent basis, plus invariants.

    A is the raw 2x2 matrix A[i, j] = g(A b_j, b_i); it is symmetric up to
    finite-difference noise.  `adapted` says whether the basis is the
    adapted frame (e1, e2); otherwise it is a Gram-Schmidt basis of the
    chart partials (the trace f is basis-independent either way).
    """

    A: np.ndarray
    lam: float                # A[1, 1], the (e2, e2) entry
    f: float                  # trace = mean curvature
    basis: tuple
    adapted: bool

    def apply(self, params: BcvParams, W: TangentVector) -> TangentVector:
        """A W for a tangent vector W, through the stored basis."""
        b1, b2 = self.basis
        a = np.array([metric(params, W, b1), metric(params, W, b2)])
        out = self.A @ a
        return out[0] * b1 + out[1] * b2

    @property
    def norm2(self) -> float:
        """Squared Frobenius norm |A|^2."""
        return float(np.sum(self.A * self.A))


def shape_operator(S: ParametricSurface, params: BcvParams, u: float, v: float,
                   cfg: FdConfig = DEFAULT_FD) -> ShapeData:
    """The shape operator of :func:`shape_arrays` at one (u, v), with its
    basis as vectors at the chart point."""
    sh = shape_arrays(S, params, u, v, cfg)
    p = AmbientPoint(params, sh.jet.x, sh.jet.y, sh.jet.z)
    A = np.array(sh.A, dtype=float)
    return ShapeData(A=A, lam=float(A[1, 1]), f=float(A[0, 0] + A[1, 1]),
                     basis=(from_frame(params, p, sh.b1), from_frame(params, p, sh.b2)),
                     adapted=bool(sh.adapted))


class ScalarField:
    """Scalar function over the chart parameters."""

    def __init__(self, fn: Callable[[float, float], float]):
        self.fn = fn

    def __call__(self, u: float, v: float) -> float:
        return float(self.fn(u, v))


def mean_curvature_field(S, params, cfg: FdConfig = DEFAULT_FD) -> ScalarField:
    return ScalarField(lambda u, v: shape_operator(S, params, u, v, cfg).f)


def alpha_field(S, params, cfg: FdConfig = DEFAULT_FD) -> ScalarField:
    """Angle function alpha(u, v) = arccos g(E3, N)."""
    def fn(u, v):
        c = surface_jet(S, params, u, v, cfg).cos_alpha
        return math.acos(max(-1.0, min(1.0, c)))
    return ScalarField(fn)


def directional_derivative(S, params, u, v, field, W: TangentVector,
                           cfg: FdConfig = DEFAULT_FD, jet: SurfaceJet = None) -> float:
    """Derivative W(field) of a chart scalar field along tangent W.

    The chart line (u + t xi, v + t eta) with W = xi X_u + eta X_v has
    velocity W at t = 0, so a central difference along it converges to the
    directional derivative.
    """
    if jet is None:
        jet = surface_jet(S, params, u, v, cfg)
    xi, eta = tangent_coefficients(params, jet, W)
    t = cfg.directional_step / max(1.0, abs(xi), abs(eta))
    return (field(u + t * xi, v + t * eta) - field(u - t * xi, v - t * eta)) / (2.0 * t)


def covariant_along(S, params, u, v, vec_field, W: TangentVector,
                    cfg: FdConfig = DEFAULT_FD, jet: SurfaceJet = None) -> TangentVector:
    """Ambient covariant derivative nabla_W V of a chart vector field.

    vec_field maps (u, v) to coordinate components of a vector along the
    surface; the result lives at the jet base point.
    """
    if jet is None:
        jet = surface_jet(S, params, u, v, cfg)
    xi, eta = tangent_coefficients(params, jet, W)
    t = cfg.directional_step / max(1.0, abs(xi), abs(eta))
    vp = np.asarray(vec_field(u + t * xi, v + t * eta), dtype=float)
    vm = np.asarray(vec_field(u - t * xi, v - t * eta), dtype=float)
    d = (vp - vm) / (2.0 * t)
    gamma = christoffels(params, jet.p)
    v0 = np.asarray(vec_field(u, v), dtype=float)
    comps = d + np.einsum("kij,i,j->k", gamma, W.comps, v0)
    return TangentVector(jet.p, comps)


def surface_gradient(fld: ScalarField, S, params, u, v,
                     cfg: FdConfig = DEFAULT_FD, jet: SurfaceJet = None) -> TangentVector:
    """Gradient of fld on the surface: inverse fundamental form on the
    chart partial derivatives."""
    if jet is None:
        jet = surface_jet(S, params, u, v, cfg)
    hu = cfg.gradient_step * max(1.0, abs(u))
    hv = cfg.gradient_step * max(1.0, abs(v))
    du = (fld(u + hu, v) - fld(u - hu, v)) / (2.0 * hu)
    dv = (fld(u, v + hv) - fld(u, v - hv)) / (2.0 * hv)
    coef = np.linalg.solve(jet.I, np.array([du, dv]))
    return coef[0] * jet.X_u + coef[1] * jet.X_v


def surface_laplacian(fld: ScalarField, S, params, u, v,
                      cfg: FdConfig = DEFAULT_FD) -> float:
    """Surface Laplacian with the sign convention Delta = -div grad.

    Divergence form expanded as
        div grad f = I^{ij} d2_ij f + c^j d_j f,
        c^j = (1 / sqrt(det I)) d_i (sqrt(det I) I^{ij});
    second differences use cfg.laplacian_step, the metric coefficients use
    cfg.directional_step.
    """
    h = cfg.laplacian_step
    hu = h * max(1.0, abs(u))
    hv = h * max(1.0, abs(v))
    f0 = fld(u, v)
    fuu = (fld(u + hu, v) - 2.0 * f0 + fld(u - hu, v)) / (hu * hu)
    fvv = (fld(u, v + hv) - 2.0 * f0 + fld(u, v - hv)) / (hv * hv)
    fuv = (fld(u + hu, v + hv) - fld(u + hu, v - hv)
           - fld(u - hu, v + hv) + fld(u - hu, v - hv)) / (4.0 * hu * hv)
    du = (fld(u + hu, v) - fld(u - hu, v)) / (2.0 * hu)
    dv = (fld(u, v + hv) - fld(u, v - hv)) / (2.0 * hv)

    ku = cfg.directional_step * max(1.0, abs(u))
    kv = cfg.directional_step * max(1.0, abs(v))
    # sqrt(det I) I^{-1} at (u +- ku, v), (u, v +- kv) and the centre
    J = surface_jets(S, params, u + ku * np.array([1, -1, 0, 0, 0]),
                     v + kv * np.array([0, 0, 1, -1, 0]), cfg)
    det = J.E * J.G - J.F * J.F
    M = np.array([[J.G, -J.F], [-J.F, J.E]]) / np.sqrt(det)
    dM_u = (M[..., 0] - M[..., 1]) / (2.0 * ku)
    dM_v = (M[..., 2] - M[..., 3]) / (2.0 * kv)
    Iinv = M[..., 4] / np.sqrt(det[4])
    c = (dM_u[0, :] + dM_v[1, :]) / np.sqrt(det[4])

    div = (Iinv[0, 0] * fuu + (Iinv[0, 1] + Iinv[1, 0]) * fuv + Iinv[1, 1] * fvv
           + c[0] * du + c[1] * dv)
    return -div


def brioschi_curvature(S, params, u, v, cfg: FdConfig = DEFAULT_FD) -> float:
    """Intrinsic Gauss curvature from the first fundamental form alone.

    Second central differences of (E, F, G) feed the Brioschi determinant
    formula, giving a route to K that never sees the normal or the shape
    operator.
    """
    h = cfg.second_step
    hu = h * max(1.0, abs(u))
    hv = h * max(1.0, abs(v))
    # the centre, (u +- hu, v), (u, v +- hv), then the four diagonal points
    J = surface_jets(S, params, u + hu * np.array([0, 1, -1, 0, 0, 1, 1, -1, -1]),
                     v + hv * np.array([0, 0, 0, 1, -1, 1, -1, 1, -1]), cfg)
    E0, Ep, Em, Eq, Er = J.E[:5]
    F0, Fp, Fm_, Fq, Fr, Fa, Fb, Fc, Fd = J.F
    G0, Gp, Gm, Gq, Gr = J.G[:5]

    Eu = (Ep - Em) / (2 * hu)
    Ev = (Eq - Er) / (2 * hv)
    Gu = (Gp - Gm) / (2 * hu)
    Gv = (Gq - Gr) / (2 * hv)
    Fu = (Fp - Fm_) / (2 * hu)
    Fv = (Fq - Fr) / (2 * hv)
    Evv = (Eq - 2 * E0 + Er) / (hv * hv)
    Guu = (Gp - 2 * G0 + Gm) / (hu * hu)
    Fuv = (Fa - Fb - Fc + Fd) / (4 * hu * hv)

    M1 = np.array([
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E0, F0],
        [0.5 * Gv, F0, G0],
    ])
    M2 = np.array([
        [0.0, 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E0, F0],
        [0.5 * Gu, F0, G0],
    ])
    den = (E0 * G0 - F0 * F0) ** 2
    return float((np.linalg.det(M1) - np.linalg.det(M2)) / den)


def gauss_residual(S, params, u, v, cfg: FdConfig = DEFAULT_FD) -> float:
    """K - det A - tau^2 - (kappa - 4 tau^2) cos^2(alpha).

    K is the intrinsic (Brioschi) curvature, det A the extrinsic one; the
    residual vanishes on genuine immersed surfaces, making this a two-sided
    check of both curvature routes.
    """
    jet = surface_jet(S, params, u, v, cfg)
    shape = shape_operator(S, params, u, v, cfg)
    K = brioschi_curvature(S, params, u, v, cfg)
    detA = float(np.linalg.det(shape.A))
    k, t = params.kappa, params.tau
    return K - detA - t * t - (k - 4.0 * t * t) * jet.cos_alpha ** 2


def _adapted_or_raise(jet: SurfaceJet, what: str):
    if not jet.adapted:
        raise DegenerateSurfaceError(
            f"{what} needs the adapted frame, but sin(alpha) = {jet.sin_alpha:.3e}"
        )


def _alpha_derivative_fields(S, params, cfg):
    """Directional derivatives e1(alpha), e2(alpha) as chart fields."""
    afld = alpha_field(S, params, cfg)

    def e_alpha(idx):
        def fn(uu, vv):
            J = surface_jet(S, params, uu, vv, cfg)
            _adapted_or_raise(J, "alpha derivative")
            W = J.e1 if idx == 1 else J.e2
            return directional_derivative(S, params, uu, vv, afld, W, cfg, jet=J)
        return ScalarField(fn)

    return e_alpha(1), e_alpha(2)


def codazzi_residual(S, params, u, v, cfg: FdConfig = DEFAULT_FD):
    """Residuals of the two adapted-frame compatibility equations.

    First:  e1(e2(a)) + lam cot(a) e2(a) + cot(a) e1(a)(e2(a) - 2 tau)
            - e2(e1(a))
    Second: cot(a) [2 e2(a)^2 - lam e1(a) - 6 tau e2(a) + 4 tau^2 + lam^2]
            + e1(lam) - e2(e2(a)) - (4 tau^2 - kappa) cos(a) sin(a)

    Both vanish identically on immersed surfaces; the derivatives here are
    nested directional finite differences, so the residuals measure the
    whole jet/shape pipeline at once.
    """
    jet = surface_jet(S, params, u, v, cfg)
    _adapted_or_raise(jet, "compatibility residuals")
    k, t = params.kappa, params.tau

    e1a_fld, e2a_fld = _alpha_derivative_fields(S, params, cfg)
    lam_fld = ScalarField(lambda uu, vv: shape_operator(S, params, uu, vv, cfg).lam)

    e1a = e1a_fld(u, v)
    e2a = e2a_fld(u, v)
    e1_e2a = directional_derivative(S, params, u, v, e2a_fld, jet.e1, cfg, jet=jet)
    e2_e1a = directional_derivative(S, params, u, v, e1a_fld, jet.e2, cfg, jet=jet)
    e2_e2a = directional_derivative(S, params, u, v, e2a_fld, jet.e2, cfg, jet=jet)
    e1_lam = directional_derivative(S, params, u, v, lam_fld, jet.e1, cfg, jet=jet)
    lam = shape_operator(S, params, u, v, cfg).lam

    cot = jet.cos_alpha / jet.sin_alpha
    r1 = e1_e2a + lam * cot * e2a + cot * e1a * (e2a - 2.0 * t) - e2_e1a
    r2 = (cot * (2.0 * e2a * e2a - lam * e1a - 6.0 * t * e2a + 4.0 * t * t + lam * lam)
          + e1_lam - e2_e2a - (4.0 * t * t - k) * jet.cos_alpha * jet.sin_alpha)
    return r1, r2


def compatibility_residual(S, params, u, v, W: TangentVector,
                           cfg: FdConfig = DEFAULT_FD):
    """Residuals of the derivative law of T along a tangent direction W.

    Returns (vector, scalar):
        vector = (nabla_W T)^tangential - cos(a) (A W - tau J W)
        scalar = g(A W - tau J W, T) + W(cos a)
    Both vanish on immersed surfaces.
    """
    jet = surface_jet(S, params, u, v, cfg)

    def T_field(uu, vv):
        return surface_jet(S, params, uu, vv, cfg).T.comps

    nabla_T = covariant_along(S, params, u, v, T_field, W, cfg, jet=jet)
    nabla_T_tan = tangential_part(params, jet, nabla_T)

    shape = shape_operator(S, params, u, v, cfg)
    AW = shape.apply(params, W)
    JW = cross(params, jet.N, W)
    rhs = AW - params.tau * JW
    vec = nabla_T_tan - jet.cos_alpha * rhs

    cos_fld = ScalarField(lambda uu, vv: surface_jet(S, params, uu, vv, cfg).cos_alpha)
    w_cos = directional_derivative(S, params, u, v, cos_fld, W, cfg, jet=jet)
    scalar = metric(params, rhs, jet.T) + w_cos
    return vec, scalar


def surface_connection_residual(S, params, u, v, cfg: FdConfig = DEFAULT_FD) -> float:
    """Max deviation of the adapted-frame surface connection from its
    closed form:

        nabla_e1 e1 =  cot(a) (e2(a) - 2 tau) e2
        nabla_e2 e1 =  lam cot(a) e2
        nabla_e1 e2 = -cot(a) (e2(a) - 2 tau) e1
        nabla_e2 e2 = -lam cot(a) e1

    where nabla is the tangential projection of the ambient derivative,
    computed by finite differences of the adapted frame fields.
    """
    jet = surface_jet(S, params, u, v, cfg)
    _adapted_or_raise(jet, "surface connection check")
    t = params.tau

    def e_field(idx):
        def fn(uu, vv):
            J = surface_jet(S, params, uu, vv, cfg)
            _adapted_or_raise(J, "surface connection check")
            return (J.e1 if idx == 1 else J.e2).comps
        return fn

    _, e2a_fld = _alpha_derivative_fields(S, params, cfg)
    e2a = e2a_fld(u, v)
    lam = shape_operator(S, params, u, v, cfg).lam
    cot = jet.cos_alpha / jet.sin_alpha

    closed = {
        (1, 1): cot * (e2a - 2.0 * t) * jet.e2,
        (2, 1): lam * cot * jet.e2,
        (1, 2): -cot * (e2a - 2.0 * t) * jet.e1,
        (2, 2): -lam * cot * jet.e1,
    }
    worst = 0.0
    for (i, j), expect in closed.items():
        W = jet.e1 if i == 1 else jet.e2
        got = covariant_along(S, params, u, v, e_field(j), W, cfg, jet=jet)
        got_tan = tangential_part(params, jet, got)
        worst = max(worst, norm(params, got_tan - expect))
    return worst
