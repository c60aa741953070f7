"""First-order geometry of parametric surfaces in the ambient spaces.

A surface is a chart (u, v) -> (x, y, z) landing in the domain F > 0.  From
one chart evaluation this module derives the full pointwise package: tangent
basis, first fundamental form, unit normal N, the angle function alpha
with cos(alpha) = g(E3, N), the tangential projection T of the vertical
direction (E3 = T + cos(alpha) N), the quarter-turn J = N ^ . , and the
adapted tangent frame e1 = T / sin(alpha), e2 = JT / sin(alpha) away from
the degenerate angles.

The jet is computed by one array layer, :func:`surface_jets`: it runs the
same componentwise arithmetic on x, y, z component floats or on arrays of
any shape, so a whole stencil or grid row costs one chart call.
:func:`shape_operator` evaluates the shape operator at arrays of centres from
one jet call over the centres and their 8 normal-stencil points.  Each chart
stencil is a :class:`bcvgeo._stencil.Stencil` at its step constant below.

On top of the jet sit the shape operator A = -(nabla N)^T and mean curvature
f = tr A, and residual evaluators for the structural identities every
immersed surface must satisfy (intrinsic-vs-extrinsic curvature, the two
scalar compatibility equations of the adapted frame and the derivative law
of T).  All surface derivatives are finite differences along the chart;
nothing requires symbolic input from chart authors.

Every surface oracle, here and in :mod:`bcvgeo.biconservative`, is a
residual of one :class:`Stages` of its centres (u, v), floats or arrays of
one shape, and returns arrays of that shape, with vectors in frame
components as in :class:`JetArrays`.  Each stage is one batched jet call
(two for the Laplacian), made on first read and shared by every residual
that reads it:

1. `centres`: the centre jet, shape operator, Brioschi K and Christoffel
   symbols, from each centre's WIDE normal and NINE Brioschi stencils;
2. `steps`: the jets at each centre and its +-e1, +-e2 steps (:func:`_steps`);
3. `angles`: e1(a) and e2(a) at each point of `steps`, from its +-e1,
   +-e2 steps, 20 jets per centre;
4. `lam_e1`, `lam_e2`: lam = A(e2, e2) at the +-e1 and at the +-e2 steps;
5. `gradient`: the shape operator over each centre's CROSS stencil, for
   grad f in the tangential bitension, which reads no other stage;
6. `laplacian`: the shape operator over each centre's NINE stencil and the
   metric over its CROSS stencil, for Delta f in the normal bitension.

A stage that needs the adapted frame raises DegenerateSurfaceError naming
the first (u, v), in C order, where sin(alpha) <= EPS_ALPHA.

The axis-0 rule.  Every stage keeps the centres on axis 0 of the arrays it
passes to the chart, its stencil points on later axes.  So one pipeline
takes a :class:`SurfaceBatch`, several surfaces stacked on axis 0, as it
takes one surface, and each value has the bits of its member's own pipeline.

Sign conventions.  Every surface has one orientation, N = -(X_u ^ X_v) /
|X_u ^ X_v| with the metric wedge of the chart partials: the chart
(u, v, 0) of the flat space has N = -E3, and a vertical cylinder over a
counterclockwise circle has N toward the axis.  A X = -(nabla_X N)^T, and
the Laplacian is the geometer's one, Delta = -div grad on scalars, so
Delta(u^2 + v^2) = -4 on a flat chart.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .ambient import (
    EPS_F,
    BcvParams,
    _first_failure,
    christoffels,
    coordinate_components,
    frame_components,
    frame_cross,
    frame_dot,
    smoothing_factor,
)
from ._stencil import CROSS, NINE, WIDE, Stencil, derivative
from .errors import DegenerateSurfaceError, DomainError

__all__ = [
    "EPS_ALPHA",
    "EPS_GRAM",
    "ParametricSurface",
    "SurfaceBatch",
    "JetArrays",
    "ShapeArrays",
    "surface_jets",
    "surface_jet",
    "shape_operator",
    "Stages",
    "gauss_residual",
    "codazzi_residual",
    "compatibility_residual",
]

EPS_ALPHA = 1e-7   # below this sin(alpha), the adapted frame is reported absent
EPS_GRAM = 1e-12   # regularity floor for det of the first fundamental form

# finite-difference steps, each scaled by max(1, |u|) or max(1, |v|)
CHART_STEP = 1e-5        # central differences of a chart without analytic partials
NORMAL_STEP = 1e-4       # fourth-order differences of the normal for the shape operator
DIRECTIONAL_STEP = 1e-4  # first derivatives along tangent vectors and of the metric
SECOND_STEP = 1e-3       # second partials of the fundamental form (Brioschi)
# chart partials of the mean curvature; wider than the directional step, as a
# small step would amplify the finite-difference jitter of the mean curvature
GRADIENT_STEP = 1e-3
LAPLACIAN_STEP = 5e-3    # the widest: field jitter grows as 1/h^2 in second differences

DEFAULT_FD = None   # not used by bcvgeo: the benchmark tracer imports the name


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

    The unit normal is -(X_u ^ X_v) / |X_u ^ X_v| (module docstring).
    """

    def __init__(self, chart, domain, partials=None, name: str = "surface"):
        self.chart = chart
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        self.partials = partials
        self.name = name

    def coords(self, u, v) -> np.ndarray:
        """Chart coordinates, shape (3,) + the broadcast shape of u and v."""
        return _components(self.chart(u, v), u, v)

    def partials_at(self, u, v):
        """(X_u, X_v) in coordinate components, each shaped like coords."""
        if self.partials is not None:
            xu, xv = self.partials(u, v)
            return _components(xu, u, v), _components(xv, u, v)
        st = Stencil(CROSS, CHART_STEP, u, v)
        X = self.coords(st.U, st.V)
        return st.d(X, 1, 0), st.d(X, 0, 1)

    def grid(self, nu: int, nv: int):
        (u0, u1), (v0, v1) = self.domain
        return np.linspace(u0, u1, nu), np.linspace(v0, v1, nv)

    def __repr__(self):
        return f"ParametricSurface({self.name}, domain={self.domain})"


class SurfaceBatch:
    """Several surfaces as one chart, for one jet pipeline over all of them.

    `members` are (surface, count) pairs, at least one: along axis 0 of
    the centre arrays the first `count` rows lie on the first surface, and
    so on.  By the axis-0 rule each member's chart and partials, finite
    differences included, run on that member's rows alone.
    """

    def __init__(self, members):
        self.members = tuple((S, int(n)) for S, n in members)
        if not self.members:
            raise ValueError("a surface batch needs at least one member")
        self.name = "+".join(S.name for S, _ in self.members)
        self._ends = np.cumsum([n for _, n in self.members])

    def _rows(self):
        """(member surface, its slice of axis 0) in order."""
        return [(S, slice(end - n, end)) for (S, n), end in zip(self.members, self._ends)]

    def at(self, mask):
        """The batch of the centres where `mask`, shaped like them, holds."""
        return SurfaceBatch([(S, np.count_nonzero(mask[rows])) for S, rows in self._rows()])

    def _stacked(self, u, v, fn):
        """fn(member, its rows of u, its rows of v), a tuple of arrays of
        shape (3,) + those rows' shape, stacked along the rows."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        if u.ndim == 0 or len(u) != self._ends[-1]:
            raise ValueError(f"{self.name}: points of shape {u.shape} do not hold "
                             f"{self._ends[-1]} centres on axis 0")
        parts = [fn(S, u[rows], v[rows]) for S, rows in self._rows()]
        return tuple(np.concatenate(p, axis=1) for p in zip(*parts))

    def coords(self, u, v) -> np.ndarray:
        return self._stacked(u, v, lambda S, u, v: (S.coords(u, v),))[0]

    def partials_at(self, u, v):
        return self._stacked(u, v, lambda S, u, v: S.partials_at(u, v))


class JetArrays(namedtuple("JetArrays", "x y xu xv au av E F G n cos_alpha sin_alpha T JT")):
    """First-order jet at floats or arrays (u, v), one entry per point.

    Vectors are arrays of shape (3,) + the point shape: X_u and X_v in
    coordinate components (xu, xv) and in frame components (au, av); the
    unit normal n, the tangential part T of E3 and JT = N ^ T in frame
    components.  E, F, G are the first fundamental form.
    """

    __slots__ = ()


def _name_at_failure(S, ok):
    """The name of S, or for a batch of its member, at the first point, in
    C order, where `ok` is false."""
    if not isinstance(S, SurfaceBatch):
        return S.name
    row = int(np.argmin(ok)) // (ok.size // len(ok))
    return S.members[int(np.searchsorted(S._ends, row, side="right"))][0].name


def surface_jets(S: ParametricSurface, params: BcvParams, u, v) -> JetArrays:
    """First-order jet of S, a surface or a :class:`SurfaceBatch`, at (u, v),
    floats or arrays of one shape.

    The arithmetic is componentwise, so floats and arrays run the same
    code.  Raises DomainError when a chart point is not finite or has
    F <= EPS_F, and DegenerateSurfaceError when the chart partials are
    dependent (Gram determinant at or below EPS_GRAM); either names the
    surface and the first failing (u, v).
    """
    x, y, z = S.coords(u, v)
    Fc = smoothing_factor(params, x, y)
    ok = np.isfinite(x) & np.isfinite(y) & np.isfinite(z) & (Fc > EPS_F)
    bad = _first_failure(ok, u, v, x, y, z, Fc)
    if bad:
        uu, vv, xx, yy, zz, ff = bad
        raise DomainError(f"{_name_at_failure(S, ok)}: point ({xx:.6g}, {yy:.6g}, {zz:.6g}) "
                          f"at (u, v) = ({uu:.6g}, {vv:.6g}) is not finite or has "
                          f"F = {ff:.3e} <= {EPS_F}")
    xu, xv = S.partials_at(u, v)
    au = frame_components(params, x, y, xu)
    av = frame_components(params, x, y, xv)
    # at huge tau these products overflow, and a NaN determinant fails the
    # check below as dependent partials do
    with np.errstate(over="ignore", invalid="ignore"):
        E, F, G = frame_dot(au, au), frame_dot(au, av), frame_dot(av, av)
        det = E * G - F * F
    ok = det > EPS_GRAM
    bad = _first_failure(ok, u, v, det)
    if bad:
        raise DegenerateSurfaceError(
            f"{_name_at_failure(S, ok)}: chart partials dependent at (u, v) = "
            f"({bad[0]:.6g}, {bad[1]:.6g}), det I = {bad[2]:.3e}")
    w = frame_cross(au, av)
    nn = np.sqrt(frame_dot(w, w))
    n = (-w[0] / nn, -w[1] / nn, -w[2] / nn)
    cos_a = np.minimum(1.0, np.maximum(-1.0, n[2]))  # = g(E3, N)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
    T = (-cos_a * n[0], -cos_a * n[1], 1.0 - cos_a * n[2])
    return JetArrays(x=x, y=y, xu=xu, xv=xv, au=np.array(au), av=np.array(av),
                     E=E, F=F, G=G, n=np.array(n), cos_alpha=cos_a, sin_alpha=sin_a,
                     T=np.array(T), JT=np.array(frame_cross(n, T)))


def surface_jet(S: ParametricSurface, params: BcvParams, u, v) -> JetArrays:
    """Same as :func:`surface_jets`, the one pass-through left.  No bcvgeo
    code calls it: the benchmark tracer (perfbench/tracer.py) wraps it by
    name, and its `--trace 1` raises AttributeError without it.  The batched
    jet cannot take this name, as the tracer keys each jet call by float(u)
    and float(v), which fail on arrays."""
    return surface_jets(S, params, u, v)


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


class ShapeArrays(namedtuple("ShapeArrays", "jet A f b1 b2 adapted")):
    """Shape operator at arrays of centres: the centre jet, the matrix
    entries A[i][j] = g(A b_j, b_i) in the basis (b1, b2) of frame
    components, its trace f and the `adapted` mask of that basis."""

    __slots__ = ()

    def apply(self, W):
        """A W for tangent vectors W in frame components."""
        a1, a2 = frame_dot(W, self.b1), frame_dot(W, self.b2)
        (m00, m01), (m10, m11) = self.A
        return (m00 * a1 + m01 * a2) * self.b1 + (m10 * a1 + m11 * a2) * self.b2


def _at(x, i):
    """Entry i along the last axis of an array, or of every array in a
    (nested, possibly named) tuple of arrays."""
    if isinstance(x, tuple):
        items = [_at(e, i) for e in x]
        return x._make(items) if hasattr(x, "_make") else tuple(items)
    return x[..., i]


def shape_operator(S: ParametricSurface, params: BcvParams, u, v) -> ShapeArrays:
    """Shape operator A X = -(nabla_X N)^T at centres (u, v) of any shape.

    One jet call covers every centre and its 8 normal-stencil points: the
    coordinate components of N are differenced to fourth order along the
    chart directions and corrected with the finite-difference Christoffel
    symbols.  The matrix is taken in the adapted frame where sin(alpha) >
    EPS_ALPHA, else in a Gram-Schmidt basis of the chart partials.  S may
    be a :class:`SurfaceBatch`, with its centres on axis 0.
    """
    st = Stencil(WIDE, NORMAL_STEP, u, v)
    return _shape(params, st, surface_jets(S, params, st.U, st.V))[0]


def _shape(params, st, J):
    """(shape, gamma): the :class:`ShapeArrays` of :func:`shape_operator` from
    the jets J over the WIDE stencil st, and the Christoffel symbols gamma
    at its centres, evaluated once here for the shape operator and for the
    residuals that read them.

    A X_u and A X_v are minus the tangential parts of nabla N along the
    chart directions (:func:`_tangential_covariant`)."""
    c = _at(J, 0)
    gamma = christoffels(params, c.x, c.y)
    N = np.array(coordinate_components(params, J.x, J.y, J.n))
    Au = -_tangential_covariant(params, c, gamma, c.xu, N[..., 0], st.d(N, 1, 0))
    Av = -_tangential_covariant(params, c, gamma, c.xv, N[..., 0], st.d(N, 0, 1))
    b1, b2, adapted = _basis(c.au, c.av, c.T, c.JT, c.sin_alpha)
    Ab = []
    for b in (b1, b2):
        # b = xi X_u + eta X_v, so A b = xi A X_u + eta A X_v
        xi, eta = _chart_coefficients(c.E, c.F, c.G, frame_dot(b, c.au), frame_dot(b, c.av))
        Ab.append(xi * Au + eta * Av)
    A = tuple(tuple(frame_dot(Abj, bi) for Abj in Ab) for bi in (b1, b2))
    return ShapeArrays(jet=c, A=A, f=A[0][0] + A[1][1], b1=b1, b2=b2, adapted=adapted), gamma


def _chart_coefficients(E, F, G, r0, r1):
    """(xi, eta) with W = xi X_u + eta X_v for the tangent vector W with
    g(W, X_u) = r0 and g(W, X_v) = r1: Cramer's rule on the first
    fundamental form (E, F, G), componentwise."""
    det = E * G - F * F
    return (G * r0 - F * r1) / det, (E * r1 - F * r0) / det


def _steps(jet, u, v, W):
    """Each point (u, v) of shape P and its forward and backward steps along
    the k tangent vectors W, of shape (3,) + P + (k,) in frame components.

    With W = xi X_u + eta X_v (:func:`_chart_coefficients`), the chart line
    (u + s xi, v + s eta) has velocity W at s = 0, so the central
    difference over s = +-t, t = DIRECTIONAL_STEP / max(1, |xi|, |eta|),
    converges to the derivative along W.  Returns U and V of shape
    P + (1 + 2k,): each point, its k forward steps, then its k backward
    steps; and the steps t, of shape P + (k,)."""
    E, F, G = (np.expand_dims(a, -1) for a in (jet.E, jet.F, jet.G))
    xi, eta = _chart_coefficients(E, F, G, frame_dot(W, np.expand_dims(jet.au, -1)),
                                 frame_dot(W, np.expand_dims(jet.av, -1)))
    t = DIRECTIONAL_STEP / np.maximum(1.0, np.maximum(np.abs(xi), np.abs(eta)))
    u, v = np.expand_dims(u, -1), np.expand_dims(v, -1)
    return (np.concatenate([u, u + t * xi, u - t * xi], axis=-1),
            np.concatenate([v, v + t * eta, v - t * eta], axis=-1), t)


def _central(vals, t):
    """Values of shape Q + P + (1 + 2k,) at the points of :func:`_steps` ->
    (value at each point, shape Q + P; central differences along its k
    vectors, shape Q + P + (k,))."""
    k = t.shape[-1]
    return vals[..., 0], derivative((vals[..., 1:k + 1], vals[..., k + 1:]), (1, -1), 1, t)


def _laplacian(st, mst, J, f):
    """Delta f = -div grad f at the centres of the NINE stencil st, from the
    field values f, of shape Q + st.U.shape, over st and the jets J over the
    CROSS stencil mst of the same centres; returns shape Q + the centre shape.

    Divergence form expanded as
        div grad f = I^{ij} d2_ij f + c^j d_j f,
        c^j = (1 / sqrt(det I)) d_i (sqrt(det I) I^{ij}),
    with the metric coefficients differenced over mst.
    """
    det = J.E * J.G - J.F * J.F
    M = np.array([[J.G, -J.F], [-J.F, J.E]]) / np.sqrt(det)   # sqrt(det I) I^{-1}
    Iinv = M[..., 0] / np.sqrt(det[..., 0])
    c = (mst.d(M[0], 1, 0) + mst.d(M[1], 0, 1)) / np.sqrt(det[..., 0])
    div = (Iinv[0, 0] * st.d(f, 2, 0) + (Iinv[0, 1] + Iinv[1, 0]) * st.d(f, 1, 1)
           + Iinv[1, 1] * st.d(f, 0, 2) + c[0] * st.d(f, 1, 0) + c[1] * st.d(f, 0, 1))
    return -div


def _brioschi(st, E, F, G):
    """Intrinsic Gauss curvature from the first fundamental form alone, at
    the centres of the NINE stencil st from E, F and G over it.

    Second central differences of (E, F, G) feed the Brioschi determinant
    formula, giving a route to K that never sees the normal or the shape
    operator.
    """
    E0, F0, G0 = E[..., 0], F[..., 0], G[..., 0]
    Eu, Ev, Evv = st.d(E, 1, 0), st.d(E, 0, 1), st.d(E, 0, 2)
    Gu, Gv, Guu = st.d(G, 1, 0), st.d(G, 0, 1), st.d(G, 2, 0)
    Fu, Fv, Fuv = st.d(F, 1, 0), st.d(F, 0, 1), st.d(F, 1, 1)

    M1 = np.array([
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E0, F0],
        [0.5 * Gv, F0, G0],
    ])
    M2 = np.array([
        [np.zeros_like(E0), 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E0, F0],
        [0.5 * Gu, F0, G0],
    ])
    den = (E0 * G0 - F0 * F0) ** 2
    det1, det2 = (np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1))) for M in (M1, M2))
    return (det1 - det2) / den


Centres = namedtuple("Centres", "shape K gamma")


class Stages:
    """The finite-difference stages of every surface oracle at centres (u, v),
    as listed in the module docstring.  Each stage is a cached property,
    evaluated on first read and shared by every residual that reads it, so
    a residual costs only the stages no earlier residual has read.

    :meth:`at` restricts `centres` to a mask of centres, so the later
    stages are evaluated there alone.  For a :class:`SurfaceBatch` S each
    stage is one jet call over all members; :meth:`at` restricts S to each
    member's kept rows.  The residuals read their surface, parameters and
    centres from the stages alone.
    """

    def __init__(self, S: ParametricSurface, params: BcvParams, u, v):
        self.S, self.params, self.u, self.v = S, params, u, v

    def at(self, mask):
        """These stages at the centres where `mask` holds, flattened to 1-D."""
        S = self.S.at(mask) if isinstance(self.S, SurfaceBatch) else self.S
        u, v = np.broadcast_arrays(np.asarray(self.u, dtype=float), np.asarray(self.v, dtype=float))
        sub = Stages(S, self.params, u[mask], v[mask])
        sub.centres = _at(self.centres, mask)
        return sub

    @cached_property
    def centres(self):
        """(shape, K, gamma) at the centres, the centre jet as shape.jet: one
        jet call over the WIDE and NINE stencils of each centre, 17 points."""
        wide, nine = (Stencil(WIDE, NORMAL_STEP, self.u, self.v),
                      Stencil(NINE, SECOND_STEP, self.u, self.v))
        J = surface_jets(self.S, self.params, np.concatenate([wide.U, nine.U[..., 1:]], axis=-1),
                         np.concatenate([wide.V, nine.V[..., 1:]], axis=-1))
        w = len(WIDE)
        shape, gamma = _shape(self.params, wide, _at(J, slice(0, w)))
        rows = [0, *range(w, w + len(NINE) - 1)]
        K = _brioschi(nine, J.E[..., rows], J.F[..., rows], J.G[..., rows])
        return Centres(shape, K, gamma)

    @cached_property
    def steps(self):
        """(frame, U, V, t, J): the adapted frame at the centres, the points
        (U, V) of each centre, its +e1, +e2 and its -e1, -e2 steps on a
        last axis of length 5, the steps t and the jets there."""
        frame = _adapted_frame(self.centres.shape.jet, self.u, self.v, "stepping along e1, e2")
        U, V, t = _steps(self.centres.shape.jet, self.u, self.v, frame)
        return frame, U, V, t, surface_jets(self.S, self.params, U, V)

    @cached_property
    def angles(self):
        """(e1(a), e2(a)) at the points of `steps`, shape (2,) + their shape."""
        _, U, V, _, J = self.steps
        U, V, t = _steps(J, U, V, _adapted_frame(J, U, V, "alpha derivative"))
        a = np.arccos(surface_jets(self.S, self.params, U[..., 1:], V[..., 1:]).cos_alpha)
        return np.moveaxis(derivative((a[..., :2], a[..., 2:]), (1, -1), 1, t), -1, 0)

    @cached_property
    def lam_e1(self):
        """lam at the +e1 and -e1 steps, shape (2,) + the centre shape."""
        _, U, V, _, _ = self.steps
        lam = shape_operator(self.S, self.params, U[..., [1, 3]], V[..., [1, 3]]).A[1][1]
        return np.moveaxis(lam, -1, 0)

    @cached_property
    def lam_e2(self):
        """lam at the +e2 and -e2 steps, shape (2,) + the centre shape."""
        _, U, V, _, _ = self.steps
        lam = shape_operator(self.S, self.params, U[..., [2, 4]], V[..., [2, 4]]).A[1][1]
        return np.moveaxis(lam, -1, 0)

    @cached_property
    def gradient(self):
        """(st, sh): the CROSS stencil st at GRADIENT_STEP and the shape
        arrays sh at its points, 45 jets per centre."""
        st = Stencil(CROSS, GRADIENT_STEP, self.u, self.v)
        return st, shape_operator(self.S, self.params, st.U, st.V)

    @cached_property
    def laplacian(self):
        """(sh, delta): the shape arrays sh over the NINE stencil at
        LAPLACIAN_STEP, and delta, which takes field values over that
        stencil to their Laplacian at the centres (:func:`_laplacian`)."""
        st = Stencil(NINE, LAPLACIAN_STEP, self.u, self.v)
        mst = Stencil(CROSS, DIRECTIONAL_STEP, self.u, self.v)
        sh = shape_operator(self.S, self.params, st.U, st.V)
        J = surface_jets(self.S, self.params, mst.U, mst.V)
        return sh, lambda f: _laplacian(st, mst, J, f)


def gauss_residual(stages: Stages):
    """K - det A - tau^2 - (kappa - 4 tau^2) cos^2(alpha) at the centres.

    K is the intrinsic (Brioschi) curvature, det A the extrinsic one; the
    residual vanishes on genuine immersed surfaces, making this a two-sided
    check of both curvature routes, read from the `centres` stage.
    """
    K, sh = stages.centres.K, stages.centres.shape
    (a00, a01), (a10, a11) = sh.A
    k, t = stages.params.kappa, stages.params.tau
    return K - (a00 * a11 - a01 * a10) - t * t - (k - 4.0 * t * t) * sh.jet.cos_alpha ** 2


def _adapted_frame(jet: JetArrays, u, v, what: str):
    """The adapted frame (e1, e2) of the jets at (u, v), in frame components
    stacked on a last axis of length 2.  Raises DegenerateSurfaceError naming
    the first (u, v), in C order, where sin(alpha) <= EPS_ALPHA."""
    bad = _first_failure(jet.sin_alpha > EPS_ALPHA, u, v, jet.sin_alpha)
    if bad:
        raise DegenerateSurfaceError(
            f"{what} needs the adapted frame, but sin(alpha) = {bad[2]:.3e} "
            f"at (u, v) = ({bad[0]:.6g}, {bad[1]:.6g})")
    return np.stack([jet.T / jet.sin_alpha, jet.JT / jet.sin_alpha], axis=-1)


def _tangential_covariant(params, jet: JetArrays, gamma, X, V, dV):
    """Frame components of the tangential part of nabla_X V = dV + Gamma(X, V)
    at the jets.

    X, V and dV, the chart difference of V along X, are in coordinate
    components, so X may be a chart direction X_u or X_v as it stands;
    gamma = christoffels(jet.x, jet.y)."""
    d = dV + np.einsum("kij...,i...,j...->k...", gamma, X, V)
    d = np.array(frame_components(params, jet.x, jet.y, d))
    return d - frame_dot(d, jet.n) * jet.n


def codazzi_residual(stages: Stages):
    """Residuals of the two adapted-frame compatibility equations at the centres.

    First:  e1(e2(a)) + lam cot(a) e2(a) + cot(a) e1(a)(e2(a) - 2 tau)
            - e2(e1(a))
    Second: cot(a) [2 e2(a)^2 - lam e1(a) - 6 tau e2(a) + 4 tau^2 + lam^2]
            + e1(lam) - e2(e2(a)) - (4 tau^2 - kappa) cos(a) sin(a)

    Both vanish identically on immersed surfaces; the derivatives here are
    nested directional finite differences, so the residuals measure the
    whole jet/shape pipeline at once.  They read the stages `centres`,
    `steps`, `angles` and `lam_e1`.
    """
    sh, t = stages.centres.shape, stages.steps[3]
    # dea[i][..., j] = e_j(e_i(a))
    (e1a, e2a), dea = _central(stages.angles, t)
    lam = sh.A[1][1]
    e1_lam = derivative(stages.lam_e1, (1, -1), 1, t[..., 0])
    e1_e2a, e2_e1a, e2_e2a = dea[1][..., 0], dea[0][..., 1], dea[1][..., 1]

    k, tau = stages.params.kappa, stages.params.tau
    cot = sh.jet.cos_alpha / sh.jet.sin_alpha
    r1 = e1_e2a + lam * cot * e2a + cot * e1a * (e2a - 2.0 * tau) - e2_e1a
    r2 = (cot * (2.0 * e2a * e2a - lam * e1a - 6.0 * tau * e2a + 4.0 * tau * tau + lam * lam)
          + e1_lam - e2_e2a - (4.0 * tau * tau - k) * sh.jet.cos_alpha * sh.jet.sin_alpha)
    return r1, r2


def compatibility_residual(stages: Stages):
    """Residuals of the derivative law of T along e1 and e2 at the centres.

    For W = e1 and W = e2, on a last axis of length 2, returns (vector,
    scalar):
        vector = (nabla_W T)^tangential - cos(a) (A W - tau J W)
        scalar = g(A W - tau J W, T) + W(cos a)
    with the vector in frame components.  Both vanish on immersed surfaces.
    T and cos(a) are differenced together from the jets of `steps`.
    """
    params = stages.params
    frame, _, _, t, J = stages.steps
    vals, d = _central(np.array(coordinate_components(params, J.x, J.y, J.T) + (J.cos_alpha,)), t)
    # the centre values, with a last axis to broadcast against (e1, e2)
    shape, gamma, vals = _at((stages.centres.shape, stages.centres.gamma, vals), None)
    jet = shape.jet
    X = np.array(coordinate_components(params, jet.x, jet.y, frame))
    nabla_T = _tangential_covariant(params, jet, gamma, X, vals[:3], d[:3])
    rhs = shape.apply(frame) - params.tau * np.array(frame_cross(jet.n, frame))
    return nabla_T - jet.cos_alpha * rhs, frame_dot(rhs, jet.T) + d[3]
