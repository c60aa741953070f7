"""Named verification suites behind the `verify` command.

Each suite draws its samples from a seeded generator, evaluates its
residuals, and states its claims as :class:`Check` records: values, a
bound, and whether the values must stay below or above it.  One function,
:func:`_entry`, turns a suite's name, sample count and checks into its
report entry {name, samples, max_residual, tolerance, pass, note}.  A suite
with one unlabelled check reports the raw worst value against its bound; a
suite with several reports the worst upper-bound ratio (worst value over
bound) against 1.0 and lists every check in `note`.  A check with no
values is skipped, and a NaN value fails its suite.  No suite root-finds:
`theorem52` checks Theorem 5.2 row by row on its trajectories' columns.

The three surface suites read one :class:`_SurfacePass` per report, which
builds the interior grids of :func:`_structural_surfaces` once, as one
:class:`bcvgeo.immersion.Stages` that `gauss-codazzi` reads whole.  The two
halves of the Hopf-tube statement (Theorem 4.4: a Hopf tube is
biconservative if and only if it has constant mean curvature) share one
tangential bitension call over its Hopf rows: `biconservative` (the CMC
half) takes the norms on the cylinder rows, `theorem44` (the non-CMC half)
on the ellipse tube's.

The registry order is fixed, and every suite derives its own RNG stream
from (seed, suite index), so reports are reproducible for given flags.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import ambient, biconservative as bic, immersion as imm, rotation as rot
from .ambient import BcvParams

__all__ = [
    "Check",
    "SUITE_NAMES",
    "run_suite",
    "run_report",
    "sample_domain_points",
    "domain_radius",
]


class Check(namedtuple("Check", "label values bound above", defaults=(False,))):
    """One claim of a suite: its values, an array or a list or tuple of
    arrays, stay below `bound`, or above it when `above` holds."""

    @property
    def worst(self):
        """The largest value, the smallest for a lower bound, or None if
        there are no values.  NaN if any value is NaN: Python's `max` keeps
        a NaN only when it comes first, so it could drop one and pass."""
        arrays = self.values if isinstance(self.values, (list, tuple)) else [self.values]
        v = np.concatenate([np.empty(0), *map(np.ravel, arrays)])
        return None if v.size == 0 else float(v.min() if self.above else v.max())


def _entry(name: str, samples: int, checks) -> dict:
    """The report entry of a suite from its checks.

    One unlabelled check gives its worst value as `max_residual`, its bound
    as `tolerance` and an empty note, or the value alone where it is not
    finite.  Otherwise `max_residual` is the worst ratio of an upper-bound
    check to its bound, the tolerance 1.0, and `note` lists each check as
    "label worst/bound"; in a suite that also has a lower bound, upper
    bounds print "label worst < bound" and lower bounds "label worst >
    bound".  Either way the suite passes if
    `max_residual` is below `tolerance` and every lower bound holds.  A
    check with no values adds no ratio and prints "skipped: label".  A
    `max_residual` that is not finite fails and is reported as None, so
    the report stays strict JSON; the note keeps its "nan", "inf" or
    "-inf"."""
    below = " < " if any(c.above for c in checks) else "/"
    ratios, holds, notes = [], [], []
    for c in checks:
        worst = c.worst
        if worst is None:
            notes.append(f"skipped: {c.label}")
        elif c.above:
            holds.append(worst > c.bound)
            notes.append(f"{c.label} {worst:.2e} > {c.bound:.2e}")
        else:
            ratios.append(worst / c.bound)
            notes.append(f"{c.label} {worst:.2e}{below}{c.bound:.2e}")
    worst, tolerance = float(np.max(ratios, initial=0.0)), 1.0
    if len(checks) == 1 and not checks[0].label:
        worst, tolerance = checks[0].worst, checks[0].bound
        notes = [] if math.isfinite(worst) else [repr(worst)]
    return {"name": name, "samples": samples,
            "max_residual": worst if math.isfinite(worst) else None, "tolerance": tolerance,
            "pass": worst < tolerance and all(holds), "note": "; ".join(notes)}


def domain_radius(params: BcvParams, fill: float = 0.75) -> float:
    """Safe sampling radius: for kappa < 0 the fraction fill of the
    boundary radius 2 / sqrt(-kappa), taken as at most 2, its value at
    kappa = -1; a fixed window otherwise.

    Uncapped, the radius would grow without bound as kappa -> 0-, and the
    FD oracles lose their precision at coordinates that large."""
    if params.kappa < 0.0:
        return fill * 2.0 / math.sqrt(max(-params.kappa, 1.0))
    return 1.5


def sample_domain_points(params: BcvParams, rng, n: int):
    """Coordinate arrays x, y, z of n reproducible points well inside the
    domain (F >= 1 - 0.75^2 when kappa < 0), with z in [-1, 1].

    One ``rng.random((n, 3))`` call gives each point's unit draws for rho,
    phi and z, in that order, and each is mapped as ``Generator.uniform``
    maps its draw, lo + (hi - lo) * draw.  So the points a seed gives, and
    where the suite's later draws start, are those of three ``uniform``
    calls per point."""
    rmax = domain_radius(params)
    d = rng.random((n, 3))
    rho = rmax * np.sqrt(d[:, 0])
    phi = 2.0 * math.pi * d[:, 1]
    z = -1.0 + 2.0 * d[:, 2]
    return rho * np.cos(phi), rho * np.sin(phi), z


def _cylinder_radii(params: BcvParams):
    """The cylinder radii 0.5, 1 and 2 that lie in the domain (F above 0.1)."""
    return [r for r in (0.5, 1.0, 2.0) if ambient.smoothing_factor(params, r, 0.0) > 0.1]


def _scaled_ellipse(params: BcvParams):
    a = min(1.6, 0.6 * domain_radius(params, fill=1.0))
    return rot.ellipse_curve(a, 0.625 * a)


def _frame_of(params: BcvParams, x, y, V):
    """Frame components, shape (3, m) + the shape of x, of the m vectors
    V[a] given in coordinate components at the points (x, y)."""
    return np.array(ambient.frame_components(params, x, y, np.swapaxes(V, 0, 1)))


def _suite_frame(params: BcvParams, rng) -> dict:
    x, y, _ = sample_domain_points(params, rng, 100)
    f = _frame_of(params, x, y, ambient.frame_at(params, x, y))
    # at huge tau the products overflow: the check reports the values that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        gram = ambient.frame_dot(f[:, :, None], f[:, None, :])
    return _entry("frame", x.size, [Check("", np.abs(gram - np.eye(3)[..., None]), 1e-10)])


def _suite_ricci(params: BcvParams, rng) -> dict:
    x, y, _ = sample_domain_points(params, rng, 20)
    # per point: the frame and two random vectors, in coordinate components
    V = np.concatenate([ambient.frame_at(params, x, y),
                        rng.normal(size=(x.size, 2, 3)).transpose(1, 2, 0)])
    f = _frame_of(params, x, y, V)
    # at huge tau both overflow: the check reports the values that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        closed = ambient.ricci(params, f[:, :, None], f[:, None, :])
        fd = np.einsum("ain,ijn,bjn->abn", V, ambient.ricci_tensor_fd(params, x, y), V)
    return _entry("ricci", closed.size, [Check("", np.abs(closed - fd), 1e-4)])


def _suite_submersion(params: BcvParams, rng) -> dict:
    x, y, _ = sample_domain_points(params, rng, 50)
    e1, e2, e3 = ambient.frame_at(params, x, y)
    a = rng.normal(size=(x.size, 2))
    H = a[:, 0] * e1 + a[:, 1] * e2
    img = ambient.hopf_dpsi(H)
    h_norm = np.sqrt(ambient.base_metric(params, x, y, img, img))
    Hf = ambient.frame_components(params, x, y, H)
    # at huge tau |H|^2 overflows: the check reports the values that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        H_norm = np.sqrt(ambient.frame_dot(Hf, Hf))
    return _entry("submersion", x.size,
                  [Check("", (np.abs(h_norm - H_norm), np.abs(ambient.hopf_dpsi(e3))), 1e-8)])


def _structural_surfaces(params: BcvParams):
    """The surfaces of the surface suites, as (surface, nu, nv) with the
    size of each one's interior grid: the Hopf cylinders of
    :func:`_cylinder_radii`, a generic surface of revolution and the Hopf
    tube over an ellipse.  `gauss-codazzi` reads all of them,
    `biconservative` the cylinders and `theorem44` the tube."""
    surfaces = [(rot.hopf_cylinder(params, r0), 4, 3) for r0 in _cylinder_radii(params)]
    rmax = domain_radius(params)
    r_mid = min(1.2, 0.55 * rmax)
    surfaces.append(
        (rot.generic_revolution_surface(r_mid=r_mid, amp=0.2 * r_mid, pitch=0.4 * r_mid), 5, 4)
    )
    curve, dcurve = _scaled_ellipse(params)
    surfaces.append((rot.hopf_tube(curve, dcurve), 6, 3))
    return surfaces


def _interior_grid(surface, nu, nv):
    """The (u, v)-indexed meshgrid (U, V), each of shape (nu, nv), of nu by
    nv values spanning the domain of `surface` less 12 % at each end."""
    return np.meshgrid(*(np.linspace(a + 0.12 * (b - a), b - 0.12 * (b - a), n)
                         for (a, b), n in zip(surface.domain, (nu, nv))), indexing="ij")


# the Hopf-tube suites and the name prefix of the structural surfaces each reads
_HOPF_SUITES = {"biconservative": "hopf-cylinder", "theorem44": "hopf-tube"}


class _SurfacePass:
    """The surface work of one report on the suites `names`, each part
    made on first read and kept for that report alone."""

    def __init__(self, params: BcvParams, names):
        self.params, self.names = params, names

    @cached_property
    def stages(self):
        """One `Stages` over the interior grids of :func:`_structural_surfaces`
        as one :class:`bcvgeo.immersion.SurfaceBatch`: the centres are each
        grid's points in C order, one grid after another."""
        grids = [(S, *_interior_grid(S, nu, nv)) for S, nu, nv in _structural_surfaces(self.params)]
        batch = imm.SurfaceBatch([(S, U.size) for S, U, _ in grids])
        return imm.Stages(batch, self.params, np.concatenate([U.ravel() for _, U, _ in grids]),
                          np.concatenate([V.ravel() for _, _, V in grids]))

    @cached_property
    def bitension(self):
        """{suite: |B| on the rows of `stages` it reads} for the Hopf-tube
        suites in `names`, from one call over all those rows."""
        st = self.stages
        rows = {n: np.concatenate([np.full(k, S.name.startswith(p)) for S, k in st.S.members])
                for n, p in _HOPF_SUITES.items() if n in self.names}
        hopf = np.any([*rows.values()], axis=0)
        # not st.at(hopf), which would copy or evaluate the `centres` that B never reads
        sub = imm.Stages(st.S.at(hopf), self.params, st.u[hopf], st.v[hopf])
        tb = np.linalg.norm(bic.tangential_bitension(sub), axis=0)
        return {n: tb[r[hopf]] for n, r in rows.items()}


def _structural_checks(stages: imm.Stages):
    """The check of each structural family at the centres of `stages`, the
    report's grids (:class:`_SurfacePass`) as one surface batch.

    Its `centres`, one jet call over every point's normal and Brioschi
    stencils, give the jet, Gauss and the centre terms of Codazzi and the
    law of T; its `steps` give their steps along e1 and e2.  Codazzi and
    the law of T are evaluated only where sin(alpha) > 0.1, which keeps
    |cot(alpha)| below 9.95, so the later stages of a skipped point are
    never evaluated; where no point is kept, those two checks have no
    values."""
    J, params = stages.centres.jet, stages.params
    # |T|^2 = sin^2(alpha) and E3 = T + cos(alpha) N, in coordinate components
    T = np.array(ambient.coordinate_components(params, J.x, J.y, J.T))
    N = np.array(ambient.coordinate_components(params, J.x, J.y, J.n))
    Tf = ambient.frame_components(params, J.x, J.y, T)
    e3 = np.array([0.0, 0.0, 1.0])[:, None]
    jet = (np.abs(ambient.frame_dot(Tf, Tf) - J.sin_alpha ** 2), np.abs(e3 - T - J.cos_alpha * N))
    codazzi = compat = ()
    ok = J.sin_alpha > 0.1
    if ok.any():
        sub = stages.at(ok)
        codazzi = np.abs(imm.codazzi_residual(sub))
        vec, sc = imm.compatibility_residual(sub)   # along e1 and e2
        compat = (np.sqrt(ambient.frame_dot(vec, vec)), np.abs(sc))
    return [Check("jet", jet, 1e-9), Check("gauss", np.abs(imm.gauss_residual(stages)), 1e-4),
            Check("codazzi", codazzi, 1e-3), Check("compat", compat, 1e-4)]


def _suite_gauss_codazzi(surfaces: _SurfacePass, rng) -> dict:
    return _entry("gauss-codazzi", surfaces.stages.u.size, _structural_checks(surfaces.stages))


def _suite_biconservative(surfaces: _SurfacePass, rng) -> dict:
    """The CMC half of the Hopf-tube statement (Theorem 4.4): a Hopf
    cylinder has constant mean curvature, so it is biconservative, and its
    tangential bitension vanishes at every grid point."""
    tb = surfaces.bitension["biconservative"]
    return _entry("biconservative", tb.size, [Check("cylinder bitension", tb, 1e-6)])


def _suite_theorem44(surfaces: _SurfacePass, rng) -> dict:
    """The non-CMC half of the Hopf-tube statement (Theorem 4.4): the tube
    over an ellipse has non-constant mean curvature, so it is not
    biconservative, and its largest tangential bitension stays visibly
    away from zero."""
    tb = surfaces.bitension["theorem44"]
    return _entry("theorem44", tb.size, [Check("ellipse tube max", tb.max(), 1e-3, above=True)])


# sigma0 is drawn from [SIGMA_MARGIN, pi - SIGMA_MARGIN] with |cos(sigma0)| > MIN_COS
SIGMA_MARGIN, MIN_COS = 0.15, 0.1
# R1 + 2 obstruction / (3 q^3) rounds, to first order and with sin, cos, sqrt
# and pow off by up to 4 ulp, to within about 55 eps of R1's term magnitudes
IDENTITY_EPS = 100.0


def _branch_radii(params: BcvParams):
    """The interval that `_random_branch_state` draws r0 from."""
    hi = min(1.6, 0.8 * domain_radius(params))
    # [0.6, hi] is empty once kappa < -4, where the domain is that narrow
    return (0.6 if hi >= 0.6 else 0.5 * hi), hi


def _random_branch_state(params: BcvParams, rng) -> rot.ProfileState:
    r0 = rng.uniform(*_branch_radii(params))
    while True:
        sigma0 = rng.uniform(SIGMA_MARGIN, math.pi - SIGMA_MARGIN)
        if abs(math.cos(sigma0)) > MIN_COS:
            return rot.ProfileState(0.0, r0, 0.0, sigma0)


def _suite_theorem52(params: BcvParams, rng) -> dict:
    """Theorem 5.2 on three branches from random initial states, by its
    proof's identity R1 = -2 / (3 q^3) x obstruction, q = sqrt(1 + tau^2
    r^2), on every row: R1 changes sign where sin(sigma) cos(sigma) does,
    and |R1| / |4 tau^2 - kappa| ("gap") is (8/9) |sin(sigma) cos(sigma)|
    (sin^2(sigma) + tau^2 r^2) / (r q^3).  Each factor's least value over
    the drawn states bounds max |R1| / gap below.  R2 vanishes."""
    if params.tau == 0.0 or params.is_space_form:
        # no branch to march: one check with no values, its label the reason
        return _entry("theorem52", 0, [Check("needs tau != 0 and kappa != 4 tau^2", (), 1.0)])
    k, t = params.kappa, params.tau
    lo, hi = _branch_radii(params)
    sin_cos = MIN_COS * math.sqrt(1.0 - MIN_COS ** 2)
    # q^3 = q2 sqrt(q2) split over two divisions: a float's ** raises
    # OverflowError where q^3 passes 1.8e308 (|tau| of about 1e103)
    q2 = 1.0 + t * t * hi * hi
    floor = (8.0 / 9.0 * sin_cos * ((math.sin(SIGMA_MARGIN) ** 2 + t * t * lo * lo) / q2)
             / (hi * math.sqrt(q2)))
    abs_r2, identity, flips, ratio, samples = [], [], [], [], 0
    for _ in range(3):
        traj = rot.integrate_noncmc_branch(params, _random_branch_state(params, rng),
                                           rot.IntegrationConfig(s_max=3.0, r_stop=0.05))
        samples += len(traj)
        r, f, R1, sc = traj.r, np.abs(traj.f), traj.R1, traj.sin_sigma * traj.cos_sigma
        # R1's terms through |b|, |d|, |cos alpha| <= 1, |a| <= |tau| (1 + |kappa| r^2 / 4),
        # |sigma'| <= |f| + 1/r + |kappa| r / 4 and |4 tau^2 - kappa| <= 4 tau^2 + |kappa|
        terms = (np.abs(traj.f_prime) * (3.0 * f + abs(t) * (4.0 + 0.5 * abs(k) * r * r)
                                         + 2.0 / r + 0.5 * abs(k) * r)
                 + 2.0 * f * (4.0 * t * t + abs(k)))
        # from |tau| of about 1e102 q^3 overflows: the identity check
        # reports the value that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            identity.append(np.abs(R1 + 2.0 * traj.obstruction
                                   / (3.0 * (1.0 + t * t * r * r) ** 1.5))
                            / (np.finfo(float).eps * terms))
        flips.append(np.count_nonzero((R1[:-1] * R1[1:] < 0.0) != (sc[:-1] * sc[1:] < 0.0)))
        abs_r2.append(np.abs(traj.R2))
        ratio.append(np.abs(R1).max() / abs(4.0 * t * t - k))
    return _entry("theorem52", samples, [
        Check("|R2|", abs_r2, 1e-10), Check("identity", identity, IDENTITY_EPS),
        Check("flips", flips, 1), Check("|R1|/gap", ratio, floor, above=True)])


# the suites called as fn(surfaces, rng), with their report's _SurfacePass; the rest fn(params, rng)
_SURFACE_SUITES = ("gauss-codazzi", *_HOPF_SUITES)
_REGISTRY = (
    ("frame", _suite_frame),
    ("ricci", _suite_ricci),
    ("submersion", _suite_submersion),
    ("gauss-codazzi", _suite_gauss_codazzi),
    ("biconservative", _suite_biconservative),
    ("theorem44", _suite_theorem44),
    ("theorem52", _suite_theorem52),
)

SUITE_NAMES = tuple(name for name, _ in _REGISTRY)


def run_suite(name: str, params: BcvParams, seed: int = 42, _surfaces=None) -> dict:
    """The entry of one suite.  `_surfaces` is internal: :func:`run_report`
    passes its :class:`_SurfacePass`, made at `params` for suites that
    include `name`; a lone call makes its own."""
    for idx, (nm, fn) in enumerate(_REGISTRY):
        if nm == name:
            surfaces = _surfaces or _SurfacePass(params, [name])
            if surfaces.params != params or name not in surfaces.names:
                raise ValueError(f"the surface pass of {surfaces.params} on "
                                 f"{list(surfaces.names)} cannot run {name!r} at {params}")
            arg = surfaces if name in _SURFACE_SUITES else params
            return fn(arg, np.random.default_rng([seed, idx]))
    raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")


def run_report(params: BcvParams, names=None, seed: int = 42) -> dict:
    """Run the selected suites in registry order, on one :class:`_SurfacePass`,
    and assemble the report dictionary; reports are deterministic for given flags and seed."""
    if names is None:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise KeyError(f"unknown suite {unknown[0]!r}; known: {', '.join(SUITE_NAMES)}")
    surfaces = _SurfacePass(params, names)
    results = [run_suite(n, params, seed, surfaces) for n in SUITE_NAMES if n in set(names)]
    return {
        "kappa": params.kappa,
        "tau": params.tau,
        "seed": seed,
        "suites": results,
        "pass": all(r["pass"] for r in results),
    }
