"""Named verification suites behind the `verify` command.

Each suite draws its samples from a seeded generator, evaluates a family of
residuals, and reports one entry {name, samples, max_residual, tolerance,
pass}.  Simple suites report the raw worst residual against its tolerance;
compound suites (several residual families with different tolerances)
report the worst residual-to-tolerance ratio against 1.0 and explain the
breakdown in `note`.

The registry order is fixed, and every suite derives its own RNG stream
from (seed, suite index), so reports are reproducible for given flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ambient, biconservative as bic, immersion as imm, rotation as rot
from .ambient import BcvParams

__all__ = [
    "SuiteResult",
    "SUITE_NAMES",
    "run_suite",
    "run_report",
    "sample_domain_points",
    "domain_radius",
]


@dataclass
class SuiteResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "note": self.note,
        }


def domain_radius(params: BcvParams, fill: float = 0.75) -> float:
    """Safe sampling radius: for kappa < 0 the fraction fill of the
    boundary radius 2 / sqrt(-kappa), taken as at most 2, its value at
    kappa = -1; a fixed window otherwise.

    Uncapped, the radius would grow without bound as kappa -> 0-, and the
    FD oracles lose their precision at coordinates that large."""
    if params.kappa < 0.0:
        return fill * 2.0 / math.sqrt(max(-params.kappa, 1.0))
    return 1.5


def sample_domain_points(params: BcvParams, rng, n: int, z_span: float = 1.0):
    """Coordinate arrays x, y, z of n reproducible points well inside the
    domain (F >= 1 - 0.75^2 when kappa < 0).

    Draws go point by point, (rho, phi, z), through scalar math functions:
    this order and arithmetic fix the points a seed gives, and where the
    suite's later draws start."""
    rmax = domain_radius(params)
    x, y, z = np.empty((3, n))
    for i in range(n):
        rho = rmax * math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z[i] = rng.uniform(-z_span, z_span)
        x[i], y[i] = rho * math.cos(phi), rho * math.sin(phi)
    return x, y, z


def _cylinder_radii(params: BcvParams, radii=(0.5, 1.0, 2.0), floor: float = 0.1):
    """Requested cylinder radii restricted to the domain (F above floor)."""
    return [r for r in radii if ambient.smoothing_factor(params, r, 0.0) > floor]


def _scaled_ellipse(params: BcvParams):
    a = min(1.6, 0.6 * domain_radius(params, fill=1.0))
    return rot.ellipse_curve(a, 0.625 * a)


def _frame_of(params: BcvParams, x, y, V):
    """Frame components, shape (3, m) + the shape of x, of the m vectors
    V[a] given in coordinate components at the points (x, y)."""
    return np.array(ambient.frame_components(params, x, y, np.swapaxes(V, 0, 1)))


def _suite_frame(params: BcvParams, rng) -> SuiteResult:
    x, y, _ = sample_domain_points(params, rng, 100)
    f = _frame_of(params, x, y, ambient.frame_at(params, x, y))
    gram = ambient.frame_dot(f[:, :, None], f[:, None, :])
    worst = float(np.abs(gram - np.eye(3)[..., None]).max())
    return SuiteResult("frame", x.size, worst, 1e-10, worst < 1e-10)


def _suite_ricci(params: BcvParams, rng) -> SuiteResult:
    x, y, _ = sample_domain_points(params, rng, 20)
    # per point: the frame and two random vectors, in coordinate components
    V = np.concatenate([ambient.frame_at(params, x, y),
                        rng.normal(size=(x.size, 2, 3)).transpose(1, 2, 0)])
    f = _frame_of(params, x, y, V)
    closed = ambient.ricci(params, f[:, :, None], f[:, None, :])
    fd = np.einsum("ain,ijn,bjn->abn", V, ambient.ricci_tensor_fd(params, x, y), V)
    worst = float(np.abs(closed - fd).max())
    return SuiteResult("ricci", closed.size, worst, 1e-4, worst < 1e-4)


def _suite_submersion(params: BcvParams, rng) -> SuiteResult:
    x, y, _ = sample_domain_points(params, rng, 50)
    e1, e2, e3 = ambient.frame_at(params, x, y)
    a = rng.normal(size=(x.size, 2))
    H = a[:, 0] * e1 + a[:, 1] * e2
    img = ambient.hopf_dpsi(H)
    h_norm = np.sqrt(ambient.base_metric(params, x, y, img, img))
    Hf = ambient.frame_components(params, x, y, H)
    H_norm = np.sqrt(ambient.frame_dot(Hf, Hf))
    worst = max(float(np.abs(h_norm - H_norm).max()),
                float(np.abs(ambient.hopf_dpsi(e3)).max()))
    return SuiteResult("submersion", x.size, worst, 1e-8, worst < 1e-8)


def _structural_surfaces(params: BcvParams):
    surfaces = []
    for r0 in _cylinder_radii(params):
        surfaces.append((rot.hopf_cylinder(params, r0), 4, 3))
    rmax = domain_radius(params)
    r_mid = min(1.2, 0.55 * rmax)
    surfaces.append(
        (rot.generic_revolution_surface(params, r_mid=r_mid, amp=0.2 * r_mid,
                                        pitch=0.4 * r_mid), 5, 4)
    )
    curve, dcurve = _scaled_ellipse(params)
    surfaces.append((rot.hopf_tube(params, curve, dcurve), 6, 3))
    return surfaces


def _interior_grid(surface, nu, nv, margin=0.12):
    (u0, u1), (v0, v1) = surface.domain
    du, dv = u1 - u0, v1 - v0
    us = np.linspace(u0 + margin * du, u1 - margin * du, nu)
    vs = np.linspace(v0 + margin * dv, v1 - margin * dv, nv)
    return us, vs


def _structural_maxima(params: BcvParams):
    """Worst residual of each structural family over the interior grids of
    the structural surfaces, and the number of grid points.

    Each grid is one :class:`bcvgeo.immersion.Stages` evaluation, shared by
    the residuals: stage 1, one jet call over every point's normal and
    Brioschi stencils, gives the jet, Gauss and the centre shape operator
    and Christoffel symbols of Codazzi and the derivative law of T; stage 2,
    one jet call over the +-e1, +-e2 steps, serves Codazzi and the law of T
    along e2.  Codazzi and the law of T are evaluated only where the
    adapted frame is well conditioned (sin(alpha) > 0.1, |cot(alpha)| <
    10), so the later stages of a skipped point are never evaluated.
    """
    worst = {"jet": 0.0, "gauss": 0.0, "codazzi": 0.0, "compat": 0.0}
    samples = 0
    for surface, nu, nv in _structural_surfaces(params):
        U, V = np.meshgrid(*_interior_grid(surface, nu, nv), indexing="ij")
        stages = imm.Stages(surface, params, U, V)
        J = stages.centres.jet
        samples += U.size
        # |T|^2 = sin^2(alpha) and E3 = T + cos(alpha) N, in coordinate components
        T = np.array(ambient.coordinate_components(params, J.x, J.y, J.T))
        N = np.array(ambient.coordinate_components(params, J.x, J.y, J.n))
        Tf = ambient.frame_components(params, J.x, J.y, T)
        e3 = np.array([0.0, 0.0, 1.0]).reshape((3,) + (1,) * U.ndim)
        worst["jet"] = max(worst["jet"],
                           float(np.abs(ambient.frame_dot(Tf, Tf) - J.sin_alpha ** 2).max()),
                           float(np.abs(e3 - T - J.cos_alpha * N).max()))
        worst["gauss"] = max(worst["gauss"], float(np.abs(
            imm.gauss_residual(surface, params, U, V, stages)).max()))
        ok = J.sin_alpha > 0.1
        ok[ok] = np.abs(J.cos_alpha[ok] / J.sin_alpha[ok]) < 10.0
        if ok.any():
            sub = stages.at(ok)
            c1, c2 = imm.codazzi_residual(surface, params, U[ok], V[ok], sub)
            worst["codazzi"] = max(worst["codazzi"], float(np.abs(c1).max()),
                                   float(np.abs(c2).max()))
            vec, sc = imm.compatibility_residual(surface, params, U[ok], V[ok], stages=sub)
            worst["compat"] = max(worst["compat"],
                                  float(np.sqrt(np.maximum(ambient.frame_dot(vec, vec), 0.0)).max()),
                                  float(np.abs(sc).max()))
    return worst, samples


def _suite_gauss_codazzi(params: BcvParams, rng) -> SuiteResult:
    tols = {"jet": 1e-9, "gauss": 1e-4, "codazzi": 1e-3, "compat": 1e-4}
    ratios, samples = _structural_maxima(params)
    worst = max(ratios[k] / tols[k] for k in ratios)
    note = "; ".join(f"{k} {ratios[k]:.2e}/{tols[k]:.0e}" for k in ratios)
    return SuiteResult("gauss-codazzi", samples, worst, 1.0, worst < 1.0, note)


def _bitension_norms(surface, params, u, v):
    """|tangential bitension| over a whole grid of (u, v) in one call."""
    return np.linalg.norm(bic.tangential_bitension_arrays(surface, params, u, v), axis=0)


def _suite_biconservative(params: BcvParams, rng) -> SuiteResult:
    worst_tb = 0.0
    samples = 0
    radii = _cylinder_radii(params)
    for r0 in radii:
        cyl = rot.hopf_cylinder(params, r0)
        us, vs = _interior_grid(cyl, 3, 3)
        tb = _bitension_norms(cyl, params, *np.meshgrid(us, vs, indexing="ij"))
        worst_tb = max(worst_tb, float(tb.max()))
        samples += tb.size
    # one call over the radii: the reduced pair does not depend on z
    state = rot.ProfileState(0.0, np.array(radii), 0.0, math.pi / 2)
    f = rot.reduced_mean_curvature(params, state, 0.0)
    r1, r2 = rot.reduced_bicon_system(params, state, f, 0.0)
    worst_red = float(np.max(np.abs((r1, r2)), initial=0.0))
    worst = max(worst_tb / 1e-6, worst_red / 1e-8)
    note = f"cylinder bitension {worst_tb:.2e}/1e-06; reduced pair {worst_red:.2e}/1e-08"
    return SuiteResult("biconservative", samples, worst, 1.0, worst < 1.0, note)


def _suite_theorem44(params: BcvParams, rng) -> SuiteResult:
    """CMC tube stays conservative, non-CMC tube visibly is not."""
    radii = _cylinder_radii(params, radii=(1.0, 0.5))
    circle_worst = 0.0
    samples = 0
    if radii:
        cyl = rot.hopf_cylinder(params, radii[0])
        us, vs = _interior_grid(cyl, 4, 3)
        tb = _bitension_norms(cyl, params, *np.meshgrid(us, vs, indexing="ij"))
        circle_worst = float(tb.max())
        samples += tb.size
    curve, dcurve = _scaled_ellipse(params)
    tube = rot.hopf_tube(params, curve, dcurve)
    tb = _bitension_norms(tube, params, np.linspace(0.0, 2.0 * math.pi, 13), 0.1)
    ellipse_max = float(tb.max())
    samples += tb.size
    passed = circle_worst < 1e-6 and ellipse_max > 1e-3
    note = (f"circular tube {circle_worst:.2e} < 1e-06; "
            f"ellipse tube max {ellipse_max:.2e} > 1e-03")
    return SuiteResult("theorem44", samples, circle_worst / 1e-6, 1.0, passed, note)


def _random_branch_state(params: BcvParams, rng) -> rot.ProfileState:
    rmax = domain_radius(params)
    r0 = rng.uniform(0.6, min(1.6, 0.8 * rmax))
    while True:
        sigma0 = rng.uniform(0.15, math.pi - 0.15)
        if abs(math.cos(sigma0)) > 0.1:
            return rot.ProfileState(0.0, r0, 0.0, sigma0)


def _suite_theorem52(params: BcvParams, rng, runs: int = 3) -> SuiteResult:
    """The non-CMC branch never closes the system away from cylinders."""
    if params.tau == 0.0 or params.is_space_form:
        return SuiteResult("theorem52", 0, 0.0, 1.0, True,
                           "skipped: needs tau != 0 and kappa != 4 tau^2")
    worst_r2 = 0.0
    worst_window = 0.0
    min_r1 = math.inf
    samples = 0
    for _ in range(runs):
        init = _random_branch_state(params, rng)
        traj = rot.integrate_noncmc_branch(
            params, init, rot.IntegrationConfig(s_max=3.0, r_stop=0.05)
        )
        samples += len(traj)
        worst_r2 = max(worst_r2, float(np.abs(traj.column("R2")).max()))
        min_r1 = min(min_r1, float(np.abs(traj.column("R1")).max()))
        R1 = traj.column("R1")
        flips = np.where(R1[:-1] * R1[1:] < 0.0)[0]
        for i in flips:
            s_r1 = rot.refine_sign_change(params, traj, int(i), rot.branch_r1)
            s_ob = rot.refine_sign_change(params, traj, int(i),
                                          rot.theorem52_obstruction)
            worst_window = max(worst_window, abs(s_r1 - s_ob))
    worst = max(worst_r2 / 1e-10, worst_window / 1e-8)
    passed = worst < 1.0 and min_r1 > 1e-3
    note = (f"max |R2| {worst_r2:.2e} < 1e-10; min over runs of max |R1| "
            f"{min_r1:.2e} > 1e-03; zero windows {worst_window:.2e} < 1e-08")
    return SuiteResult("theorem52", samples, worst, 1.0, passed, note)


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


def run_suite(name: str, params: BcvParams, seed: int = 42) -> SuiteResult:
    for idx, (nm, fn) in enumerate(_REGISTRY):
        if nm == name:
            rng = np.random.default_rng([seed, idx])
            return fn(params, rng)
    raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")


def run_report(params: BcvParams, names=None, seed: int = 42) -> dict:
    """Run the selected suites in registry order and assemble the report
    dictionary; reports are deterministic for given flags and seed."""
    if names is None:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise KeyError(f"unknown suite {unknown[0]!r}; known: {', '.join(SUITE_NAMES)}")
    results = [run_suite(n, params, seed) for n in SUITE_NAMES if n in set(names)]
    return {
        "kappa": params.kappa,
        "tau": params.tau,
        "seed": seed,
        "suites": [r.as_dict() for r in results],
        "pass": all(r.passed for r in results),
    }
