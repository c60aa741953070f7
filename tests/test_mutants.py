"""`verify` must catch a broken structural formula.

Each case rewrites one term of one residual formula in the source of its
function, puts the rewritten function in place with `monkeypatch`, and
asserts that `suites.run_report` fails, through the `gauss-codazzi` suite,
at exactly the pairs of PAIRS7 where the term is not zero: off the space
forms for a factor kappa - 4 tau^2, and where tau != 0 for a factor tau.
The control case, with no rewrite, passes at all seven.

Two cases rewrite an entry of the inverse metric in `ambient`, which every
Christoffel symbol reads.  Dropping the (a^2 + b^2) F^2 term of g^zz is an
equivalent mutant at kappa = 0: the Koszul terms it multiplies,
d_x g_yz + d_y g_xz and d_x g_xz, d_y g_yz, all vanish there.

The branch cases rewrite one term of the reduced system or of Theorem
5.2's obstruction in `rotation`, and `verify --suite theorem52` must fail,
through its per-row factored identity, at exactly the branch pairs of
PAIRS7 (tau != 0 off the space forms) where the term is not zero.

The march cases rewrite `_march.c`'s recorded sin and cos columns, which
the residual pass reads in place of the trigonometry of sigma, or its stop
rule, which the trajectory checks on the s column.  Each is
built with `_kernels.build_march` into a temporary cache and put in place
of the compiled march; `verify --suite theorem52` must fail, through a
failed check or a numeric failure (exit 3), at exactly the branch pairs.
Built from the unrewritten source, the same path passes at all seven.

A rewrite of the bisection's width test would loop for ever; its cap
turns that into an error.
"""

import inspect
import textwrap

import numpy as np
import pytest

from bcvgeo import _kernels, ambient, immersion, rotation
from bcvgeo.ambient import BcvParams
from bcvgeo.errors import BcvError, SelfConsistencyError
from bcvgeo.suites import run_report
from conftest import PAIRS7


def twisted(P):
    return P.kappa != 4.0 * P.tau ** 2


def tau_nonzero(P):
    return P.tau != 0.0


# (module, function, term as written, its replacement, where the term is not zero)
MUTANTS = {
    "codazzi-2: drop (4 tau^2 - kappa) cos a sin a": (
        immersion, "codazzi_residual",
        "e1_lam - e2_e2a - (4.0 * tau * tau - k) * sh.jet.cos_alpha * sh.jet.sin_alpha)",
        "e1_lam - e2_e2a)", twisted),
    "gauss: drop (kappa - 4 tau^2) cos^2 a": (
        immersion, "gauss_residual", " - (k - 4.0 * t * t) * sh.jet.cos_alpha ** 2", "",
        twisted),
    "law of T: drop tau J W": (
        immersion, "compatibility_residual",
        " - params.tau * np.array(frame_cross(jet.n, frame))", "", tau_nonzero),
    "codazzi-1: flip the sign of 2 tau": (
        immersion, "codazzi_residual", "cot * e1a * (e2a - 2.0 * tau)",
        "cot * e1a * (e2a + 2.0 * tau)", tau_nonzero),
    "g^-1: flip the sign of -a F^2": (
        ambient, "_inverse_metric", "-a * F2", "a * F2", tau_nonzero),
    "g^zz: drop (a^2 + b^2) F^2": (
        ambient, "_inverse_metric", "1.0 + (a * a + b * b) * F2", "1.0",
        lambda P: tau_nonzero(P) and P.kappa != 0.0),
}


def branch(P):
    return tau_nonzero(P) and twisted(P)


# (function of rotation, term as written, its replacement, where the suite fails)
BRANCH_MUTANTS = {
    "obstruction: leading 3": (
        "_obstruction", "return 2.0 * (4.0 * t2", "return 3.0 * (4.0 * t2", branch),
    "obstruction: 2 tau^2 r^2": ("_obstruction", "t2 * r * r", "2.0 * t2 * r * r", branch),
    "R1: 3 f (4 tau^2 - kappa)": (
        "reduced_bicon_system", "- 2.0 * f * (4.0 * t * t", "- 3.0 * f * (4.0 * t * t", branch),
    "R1: 1 (cos a)'": ("reduced_bicon_system", "- 2.0 * cos_a_p", "- 1.0 * cos_a_p", branch),
    "parallel term: kappa r / 2": (
        "_parallel_term", "0.25 * params.kappa", "0.5 * params.kappa",
        lambda P: branch(P) and P.kappa != 0.0),
}


# (term of _march.c as written, its replacement, where the suite fails)
MARCH_MUTANTS = {
    "control: no rewrite": ("", "", lambda P: False),
    "recorded row: sin and cos swapped": (
        "row[4] = sin1;\n        row[5] = cos1;", "row[4] = cos1;\n        row[5] = sin1;",
        branch),
    "recorded sin at stage 2's angle": (
        "row[4] = sin1;", "row[4] = sin(sig + half * (sin1 * (kq * r - 1.0 / (3.0 * r))));",
        branch),
    "stop rule: half = 0.5 / step": (
        "const double half = 0.5 * step;", "const double half = 0.5 / step;", branch),
    "stop rule: s_last = s_max + half": (
        "const double s_last = s_max - half;", "const double s_last = s_max + half;", branch),
    "stop rule: s falls": ("s = s + step;", "s = s - step;", branch),
}


def install_mutant(monkeypatch, name, term, replacement, module=immersion):
    """Replace module.<name> by its source with `term` rewritten."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(term) == 1, f"{term!r} not found once in {name}"
    namespace = {}
    exec(compile(source.replace(term, replacement), f"<mutant of {name}>", "exec"),
         vars(module), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def failing_pairs():
    """The pairs of PAIRS7 where run_report fails, checking that the
    gauss-codazzi suite is among the failed suites there."""
    failed = []
    for params in PAIRS7:
        report = run_report(params)
        if not report["pass"]:
            suites = {s["name"]: s["pass"] for s in report["suites"]}
            assert suites["gauss-codazzi"] is False, (params, suites)
            failed.append(params)
    return failed


def test_unmutated_formulas_pass_everywhere():
    assert failing_pairs() == []


@pytest.mark.parametrize("case", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, case):
    module, name, term, replacement, term_nonzero = MUTANTS[case]
    install_mutant(monkeypatch, name, term, replacement, module=module)
    assert failing_pairs() == [P for P in PAIRS7 if term_nonzero(P)], case


@pytest.mark.parametrize("case", sorted(BRANCH_MUTANTS))
def test_branch_mutant_is_killed_by_theorem52(monkeypatch, case):
    name, term, replacement, term_nonzero = BRANCH_MUTANTS[case]
    install_mutant(monkeypatch, name, term, replacement, module=rotation)
    failed = [P for P in PAIRS7 if not run_report(P, ["theorem52"])["pass"]]
    assert failed == [P for P in PAIRS7 if term_nonzero(P)], case


def theorem52_fails(params):
    """Whether `verify --suite theorem52` fails at `params`: a failed check
    (exit 1) or a numeric failure (exit 3)."""
    try:
        return not run_report(params, ["theorem52"])["pass"]
    except BcvError:
        return True


@pytest.mark.parametrize("case", sorted(MARCH_MUTANTS))
def test_march_mutant_is_killed_by_theorem52(monkeypatch, tmp_path, case):
    term, replacement, fails_at = MARCH_MUTANTS[case]
    source = _kernels._SOURCE.read_text(encoding="ascii")
    assert not term or source.count(term) == 1, f"{term!r} not found once in _march.c"
    march = _kernels.build_march(source.replace(term, replacement).encode("ascii"), tmp_path)
    if march is None:
        pytest.skip("no C compiler could build _march.c here")
    monkeypatch.setattr(_kernels, "_compiled_march", lambda: march)
    failed = [P for P in PAIRS7 if theorem52_fails(P)]
    assert failed == [P for P in PAIRS7 if fails_at(P)], case


def test_bisection_that_never_narrows_is_capped(monkeypatch):
    # hi + lo stays above the tolerance, so without the cap this never returns
    install_mutant(monkeypatch, "refine_sign_change", "while hi - lo > BISECTION_TOL",
                   "while hi + lo > BISECTION_TOL", module=rotation)
    P = BcvParams(1.0, 1.0)
    traj = rotation.integrate_noncmc_branch(P, rotation.ProfileState(0.0, 0.9, 0.0, 1.2),
                                            rotation.IntegrationConfig(s_max=4.0))
    i = int(np.flatnonzero(traj.R1[:-1] * traj.R1[1:] < 0.0)[0])
    with pytest.raises(SelfConsistencyError, match=rf"bisection in step {i} .* after 34 halvings"):
        rotation.refine_sign_change(P, traj, i, lambda p, st: rotation.branch_residuals(p, st)[2])
