"""Symbolic certificates for the non-CMC rotational branch.

Along the branch f = 2 sin(sigma) / (3 r), driven by

    r' = F cos(sigma),   sigma' = sin(sigma) (kappa r / 4 - 1 / (3 r)),

sympy proves the identities that the numerical suites only sample: the
closed form of f', R2 = 0, R1 as a fixed multiple of the theorem 5.2
obstruction, and the first integral I = sin(sigma) r^(1/3) F^(-2/3).  The
reduced system is written here from its formulas, not from the code, and
the code's helpers are then compared with it at a few states.  sympy is a
test dependency only: no bcvgeo module imports it.
"""

import ast
import pathlib

import pytest

from bcvgeo.ambient import BcvParams
from bcvgeo.rotation import ProfileState, branch_f_prime, branch_r1, theorem52_obstruction

sp = pytest.importorskip("sympy")

r = sp.symbols("r", positive=True)
kappa, tau, sigma = sp.symbols("kappa tau sigma", real=True)
F = 1 + kappa * r ** 2 / 4
q = sp.sqrt(1 + tau ** 2 * r ** 2)
R_PRIME = F * sp.cos(sigma)
SIGMA_PRIME = sp.sin(sigma) * (kappa * r / 4 - 1 / (3 * r))
F_BRANCH = 2 * sp.sin(sigma) / (3 * r)


def along_flow(expr):
    """Arclength derivative of expr(r, sigma) along the branch flow."""
    return sp.diff(expr, r) * R_PRIME + sp.diff(expr, sigma) * SIGMA_PRIME


def residual_pair():
    """(R1, R2) of the reduced system at the branch's f and f'."""
    f, fp = F_BRANCH, along_flow(F_BRANCH)
    b, d = sp.sin(sigma) / q, tau * r / q
    cos_a = sp.cos(sigma) / q
    r1 = (fp * (b * f - 2 * tau * d - 2 * along_flow(cos_a))
          - 2 * f * (4 * tau ** 2 - kappa) * cos_a * (1 - cos_a ** 2))
    r2 = fp * (3 * d * f - 2 * tau * b)
    return r1, r2


def obstruction():
    return ((kappa - 4 * tau ** 2) * F_BRANCH * (sp.cos(2 * sigma) - 1 - 2 * tau ** 2 * r ** 2)
            * sp.cos(sigma))


def is_zero(expr):
    return sp.simplify(sp.expand_trig(expr)) == 0


def test_f_prime_closed_form():
    assert is_zero(along_flow(F_BRANCH) + 4 * sp.sin(2 * sigma) / (9 * r ** 2))


def test_second_residual_vanishes():
    assert is_zero(residual_pair()[1])


def test_first_residual_is_a_multiple_of_the_obstruction():
    r1 = residual_pair()[0]
    assert is_zero(r1 + 2 / (3 * q ** 3) * obstruction())


def test_first_integral_is_conserved():
    invariant = sp.sin(sigma) * r ** sp.Rational(1, 3) * F ** sp.Rational(-2, 3)
    assert is_zero(along_flow(invariant) / invariant)


@pytest.mark.parametrize("k,t,r0,s0", [(1.0, 1.0, 0.9, 1.2), (-1.0, 0.5, 1.3, 2.5),
                                       (0.0, 0.5, 0.7, -0.4)])
def test_code_evaluates_the_certified_formulas(k, t, r0, s0):
    at = {kappa: k, tau: t, r: r0, sigma: s0}
    state = ProfileState(0.0, r0, 0.0, s0)
    params = BcvParams(k, t)
    for code, expr in ((branch_f_prime(state), along_flow(F_BRANCH)),
                       (branch_r1(params, state), residual_pair()[0]),
                       (theorem52_obstruction(params, state), obstruction())):
        assert code == pytest.approx(float(expr.subs(at)), rel=1e-12, abs=1e-14)


def test_no_runtime_module_imports_sympy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "bcvgeo"
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.partition(".")[0] == "sympy" for n in names), path.name
