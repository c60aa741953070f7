"""The cubic splines behind `mesh revolution` and `mesh hopf-tube`: exact on
cubics, C2 across a periodic seam, equal to scipy's splines, a slope solve
bit-equal to the array recursion it replaced, and stacked columns each
bit-equal to its own spline."""

import numpy as np
import pytest

from bcvgeo import _spline
from bcvgeo._spline import CubicSpline


def reference_solve(lower, diag, upper, rhs):
    """The Thomas recursion on numpy float64 scalars, element by element,
    as the slopes were solved before the solve moved to Python floats."""
    n = len(diag)
    c = np.empty(n)
    d = np.empty(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        m = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / m if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / m
    s = np.empty(n)
    s[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        s[i] = d[i] - c[i] * s[i + 1]
    return s


def knots(n, seed=0):
    """n strictly increasing, unevenly spaced abscissae in [0, 1]."""
    dx = np.random.default_rng(seed).uniform(0.5, 1.5, n - 1)
    return np.concatenate(([0.0], np.cumsum(dx) / dx.sum()))


def periodic_values(x):
    y = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    y[-1] = y[0]
    return y


def second_derivative_at_seam(sp):
    """y'' at the start of the first piece and at the end of the last."""
    c0, c1 = sp.c[0], sp.c[1]
    h = sp.x[-1] - sp.x[-2]
    return 2.0 * c1[0], 2.0 * c1[-1] + 6.0 * c0[-1] * h


class TestNotAKnot:
    @pytest.mark.parametrize("n", [4, 5, 17, 200])
    def test_reproduces_a_cubic(self, n):
        x = 0.3 + 2.0 * knots(n, seed=n)
        cubic = np.polynomial.Polynomial([0.7, -1.2, 0.4, 2.5])
        sp = CubicSpline(x, cubic(x))
        t = np.linspace(x[0], x[-1], 301)
        scale = np.abs(cubic(t)).max()
        assert np.abs(sp(t) - cubic(t)).max() < 1e-13 * scale
        slope_scale = np.abs(cubic.deriv()(t)).max()
        assert np.abs(sp(t, 1) - cubic.deriv()(t)).max() < 1e-12 * slope_scale

    def test_interpolates_its_knots(self):
        x = knots(40, seed=3)
        y = np.exp(x) * np.cos(5 * x)
        assert np.abs(CubicSpline(x, y)(x) - y).max() < 1e-15 * np.abs(y).max()


class TestPeriodic:
    @pytest.mark.parametrize("n", [5, 12, 65])
    def test_c2_across_the_seam(self, n):
        x = knots(n, seed=n)
        y = periodic_values(x)
        sp = CubicSpline(x, y, periodic=True)
        end = x[-1] - x[-2]
        c0, c1, c2, c3 = sp.c[:, -1]
        # value and slope at the end of the last piece against the first
        assert abs(c3 + c2 * end + c1 * end ** 2 + c0 * end ** 3 - y[0]) < 1e-14
        assert abs(c2 + 2 * c1 * end + 3 * c0 * end ** 2 - sp(x[0], 1)) < 1e-12
        first, last = second_derivative_at_seam(sp)
        assert abs(first - last) < 1e-12 * abs(first)

    def test_wraps_into_the_period(self):
        x = knots(20, seed=7)
        sp = CubicSpline(x, periodic_values(x), periodic=True)
        t = np.linspace(0.05, 0.95, 7)
        assert np.abs(sp(t + 1.0) - sp(t)).max() < 1e-14
        assert np.abs(sp(t - 2.0, 1) - sp(t, 1)).max() < 1e-12


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [5, 33, 400])
def test_agrees_with_scipy(periodic, n):
    interpolate = pytest.importorskip("scipy.interpolate")
    x = knots(n, seed=n)
    y = periodic_values(x) if periodic else np.exp(x) * np.cos(5 * x)
    ours = CubicSpline(x, y, periodic=periodic)
    theirs = interpolate.CubicSpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
    t = np.linspace(x[0], x[-1], 997)
    for nu in (0, 1):
        want = theirs(t, nu)
        assert np.abs(ours(t, nu) - want).max() <= 1e-12 * np.abs(want).max(), nu


class TestSolveTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1001])
    def test_bit_equal_to_the_scalar_loop(self, n):
        rng = np.random.default_rng(n)
        lower, upper, rhs = rng.uniform(-1.0, 1.0, (3, n))
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        got = _spline._solve_tridiagonal(lower, diag, upper, rhs)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == reference_solve(lower, diag, upper, rhs).tobytes()

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 2)])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_spline_coefficients_bit_equal(self, periodic, lead, monkeypatch):
        """Each column of a spline of stacked columns, y of shape lead + (n,),
        has the coefficients and the values, nu = 0 and 1, of its own
        spline to the bit; and those coefficients are bit-equal to the ones
        the array recursion gives."""
        x = knots(300, seed=11)
        y = periodic_values(x) if periodic else np.sinh(x) - x ** 2
        columns = [(1.0 + j / 3.0) * y + j for j in range(int(np.prod(lead)))]
        sp = CubicSpline(x, np.reshape(columns, lead + x.shape), periodic=periodic)
        assert sp.c.shape == (4,) + lead + (len(x) - 1,)
        t = np.linspace(-0.2, 1.2, 57)      # extrapolated or wrapped at both ends
        assert sp(0.3).shape == lead and sp(t, 1).shape == lead + t.shape
        got = [CubicSpline(x, y_j, periodic=periodic) for y_j in columns]
        for index, own in zip(np.ndindex(lead), got):
            assert sp.c[(slice(None),) + index].tobytes() == own.c.tobytes(), index
            for nu in (0, 1):
                assert sp(t, nu)[index].tobytes() == own(t, nu).tobytes(), (index, nu)
        monkeypatch.setattr(_spline, "_solve_tridiagonal", reference_solve)
        for y_j, own in zip(columns, got):
            assert own.c.tobytes() == CubicSpline(x, y_j, periodic=periodic).c.tobytes()


@pytest.mark.parametrize("x, y, message", [
    (np.arange(5.0), np.zeros((2, 4)), "at least 4 points"),       # y shorter than x
    (np.arange(5.0), np.zeros((5, 2)), "at least 4 points"),       # knots on the first axis
    (np.arange(3.0), np.zeros((2, 3)), "at least 4 points"),
    (np.arange(5.0), np.zeros(()), "at least 4 points"),
    (np.arange(5.0), [[0.0] * 5, [0.0, 1.0, np.nan, 3.0, 4.0]], "finite"),
    ([0.0, 1.0, np.inf, 3.0, 4.0], np.zeros((2, 5)), "finite"),
    ([0.0, 1.0, 1.0, 2.0, 3.0], np.zeros((2, 5)), "strictly increasing"),
])
def test_stacked_input_is_checked(x, y, message):
    with pytest.raises(ValueError, match=message):
        CubicSpline(x, y)
