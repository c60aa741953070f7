"""Cubic interpolating splines on numpy alone.

C2 piecewise cubics through tabulated points (x_i, y_i), with not-a-knot
ends or, for closed curves, periodic ends; the same splines as
scipy.interpolate.CubicSpline with bc_type "not-a-knot" or "periodic".  The
slopes at the knots come from one tridiagonal solve (two for periodic
ends), a Thomas recursion on Python floats that is bit-equal to the same
recursion on numpy arrays.  Importing scipy.interpolate would cost about
50 MB of resident memory, for the two spline-backed charts of the `mesh`
command alone.
"""

from __future__ import annotations

import numpy as np


def _solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas algorithm: row i reads lower[i] s[i-1] + diag[i] s[i] +
    upper[i] s[i+1] = rhs[i] (lower[0] and upper[-1] unused), one solve for
    each column of rhs, shape (..., n), over the one matrix.  The spline
    systems are diagonally dominant, so no pivoting is needed.

    The recursion runs on Python floats, lists in and one array out: each
    step rounds as it would on numpy float64 scalars, so the slopes are
    bit-equal to the same loop over arrays, at a third of its cost."""
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    n = len(diag)
    # the elimination of the matrix: pivots m and multipliers c
    m = [diag[0]] * n
    c = [0.0] * n
    c[0] = upper[0] / diag[0]
    for i in range(1, n):
        m[i] = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / m[i] if i < n - 1 else 0.0
    solved = []
    for d in np.reshape(rhs, (-1, n)).tolist():
        d[0] /= m[0]
        for i in range(1, n):
            d[i] = (d[i] - lower[i] * d[i - 1]) / m[i]
        # back substitution in place: d becomes the solution
        for i in range(n - 2, -1, -1):
            d[i] -= c[i] * d[i + 1]
        solved.append(d)
    return np.reshape(solved, np.shape(rhs))


class CubicSpline:
    """Interpolating cubic spline of (x, y), x strictly increasing, n >= 4.

    y has shape (..., n): every column of its leading axes is interpolated
    over the one abscissa x, and the splines share the interval search.
    Called with t (float or array) and the derivative order nu in {0, 1},
    it returns shape (...) + t.shape.  Outside [x_0, x_n] it extrapolates
    the end pieces or, when periodic, wraps t into the period; a periodic
    spline treats y_n as y_0.
    """

    def __init__(self, x, y, periodic: bool = False):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or y.shape[-1:] != x.shape or len(x) < 4:
            raise ValueError("need 1-d x, y of shape (..., len(x)) and at least 4 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline points must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("spline abscissae must be strictly increasing")
        slope = np.diff(y) / dx
        # knot i in 1..n-2: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i]
        #                   + dx[i-1] s[i+1] = 3 (dx[i] slope[i-1] + dx[i-1] slope[i])
        lower = np.concatenate(([0.0], dx[1:], [0.0]))
        diag = np.concatenate(([0.0], 2.0 * (dx[:-1] + dx[1:]), [0.0]))
        upper = np.concatenate(([0.0], dx[:-1], [0.0]))
        rhs = np.zeros(y.shape)
        rhs[..., 1:-1] = 3.0 * (dx[1:] * slope[..., :-1] + dx[:-1] * slope[..., 1:])
        if periodic:
            s = self._periodic_slopes(dx, slope, lower, diag, upper, rhs)
        else:
            # not-a-knot: the third derivative is continuous at x_1 and x_{n-2}
            d = x[2] - x[0]
            diag[0], upper[0] = dx[1], d
            rhs[..., 0] = ((dx[0] + 2.0 * d) * dx[1] * slope[..., 0] + dx[0] ** 2 * slope[..., 1]) / d
            d = x[-1] - x[-3]
            diag[-1], lower[-1] = dx[-2], d
            rhs[..., -1] = (dx[-1] ** 2 * slope[..., -2]
                            + (2.0 * d + dx[-1]) * dx[-2] * slope[..., -1]) / d
            s = _solve_tridiagonal(lower, diag, upper, rhs)
        # Hermite form on each piece: y_i + c2 t + c1 t^2 + c0 t^3
        t = (s[..., :-1] + s[..., 1:] - 2.0 * slope) / dx
        self.c = np.array([t / dx, (slope - s[..., :-1]) / dx - t, s[..., :-1], y[..., :-1]])
        self.x = x
        self.periodic = periodic

    @staticmethod
    def _periodic_slopes(dx, slope, lower, diag, upper, rhs):
        """Slopes with s_{n-1} = s_0: the cyclic system of knots 0..n-2,
        reduced to two tridiagonal solves of knots 0..n-3 (the last
        unknown enters through the corners).  The second solve does not
        depend on y, so every column shares it."""
        diag[0] = 2.0 * (dx[-1] + dx[0])
        upper[0] = dx[-1]
        rhs[..., 0] = 3.0 * (dx[0] * slope[..., -1] + dx[-1] * slope[..., 0])
        m = len(dx) - 1          # knots 0..n-3 of the reduced system
        tri = lower[:m], diag[:m], upper[:m]
        b2 = np.zeros(m)
        b2[0], b2[-1] = -dx[0], -dx[-3]
        s1 = _solve_tridiagonal(*tri, rhs[..., :m])
        s2 = _solve_tridiagonal(*tri, b2)
        # the row of knot n-2
        last_rhs = 3.0 * (dx[-1] * slope[..., -2] + dx[-2] * slope[..., -1])
        s_last = ((last_rhs - dx[-2] * s1[..., 0] - dx[-1] * s1[..., -1])
                  / (2.0 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
        s = np.empty(rhs.shape)
        s[..., :-2] = s1 + s_last[..., None] * s2
        s[..., -2] = s_last
        s[..., -1] = s[..., 0]
        return s

    def __call__(self, t, nu: int = 0):
        t = np.asarray(t, dtype=float)
        x = self.x
        if self.periodic:
            t = x[0] + (t - x[0]) % (x[-1] - x[0])
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        h = t - x[i]
        c0, c1, c2, c3 = self.c[..., i]
        if nu == 0:
            return c3 + c2 * h + c1 * (h * h) + c0 * (h * h * h)
        if nu == 1:
            return c2 + c1 * h * 2.0 + c0 * (h * h) * 3.0
        raise ValueError("nu must be 0 or 1")
