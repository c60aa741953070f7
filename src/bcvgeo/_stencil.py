"""Finite-difference stencils, written once.

`weights(offsets, m)` gives the exact m-th derivative weights at 0 on integer
offsets: the m-th derivatives of the Lagrange basis polynomials in
`fractions.Fraction`, the numbers of Fornberg's recursion (Math. Comp. 51,
1988), as integer numerators over one denominator.  Applying them runs the
IEEE operations of a quotient written by hand: terms are added in the listed
order, a weight of +-1 adds or subtracts the value itself, zero weights are
skipped, and the divisor den * h * ... * h is built by repeated multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# point sets (du, dv) in units of (hu, hv); the centre comes first
CROSS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
NINE = CROSS + ((1, 1), (1, -1), (-1, 1), (-1, -1))
WIDE = ((0, 0), (2, 0), (1, 0), (-1, 0), (-2, 0), (0, 2), (0, 1), (0, -1), (0, -2))


@lru_cache(maxsize=None)
def weights(offsets: tuple, m: int):
    """(numerators, denominator) of the m-th derivative weights at 0 on the
    distinct integer `offsets`, exact for polynomials of degree < len(offsets)."""
    if len(set(offsets)) != len(offsets) or not 0 <= m < len(offsets):
        raise ValueError(f"no order-{m} weights on offsets {offsets}")
    exact = []
    for j, xj in enumerate(offsets):
        poly = [Fraction(1)]   # the basis polynomial of xj, lowest degree first
        for xk in offsets[:j] + offsets[j + 1:]:
            poly = [(lo - xk * hi) / (xj - xk) for lo, hi in zip([0] + poly, poly + [0])]
        exact.append(poly[m] * math.factorial(m))
    den = math.lcm(*(w.denominator for w in exact))
    return tuple(int(w * den) for w in exact), den


def _combine(values, nums, den, steps):
    """sum(num * value) in the listed order, skipping zero weights, over
    den * steps[0] * steps[1] * ..."""
    acc = None
    for w, x in zip(nums, values):
        if w:
            term = x if abs(w) == 1 else abs(w) * x
            acc = (-term if w < 0 else term) if acc is None else \
                (acc - term if w < 0 else acc + term)
    for h in steps:
        den = den * h
    return acc / den


def derivative(values, offsets, m: int, h):
    """m-th derivative at 0 from values[i] at offsets[i] * h."""
    return _combine(values, *weights(tuple(offsets), m), (h,) * m)


@lru_cache(maxsize=None)
def _plan(points, mu, mv):
    """(point indices, integer weights, denominator) of d^(mu+mv) / du^mu dv^mv:
    the points on the axis line, or for a mixed one the off-axis points with
    products of the 1-D weights."""
    if not (mu and mv):
        axis = 0 if mu else 1
        idx = tuple(i for i, p in enumerate(points) if not p[1 - axis])
        return (idx,) + weights(tuple(points[i][axis] for i in idx), mu + mv)
    idx = tuple(i for i, (a, b) in enumerate(points) if a and b)
    us, vs = (tuple(sorted({points[i][k] for i in idx})) for k in (0, 1))
    (wu, du), (wv, dv) = weights(us, mu), weights(vs, mv)
    nums = tuple(wu[us.index(points[i][0])] * wv[vs.index(points[i][1])] for i in idx)
    return idx, nums, du * dv


@lru_cache(maxsize=None)
def _negated(points):
    """Rows -du and -dv of `points`, as floats with 0.0 (not -0.0) for 0."""
    return 0.0 - np.array(points, dtype=float).T


class Stencil:
    """The point set `points` around centres (u, v) broadcast to one shape P,
    with steps hu = step max(1, |u|) and hv likewise, of shape P; `U` and `V`
    have shape P + (len(points),)."""

    def __init__(self, points, step: float, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        self.points = points
        self.hu = step * np.maximum(1.0, np.abs(u))
        self.hv = step * np.maximum(1.0, np.abs(v))
        # u - h (-du) is u + du h bit for bit and keeps a centre of -0.0
        neg_u, neg_v = _negated(points)
        self.U = u[..., None] - self.hu[..., None] * neg_u
        self.V = v[..., None] - self.hv[..., None] * neg_v

    def d(self, vals, mu: int, mv: int):
        """d^(mu+mv) / du^mu dv^mv at the centres from values of shape
        Q + U.shape, so along the last axis; returns shape Q + P."""
        idx, nums, den = _plan(self.points, mu, mv)
        return _combine([vals[..., i] for i in idx], nums, den, (self.hu,) * mu + (self.hv,) * mv)
