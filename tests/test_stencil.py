"""The one finite-difference layer: exact weights, exactness on polynomials,
and bitwise agreement with the quotients it replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest
from sympy import finite_diff_weights

from bcvgeo._stencil import CROSS, NINE, WIDE, Stencil, derivative, weights

OFFSET_SETS = [
    (1, -1),
    (0, 1, -1),
    (0, 2, 1, -1, -2),
    (-2, -1, 1, 2),
    (0, 1, 2, 3),
    (3, -1, 0, 2, -4),
    (0, 1, -1, 2, -2, 3, -3),
    (5, -3),
]


@pytest.mark.parametrize("offsets", OFFSET_SETS)
def test_weights_match_fornberg(offsets):
    table = finite_diff_weights(len(offsets) - 1, list(offsets), 0)
    for m in range(len(offsets)):
        nums, den = weights(offsets, m)
        assert isinstance(den, int) and all(isinstance(w, int) for w in nums)
        assert math.gcd(den, *nums) == 1
        expect = [Fraction(int(c.p), int(c.q)) for c in table[m][-1]]
        assert [Fraction(w, den) for w in nums] == expect, (offsets, m)


@pytest.mark.parametrize("offsets", OFFSET_SETS)
def test_exact_on_polynomials_below_the_point_count(offsets):
    rng = np.random.default_rng(len(offsets))
    h = Fraction(1, 3)
    for degree in range(len(offsets)):
        coeffs = [Fraction(int(c)) for c in rng.integers(-9, 10, degree + 1)]
        values = [sum(c * (o * h) ** k for k, c in enumerate(coeffs)) for o in offsets]
        for m in range(len(offsets)):
            expect = coeffs[m] * math.factorial(m) if m <= degree else 0
            assert derivative(values, offsets, m, h) == expect, (offsets, degree, m)


def test_bad_offsets_rejected():
    with pytest.raises(ValueError):
        weights((1, 1, -1), 1)
    with pytest.raises(ValueError):
        weights((1, -1), 2)


def _random(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_stencil_matches_hand_written_quotients(seed):
    rng = np.random.default_rng(seed)
    u, v = _random(rng, (2, 4, 3))
    step = 10.0 ** rng.uniform(-5.0, -2.0)
    hu = step * np.maximum(1.0, np.abs(u))
    hv = step * np.maximum(1.0, np.abs(v))

    st = Stencil(WIDE, step, u, v)
    assert _same_bits(st.hu, hu) and _same_bits(st.hv, hv)
    assert _same_bits(st.U, np.stack([u, u + 2 * hu, u + hu, u - hu, u - 2 * hu,
                                      u, u, u, u], axis=-1))
    assert _same_bits(st.V, np.stack([v, v, v, v, v,
                                      v + 2 * hv, v + hv, v - hv, v - 2 * hv], axis=-1))
    N = _random(rng, (3,) + st.U.shape)
    assert _same_bits(st.d(N, 1, 0), (-N[..., 1] + 8.0 * N[..., 2] - 8.0 * N[..., 3]
                                      + N[..., 4]) / (12.0 * hu))
    assert _same_bits(st.d(N, 0, 1), (-N[..., 5] + 8.0 * N[..., 6] - 8.0 * N[..., 7]
                                      + N[..., 8]) / (12.0 * hv))

    st = Stencil(NINE, step, u, v)
    f = _random(rng, (2,) + st.U.shape)
    f0, fp, fm, fq, fr, fa, fb, fc, fd = np.moveaxis(f, -1, 0)
    assert _same_bits(st.d(f, 1, 0), (fp - fm) / (2.0 * hu))
    assert _same_bits(st.d(f, 0, 1), (fq - fr) / (2.0 * hv))
    assert _same_bits(st.d(f, 2, 0), (fp - 2.0 * f0 + fm) / (hu * hu))
    assert _same_bits(st.d(f, 0, 2), (fq - 2.0 * f0 + fr) / (hv * hv))
    assert _same_bits(st.d(f, 1, 1), (fa - fb - fc + fd) / (4.0 * hu * hv))

    st = Stencil(CROSS, step, u, v)
    assert _same_bits(st.U, np.stack([u, u + hu, u - hu, u, u], axis=-1))
    assert _same_bits(st.d(f[..., :5], 1, 0), (fp - fm) / (2.0 * hu))

    # the 1-D cases: a directional central difference and the f' check
    t = _random(rng, u.shape) ** 2
    assert _same_bits(derivative((fp, fm), (1, -1), 1, t), (fp - fm) / (2.0 * t))
    g = _random(rng, 50)
    n = len(g)
    assert _same_bits(derivative([g[2 + o:n - 2 + o] for o in (-2, -1, 1, 2)], (-2, -1, 1, 2),
                                 1, step),
                      (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * step))


def test_centre_keeps_a_negative_zero():
    st = Stencil(CROSS, 1e-3, -0.0, 0.0)
    assert math.copysign(1.0, st.U[0]) == -1.0 and math.copysign(1.0, st.V[0]) == 1.0
    assert st.U.shape == (5,) and st.hu.shape == ()
