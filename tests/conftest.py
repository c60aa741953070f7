"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

from bcvgeo import _kernels
from bcvgeo.ambient import BcvParams, frame_components, frame_dot
from bcvgeo.biconservative import tangential_bitension
from bcvgeo.immersion import ParametricSurface, Stages, surface_jets

# parameter pairs exercised throughout: flat, product spaces, twisted models
PAIRS6 = [
    BcvParams(0.0, 0.0),
    BcvParams(1.0, 0.0),
    BcvParams(-1.0, 0.0),
    BcvParams(0.0, 0.5),
    BcvParams(1.0, 0.5),
    BcvParams(4.0, 1.0),
]

# one pair per GeometryClass
PAIRS7 = [BcvParams(0.0, 0.0), BcvParams(4.0, 1.0), BcvParams(1.0, 0.0), BcvParams(-1.0, 0.0),
          BcvParams(1.0, 1.0), BcvParams(-1.0, 0.5), BcvParams(0.0, 0.5)]

# non-space-form pairs that admit vertical cylinders of radius 0.5, 1 and 2
CYLINDER_PAIRS = [
    BcvParams(1.0, 0.0),
    BcvParams(0.0, 0.5),
    BcvParams(1.0, 1.0),
]


def make_rng(seed=42):
    return np.random.default_rng(seed)


def frame_norm(a):
    """Metric norm of a vector given in frame components."""
    return float(np.sqrt(frame_dot(a, a)))


def frame_of(params, x, y, V):
    """Frame components, shape (3, m) + the shape of x, of the m vectors
    V[a] given in coordinate components at the points (x, y)."""
    return np.array(frame_components(params, x, y, np.swapaxes(V, 0, 1)))


def adapted_components(S, params, u, v):
    """(g(tb, e1), g(tb, e2)) of the tangential bitension tb at (u, v)."""
    jet = surface_jets(S, params, u, v)
    tb = tangential_bitension(Stages(S, params, u, v))
    return frame_dot(tb, jet.T / jet.sin_alpha), frame_dot(tb, jet.JT / jet.sin_alpha)


def flat_plane():
    """z = 0 plane with the identity chart."""
    return ParametricSurface(
        lambda u, v: (u, v, 0.0),
        ((-1.0, 1.0), (-1.0, 1.0)),
        partials=lambda u, v: ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        name="flat-plane",
    )


def kinked_plane():
    """Plane chart whose v-partial vanishes for u >= 0.5, so the jet is
    degenerate there."""
    return ParametricSurface(
        lambda u, v: (u, v * (u < 0.5), 0.0), ((0.0, 1.0), (0.0, 1.0)),
        partials=lambda u, v: ((1.0, 0.0, 0.0), (0.0, 1.0 * (u < 0.5), 0.0)),
        name="kinked-plane",
    )


def sphere_surface(radius=1.0):
    """Round sphere in the flat ambient space; the chart's orientation puts
    N inward, so the mean curvature comes out +2/R."""
    R = radius

    def chart(u, v):
        return (R * np.sin(u) * np.cos(v),
                R * np.sin(u) * np.sin(v),
                R * np.cos(u))

    def partials(u, v):
        xu = (R * np.cos(u) * np.cos(v),
              R * np.cos(u) * np.sin(v),
              -R * np.sin(u))
        xv = (-R * np.sin(u) * np.sin(v),
              R * np.sin(u) * np.cos(v),
              0.0)
        return xu, xv

    return ParametricSurface(chart, ((0.3, math.pi - 0.3), (0.0, 2 * math.pi)),
                             partials=partials, name="sphere")


@pytest.fixture
def rng():
    return make_rng()


@pytest.fixture(params=["compiled", "python"])
def march(request, monkeypatch):
    """Runs a test with the compiled march, then with the Python one that
    serves where no library can be built."""
    if request.param == "python":
        monkeypatch.setattr(_kernels, "_compiled_march", lambda: None)
    elif _kernels._compiled_march() is None:
        pytest.skip("no C compiler could build _march.c here")
    return request.param
