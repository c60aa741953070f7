"""Numerical geometry of the Bianchi-Cartan-Vranceanu homogeneous 3-spaces.

Layers:

- :mod:`bcvgeo.ambient`        metric, frame, FD connection, curvature,
                               classification, vertical fibration
- :mod:`bcvgeo.immersion`      parametric surfaces, jets, shape operator,
                               structural identity residuals
- :mod:`bcvgeo.biconservative` conservation residuals of the bienergy
                               stress and the constant-angle machinery
- :mod:`bcvgeo.rotation`       orbit-space reduction, profile ODE branch,
                               surface constructors
- :mod:`bcvgeo.suites`         named verification suites
- :mod:`bcvgeo.cli`            `bcvgeo verify | integrate | mesh`
"""

from .ambient import (
    BcvParams,
    GeometryClass,
    AmbientPoint,
    TangentVector,
    classify_space,
    smoothing_factor,
)
from .errors import BcvError, DegenerateSurfaceError, DomainError, SelfConsistencyError
from .immersion import FdConfig, ParametricSurface
from .rotation import (
    BranchTrajectory,
    IntegrationConfig,
    ProfileState,
    ReducedCoefficients,
    hopf_cylinder,
    hopf_tube,
    integrate_noncmc_branch,
    revolution_surface,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BcvParams",
    "GeometryClass",
    "AmbientPoint",
    "TangentVector",
    "classify_space",
    "smoothing_factor",
    "BcvError",
    "DomainError",
    "DegenerateSurfaceError",
    "SelfConsistencyError",
    "FdConfig",
    "ParametricSurface",
    "ProfileState",
    "ReducedCoefficients",
    "IntegrationConfig",
    "BranchTrajectory",
    "hopf_cylinder",
    "hopf_tube",
    "revolution_surface",
    "integrate_noncmc_branch",
]
