"""Numerical verification laboratory for quarter-symmetric connections on
almost Hermitian manifolds in explicit coordinate charts.

The package computes six curvature tensors of the connection
nabla^1_X Y = nabla^g_X Y - pi(X) A Y, their traces and generator-invariant
combinations, and checks every identity of the theory as a numerical
residual at sampled chart points.
"""

from .diff import DiffConfig, DomainError
from .geometry import (
    ManifoldSpec,
    TensorField,
    generator,
    manifold_by_name,
    sample_points,
)
from .connections import (
    GeneratorJets,
    PointJets,
    covariant_derivative,
    generator_jets,
    levi_civita,
    point_jets,
    quarter_symmetric,
    torsion,
)
from .curvature import CurvatureBundle, curvature_bundle, riemann_g
from .invariants import (
    EXPECTED_FAIL_FLOOR,
    IDENTITY_CATALOG,
    IdentityRows,
    h_tensor,
    hol_projective,
    hybrid_defect,
    identity_suite,
    weyl_projective,
)
from .tensor import NumericError, SingularMetricError, Tensor, norm_max

__version__ = "0.1.0"

__all__ = [
    "CurvatureBundle",
    "DiffConfig",
    "DomainError",
    "EXPECTED_FAIL_FLOOR",
    "GeneratorJets",
    "IDENTITY_CATALOG",
    "IdentityRows",
    "ManifoldSpec",
    "NumericError",
    "PointJets",
    "SingularMetricError",
    "Tensor",
    "TensorField",
    "covariant_derivative",
    "curvature_bundle",
    "generator",
    "generator_jets",
    "h_tensor",
    "hol_projective",
    "hybrid_defect",
    "identity_suite",
    "levi_civita",
    "manifold_by_name",
    "norm_max",
    "point_jets",
    "quarter_symmetric",
    "riemann_g",
    "sample_points",
    "torsion",
    "weyl_projective",
    "__version__",
]
