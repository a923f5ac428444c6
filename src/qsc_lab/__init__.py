"""Numerical verification laboratory for quarter-symmetric connections on
almost Hermitian manifolds in explicit coordinate charts.

The package computes six curvature tensors of the connection
nabla^1_X Y = nabla^g_X Y - pi(X) A Y, their traces and generator-invariant
combinations, and checks every identity of the theory as a numerical
residual at sampled chart points.
"""

from .diff import DiffConfig, DomainError, partial
from .geometry import (
    Chart,
    GeneratorField,
    ManifoldSpec,
    TensorField,
    check_almost_hermitian,
    generator,
    generator_names,
    manifold_by_name,
    manifold_names,
    sample_points,
)
from .connections import (
    ConnectionCoefficients,
    GeneratorJets,
    PointJets,
    covariant_derivative,
    generator_jets,
    levi_civita,
    point_jets,
    quarter_symmetric,
    torsion,
    torsion_lowered,
)
from .curvature import (
    CurvatureBundle,
    curvature_bundle,
    ricci,
    riemann_g,
)
from .invariants import (
    EXPECTED_FAIL_FLOOR,
    IDENTITY_CATALOG,
    HybridReport,
    IdentityResult,
    degeneracy_probe,
    h_tensor,
    hol_projective,
    hybrid_defect,
    identity_ids,
    identity_suite,
    weyl_projective,
)
from .tensor import (
    NumericError,
    SingularMetricError,
    Signature,
    Tensor,
    contract,
    lower_first,
    norm_max,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "ConnectionCoefficients",
    "CurvatureBundle",
    "DiffConfig",
    "DomainError",
    "EXPECTED_FAIL_FLOOR",
    "GeneratorField",
    "GeneratorJets",
    "HybridReport",
    "IDENTITY_CATALOG",
    "IdentityResult",
    "ManifoldSpec",
    "NumericError",
    "PointJets",
    "Signature",
    "SingularMetricError",
    "Tensor",
    "TensorField",
    "check_almost_hermitian",
    "contract",
    "covariant_derivative",
    "curvature_bundle",
    "degeneracy_probe",
    "generator",
    "generator_jets",
    "generator_names",
    "h_tensor",
    "hol_projective",
    "hybrid_defect",
    "identity_ids",
    "identity_suite",
    "levi_civita",
    "lower_first",
    "manifold_by_name",
    "manifold_names",
    "norm_max",
    "partial",
    "point_jets",
    "quarter_symmetric",
    "ricci",
    "riemann_g",
    "sample_points",
    "tensor",
    "torsion",
    "torsion_lowered",
    "weyl_projective",
    "__version__",
]
