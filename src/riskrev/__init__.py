"""Risk of polytope-constrained least squares in the planar Gaussian model.

The package computes the squared-error risk of the projection estimator
``theta_hat = Pi_K(Y)``, ``Y = theta* + sigma Z``, in three ways that are
meant to be checked against one another: exact closed forms for a running
segment/triangle family, small- and large-noise asymptotics through
statistical dimensions and vertex-selection probabilities, and seeded
Monte Carlo.  The headline phenomenon is risk reversal: a strictly smaller
constraint set whose estimator has strictly larger risk.
"""

from .asymptotics import (
    ReversalScan,
    VertexDistribution,
    delta_x,
    detect_finite_sigma_reversal,
    envelope_curve,
    limiting_risk,
    small_noise_risk,
    statistical_dimension_2d,
    statistical_dimension_mc,
    theta_x_limiting_risk,
    vertex_probabilities_2d,
    vertex_probabilities_mc,
    worst_case_limiting_risk,
)
from .exact_risk import (
    RegionRiskBreakdown,
    RiskQuery,
    large_noise_limit_diff,
    risk_difference,
    risk_segment_exact,
    risk_triangle_exact,
    small_noise_diff_coeff,
)
from .gaussfn import (
    int_phi_cdf,
    int_phi_cdf_linear,
    int_z_phi_phi,
    owens_t,
    std_normal_cdf,
    std_normal_cdf_minus_half,
    std_normal_pdf,
)
from .geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    ProjectionError,
    RegionLabel,
    normal_cone_angle_2d,
    project_cone_nonneg,
    project_polygon_2d_batch,
    project_polytope,
    project_polytope_batch,
    project_triangle_example,
    tangent_cone_2d,
)
from .montecarlo import (
    DEFAULT_SEED,
    CauchyRatioReport,
    MCConfig,
    RiskEstimate,
    cauchy_ratio_check,
    mc_risk,
    sample_unit_sphere,
)

__version__ = "0.1.0"

__all__ = [
    "Cone2D",
    "ConeKind",
    "ConvexPolytope",
    "CauchyRatioReport",
    "DEFAULT_SEED",
    "ExampleGeometry",
    "MCConfig",
    "ProjectionError",
    "RegionLabel",
    "RegionRiskBreakdown",
    "ReversalScan",
    "RiskEstimate",
    "RiskQuery",
    "VertexDistribution",
    "cauchy_ratio_check",
    "delta_x",
    "detect_finite_sigma_reversal",
    "envelope_curve",
    "int_phi_cdf",
    "int_phi_cdf_linear",
    "int_z_phi_phi",
    "large_noise_limit_diff",
    "limiting_risk",
    "mc_risk",
    "normal_cone_angle_2d",
    "owens_t",
    "project_cone_nonneg",
    "project_polygon_2d_batch",
    "project_polytope",
    "project_polytope_batch",
    "project_triangle_example",
    "risk_difference",
    "risk_segment_exact",
    "risk_triangle_exact",
    "sample_unit_sphere",
    "small_noise_diff_coeff",
    "small_noise_risk",
    "statistical_dimension_2d",
    "statistical_dimension_mc",
    "std_normal_cdf",
    "std_normal_cdf_minus_half",
    "std_normal_pdf",
    "tangent_cone_2d",
    "theta_x_limiting_risk",
    "vertex_probabilities_2d",
    "vertex_probabilities_mc",
    "worst_case_limiting_risk",
]
