"""Bergman kernels and projective embeddings for flat complex torus models.

Layout:
    geometry    - torus factors, product models, curvature, charts, distances
    theta       - weighted level-m theta functions with certified truncation
    basis       - harmonic bases, Gram quadrature, Laplacian certification
    kernel      - projector kernel, density, decay fits, ratio profile
    embedding   - projective map, Fubini-Study pullback, derivative sums
    experiment  - config-driven experiment suites with CSV/JSON reports
    cli         - `torus-bergman <suite> --config ... --out ...`
"""

from .basis import (
    FactorSectionSet,
    GramMatrix,
    HarmonicBasis,
    KunnethBasis,
    build_basis,
    factor_gram,
    gram,
    harmonicity_residual,
    kunneth_basis,
    orthonormalize,
    raw_factor_basis,
)
from .embedding import (
    DerivativeReport,
    ProjectivePoint,
    PullbackSample,
    convergence_report,
    derivative_sums,
    differential,
    fs_distance,
    injectivity_scan,
    phi,
    pullback_ddbar,
    pullback_jacobian,
    well_defined_check,
)
from .experiment import ExperimentConfig, RunReport, emit_report, parse_config, run
from .geometry import (
    NormalChart,
    ProductModel,
    TorusFactor,
    curvature_matrix,
    distance,
    normal_chart,
    omega,
    signature,
)
from .kernel import (
    ExpansionModel,
    KernelSample,
    density,
    disc_model_density,
    expansion_model,
    far_separation_check,
    kernel,
    leading_coefficient,
    offdiagonal_fit,
    ratio_profile,
    trace_density,
)
from .util import fit_slope

__version__ = "0.1.0"

__all__ = [
    "TorusFactor", "ProductModel", "NormalChart",
    "curvature_matrix", "signature", "omega", "normal_chart", "distance",
    "FactorSectionSet", "GramMatrix", "KunnethBasis", "HarmonicBasis",
    "raw_factor_basis", "kunneth_basis", "gram", "factor_gram",
    "orthonormalize", "build_basis", "harmonicity_residual",
    "KernelSample", "ExpansionModel", "kernel", "density", "trace_density",
    "expansion_model", "offdiagonal_fit", "far_separation_check",
    "ratio_profile", "disc_model_density", "leading_coefficient",
    "ProjectivePoint", "PullbackSample", "DerivativeReport", "phi",
    "well_defined_check", "fs_distance", "injectivity_scan", "differential",
    "pullback_jacobian", "pullback_ddbar", "convergence_report",
    "derivative_sums",
    "ExperimentConfig", "RunReport", "parse_config", "run", "emit_report",
    "fit_slope",
]
