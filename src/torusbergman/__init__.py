"""Bergman kernels and projective embeddings for flat complex torus models.

Layout:
    geometry    - torus factors, product models, lattice coordinates, curvature
    theta       - weighted level-m theta functions with certified truncation
    basis       - harmonic bases, Gram quadrature, Laplacian certification
    kernel      - projector kernel, density, decay fits, ratio profile, model term
    embedding   - projective map, density floor, FS separation, differential rank
    pullback    - Fubini-Study pullback forms and derivative sums along the ladder
    config      - config parsing and validation
    experiment  - the experiment suites and their acceptance verdicts
    report      - CSV and summary.json reports of a run
    cli         - `torus-bergman <suite> --config ... --out ...`
"""

from .basis import (
    FactorSectionSet,
    GramMatrix,
    HarmonicBasis,
    build_basis,
    factor_gram,
    gram,
    harmonicity_residual,
    orthonormalize,
)
from .config import ExperimentConfig, parse_config
from .embedding import (
    ProjectivePoint,
    differential,
    fs_distance,
    injectivity_scan,
    well_defined_check,
)
from .experiment import run
from .geometry import (
    ProductModel,
    TorusFactor,
    omega,
)
from .kernel import (
    density,
    disc_model_density,
    far_separation_check,
    leading_coefficient,
    model_exponent,
    offdiagonal_fit,
    ratio_profile,
    trace_density,
)
from .pullback import (
    DerivativeReport,
    convergence_report,
    derivative_sums,
    pullback_ddbar_many,
    pullback_jacobian_many,
)
from .report import RunReport, emit_report
from .util import fit_slope

__version__ = "0.1.0"

__all__ = [
    "TorusFactor", "ProductModel", "omega",
    "FactorSectionSet", "GramMatrix", "HarmonicBasis", "gram", "factor_gram",
    "orthonormalize", "build_basis", "harmonicity_residual",
    "density", "trace_density", "model_exponent", "offdiagonal_fit",
    "far_separation_check", "ratio_profile", "disc_model_density", "leading_coefficient",
    "ProjectivePoint", "DerivativeReport",
    "well_defined_check", "fs_distance", "injectivity_scan", "differential",
    "pullback_jacobian_many", "pullback_ddbar_many", "convergence_report",
    "derivative_sums",
    "ExperimentConfig", "RunReport", "parse_config", "run", "emit_report",
    "fit_slope",
]
