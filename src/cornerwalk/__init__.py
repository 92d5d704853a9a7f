"""Positive harmonic functions for singular quarter-plane random walks.

The package builds escape probabilities and related harmonic functions
for walks whose steps never move south-west (no jumps to (-1,-1),
(-1,0), (0,-1)) by summing exponential product terms whose parameters
walk along the zero curve of the step generating function.  Independent
cross-checks come from a closed-form rational parametrization of that
curve (small-step walks only) and from vectorized Monte Carlo.

    model           step distributions: parsing, validation, kernel
    curve           the zero curve: branches, extrema, Cramer twists
    compensation    the series construction and its truncation bounds
    uniformization  closed-form curve parametrization (small steps)
    montecarlo      reproducible simulation estimators
    cli             the `cornerwalk` command-line tool
"""

from .model import (
    InvalidModelError,
    ModelFileError,
    ModelValidationReport,
    StepDistribution,
    drift,
    kernel_eval,
    parse_model_file,
    parse_model_text,
    require_valid,
    validate_model,
)
from .curve import (
    CramerData,
    CurveGeometry,
    SolverError,
    cramer_transform,
    find_extrema,
    in_G0,
)
from .compensation import (
    CompensationSequence,
    HarmonicValue,
    PrecisionWarning,
    boundary_harmonic,
    build_sequence,
    canonicalize_start,
    escape_probability,
    harmonic_eval,
)
from .uniformization import (
    UniformizationParams,
    alpha_of_s,
    beta_of_s,
    compute_params,
    denominator_sequence,
    sequence_at,
)
from .montecarlo import (
    ScanPoint,
    SimConfig,
    SimEstimate,
    brownian_halfplane_kernel,
    estimate_escape,
    estimate_green,
    estimate_halfplane_survival,
    green_direction_scan,
    martin_kernel_estimate,
    martin_kernel_profile,
    skipfree_exit_root,
)

__version__ = "0.8.0"

__all__ = [
    "__version__",
    "StepDistribution",
    "ModelValidationReport",
    "ModelFileError",
    "InvalidModelError",
    "parse_model_text",
    "parse_model_file",
    "validate_model",
    "require_valid",
    "drift",
    "kernel_eval",
    "CurveGeometry",
    "CramerData",
    "SolverError",
    "find_extrema",
    "in_G0",
    "cramer_transform",
    "CompensationSequence",
    "HarmonicValue",
    "PrecisionWarning",
    "build_sequence",
    "canonicalize_start",
    "harmonic_eval",
    "escape_probability",
    "boundary_harmonic",
    "UniformizationParams",
    "compute_params",
    "alpha_of_s",
    "beta_of_s",
    "sequence_at",
    "denominator_sequence",
    "SimConfig",
    "SimEstimate",
    "ScanPoint",
    "estimate_escape",
    "estimate_halfplane_survival",
    "estimate_green",
    "martin_kernel_estimate",
    "martin_kernel_profile",
    "green_direction_scan",
    "skipfree_exit_root",
    "brownian_halfplane_kernel",
]
