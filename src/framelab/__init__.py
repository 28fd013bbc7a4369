"""framelab: probability-weighted erasure analysis for finite frames.

Computes worst-case erasure errors of dual frame pairs under spectral-radius
and operator-norm measures, certifies the known optimality conditions, and
searches the dual-frame space numerically for one-erasure optimal duals.
"""

from .errors import (
    CombinatorialLimit,
    DegenerateDenominator,
    DegenerateWeight,
    DimensionMismatch,
    EigenFailure,
    FrameLabError,
    HypothesisFailed,
    IllConditioned,
    InsufficientSupport,
    InvalidProbability,
    LengthMismatch,
    NotDual,
    NotOneErasureOptimal,
    NotParseval,
    NotSpanning,
    ParseError,
    ShapeMismatch,
    SvdFailure,
)
from .frames import (
    DualPair,
    DualPerturbationBasis,
    Frame,
    HermitianMatrix,
    build_frame,
    canonical_dual,
    coefficients_for_perturbation,
    dual_from_coefficients,
    dual_perturbation_basis,
    frame_operator,
    verify_dual,
)
from .weights import (
    ProbabilityProfile,
    WeightPropertiesReport,
    uniform_profile,
    weight_properties_report,
    weights_from_probabilities,
)
from .erasures import (
    ErasureMeasureReport,
    ErasureSet,
    SimulationStats,
    error_operator,
    norm_measure,
    operator_norm,
    simulate_erasure_channel,
    spectral_measure,
    spectral_radius,
    two_erasure_eigenvalues,
)
from .optimality import (
    Hypothesis,
    OptimalBounds,
    OptimalityCertificate,
    PartitionReport,
    canonical_norm_one_certificate,
    canonical_spectral_one_certificate,
    canonical_spectral_two_certificate,
    is_one_uniform,
    is_probabilistic_uniform_parseval,
    is_two_uniform,
    one_erasure_norm_optimal_pair,
    one_erasure_spectral_optimal_pair,
    optimal_values,
    parseval_equivalence_report,
    two_erasure_spectral_optimal_pair,
    two_erasure_spectral_prediction,
)
from .search import (
    CertificationOutcome,
    SearchResult,
    certify_canonical_optimal,
    minimize_norm_one,
    minimize_spectral_one,
    random_dual_sampler,
)

__version__ = "0.1.0"
