"""framelab: probability-weighted erasure analysis for finite frames.

Computes worst-case erasure errors of dual frame pairs under spectral-radius
and operator-norm measures, certifies the known optimality conditions, and
searches the dual-frame space numerically for one-erasure optimal duals.

Importing the package loads none of its modules, and so not numpy: each
public name below is imported from its module on first use (PEP 562).
:mod:`framelab.cli` relies on this to cap numpy's BLAS threads before numpy
loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "errors": (
        "CombinatorialLimit",
        "DegenerateDenominator",
        "DegenerateWeight",
        "DimensionMismatch",
        "EigenFailure",
        "FrameLabError",
        "HypothesisFailed",
        "IllConditioned",
        "InputError",
        "InsufficientSupport",
        "InvalidProbability",
        "NotDual",
        "NotOneErasureOptimal",
        "NotParseval",
        "NotSpanning",
        "ParseError",
        "ShapeMismatch",
        "SvdFailure",
    ),
    "frames": (
        "DualPair",
        "Frame",
        "build_frame",
        "canonical_dual",
        "coefficients_for_perturbation",
        "dual_from_coefficients",
        "dual_perturbation_basis",
        "frame_operator",
        "verify_dual",
    ),
    "weights": (
        "ProbabilityProfile",
        "WeightPropertiesReport",
        "uniform_profile",
        "weight_properties_report",
        "weights_from_probabilities",
    ),
    "erasures": (
        "ErasureMeasureReport",
        "ErasureSet",
        "SimulationStats",
        "error_operator",
        "norm_measure",
        "operator_norm",
        "simulate_erasure_channel",
        "spectral_measure",
        "spectral_radius",
        "two_erasure_eigenvalues",
    ),
    "optimality": (
        "Hypothesis",
        "OptimalBounds",
        "OptimalityCertificate",
        "PartitionReport",
        "canonical_norm_one_certificate",
        "canonical_spectral_one_certificate",
        "canonical_spectral_two_certificate",
        "is_one_uniform",
        "is_probabilistic_uniform_parseval",
        "is_two_uniform",
        "one_erasure_norm_optimal_pair",
        "one_erasure_spectral_optimal_pair",
        "optimal_values",
        "parseval_equivalence_report",
        "two_erasure_spectral_optimal_pair",
        "two_erasure_spectral_prediction",
    ),
    "search": (
        "CertificationOutcome",
        "SearchResult",
        "certify_canonical_optimal",
        "minimize_norm_one",
        "minimize_spectral_one",
    ),
}

# Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_EXPORTS, *_EXPORTS})
