"""framelab: probability-weighted erasure analysis for finite frames.

Computes worst-case erasure errors of dual frame pairs under spectral-radius
and operator-norm measures, certifies the known optimality conditions, and
searches the dual-frame space numerically for one-erasure optimal duals.

Importing the package loads none of its modules, and so not numpy: each
public name below is imported from its module on first use (PEP 562).
:mod:`framelab.cli` relies on this: its import caps numpy's BLAS threads and
loads no other module, and numpy loads with the first subcommand that runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "errors": ("FrameLabError", "InputError", "NotDual"),
    "frames": (
        "DualPair",
        "Frame",
        "build_frame",
        "canonical_dual",
        "dual_from_coefficients",
        "dual_perturbation_basis",
        "verify_dual",
    ),
    "weights": (
        "ProbabilityProfile",
        "WeightPropertiesReport",
        "weight_properties_report",
        "weights_from_probabilities",
    ),
    "erasures": (
        "ErasureMeasureReport",
        "SimulationStats",
        "error_operator",
        "norm_measure",
        "operator_norm",
        "simulate_erasure_channel",
        "spectral_measure",
    ),
    "optimality": (
        "Hypothesis",
        "OptimalBounds",
        "OptimalityCertificate",
        "PartitionReport",
        "analyze_certificates",
        "is_one_uniform",
        "is_probabilistic_uniform_parseval",
        "optimal_values",
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
