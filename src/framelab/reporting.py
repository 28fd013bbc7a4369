"""Canonical report serialization.

Reports are JSON documents emitted with a fixed layout: keys in insertion
order, two-space indentation, and every float printed with 17 significant
digits so that parsing recovers the exact double.  Identical inputs therefore
produce byte-identical reports, and ``parse_report(emit_report(r)) == r``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .erasures import ErasureMeasureReport, SimulationStats
from .errors import ParseError
from .frames import DualPair, Frame
from .optimality import OptimalityCertificate, PartitionReport
from .search import SearchResult
from .weights import ProbabilityProfile, WeightPropertiesReport


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"reports cannot carry non-finite values, got {value}")
    text = format(value, ".17g")
    if not any(c in text for c in ".eE") and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, np.bool_):
        out.append(json.dumps(bool(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key).__name__}")
            out.append(f"{pad}  {json.dumps(key)}: ")
            _emit(value, indent + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, indent + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def emit_report(document: dict) -> str:
    """Serialize a report document to canonical JSON text."""
    out: list[str] = []
    _emit(document, 0, out)
    return "".join(out) + "\n"


def parse_report(text: str) -> dict:
    """Parse a report emitted by :func:`emit_report`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"report is not valid JSON: {exc}") from exc


def complex_pair(value: complex) -> list:
    return [float(np.real(value)), float(np.imag(value))]


def vectors_as_rows(matrix: np.ndarray) -> list:
    """Columns of a synthesis matrix as rows of [re, im] entry pairs."""
    return [[complex_pair(entry) for entry in column] for column in matrix.T]


def frame_to_dict(frame: Frame) -> dict:
    return {
        "dim": frame.dim,
        "count": frame.count,
        "lower_bound": frame.lower_bound,
        "upper_bound": frame.upper_bound,
        "vectors": vectors_as_rows(frame.matrix),
    }


def profile_to_dict(profile: ProbabilityProfile) -> dict:
    return {
        "dim": profile.dim,
        "probabilities": [float(p) for p in profile.probabilities],
        "weights": [float(q) for q in profile.weights],
    }


def weight_properties_to_dict(report: WeightPropertiesReport) -> dict:
    return {
        "min_weight": report.min_weight,
        "all_at_least_one": report.all_at_least_one,
        "partition_residual": report.partition_residual,
        "monotone": report.monotone,
        "table": [
            {"index": row[0], "probability": row[1], "weight": row[2]}
            for row in report.table
        ],
    }


def measure_report_to_dict(report: ErasureMeasureReport) -> dict:
    return {
        "kind": report.kind,
        "m": report.m,
        "value": report.value,
        "argmax_sets": [list(s.indices) for s in report.argmax_sets],
        "per_set_values": [
            {"indices": list(s), "value": v}
            for s, v in zip(report.sets(), report.per_set_values.tolist())
        ],
    }


def _detail_value(value):
    if isinstance(value, (complex, np.complexfloating)) and not isinstance(value, float):
        if np.imag(value) != 0.0:
            return complex_pair(value)
        return float(np.real(value))
    if isinstance(value, np.ndarray):
        return [_detail_value(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_detail_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _detail_value(v) for k, v in value.items()}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _hypotheses_to_list(hypotheses) -> list:
    return [
        {"description": h.description, "holds": h.holds, "witness": h.witness}
        for h in hypotheses
    ]


def certificate_to_dict(cert: OptimalityCertificate) -> dict:
    return {
        "condition_id": cert.condition_id,
        "hypotheses": _hypotheses_to_list(cert.hypotheses),
        "conclusion": _detail_value(cert.conclusion),
        "details": {k: _detail_value(v) for k, v in cert.details.items()},
    }


def partition_to_dict(partition: PartitionReport) -> dict:
    return {
        "threshold": partition.threshold,
        "attaining": list(partition.attaining),
        "remaining": list(partition.remaining),
        "subspace_dims": list(partition.subspace_dims),
    }


def dual_pair_to_dict(pair: DualPair) -> dict:
    return {
        "dual_vectors": vectors_as_rows(pair.dual.matrix),
        "cross_gram_diagonal": [complex_pair(v) for v in np.diagonal(pair.cross_gram)],
        "cross_gram_trace": complex_pair(np.trace(pair.cross_gram)),
    }


def search_result_to_dict(result: SearchResult) -> dict:
    return {
        "best_value": result.best_value,
        "canonical_value": result.canonical_value,
        "gap": result.gap,
        "iterations": result.iterations,
        "converged": result.converged,
        "note": result.note,
        "best_dual": vectors_as_rows(result.best_dual.dual.matrix),
    }


def simulation_to_dict(stats: SimulationStats) -> dict:
    return {
        "m": stats.m,
        "trials": stats.trials,
        "seed": stats.seed,
        "rng": stats.rng,
        "max_error": stats.max_error,
        "mean_error": stats.mean_error,
        "histogram_edges": list(stats.histogram_edges),
        "histogram_counts": list(stats.histogram_counts),
    }
