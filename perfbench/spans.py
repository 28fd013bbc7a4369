"""Self time of spans and the per-layer metrics built from them.

A span is a dict with ``id``, ``parent``, ``name``, ``layer``, ``start``,
``end`` and ``counters``.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "fileio", "weights", "frames", "erasures", "optimality", "search", "reporting")
SEARCH_CALLS = (
    "search.minimize_spectral_one",
    "search.minimize_norm_one",
    "search.certify_canonical_optimal",
)
MEASURE_CALLS = ("erasures.spectral_measure", "erasures.norm_measure")

# name -> (unit, better); every name is printed and reported by a traced run.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "fileio.self_s": ("s", "lower"),
    "fileio.bytes_read": ("B", "lower"),
    "weights.self_s": ("s", "lower"),
    "frames.self_s": ("s", "lower"),
    "frames.canonical_dual_calls": ("count", "lower"),
    "frames.basis_calls": ("count", "lower"),
    "frames.dual_from_coefficients_calls": ("count", "lower"),
    "frames.basis_bytes": ("B", "lower"),
    "erasures.self_s": ("s", "lower"),
    "erasures.measure_calls": ("count", "lower"),
    "erasures.sets_enumerated": ("count", "lower"),
    "erasures.sets_per_s": ("1/s", "higher"),
    "erasures.trials": ("count", "lower"),
    "erasures.trials_per_s": ("1/s", "higher"),
    "optimality.self_s": ("s", "lower"),
    "optimality.certificates": ("count", "lower"),
    "optimality.parseval_search_s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.calls": ("count", "lower"),
    "search.restarts": ("count", "lower"),
    "search.lbfgs_stages": ("count", "lower"),
    "search.iterations": ("count", "lower"),
    "search.objective_evals": ("count", "lower"),
    "search.lbfgs_s": ("s", "lower"),
    "search.s_per_eval": ("s", "lower"),
    "search.converged_frac": ("ratio", "higher"),
    "reporting.self_s": ("s", "lower"),
    "reporting.bytes": ("B", "lower"),
    "reporting.bytes_per_s": ("B/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: duration(span) - covered(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(jobs, overheads) -> dict[str, float]:
    """Per-layer metrics over one traced pass.

    ``jobs`` holds one span list per job and ``overheads`` the traced minus
    untraced wall time of each job.  Times ending in ``_s`` are means per
    job; counts, bytes and rates are totals or ratios over the pass.
    """
    count = len(jobs)
    self_s = defaultdict(float)
    totals = defaultdict(float)
    calls = defaultdict(int)
    span_s = defaultdict(float)
    parseval_search_s = 0.0
    basis_bytes = 0
    for spans in jobs:
        layer_of = {span["id"]: span["layer"] for span in spans}
        own = self_times(spans)
        for span in spans:
            self_s[span["layer"]] += own[span["id"]]
            calls[span["name"]] += 1
            span_s[span["name"]] += duration(span)
            for key, value in span["counters"].items():
                totals[key] += value
            basis_bytes = max(basis_bytes, span["counters"].get("basis_bytes", 0))
            if span["layer"] == "search" and layer_of.get(span["parent"]) == "optimality":
                parseval_search_s += duration(span)
    search_calls = sum(calls[name] for name in SEARCH_CALLS)
    measure_s = sum(span_s[name] for name in MEASURE_CALLS)
    metrics = {f"{layer}.self_s": self_s[layer] / count for layer in LAYERS}
    metrics.update(
        {
            "cli.import_s": span_s["cli.import"] / count,
            "fileio.bytes_read": totals["bytes_read"],
            "frames.canonical_dual_calls": calls["frames.canonical_dual"],
            "frames.basis_calls": calls["frames.dual_perturbation_basis"],
            "frames.dual_from_coefficients_calls": calls["frames.dual_from_coefficients"],
            "frames.basis_bytes": basis_bytes,
            "erasures.measure_calls": sum(calls[name] for name in MEASURE_CALLS),
            "erasures.sets_enumerated": totals["sets"],
            "erasures.sets_per_s": _ratio(totals["sets"], measure_s),
            "erasures.trials": totals["trials"],
            "erasures.trials_per_s": _ratio(
                totals["trials"], span_s["erasures.simulate_erasure_channel"]
            ),
            "optimality.certificates": sum(
                n for name, n in calls.items() if name.startswith("optimality.")
            ),
            "optimality.parseval_search_s": parseval_search_s / count,
            "search.calls": search_calls,
            "search.restarts": totals["restarts"],
            "search.lbfgs_stages": calls["search.lbfgs"],
            "search.iterations": totals["nit"],
            "search.objective_evals": totals["nfev"],
            "search.lbfgs_s": span_s["search.lbfgs"] / count,
            "search.s_per_eval": _ratio(span_s["search.lbfgs"], totals["nfev"]),
            "search.converged_frac": _ratio(totals["converged"], search_calls),
            "reporting.bytes": totals["bytes"],
            "reporting.bytes_per_s": _ratio(totals["bytes"], self_s["reporting"]),
            "trace.overhead_s": sum(overheads) / count,
        }
    )
    return {name: metrics[name] for name in PER_LAYER}
