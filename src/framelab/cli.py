"""Command-line front end.

Subcommands: ``analyze`` (weights, canonical dual, measures, certificates),
``search`` (dual-space minimax search), ``simulate`` (seeded erasure-channel
Monte Carlo), and ``examples`` (run the built-in worked examples against
their expected values).

Reports are canonical JSON written to stdout or ``--out``; warnings and the
human-readable pass/fail table of ``examples`` go to stderr so stdout stays
byte-deterministic for identical inputs and seeds.

numpy's BLAS runs on one thread (see :func:`thread_cap`), so stdout does not
depend on the machine's core count or on the BLAS thread variables either.

Exit codes: 0 success, 1 expected-value mismatch in ``examples``, 2 input
error (any ``ValueError``: every :class:`~framelab.errors.InputError` and a
report that cannot be written among them), 3 numeric failure (any other
``FrameLabError``, and a LAPACK failure).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_cap() -> None:
    """Start numpy's BLAS on one thread.

    Unless numpy is loaded already, ``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are set to 1, replacing what
    they held: numpy's BLAS sizes its thread pool from them once, when numpy
    loads.  A process that loaded numpy first keeps its environment and its
    BLAS threads."""
    if "numpy" not in sys.modules:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


thread_cap()

import numpy as np  # noqa: E402  (after the thread cap)

from . import __version__  # noqa: E402
from .erasures import norm_measure, simulate_erasure_channel, spectral_measure  # noqa: E402
from .errors import FrameLabError, HypothesisFailed, NotOneErasureOptimal, NotParseval  # noqa: E402
from .fileio import (  # noqa: E402
    FrameFileContent,
    load_frame_file,
    load_probability_file,
    resolve_profile,
)
from .frames import (  # noqa: E402
    Frame,
    build_frame,
    canonical_dual,
    coefficients_for_perturbation,
    dual_from_coefficients,
)
from .optimality import (  # noqa: E402
    canonical_norm_one_certificate,
    canonical_spectral_one_certificate,
    canonical_spectral_two_certificate,
    is_one_uniform,
    is_probabilistic_uniform_parseval,
    is_two_uniform,
    one_erasure_norm_optimal_pair,
    one_erasure_spectral_optimal_pair,
    parseval_equivalence_report,
    two_erasure_spectral_optimal_pair,
    two_erasure_spectral_prediction,
)
from .reporting import (  # noqa: E402
    dual_pair_to_dict,
    frame_to_dict,
    measure_report_to_dict,
    profile_to_dict,
    search_result_to_dict,
    weight_properties_to_dict,
    write_report,
)
from .search import minimize_norm_one, minimize_spectral_one  # noqa: E402
from .weights import (  # noqa: E402
    ProbabilityProfile,
    weight_properties_report,
    weights_from_probabilities,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# ``search`` options of the earlier restarted solver, with their old defaults:
# still parsed and echoed under ``options``, but they change nothing.
_IGNORED_SEARCH_OPTIONS = {"restarts": 20, "seed": 0, "method": "smoothed"}


def _load_inputs(args) -> tuple[FrameFileContent, ProbabilityProfile, dict]:
    content = load_frame_file(args.frame)
    separate = load_probability_file(args.probs) if args.probs else None
    profile, source, conflict = resolve_profile(content, separate)
    if conflict:
        print(
            "warning: probabilities in the frame file conflict with the separate "
            "probability file; the separate file wins",
            file=sys.stderr,
        )
    input_section = {
        "frame_file": str(args.frame),
        "frame_digest": content.digest,
        "probability_file": str(args.probs) if args.probs else None,
        "probability_source": source,
        "field": content.field,
        "dim": content.frame.dim,
        "count": content.frame.count,
    }
    return content, profile, input_section


def _certificate_entry(cert, partition=None) -> dict:
    entry = dict(vars(cert))
    if partition is not None:
        entry["partition"] = partition
    return entry


def _skipped_entry(condition_id: str, reason: str) -> dict:
    return {"condition_id": condition_id, "skipped": reason}


def _analyze_certificates(frame: Frame, profile: ProbabilityProfile) -> list:
    pair = canonical_dual(frame)
    entries = [
        _certificate_entry(is_one_uniform(pair, profile)),
        _certificate_entry(is_two_uniform(pair, profile)),
        _certificate_entry(one_erasure_spectral_optimal_pair(pair, profile)),
        _certificate_entry(one_erasure_norm_optimal_pair(pair, profile)),
    ]
    try:
        entries.append(_certificate_entry(two_erasure_spectral_optimal_pair(pair, profile)))
    except NotOneErasureOptimal as exc:
        entries.append(_skipped_entry("spectral_two_optimal_pair", str(exc)))
    cert, partition = canonical_spectral_one_certificate(frame, profile)
    entries.append(_certificate_entry(cert, partition))
    cert, partition = canonical_norm_one_certificate(frame, profile)
    entries.append(_certificate_entry(cert, partition))
    entries.append(_certificate_entry(canonical_spectral_two_certificate(frame, profile)))
    try:
        entries.append(_certificate_entry(two_erasure_spectral_prediction(pair, profile)))
    except HypothesisFailed as exc:
        entry = _skipped_entry("two_erasure_prediction", str(exc))
        entry["hypotheses"] = exc.hypotheses
        entries.append(entry)
    entries.append(_certificate_entry(is_probabilistic_uniform_parseval(frame, profile)))
    try:
        entries.append(_certificate_entry(parseval_equivalence_report(frame, profile)))
    except NotParseval:
        entries.append(_skipped_entry("parseval_equivalence", "frame is not Parseval"))
    return entries


def cmd_analyze(args) -> int:
    content, profile, input_section = _load_inputs(args)
    frame = content.frame
    requested = sorted(set(args.m)) if args.m else [1, 2]
    for m in requested:
        if not 1 <= m <= frame.count:
            raise ValueError(f"requested m={m} outside 1..{frame.count}")
    kinds = ("spectral", "norm") if args.measure == "both" else (args.measure,)
    pair = canonical_dual(frame)
    measures = []
    for m in requested:
        for kind in kinds:
            report = (
                spectral_measure(pair, profile, m)
                if kind == "spectral"
                else norm_measure(pair, profile, m)
            )
            measures.append(measure_report_to_dict(report))
    document = {
        "tool": {"name": "framelab", "version": __version__},
        "report": "analyze",
        "input": input_section,
        "frame": frame_to_dict(frame),
        "weights": {
            **profile_to_dict(profile),
            "properties": weight_properties_to_dict(weight_properties_report(profile)),
        },
        "canonical_dual": dual_pair_to_dict(pair),
        "measures": measures,
        "certificates": _analyze_certificates(frame, profile),
    }
    write_report(document, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    content, profile, input_section = _load_inputs(args)
    frame = content.frame
    kinds = ("spectral", "norm") if args.measure == "both" else (args.measure,)
    given = {name: getattr(args, name) for name in _IGNORED_SEARCH_OPTIONS}
    if any(value is not None for value in given.values()):
        print(
            "note: --restarts, --seed and --method are accepted but no longer change the result",
            file=sys.stderr,
        )
    searches = []
    for kind in kinds:
        minimize = minimize_spectral_one if kind == "spectral" else minimize_norm_one
        result = minimize(frame, profile)
        entry = {"kind": kind, **search_result_to_dict(result)}
        entry["best_dual_measures"] = {
            "spectral_one": spectral_measure(result.best_dual, profile, 1).value,
            "norm_one": norm_measure(result.best_dual, profile, 1).value,
            "spectral_two": spectral_measure(result.best_dual, profile, 2).value,
            "norm_two": norm_measure(result.best_dual, profile, 2).value,
        }
        searches.append(entry)
    document = {
        "tool": {"name": "framelab", "version": __version__},
        "report": "search",
        "input": input_section,
        "weights": profile_to_dict(profile),
        "options": {
            name: default if given[name] is None else given[name]
            for name, default in _IGNORED_SEARCH_OPTIONS.items()
        },
        "searches": searches,
    }
    write_report(document, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    content, profile, input_section = _load_inputs(args)
    frame = content.frame
    pair = canonical_dual(frame)
    # the worst case comes first, so an m over the enumeration cap fails
    # before any trial is drawn
    worst_case = norm_measure(pair, profile, args.m).value if 1 <= args.m <= frame.count else 0.0
    stats = simulate_erasure_channel(pair, profile, args.m, args.trials, args.seed)
    document = {
        "tool": {"name": "framelab", "version": __version__},
        "report": "simulate",
        "input": input_section,
        "weights": profile_to_dict(profile),
        "simulation": stats,
        "worst_case": {
            "norm_value": worst_case,
            "within_bound": bool(stats.max_error <= worst_case + 1e-9),
        },
    }
    write_report(document, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in worked examples
# ---------------------------------------------------------------------------


def _example_a():
    frame = build_frame(2, [(1, 0), (0, 1), (1, 1)])
    profile = weights_from_probabilities([1 / 4, 1 / 4, 1 / 2], 2)
    return frame, profile


def _example_b():
    frame = build_frame(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    profile = weights_from_probabilities([1 / 2, 1 / 2, 0.0, 0.0], 2)
    return frame, profile


def _example_a_better_dual(frame: Frame):
    """The dual shifting the first two dual vectors by (1/6, 1/6)."""
    pert = np.array([[1 / 6, 1 / 6, -1 / 6], [1 / 6, 1 / 6, -1 / 6]], dtype=complex)
    coeffs, _ = coefficients_for_perturbation(frame, pert)
    return dual_from_coefficients(frame, coeffs)


def _matches(expected, actual, tol: float) -> bool:
    if isinstance(expected, bool):
        return expected == bool(actual)
    if isinstance(expected, (list, tuple)):
        if len(expected) != len(actual):
            return False
        return all(_matches(e, a, tol) for e, a in zip(expected, actual))
    return abs(float(expected) - float(actual)) <= tol


def _check(example: str, quantity: str, expected, actual, tol: float = 1e-9) -> dict:
    return {
        "example": example,
        "quantity": quantity,
        "expected": expected,
        "actual": actual,
        "tolerance": tol,
        "passed": _matches(expected, actual, tol),
    }


def builtin_example_checks() -> list[dict]:
    """Evaluate both built-in examples against their expected values.

    Expected values are exact rationals or closed forms evaluated at run
    time, never truncated decimals.
    """
    checks: list[dict] = []

    frame, profile = _example_a()
    pair = canonical_dual(frame)
    spectral = spectral_measure(pair, profile, 1)
    checks.append(
        _check("A", "weights", [4 / 3, 4 / 3, 2.0], [float(q) for q in profile.weights])
    )
    checks.append(
        _check(
            "A",
            "per_index_spectral",
            [8 / 9, 8 / 9, 4 / 3],
            [spectral.value_of([i]) for i in (1, 2, 3)],
        )
    )
    checks.append(_check("A", "spectral_one_canonical", 4 / 3, spectral.value))
    checks.append(
        _check("A", "norm_one_canonical", 4 / 3, norm_measure(pair, profile, 1).value)
    )
    better = _example_a_better_dual(frame)
    checks.append(
        _check("A", "spectral_one_better_dual", 10 / 9, spectral_measure(better, profile, 1).value)
    )
    checks.append(
        _check(
            "A",
            "norm_one_better_dual",
            2 * math.sqrt(26) / 9,
            norm_measure(better, profile, 1).value,
        )
    )
    # no component of the frame's vector matroid lies inside either attaining set
    _, spectral_partition = canonical_spectral_one_certificate(frame, profile)
    _, norm_partition = canonical_norm_one_certificate(frame, profile)
    checks.append(_check("A", "spectral_witness", [], list(spectral_partition.witness)))
    checks.append(_check("A", "norm_witness", [], list(norm_partition.witness)))

    frame, profile = _example_b()
    pair = canonical_dual(frame)
    checks.append(
        _check("B", "frame_bounds", [3.0, 3.0], [frame.lower_bound, frame.upper_bound])
    )
    spectral = spectral_measure(pair, profile, 1)
    checks.append(
        _check(
            "B",
            "per_index_spectral",
            [1.0, 1.0, 1.0, 1.0],
            [spectral.value_of([i]) for i in (1, 2, 3, 4)],
        )
    )
    norm = norm_measure(pair, profile, 1)
    checks.append(
        _check(
            "B",
            "per_index_norm",
            [1.0, 1.0, 1.0, 1.0],
            [norm.value_of([i]) for i in (1, 2, 3, 4)],
        )
    )
    spectral_cert, spectral_partition = canonical_spectral_one_certificate(frame, profile)
    norm_cert, norm_partition = canonical_norm_one_certificate(frame, profile)
    checks.append(_check("B", "spectral_condition_holds", True, spectral_cert.conclusion))
    checks.append(_check("B", "norm_condition_holds", True, norm_cert.conclusion))
    # the frame is one component, and every index attains the threshold
    checks.append(_check("B", "spectral_witness", [1, 2, 3, 4], list(spectral_partition.witness)))
    checks.append(_check("B", "norm_witness", [1, 2, 3, 4], list(norm_partition.witness)))
    spectral_search = minimize_spectral_one(frame, profile)
    norm_search = minimize_norm_one(frame, profile)
    checks.append(_check("B", "spectral_search_gap", 0.0, spectral_search.gap, tol=1e-6))
    checks.append(_check("B", "norm_search_gap", 0.0, norm_search.gap, tol=1e-6))
    return checks


def cmd_examples(args) -> int:
    checks = builtin_example_checks()
    all_pass = all(c["passed"] for c in checks)
    document = {
        "tool": {"name": "framelab", "version": __version__},
        "report": "examples",
        "checks": checks,
        "all_pass": all_pass,
    }
    write_report(document, args.out)
    width = max(len(f"{c['example']}.{c['quantity']}") for c in checks)
    for c in checks:
        name = f"{c['example']}.{c['quantity']}"
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"{verdict}  {name:<{width}}  expected={c['expected']}  actual={c['actual']}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Probability-weighted erasure analysis for finite frames",
    )
    parser.add_argument("--version", action="version", version=f"framelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="weights, canonical dual, measures, certificates")
    analyze.add_argument("frame", help="frame file (JSON)")
    analyze.add_argument("--probs", help="separate probability file (overrides inline)")
    analyze.add_argument(
        "--m", type=int, action="append", help="erasure count to report (repeatable; default 1 and 2)"
    )
    analyze.add_argument(
        "--measure", choices=("spectral", "norm", "both"), default="both"
    )
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.set_defaults(handler=cmd_analyze)

    search = sub.add_parser("search", help="minimax search for one-erasure optimal duals")
    search.add_argument("frame", help="frame file (JSON)")
    search.add_argument("--probs", help="separate probability file (overrides inline)")
    search.add_argument(
        "--measure", choices=("spectral", "norm", "both"), default="both"
    )
    search.add_argument("--restarts", type=int, help="accepted but ignored")
    search.add_argument("--seed", type=int, help="accepted but ignored")
    search.add_argument(
        "--method", choices=("smoothed", "subgradient"), help="accepted but ignored"
    )
    search.add_argument("--out", help="write the report here instead of stdout")
    search.set_defaults(handler=cmd_search)

    simulate = sub.add_parser("simulate", help="seeded erasure-channel Monte Carlo")
    simulate.add_argument("frame", help="frame file (JSON)")
    simulate.add_argument("--probs", help="separate probability file (overrides inline)")
    simulate.add_argument("--m", type=int, default=1, help="erasures per trial")
    simulate.add_argument("--trials", type=int, default=10000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", help="write the report here instead of stdout")
    simulate.set_defaults(handler=cmd_simulate)

    examples = sub.add_parser("examples", help="run the built-in worked examples")
    examples.add_argument("--out", help="write the report here instead of stdout")
    examples.set_defaults(handler=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # LinAlgError subclasses ValueError, so it is caught before the input errors
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # every InputError is a ValueError
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FrameLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
