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

numpy and the library layers load only once ``argparse`` has chosen a
subcommand, and each handler imports only the layers it calls: ``--version``,
``--help`` and an argument error load neither, and ``simulate`` loads neither
:mod:`~framelab.optimality` nor :mod:`~framelab.search`.

Exit codes: 0 success, 1 expected-value mismatch in ``examples``, 2 input
error (any ``ValueError``: every :class:`~framelab.errors.InputError` and a
report that cannot be written among them; and running out of memory, since
the input sets every allocation's size), 3 numeric failure (any other
``FrameLabError``, and a LAPACK failure).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .frames import Frame
    from .weights import ProbabilityProfile

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


# before any handler loads numpy
thread_cap()

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _load_inputs(args) -> tuple[Frame, ProbabilityProfile, dict]:
    from .fileio import load_frame_file, load_probability_file, resolve_profile

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
    return content.frame, profile, input_section


def _write(args, **sections) -> None:
    """Write the ``args.command`` report: the tool and report name, then ``sections``."""
    from .reporting import write_report

    document = {"tool": {"name": "framelab", "version": __version__}, "report": args.command}
    write_report({**document, **sections}, args.out)


def cmd_analyze(args) -> int:
    from .frames import canonical_dual
    from .optimality import _measure_memo, analyze_certificates
    from .reporting import dual_pair_to_dict, frame_to_dict, measure_report_to_dict
    from .weights import weight_properties_report

    frame, profile, input_section = _load_inputs(args)
    requested = sorted(set(args.m)) if args.m else [1, 2]
    for m in requested:
        if not 1 <= m <= frame.count:
            raise ValueError(f"requested m={m} outside 1..{frame.count}")
    kinds = ("spectral", "norm") if args.measure == "both" else (args.measure,)
    pair = canonical_dual(frame)
    # one memo of the canonical measures serves this section and the certificates
    measure = _measure_memo(pair, profile)
    measures = [measure_report_to_dict(measure(kind, m)) for m in requested for kind in kinds]
    _write(
        args,
        input=input_section,
        frame=frame_to_dict(frame),
        weights={**vars(profile), "properties": weight_properties_report(profile)},
        canonical_dual=dual_pair_to_dict(pair),
        measures=measures,
        certificates=analyze_certificates(frame, profile, measure),
    )
    return EXIT_OK


def cmd_search(args) -> int:
    from .erasures import norm_measure, spectral_measure
    from .reporting import vectors_as_rows
    from .search import minimize_norm_one, minimize_spectral_one

    frame, profile, input_section = _load_inputs(args)
    if args.restarts is not None:
        print("note: --restarts is accepted but no longer changes the result", file=sys.stderr)
    kinds = ("spectral", "norm") if args.measure == "both" else (args.measure,)
    searches = []
    for kind in kinds:
        minimize = minimize_spectral_one if kind == "spectral" else minimize_norm_one
        result = minimize(frame, profile)
        # the rows of the dual replace the pair where it stands, after the other fields
        entry = {
            "kind": kind,
            **vars(result),
            "best_dual": vectors_as_rows(result.best_dual.dual),
            "best_dual_measures": {
                "spectral_one": spectral_measure(result.best_dual, profile, 1).value,
                "norm_one": norm_measure(result.best_dual, profile, 1).value,
                "spectral_two": spectral_measure(result.best_dual, profile, 2).value,
                "norm_two": norm_measure(result.best_dual, profile, 2).value,
            },
        }
        searches.append(entry)
    _write(args, input=input_section, weights=profile, searches=searches)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .erasures import norm_measure, simulate_erasure_channel
    from .frames import canonical_dual

    frame, profile, input_section = _load_inputs(args)
    pair = canonical_dual(frame)
    # the worst case comes first, so an m over the enumeration cap fails
    # before any trial is drawn
    worst_case = norm_measure(pair, profile, args.m).value if 1 <= args.m <= frame.count else 0.0
    stats = simulate_erasure_channel(pair, profile, args.m, args.trials, args.seed)
    within_bound = bool(stats.max_error <= worst_case + 1e-9)
    _write(
        args,
        input=input_section,
        weights=profile,
        simulation=stats,
        worst_case={"norm_value": worst_case, "within_bound": within_bound},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in worked examples
# ---------------------------------------------------------------------------


def _example_a():
    from .frames import build_frame
    from .weights import weights_from_probabilities

    frame = build_frame(2, [(1, 0), (0, 1), (1, 1)])
    profile = weights_from_probabilities([1 / 4, 1 / 4, 1 / 2], 2)
    return frame, profile


def _example_b():
    from .frames import build_frame
    from .weights import weights_from_probabilities

    frame = build_frame(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    profile = weights_from_probabilities([1 / 2, 1 / 2, 0.0, 0.0], 2)
    return frame, profile


def _example_a_better_dual(frame: Frame):
    """The dual shifting the first two dual vectors by (1/6, 1/6)."""
    import numpy as np

    from .frames import DualPair, canonical_dual

    pert = np.array([[1 / 6, 1 / 6, -1 / 6], [1 / 6, 1 / 6, -1 / 6]], dtype=complex)
    return DualPair(frame, canonical_dual(frame).dual + pert)


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
    time, never truncated decimals.  The canonical dual's facts come from
    the m = 1 measures and the certificates ``analyze`` reports.
    """
    from .erasures import norm_measure, spectral_measure
    from .frames import canonical_dual
    from .optimality import (
        CONDITION_CANONICAL_NORM_ONE,
        CONDITION_CANONICAL_SPECTRAL_ONE,
        _measure_memo,
        analyze_certificates,
    )
    from .search import minimize_norm_one, minimize_spectral_one

    checks: list[dict] = []

    frame, profile = _example_a()
    # the certificates read the m = 1 measures from this memo, so each is evaluated once
    measure = _measure_memo(canonical_dual(frame), profile)
    certificates = {c.condition_id: c for c in analyze_certificates(frame, profile, measure)}
    spectral = certificates[CONDITION_CANONICAL_SPECTRAL_ONE]
    norm = certificates[CONDITION_CANONICAL_NORM_ONE]
    checks.append(
        _check("A", "weights", [4 / 3, 4 / 3, 2.0], [float(q) for q in profile.weights])
    )
    per_index = measure("spectral", 1).per_set_values.tolist()
    checks.append(_check("A", "per_index_spectral", [8 / 9, 8 / 9, 4 / 3], per_index))
    checks.append(_check("A", "spectral_one_canonical", 4 / 3, spectral.partition.threshold))
    checks.append(_check("A", "norm_one_canonical", 4 / 3, norm.partition.threshold))
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
    checks.append(_check("A", "spectral_witness", [], list(spectral.partition.witness)))
    checks.append(_check("A", "norm_witness", [], list(norm.partition.witness)))

    frame, profile = _example_b()
    measure = _measure_memo(canonical_dual(frame), profile)
    certificates = {c.condition_id: c for c in analyze_certificates(frame, profile, measure)}
    spectral = certificates[CONDITION_CANONICAL_SPECTRAL_ONE]
    norm = certificates[CONDITION_CANONICAL_NORM_ONE]
    checks.append(
        _check("B", "frame_bounds", [3.0, 3.0], [frame.lower_bound, frame.upper_bound])
    )
    per_index = measure("spectral", 1).per_set_values.tolist()
    checks.append(_check("B", "per_index_spectral", [1.0] * 4, per_index))
    per_index = measure("norm", 1).per_set_values.tolist()
    checks.append(_check("B", "per_index_norm", [1.0] * 4, per_index))
    checks.append(_check("B", "spectral_condition_holds", True, spectral.conclusion))
    checks.append(_check("B", "norm_condition_holds", True, norm.conclusion))
    # the frame is one component, and every index attains the threshold
    checks.append(_check("B", "spectral_witness", [1, 2, 3, 4], list(spectral.partition.witness)))
    checks.append(_check("B", "norm_witness", [1, 2, 3, 4], list(norm.partition.witness)))
    spectral_search = minimize_spectral_one(frame, profile)
    norm_search = minimize_norm_one(frame, profile)
    checks.append(_check("B", "spectral_search_gap", 0.0, spectral_search.gap, tol=1e-6))
    checks.append(_check("B", "norm_search_gap", 0.0, norm_search.gap, tol=1e-6))
    return checks


def cmd_examples(args) -> int:
    checks = builtin_example_checks()
    all_pass = all(c["passed"] for c in checks)
    _write(args, checks=checks, all_pass=all_pass)
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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the report here instead of stdout")
    inputs = argparse.ArgumentParser(add_help=False, parents=[output])
    inputs.add_argument("frame", help="frame file (JSON)")
    inputs.add_argument("--probs", help="separate probability file (overrides inline)")
    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--measure", choices=("spectral", "norm", "both"), default="both")

    analyze = sub.add_parser(
        "analyze", parents=[inputs, measure], help="weights, canonical dual, measures, certificates"
    )
    analyze.add_argument(
        "--m", type=int, action="append", help="erasure count to report (repeatable; default 1 and 2)"
    )
    analyze.set_defaults(handler=cmd_analyze)

    search = sub.add_parser(
        "search", parents=[inputs, measure], help="minimax search for one-erasure optimal duals"
    )
    # an option of the earlier restarted solver; perfbench/workloads.py passes
    # it to every search job, so it stays accepted, and changes nothing
    search.add_argument("--restarts", type=int, help="accepted but ignored")
    search.set_defaults(handler=cmd_search)

    simulate = sub.add_parser("simulate", parents=[inputs], help="seeded erasure-channel Monte Carlo")
    simulate.add_argument("--m", type=int, default=1, help="erasures per trial")
    simulate.add_argument("--trials", type=int, default=10000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    examples = sub.add_parser("examples", parents=[output], help="run the built-in worked examples")
    examples.set_defaults(handler=cmd_examples)
    return parser


def _linalg_error() -> tuple:
    """numpy's ``LinAlgError`` once numpy is loaded: before, none can have been raised."""
    numpy = sys.modules.get("numpy")
    return (numpy.linalg.LinAlgError,) if numpy is not None else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import FrameLabError

    try:
        return args.handler(args)
    # LinAlgError subclasses ValueError, so it is caught before the input errors
    except _linalg_error() as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # every InputError is a ValueError
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FrameLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # the input sets every allocation's size (simulate --trials 1000000000000)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
