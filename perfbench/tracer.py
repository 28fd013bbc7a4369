"""Run one framelab CLI job in this process with a span at every layer boundary.

Usage: python perfbench/tracer.py SPANS_OUT JOB_ID -- CLI_ARGS...

Before ``framelab.cli.main(CLI_ARGS)`` runs, every public framelab function
is wrapped at the names other framelab modules import it under (for example
``framelab.cli.spectral_measure`` or ``framelab.optimality.canonical_dual``),
as is the ``scipy.optimize.minimize`` that ``framelab.search`` binds.  Calls
inside one module are not wrapped, so a span marks a call from one layer into
another.  framelab's source is not modified.  The report goes to stdout as
usual; the spans stay in memory and are written to SPANS_OUT as JSON at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

from spans import LAYERS


class Recorder:
    """Spans of one job: name, layer, start, end, parent span and counters."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans}, fh)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _search_counters(fn, args, kwargs, result) -> dict:
    from framelab.search import SearchOptions

    options = _bound(fn, args, kwargs)["options"] or SearchOptions()
    outcome = getattr(result, "result", result)  # certify_canonical_optimal wraps the result
    return {"restarts": max(0, options.restarts), "converged": bool(outcome.converged)}


def _measure_counters(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"sets": math.comb(a["pair"].count, a["m"])}


def _basis_counters(fn, args, kwargs, result) -> dict:
    frame = result.base_frame
    return {"basis_bytes": result.size * frame.dim * frame.count * 16}


COUNTERS = {
    "fileio.load_frame_file": lambda fn, a, k, r: {"bytes_read": os.stat(_bound(fn, a, k)["path"]).st_size},
    "fileio.load_probability_file": lambda fn, a, k, r: {"bytes_read": os.stat(_bound(fn, a, k)["path"]).st_size},
    "frames.dual_perturbation_basis": _basis_counters,
    "erasures.spectral_measure": _measure_counters,
    "erasures.norm_measure": _measure_counters,
    "erasures.simulate_erasure_channel": lambda fn, a, k, r: {"trials": _bound(fn, a, k)["trials"]},
    "search.minimize_spectral_one": _search_counters,
    "search.minimize_norm_one": _search_counters,
    "search.certify_canonical_optimal": _search_counters,
    "search.lbfgs": lambda fn, a, k, r: {"nit": int(r.nit), "nfev": int(r.nfev)},
    "reporting.emit_report": lambda fn, a, k, r: {"bytes": len(r.encode("utf-8"))},
}


def wrap(recorder: Recorder, name: str, layer: str, fn):
    counters = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if counters is not None:
            try:
                span["counters"] = counters(fn, args, kwargs, result)
            except Exception as exc:  # a changed signature must not break the job
                span["counters"] = {"counter_error": 1}
                print(f"trace: no counters for {name}: {exc!r}", file=sys.stderr)
        return result

    return traced


def install(recorder: Recorder) -> None:
    """Wrap every cross-layer call site."""
    modules = {layer: importlib.import_module(f"framelab.{layer}") for layer in LAYERS}
    owner = {f"framelab.{layer}": layer for layer in LAYERS}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = owner.get(value.__module__)
            if home is None or home == layer:
                continue
            setattr(module, attr, wrap(recorder, f"{home}.{attr}", home, value))
    # scipy's minimize is wrapped where framelab.search binds it and, for a
    # search that imports it at call time, in scipy.optimize if that is loaded.
    # optimality imports certify_canonical_optimal at call time from
    # framelab.search, so that boundary is the search module's own binding.
    search = modules["search"]
    optimize = sys.modules.get("scipy.optimize")
    if optimize is not None:
        optimize.minimize = wrap(recorder, "search.lbfgs", "search", optimize.minimize)
    if hasattr(search, "_scipy_minimize"):
        search._scipy_minimize = wrap(recorder, "search.lbfgs", "search", search._scipy_minimize)
    if hasattr(search, "certify_canonical_optimal"):
        search.certify_canonical_optimal = wrap(
            recorder, "search.certify_canonical_optimal", "search", search.certify_canonical_optimal
        )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, job, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(job)
    span = recorder.open("cli.import", "import")
    import framelab.cli

    recorder.close(span)
    install(recorder)
    span = recorder.open("cli.main", "cli")
    try:
        code = framelab.cli.main(cli_args)
    finally:
        recorder.close(span)
        sys.stdout.flush()
        recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
