"""Canonical report serialization.

Reports are JSON documents with the layout of the standard encoder's
``json.dumps(indent=2)``: keys in insertion order and two-space indentation.
Floats take the shortest spelling that parses back to the same double
(Python's ``repr``), so identical inputs produce byte-identical reports and
``parse_report(emit_report(r)) == r``.  Non-finite floats are rejected.

The per-set tables of the erasure measures (one row per erasure set, up to
tens of thousands of rows) are written from a ``%``-format row template
instead of the encoder's pure-Python recursion; their bytes are the ones
``json.dumps`` would write, and a NaN or infinite value raises
``ValueError`` as ``allow_nan=False`` does.  Everything else, the report's
head, goes through the standard encoder with ``indent=2``.

:func:`write_report` writes the text in pieces, so a report is never held in
memory whole.  The head is encoded in full, and every check run, before the
first piece, so a report that fails one writes nothing; its chunks are
joined ``ENCODE_BATCH`` at a time, where ``json.dumps`` would hold all of
them in one list.  A table is converted to Python floats, and written, one
block of ``TABLE_BLOCK`` rows at a time.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import is_dataclass
from typing import TYPE_CHECKING

import numpy as np

from .erasures import ErasureMeasureReport
from .errors import ParseError
from .frames import DualPair, Frame
from .weights import ProbabilityProfile, WeightPropertiesReport

if TYPE_CHECKING:
    from .search import SearchResult

# Per-set table rows per piece of report text.
TABLE_BLOCK = 1024
# Encoder chunks per string of the report's head.
ENCODE_BATCH = 4096


def _plain(obj):
    """Encoder hook for values the stdlib JSON encoder cannot write: numpy
    arrays and scalars, complex numbers (an ``[re, im]`` pair, or a float when
    the imaginary part is 0) and dataclasses (the dict of their fields, in
    declaration order, which is the order of the report's keys)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return complex_pair(obj) if obj.imag != 0.0 else obj.real
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# What the encoder writes for a per-set table before the table is spliced in.
# Report strings are file paths, fixed names and messages, none of which can
# hold a NUL character, so no other string is written this way.
_TABLE_PLACEHOLDER = json.dumps("\0")


def emit_report(document: dict) -> str:
    """Serialize a report document to canonical JSON text."""
    return "".join(_report_pieces(document))


def write_report(document: dict, path: str | None) -> None:
    """Write the report to the file ``path``, or to stdout when ``path`` is
    empty.  A document that fails a check raises before the file is opened;
    a report that cannot be opened or written raises ``ValueError`` naming
    ``path`` or stdout, and a failed stdout is pointed at the null device."""
    pieces = _report_pieces(document)
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            _discard_stdout()
        raise ValueError(f"cannot write the report to {path or 'stdout'}: {exc.strerror}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device, so
    that the interpreter's flush of stdout at exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation: an in-memory stream
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _report_pieces(document: dict) -> Iterator[str]:
    """The text of :func:`emit_report` as an iterator of pieces.

    The document is encoded, and every table checked, in this call, so an
    error is raised before the first piece exists; the table rows are
    formatted as the pieces are taken.
    """
    tables = []

    def default(obj):
        if isinstance(obj, ErasureMeasureReport):
            if not np.isfinite(obj.per_set_values).all():
                raise ValueError(f"non-finite value in the {obj.kind} m={obj.m} per-set table")
            tables.append(obj)
            return "\0"
        return _plain(obj)

    chunks = json.JSONEncoder(indent=2, allow_nan=False, default=default).iterencode(document)
    # the placeholder is one chunk, so no batch splits it
    pieces = []
    for batch in iter(lambda: list(itertools.islice(chunks, ENCODE_BATCH)), []):
        first, *rest = "".join(batch).split(_TABLE_PLACEHOLDER)
        pieces.append(first)
        for text in rest:
            pieces += (None, text)
    return _spliced(pieces, iter(tables))


def _spliced(pieces, tables) -> Iterator[str]:
    """The strings of ``pieces``, each None replaced by the next of
    ``tables``, then the final newline."""
    line = ""
    for piece in pieces:
        if piece is None:
            yield from _set_table(next(tables), len(line) - len(line.lstrip(" ")))
        else:
            yield piece
            cut = piece.rfind("\n")
            line = piece[cut + 1 :] if cut >= 0 else line + piece
    yield "\n"


def _set_table(report: ErasureMeasureReport, indent: int) -> Iterator[str]:
    """The ``json.dumps(indent=2)`` text of the rows ``{"indices": [...],
    "value": v}`` of ``report``, opened on a line indented by ``indent``, in
    pieces of at most ``TABLE_BLOCK`` rows."""
    pad = " " * indent
    row = (
        f"{pad}  {{\n{pad}    \"indices\": [\n"
        + ",\n".join([f"{pad}      %d"] * report.m)
        + f"\n{pad}    ],\n{pad}    \"value\": %s\n{pad}  }}"
    )
    sets, values = report.sets(), report.per_set_values
    yield "[\n"
    for start in range(0, values.size, TABLE_BLOCK):
        block = values[start : start + TABLE_BLOCK].tolist()
        rows = map(
            tuple.__add__, itertools.islice(sets, len(block)), zip(map(float.__repr__, block))
        )
        yield ("" if start == 0 else ",\n") + ",\n".join(map(row.__mod__, rows))
    yield f"\n{pad}]"


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
    return np.stack((matrix.real, matrix.imag), -1).transpose(1, 0, 2).tolist()


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
        "per_set_values": report,
    }


def dual_pair_to_dict(pair: DualPair) -> dict:
    return {
        "dual_vectors": vectors_as_rows(pair.dual),
        "cross_gram_diagonal": [complex_pair(v) for v in np.diagonal(pair.cross_gram)],
        "cross_gram_trace": complex_pair(np.trace(pair.cross_gram)),
    }


def search_result_to_dict(result: SearchResult) -> dict:
    return {
        "best_value": result.best_value,
        "canonical_value": result.canonical_value,
        "gap": result.gap,
        "lower_bound": result.lower_bound,
        "iterations": result.iterations,
        "converged": result.converged,
        "note": result.note,
        "best_dual": vectors_as_rows(result.best_dual.dual),
    }
