"""Canonical report serialization.

A report is the text of ``json.dumps(document, separators=(",", ":"),
allow_nan=False)`` and a final newline: keys in insertion order and no
whitespace between tokens (``python -m json.tool`` shows it indented).
Floats take the shortest spelling that parses back to the same double
(Python's ``repr``), so identical inputs produce byte-identical reports and
parsing a written report gives back the document.  Non-finite floats are
rejected.  Every complex number is an ``[re, im]`` pair, and every dataclass
the dict of its fields in declaration order.

The per-set tables of the erasure measures (one row per erasure set, up to
tens of thousands of rows) are written from a ``%``-format row template
instead of by the encoder, which would need each table whole as Python
objects; their bytes are the ones ``json.dumps`` would write, and a NaN or
infinite value raises ``ValueError`` as ``allow_nan=False`` does.
Everything else, the report's head, goes through one ``json.dumps`` call,
which runs the standard library's C encoder.

:func:`write_report` writes the text in pieces, so a report is never held in
memory whole.  The head is encoded in full, and every check run, before the
first piece, so a report that fails one writes nothing.  A table is
converted to Python floats, and written, one block of ``TABLE_BLOCK`` rows
at a time.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import is_dataclass

import numpy as np

from .erasures import ErasureMeasureReport
from .frames import DualPair, Frame

# Per-set table rows per piece of report text.
TABLE_BLOCK = 1024


def _plain(obj):
    """Encoder hook for values the stdlib JSON encoder cannot write: numpy
    arrays and scalars, complex numbers (an ``[re, im]`` pair) and dataclasses
    (the dict of their fields, in declaration order, which is the order of
    the report's keys)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# What the encoder writes for a per-set table before the table is spliced in.
# Report strings are file paths, fixed names and messages, none of which can
# hold a NUL character, so no other string is written this way.
_TABLE_PLACEHOLDER = json.dumps("\0")


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
    """The text of the report as an iterator of pieces.

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

    head = json.dumps(document, separators=(",", ":"), allow_nan=False, default=default)
    return _spliced(head.split(_TABLE_PLACEHOLDER), tables)


def _spliced(texts: list[str], tables: list[ErasureMeasureReport]) -> Iterator[str]:
    """The head texts with the tables between them, then the final newline."""
    yield texts[0]
    for table, text in zip(tables, texts[1:]):
        yield from _set_table(table)
        yield text
    yield "\n"


def _set_table(report: ErasureMeasureReport) -> Iterator[str]:
    """The ``json.dumps`` text of the rows ``{"indices":[...],"value":v}`` of
    ``report``, in pieces of at most ``TABLE_BLOCK`` rows."""
    row = '{"indices":[' + ",".join(["%d"] * report.m) + '],"value":%s}'
    sets, values = report.sets(), report.per_set_values
    yield "["
    for start in range(0, values.size, TABLE_BLOCK):
        block = values[start : start + TABLE_BLOCK].tolist()
        rows = map(
            tuple.__add__, itertools.islice(sets, len(block)), zip(map(float.__repr__, block))
        )
        yield ("" if start == 0 else ",") + ",".join(map(row.__mod__, rows))
    yield "]"


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


def measure_report_to_dict(report: ErasureMeasureReport) -> dict:
    return {
        "kind": report.kind,
        "m": report.m,
        "value": report.value,
        "argmax_sets": [list(s) for s in report.argmax_sets],
        "per_set_values": report,
    }


def dual_pair_to_dict(pair: DualPair) -> dict:
    return {
        "dual_vectors": vectors_as_rows(pair.dual),
        "cross_gram_diagonal": np.diagonal(pair.cross_gram).tolist(),
        "cross_gram_trace": complex(np.trace(pair.cross_gram)),
    }
