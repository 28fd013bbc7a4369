"""Frame and probability file formats.

A frame file is a self-describing JSON document:

    {
      "dim": 2,
      "count": 3,
      "field": "real",
      "vectors": [[[1, 0], [0, 0]],
                  [[0, 0], [1, 0]],
                  [[1, 0], [1, 0]]],
      "probabilities": [0.25, 0.25, 0.5]
    }

``vectors`` holds one row per frame vector with every entry written as an
``[re, im]`` pair, real frames included (a ``"real"`` field requires all
imaginary parts to be zero).  ``probabilities`` is optional; a separate
probability file (either a bare JSON array or ``{"probabilities": [...]}``)
overrides it.

A parsed file carries its ``digest``, the SHA-256 of the file's UTF-8 text,
which reports show as ``frame_digest``.  It is taken from CPython's built-in
SHA-256 module (``_sha2``, or ``_sha256`` before Python 3.12) rather than
from :mod:`hashlib`, whose import loads OpenSSL's libcrypto; ``hashlib``
falls back to the same module when OpenSSL is missing, so the digest is the
same either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter without the built-in modules
        from hashlib import sha256

from .errors import FrameLabError, ParseError
from .frames import Frame, build_frame
from .weights import ProbabilityProfile, weights_from_probabilities

FIELDS = ("real", "complex")


@dataclass(frozen=True)
class FrameFileContent:
    frame: Frame
    field: str
    probabilities: tuple[float, ...] | None
    digest: str


def _finite(x) -> bool:
    """Whether a parsed JSON number is a finite double."""
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer literal beyond the double range
        return False


def _entry_to_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise ParseError(f"{where}: every entry must be an [re, im] pair, got {entry!r}")
    if not all(map(_finite, entry)):
        raise ParseError(f"{where}: entries must be finite, got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def parse_frame_document(text: str, source: str = "<frame>") -> FrameFileContent:
    """Parse a frame document; raises :class:`ParseError` on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: expected a JSON object at the top level")
    for key in ("dim", "count", "field", "vectors"):
        if key not in doc:
            raise ParseError(f"{source}: missing required key {key!r}")
    dim, count, field = doc["dim"], doc["count"], doc["field"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (dim, count)):
        raise ParseError(f"{source}: dim and count must be integers")
    if field not in FIELDS:
        raise ParseError(f"{source}: field must be one of {FIELDS}, got {field!r}")
    rows = doc["vectors"]
    if not isinstance(rows, list) or len(rows) != count:
        raise ParseError(f"{source}: expected {count} vector rows")
    vectors = []
    for r, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{source}: vector {r} must have {dim} entries")
        vec = [_entry_to_complex(entry, f"{source}: vector {r}") for entry in row]
        if field == "real" and any(v.imag != 0.0 for v in vec):
            raise ParseError(f"{source}: vector {r} has a nonzero imaginary part in a real frame")
        vectors.append(vec)
    probabilities = None
    if "probabilities" in doc and doc["probabilities"] is not None:
        probabilities = _as_probability_tuple(doc["probabilities"], source)
        if len(probabilities) != count:
            raise ParseError(
                f"{source}: {len(probabilities)} probabilities for {count} vectors"
            )
    try:
        frame = build_frame(dim, vectors)
    except FrameLabError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    digest = sha256(text.encode("utf-8")).hexdigest()
    return FrameFileContent(
        frame=frame, field=field, probabilities=probabilities, digest=digest
    )


def _as_probability_tuple(raw, source: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
    ):
        raise ParseError(f"{source}: probabilities must be a list of numbers")
    if not all(map(_finite, raw)):
        raise ParseError(f"{source}: probabilities must be finite, got {raw!r}")
    return tuple(float(x) for x in raw)


def load_frame_file(path: str | Path) -> FrameFileContent:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read frame file {p}: {exc}") from exc
    return parse_frame_document(text, source=str(p))


def parse_probability_document(text: str, source: str = "<probabilities>") -> tuple[float, ...]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: not valid JSON ({exc})") from exc
    if isinstance(doc, dict):
        if "probabilities" not in doc:
            raise ParseError(f"{source}: missing 'probabilities' key")
        doc = doc["probabilities"]
    return _as_probability_tuple(doc, source)


def load_probability_file(path: str | Path) -> tuple[float, ...]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read probability file {p}: {exc}") from exc
    return parse_probability_document(text, source=str(p))


def resolve_profile(
    content: FrameFileContent, separate: tuple[float, ...] | None
) -> tuple[ProbabilityProfile, str, bool]:
    """Choose between inline and separate probabilities.

    Returns the profile, its source tag, and whether a separate file
    overrode conflicting inline values (callers should warn).
    """
    conflict = False
    if separate is not None:
        if content.probabilities is not None and tuple(separate) != content.probabilities:
            conflict = True
        raw, source = separate, "separate_file"
    elif content.probabilities is not None:
        raw, source = content.probabilities, "frame_file"
    else:
        raise ParseError(
            "no probabilities given: add a 'probabilities' entry to the frame "
            "file or pass a separate probability file"
        )
    try:
        profile = weights_from_probabilities(np.asarray(raw), content.frame.dim)
    except FrameLabError as exc:
        raise ParseError(f"invalid probabilities: {exc}") from exc
    return profile, source, conflict
