"""Seeded generator of the frame and probability files the benchmark feeds to framelab.

Every file is derived from the workload seed and the pass number alone, so
the same seed gives byte-identical files.  Frames are written in framelab's frame-file format
(entries as ``[re, im]`` pairs) and probabilities as ``{"probabilities": [...]}``
in a separate file.  Floats are written with ``repr``, which round-trips
exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FrameSpec:
    """One generated input: a frame and its erasure probabilities.

    ``zeros`` indices get probability zero.  ``support``, when set, gives the
    number of indices with positive probability (all mass on the first
    ``support`` indices), which forces framelab's zero-mass fallback for
    ``simulate --m`` larger than ``support``.
    """

    name: str
    dim: int
    count: int
    field: str  # "real" or "complex"
    parseval: bool
    zeros: int = 0
    support: int | None = None


def _spec_seed(seed: int, index: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{index}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_frame(rng: np.random.Generator, spec: FrameSpec) -> np.ndarray:
    """Synthesis matrix (dim x count) of a random spanning frame."""
    shape = (spec.dim, spec.count)
    matrix = rng.standard_normal(shape)
    if spec.field == "complex":
        matrix = matrix + 1j * rng.standard_normal(shape)
    if spec.parseval:
        # F = U Vh[:n] has orthonormal rows, so F F^H = I.
        u, _, vh = np.linalg.svd(matrix, full_matrices=False)
        matrix = u @ vh
    if spec.field == "real":
        matrix = np.real(matrix)
    return np.asarray(matrix, dtype=np.complex128)


def make_probabilities(rng: np.random.Generator, spec: FrameSpec) -> np.ndarray:
    """Dirichlet probabilities with ``spec.zeros`` zero-mass indices."""
    if spec.support is not None:
        p = np.zeros(spec.count)
        p[: spec.support] = rng.dirichlet(np.ones(spec.support))
    else:
        p = rng.dirichlet(np.ones(spec.count))
        if spec.zeros:
            p[rng.choice(spec.count, size=spec.zeros, replace=False)] = 0.0
    return p / p.sum()


def frame_document(matrix: np.ndarray, field: str) -> str:
    dim, count = matrix.shape
    vectors = [[[float(z.real), float(z.imag)] for z in column] for column in matrix.T]
    doc = {"dim": dim, "count": count, "field": field, "vectors": vectors}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def probability_document(p: np.ndarray) -> str:
    return json.dumps({"probabilities": [float(x) for x in p]}, separators=(",", ":")) + "\n"


def _write(path: Path, text: str) -> dict:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"file": path.name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def write_corpus(specs, seed: int, directory: Path, index: int = 0) -> dict:
    """Write ``<name>.frame.json`` and ``<name>.probs.json`` for each spec.

    The files depend only on ``seed`` and ``index`` (the pass number).
    Returns a manifest keyed by spec name with each file's shape, seed and
    sha256.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for spec in specs:
        spec_seed = _spec_seed(seed, index, spec.name)
        rng = np.random.default_rng(spec_seed)
        matrix = make_frame(rng, spec)
        p = make_probabilities(rng, spec)
        manifest[spec.name] = {
            "shape": [spec.dim, spec.count],
            "field": spec.field,
            "parseval": spec.parseval,
            "zero_probabilities": int(np.count_nonzero(p == 0.0)),
            "seed": spec_seed,
            "frame": _write(directory / f"{spec.name}.frame.json", frame_document(matrix, spec.field)),
            "probs": _write(directory / f"{spec.name}.probs.json", probability_document(p)),
        }
    return manifest
