"""Finite frames, frame operators, canonical duals, and the dual-frame space.

A frame is stored as its synthesis matrix: an ``n x N`` complex array whose
columns are the frame vectors.  Inner products follow the convention
``<a, b> = b^H a`` (linear in the first argument), so a frame ``F`` and a
candidate dual ``G`` form a dual pair exactly when ``G F^H = I``.

Every dual of ``F`` is ``G = S^-1 F + C V^H``: ``S^-1 F`` is the canonical
dual, ``V`` is an ``N x (N - n)`` matrix whose orthonormal columns span the
null space of ``F``, and ``C`` is any complex ``n x (N - n)`` matrix.  The
perturbations ``C V^H`` are exactly the solutions of ``U F^H = 0``, a space of
dimension ``n (N - n)``.  :func:`dual_perturbation_basis` returns ``V`` and
:func:`dual_from_coefficients` takes ``C``.  Row ``i`` of ``V`` is zero when
``f_i`` is a coloop, a vector whose removal lowers the rank: every dual
shares its ``g_i``.  These rows are set to exactly zero where ``V`` is built,
so no caller reads their rounding as directions.

The connected components of the frame's vector matroid (two vectors are in
one component when some minimal dependent set holds both) are read off the
same decomposition: ``P = W W^H`` is the orthogonal projector onto the row
space of ``F``, and it is block-diagonal exactly along the components, so
they are the connected components of the graph with an edge wherever
``|P_ij|`` exceeds ``RANK_TOL``, or ``1e3 eps cond(F)`` when that is larger:
the rounding of ``P`` grows with the conditioning of ``F``.  A coloop is a
component of one vector with ``P_ii = 1``; a zero vector, a loop, is one with
``P_ii = 0``.

A :class:`Frame` takes one thin singular value decomposition of its synthesis
matrix, ``F = U diag(s) W^H``, and derives the rest from it: the spanning
check and the frame bounds from ``s``, the condition number ``(s_1 / s_n)^2``
of the frame operator ``S = F F^H``, and the canonical dual
``S^-1 F = U diag(1 / s) W^H``, which is never solved for through ``S``: that
would square the conditioning.  ``V`` comes from a full decomposition, taken
only when it is asked for.  ``S``, the canonical dual, ``V`` and the
components are computed once per frame and cached on it.

A :class:`DualPair` holds its dual as the read-only ``n x N`` array ``G``,
not as a second frame: a dual is read only through its matrix, and a ``G``
with ``G F^H = I`` spans.  Every dual identity is checked to the one
residual tolerance ``DUAL_TOL``.

Public vector indices are 1-based (vectors are numbered ``1 .. N``), matching
the usual convention for erasure index sets; all internal arrays are 0-based.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NotDual,
    NotSpanning,
    ShapeMismatch,
)

# Relative tolerance on singular values when deciding rank / spanning.
RANK_TOL = 1e-10
# Residual tolerance for the dual identity G F^H = I.
DUAL_TOL = 1e-10
# Cap on the frame operator's condition number cond(S) = (s_1 / s_n)^2 for a
# canonical dual.
CONDITION_LIMIT = 1e12


def _as_complex_matrix(vectors, dim: int) -> np.ndarray:
    """Stack vectors of length ``dim`` as columns of a complex matrix."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    cols = []
    for k, v in enumerate(vectors):
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        if arr.shape != (dim,):
            raise DimensionMismatch(
                f"vector {k + 1} has length {arr.size}, expected {dim}"
            )
        cols.append(arr)
    if not cols:
        raise DimensionMismatch("a frame needs at least one vector")
    return np.column_stack(cols)


class Frame:
    """A spanning family of N vectors in C^n.

    Parameters
    ----------
    synthesis : array-like, shape (n, N)
        Columns are the frame vectors.  The columns must span C^n; the
        smallest singular value must exceed ``RANK_TOL`` times the largest.
    """

    def __init__(self, synthesis) -> None:
        matrix = np.asarray(synthesis, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise DimensionMismatch(f"expected a 2-d synthesis matrix, got shape {matrix.shape}")
        n, count = matrix.shape
        if count < n:
            raise NotSpanning(f"{count} vectors cannot span a {n}-dimensional space")
        u, singular_values, wh = np.linalg.svd(matrix, full_matrices=False)
        if singular_values[-1] <= RANK_TOL * singular_values[0]:
            raise NotSpanning(
                "vectors do not span the space "
                f"(smallest/largest singular value = {singular_values[-1]:.3e}/{singular_values[0]:.3e})"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self._matrix = matrix
        # F = U diag(s) W^H: U is n x n, W^H is n x N with orthonormal rows
        self._svd = (u, singular_values, wh)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def count(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """Synthesis matrix (read-only view), shape ``(dim, count)``."""
        return self._matrix

    @property
    def lower_bound(self) -> float:
        """Optimal lower frame bound: smallest eigenvalue of the frame operator."""
        return float(self._svd[1][-1] ** 2)

    @property
    def upper_bound(self) -> float:
        """Optimal upper frame bound: largest eigenvalue of the frame operator."""
        return float(self._svd[1][0] ** 2)

    @property
    def parseval_residual(self) -> float:
        """Largest entry of ``|S - I|``; zero exactly for a Parseval frame."""
        return float(np.max(np.abs(self._operator - np.eye(self.dim))))

    @cached_property
    def _operator(self) -> np.ndarray:
        f = self._matrix
        operator = f @ f.conj().T
        operator.setflags(write=False)
        return operator

    @cached_property
    def _canonical(self) -> DualPair:
        u, s, wh = self._svd
        condition = float((s[0] / s[-1]) ** 2)
        if condition > CONDITION_LIMIT:
            raise IllConditioned(
                f"frame operator condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
            )
        return DualPair(self, (u / s) @ wh)

    @cached_property
    def _null_vectors(self) -> np.ndarray:
        n, count = self._matrix.shape
        _, _, vh = np.linalg.svd(self._matrix, full_matrices=True)
        null_vectors = [_canonical_phase(np.conj(vh[k])) for k in range(n, count)]
        v = np.array(null_vectors, dtype=np.complex128).reshape(count - n, count).T
        v[self._coloops] = 0.0
        v.setflags(write=False)
        return v

    @cached_property
    def _components(self) -> tuple[np.ndarray, ...]:
        """The connected components of the vector matroid, as arrays of
        0-based indices, ordered by their first index."""
        _, s, wh = self._svd
        # rounding moves the entries of P by a small multiple of eps * cond(F)
        cut = max(RANK_TOL, 1e3 * np.finfo(float).eps * s[0] / s[-1])
        linked = np.abs(wh.conj().T @ wh) > cut
        components, left = [], np.ones(self.count, dtype=bool)
        while left.any():
            reach = np.arange(self.count) == np.argmax(left)
            while not np.array_equal(grown := reach | linked[reach].any(axis=0), reach):
                reach = grown
            components.append(np.flatnonzero(reach))
            left &= ~reach
        return tuple(components)

    @cached_property
    def _coloops(self) -> np.ndarray:
        """Mask of the coloops: the one-vector components whose vector is not
        zero."""
        singles = [c[0] for c in self._components if c.size == 1]
        mask = np.zeros(self.count, dtype=bool)
        mask[singles] = self._matrix[:, singles].any(axis=0)
        return mask

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame(dim={self.dim}, count={self.count})"


def build_frame(dim: int, vectors) -> Frame:
    """Validate a list of length-``dim`` vectors and return the Frame."""
    return Frame(_as_complex_matrix(vectors, dim))


def frame_operator(frame: Frame) -> np.ndarray:
    """Frame operator ``S = F F^H = sum_i f_i f_i^H`` (positive definite), a
    read-only array computed once per frame."""
    return frame._operator


def verify_dual(frame: Frame, dual) -> bool:
    """Check the reconstruction identity ``sum_i <f, f_i> g_i = f`` for the
    ``n x N`` array ``dual`` of candidate dual vectors.

    Evaluated as the matrix identity ``G F^H = I`` with the largest entrywise
    residual compared against ``DUAL_TOL``.
    """
    g = np.asarray(dual)
    if g.shape != frame.matrix.shape:
        raise ShapeMismatch(
            f"frame is {frame.dim}x{frame.count}, candidate dual has shape {g.shape}"
        )
    residual = g @ frame.matrix.conj().T - np.eye(frame.dim)
    return float(np.max(np.abs(residual))) <= DUAL_TOL


class DualPair:
    """A frame together with a verified dual and the cached cross-Gram matrix.

    ``dual`` is the read-only ``n x N`` array ``G`` of the dual vectors.
    ``cross_gram[i, j] = <g_i, f_j>`` (0-based storage for 1-based vector
    indices).  Its trace equals the dimension for every dual pair.
    """

    def __init__(self, frame: Frame, dual) -> None:
        dual = np.array(dual, dtype=np.complex128)
        if not verify_dual(frame, dual):
            raise NotDual(f"candidate dual fails the reconstruction identity at tol={DUAL_TOL:g}")
        dual.setflags(write=False)
        self.frame = frame
        self.dual = dual
        gram = (frame.matrix.conj().T @ dual).T
        trace = complex(np.trace(gram))
        if abs(trace - frame.dim) > 10 * frame.dim * DUAL_TOL:
            raise NotDual(
                f"cross-Gram trace {trace:.12g} differs from the dimension {frame.dim}"
            )
        gram.setflags(write=False)
        self.cross_gram = gram

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def count(self) -> int:
        return self.frame.count

    def __repr__(self) -> str:  # pragma: no cover
        return f"DualPair(dim={self.dim}, count={self.count})"


def canonical_dual(frame: Frame) -> DualPair:
    """Dual pair formed by ``{S^-1 f_i}``, the canonical dual, computed once
    per frame."""
    return frame._canonical


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a unit vector so its largest-modulus entry is real positive."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def dual_perturbation_basis(frame: Frame) -> np.ndarray:
    """The null vectors ``V`` of ``F``: a read-only ``N x (N - n)`` array
    with orthonormal columns, computed once per frame.

    ``V`` is taken from the full singular value decomposition of the
    synthesis matrix, each column phase-normalized, which makes
    :func:`dual_from_coefficients` deterministic; coloop rows are zero.
    """
    return frame._null_vectors


def dual_from_coefficients(frame: Frame, coefficients) -> DualPair:
    """Dual pair ``S^-1 F + C V^H`` for the ``n x (N - n)`` matrix ``C``."""
    c = np.asarray(coefficients, dtype=np.complex128)
    v = dual_perturbation_basis(frame)
    if c.shape != (frame.dim, v.shape[1]):
        raise ShapeMismatch(
            f"coefficient shape {c.shape} does not match ({frame.dim}, {v.shape[1]})"
        )
    base = canonical_dual(frame)
    if not c.size:
        return base
    return DualPair(frame, base.dual + c @ v.conj().T)


def coefficients_for_perturbation(frame: Frame, perturbation) -> tuple[np.ndarray, float]:
    """Project a frame-shaped perturbation ``P`` onto the dual perturbations.

    Returns ``C = P V`` and the residual ``max |P - C V^H|``; a residual near
    zero certifies the perturbation lies in the dual-perturbation space.
    """
    p = np.asarray(perturbation, dtype=np.complex128)
    if p.shape != frame.matrix.shape:
        raise ShapeMismatch(f"perturbation shape {p.shape} does not match {frame.matrix.shape}")
    v = dual_perturbation_basis(frame)
    c = p @ v
    return c, float(np.max(np.abs(p - c @ v.conj().T)))
