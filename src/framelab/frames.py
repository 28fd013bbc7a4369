"""Finite frames, frame operators, canonical duals, and the dual-frame space.

A frame is stored as its synthesis matrix: an ``n x N`` complex array whose
columns are the frame vectors.  Inner products follow the convention
``<a, b> = b^H a`` (linear in the first argument), so a frame ``F`` and a
candidate dual ``G`` form a dual pair exactly when ``G F^H = I``.

Every dual of ``F`` is ``G = S^-1 F + C V^H``: ``S^-1 F`` is the canonical
dual, ``V`` is an ``N x (N - n)`` matrix whose orthonormal columns span the
null space of ``F``, and ``C`` is any complex ``n x (N - n)`` matrix.  The
perturbations ``C V^H`` are exactly the solutions of ``U F^H = 0``, a space of
dimension ``n (N - n)``.  :func:`dual_perturbation_basis` holds ``V``, and a
coefficient vector is ``C`` read row by row: coefficient ``row (N - n) + j``
is ``C[row, j]``.  The frame operator and the canonical dual are computed
once per :class:`Frame` and cached on it.

Public vector indices are 1-based (vectors are numbered ``1 .. N``), matching
the usual convention for erasure index sets; all internal arrays are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    LengthMismatch,
    NotDual,
    NotSpanning,
    ShapeMismatch,
)

# Relative tolerance on singular values when deciding rank / spanning.
RANK_TOL = 1e-10
# Relative tolerance for Hermitian symmetry checks.
HERMITIAN_TOL = 1e-12
# Residual tolerance for the dual identity G F^H = I.
DUAL_TOL = 1e-10
# Condition-number cap for inverting the frame operator.
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
        singular_values = np.linalg.svd(matrix, compute_uv=False)
        if singular_values[-1] <= RANK_TOL * singular_values[0]:
            raise NotSpanning(
                "vectors do not span the space "
                f"(smallest/largest singular value = {singular_values[-1]:.3e}/{singular_values[0]:.3e})"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self._matrix = matrix
        self._singular_values = singular_values

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
        return float(self._singular_values[-1] ** 2)

    @property
    def upper_bound(self) -> float:
        """Optimal upper frame bound: largest eigenvalue of the frame operator."""
        return float(self._singular_values[0] ** 2)

    def vector(self, i: int) -> np.ndarray:
        """Return vector ``i`` (1-based)."""
        if not 1 <= i <= self.count:
            raise IndexError(f"vector index {i} out of range 1..{self.count}")
        return self._matrix[:, i - 1]

    @property
    def parseval_residual(self) -> float:
        """Largest entry of ``|S - I|``; zero exactly for a Parseval frame."""
        return float(np.max(np.abs(self._operator.entries - np.eye(self.dim))))

    def is_parseval(self, tol: float = 1e-9) -> bool:
        """True when the frame operator equals the identity within ``tol``."""
        return self.parseval_residual <= tol

    @cached_property
    def _operator(self) -> HermitianMatrix:
        f = self._matrix
        return HermitianMatrix(f @ f.conj().T)

    @cached_property
    def _canonical(self) -> DualPair:
        op = self._operator
        if op.condition_number() > CONDITION_LIMIT:
            raise IllConditioned(
                f"frame operator condition number {op.condition_number():.3e} exceeds {CONDITION_LIMIT:.0e}"
            )
        return DualPair(self, Frame(op.solve(self._matrix)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Frame(dim={self.dim}, count={self.count})"


def build_frame(dim: int, vectors) -> Frame:
    """Validate a list of length-``dim`` vectors and return the Frame."""
    return Frame(_as_complex_matrix(vectors, dim))


class HermitianMatrix:
    """A validated Hermitian matrix with a cached eigendecomposition."""

    def __init__(self, entries) -> None:
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {mat.shape}")
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if float(np.max(np.abs(mat - mat.conj().T))) > HERMITIAN_TOL * scale:
            raise ShapeMismatch("matrix is not Hermitian within tolerance")
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        self._entries = mat

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        values, vectors = np.linalg.eigh(self._entries)
        return values, vectors

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return self._eigh[0]

    def condition_number(self) -> float:
        values = np.abs(self.eigenvalues)
        if values[np.argmin(values)] == 0.0:
            return np.inf
        return float(np.max(values) / np.min(values))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse through the eigendecomposition."""
        values, vectors = self._eigh
        return vectors @ ((vectors.conj().T @ rhs).T / values).T


def frame_operator(frame: Frame) -> HermitianMatrix:
    """Frame operator ``S = sum_i f_i f_i^H`` (positive definite), computed
    once per frame."""
    return frame._operator


def verify_dual(frame: Frame, dual: Frame, tol: float = DUAL_TOL) -> bool:
    """Check the reconstruction identity ``sum_i <f, f_i> g_i = f``.

    Evaluated as the matrix identity ``G F^H = I`` with the largest entrywise
    residual compared against ``tol``.
    """
    if (frame.dim, frame.count) != (dual.dim, dual.count):
        raise ShapeMismatch(
            f"frame is {frame.dim}x{frame.count}, candidate dual is {dual.dim}x{dual.count}"
        )
    residual = dual.matrix @ frame.matrix.conj().T - np.eye(frame.dim)
    return float(np.max(np.abs(residual))) <= tol


class DualPair:
    """A frame together with a verified dual and the cached cross-Gram matrix.

    ``cross_gram[i, j] = <g_i, f_j>`` (0-based storage for 1-based vector
    indices).  Its trace equals the dimension for every dual pair.
    """

    def __init__(self, frame: Frame, dual: Frame, tol: float = DUAL_TOL) -> None:
        if not verify_dual(frame, dual, tol):
            raise NotDual(f"candidate dual fails the reconstruction identity at tol={tol:g}")
        self.frame = frame
        self.dual = dual
        gram = (frame.matrix.conj().T @ dual.matrix).T
        trace = complex(np.trace(gram))
        if abs(trace - frame.dim) > 10 * frame.dim * tol:
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


@dataclass(frozen=True)
class DualPerturbationBasis:
    """Orthonormal basis of the space of dual perturbations of a frame.

    The perturbations are ``C V^H`` for complex ``n x (N - n)`` matrices
    ``C``, where ``V`` (``null_vectors``, shape ``(N, N - n)``) has
    orthonormal columns spanning the null space of ``F``.  Basis element
    ``k = row (N - n) + j`` is ``C = e_row e_j^T``; the ``n (N - n)``
    elements are orthonormal under the entrywise inner product.
    """

    base_frame: Frame
    null_vectors: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.base_frame.dim * self.null_vectors.shape[1]

    def __post_init__(self) -> None:
        n, count = self.base_frame.dim, self.base_frame.count
        v = self.null_vectors
        if v.shape != (count, count - n):
            raise ShapeMismatch(
                f"null-vector matrix shape {v.shape} does not match ({count}, {count - n})"
            )
        if not v.size:
            return
        scale = max(self.base_frame.upper_bound ** 0.5, 1.0)
        if float(np.max(np.abs(self.base_frame.matrix @ v))) > 1e-10 * scale:
            raise ShapeMismatch("null vectors are not in the null space of the frame")
        if float(np.max(np.abs(v.conj().T @ v - np.eye(count - n)))) > 1e-10:
            raise ShapeMismatch("null vectors are not orthonormal")


def dual_perturbation_basis(frame: Frame) -> DualPerturbationBasis:
    """Orthonormal basis of solutions of ``U F^H = 0``.

    ``V`` is taken from the full singular value decomposition of the
    synthesis matrix: its columns are the null vectors of ``F``, each
    phase-normalized, which makes :func:`dual_from_coefficients`
    deterministic.
    """
    f = frame.matrix
    n, count = f.shape
    _, _, vh = np.linalg.svd(f, full_matrices=True)
    null_vectors = [_canonical_phase(np.conj(vh[k])) for k in range(n, count)]
    v = np.array(null_vectors, dtype=np.complex128).reshape(count - n, count).T
    v.setflags(write=False)
    return DualPerturbationBasis(frame, v)


def dual_from_coefficients(basis: DualPerturbationBasis, coeffs) -> DualPair:
    """Dual pair ``S^-1 F + C V^H`` with ``C = coeffs.reshape(n, N - n)``."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.size != basis.size:
        raise LengthMismatch(f"expected {basis.size} coefficients, got {c.size}")
    base = canonical_dual(basis.base_frame)
    if basis.size == 0:
        return base
    v = basis.null_vectors
    perturbation = c.reshape(-1, v.shape[1]) @ v.conj().T
    return DualPair(basis.base_frame, Frame(base.dual.matrix + perturbation))


def coefficients_for_perturbation(
    basis: DualPerturbationBasis, perturbation
) -> tuple[np.ndarray, float]:
    """Project a frame-shaped perturbation ``P`` onto the basis.

    Returns the coefficients ``C = P V`` read row by row, and the residual
    ``max |P - C V^H|``; a residual near zero certifies the perturbation lies
    in the dual-perturbation space.
    """
    p = np.asarray(perturbation, dtype=np.complex128)
    n, count = basis.base_frame.dim, basis.base_frame.count
    if p.shape != (n, count):
        raise ShapeMismatch(f"perturbation shape {p.shape} does not match ({n}, {count})")
    v = basis.null_vectors
    c = p @ v
    residual = float(np.max(np.abs(p - c @ v.conj().T)))
    return c.reshape(-1), residual
