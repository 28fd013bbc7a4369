"""Shared fixtures and random-object helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import framelab as fl

# The two worked examples used across the suite:
#   plane: three vectors in C^2 with skewed erasure probabilities
#   tight: a tight frame of four vectors where two indices never fail
PLANE_VECTORS = [(1, 0), (0, 1), (1, 1)]
PLANE_PROBS = [0.25, 0.25, 0.5]
TIGHT_VECTORS = [(1, 0), (0, 1), (1, 1), (1, -1)]
TIGHT_PROBS = [0.5, 0.5, 0.0, 0.0]


@pytest.fixture
def plane_frame() -> fl.Frame:
    return fl.build_frame(2, PLANE_VECTORS)


@pytest.fixture
def plane_profile() -> fl.ProbabilityProfile:
    return fl.weights_from_probabilities(PLANE_PROBS, 2)


@pytest.fixture
def tight_frame() -> fl.Frame:
    return fl.build_frame(2, TIGHT_VECTORS)


@pytest.fixture
def tight_profile() -> fl.ProbabilityProfile:
    return fl.weights_from_probabilities(TIGHT_PROBS, 2)


@pytest.fixture
def mercedes_frame() -> fl.Frame:
    return fl.build_frame(2, mercedes_vectors())


@pytest.fixture
def mercedes_profile() -> fl.ProbabilityProfile:
    return fl.uniform_profile(3, 2)


def mercedes_vectors():
    """Three unit vectors at mutual 120 degrees in the (embedded) real plane."""
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    return [(np.cos(a), np.sin(a)) for a in angles]


def plane_better_dual(frame: fl.Frame) -> fl.DualPair:
    """The dual of the plane frame whose perturbation adds (1/6, 1/6) to the
    first two vectors (and subtracts it from the third)."""
    pert = np.array([[1 / 6, 1 / 6, -1 / 6], [1 / 6, 1 / 6, -1 / 6]], dtype=complex)
    coeffs, residual = fl.coefficients_for_perturbation(frame, pert)
    assert residual < 1e-12
    return fl.dual_from_coefficients(frame, coeffs)


def random_frame(rng: np.random.Generator, dim: int, count: int) -> fl.Frame:
    while True:
        m = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        try:
            return fl.Frame(m)
        except fl.NotSpanning:  # pragma: no cover - vanishing probability
            continue


def conditioned_matrix(
    rng: np.random.Generator, dim: int, count: int, smallest: float
) -> np.ndarray:
    """A random complex ``dim x count`` synthesis matrix with singular values
    ``geomspace(1, smallest)``, so its frame operator has condition number
    ``smallest ** -2``."""
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    w = np.linalg.qr(rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))[0]
    return (u * np.geomspace(1.0, smallest, dim)) @ w.conj().T


def random_parseval_frame(rng: np.random.Generator, dim: int, count: int) -> fl.Frame:
    frame = random_frame(rng, dim, count)
    op = fl.frame_operator(frame)
    values, vectors = np.linalg.eigh(op)
    inv_sqrt = (vectors / np.sqrt(values)) @ vectors.conj().T
    return fl.Frame(inv_sqrt @ frame.matrix)


def random_profile(rng: np.random.Generator, dim: int, count: int) -> fl.ProbabilityProfile:
    p = rng.dirichlet(np.ones(count))
    return fl.weights_from_probabilities(p, dim)


def random_dual_pair(
    rng: np.random.Generator, frame: fl.Frame, radius: float = 0.5
) -> fl.DualPair:
    shape = coefficient_shape(frame)
    coeffs = radius * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return fl.dual_from_coefficients(frame, coeffs)


def coefficient_shape(frame: fl.Frame) -> tuple[int, int]:
    """Shape ``(n, N - n)`` of the matrix ``C`` of a dual ``S^-1 F + C V^H``."""
    return frame.dim, frame.count - frame.dim


def coloop_case(seed, field):
    """A seeded frame with coloops and Dirichlet(0.7) probabilities: a square
    2 x 2 block and one or two d x c blocks (d <= 2, d <= c <= d + 2) on the
    diagonal, rotated by an orthogonal matrix, with the columns permuted.
    Each vector of the square block is a coloop: removing it lowers the rank."""
    rng = np.random.default_rng(seed)
    more = rng.integers(1, 3, size=int(rng.integers(1, 3)))
    sizes = [(2, 2)] + [(d, int(rng.integers(d, d + 3))) for d in more]
    n, count = (sum(size) for size in zip(*sizes))
    matrix = np.zeros((n, count), dtype=np.complex128 if field == "complex" else np.float64)
    row = column = 0
    for d, c in sizes:
        block = rng.standard_normal((d, c))
        if field == "complex":
            block = block + 1j * rng.standard_normal((d, c))
        matrix[row : row + d, column : column + c] = block
        row, column = row + d, column + c
    rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
    matrix = (rotation @ matrix)[:, rng.permutation(count)]
    return matrix, rng.dirichlet(np.full(count, 0.7))
