"""Probability-weighted erasure error operators and worst-case measures.

When the coefficients indexed by an erasure set ``L`` are lost, the weighted
error operator is ``E_L f = sum_{i in L} q_i <f, f_i> g_i``.  The worst case
over all erasure sets of size ``m`` is measured either by the spectral
radius (``spectral_measure``) or by the operator norm (``norm_measure``).

Closed forms: for ``m == 1`` the spectral value at index ``i`` is
``q_i |<f_i, g_i>|`` and the norm value is ``q_i ||f_i|| ||g_i||``; for
``m == 2`` the nonzero eigenvalues of ``E_L`` are the roots of a quadratic in
the weighted cross-Gram entries (:func:`two_erasure_eigenvalues`).  For
general ``m`` the nonzero spectrum of ``E_L`` equals that of the small
``m x m`` block ``[q_i <g_j, f_i>]_{i,j in L}``, and ``||E_L||^2`` is the
largest eigenvalue of ``D G_L^H G_L D F_L^H F_L`` with ``D = diag(q_L)``,
whose factors are cut from the Gram matrices ``G^H G`` and ``F^H F``; both
keep the eigenproblem at size ``m`` instead of ``n``.

The measures enumerate the erasure sets in lexicographic order, in chunks of
``CHUNK_SETS`` sets evaluated by array expressions and stacked eigenvalue
solves, and keep one value per set in that order.

``simulate_erasure_channel`` draws erasure sets proportional to the
probabilities without replacement by exponential keys (Efraimidis and
Spirakis, Inf. Process. Lett. 97(5), 2006), in chunks of trials.

Erasure-set indices are 1-based throughout, matching the vector numbering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CombinatorialLimit,
    EigenFailure,
    InsufficientSupport,
    ShapeMismatch,
    SvdFailure,
)
from .frames import DualPair
from .weights import ProbabilityProfile

# Values within this distance of the maximum are all reported as attaining it.
TIE_TOL = 1e-9
# Default cap on the number of erasure sets enumerated per measure call.
DEFAULT_MAX_SETS = 1_000_000
# Erasure sets evaluated together; at m = 3 a chunk's blocks take 0.6 MB.
CHUNK_SETS = 4096

RNG_ID = "numpy.random.PCG64"
# Trials simulated together; keeps each chunk's arrays near a megabyte.
CHUNK_TRIALS = 1024


@dataclass(frozen=True, order=True)
class ErasureSet:
    """A sorted set of erased coefficient indices (1-based)."""

    indices: tuple[int, ...]

    @classmethod
    def of(cls, indices, count: int) -> "ErasureSet":
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValueError(f"erasure indices must be distinct, got {idx}")
        if idx and not (1 <= idx[0] and idx[-1] <= count):
            raise ValueError(f"erasure indices {idx} out of range 1..{count}")
        return cls(idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def offsets(self) -> np.ndarray:
        """0-based index array for numpy slicing."""
        return np.asarray(self.indices, dtype=np.intp) - 1


@dataclass(frozen=True, eq=False)
class ErasureMeasureReport:
    """Worst-case value of one measure with the sets attaining it.

    ``per_set_values[k]`` is the value at the ``k``-th size-``m`` subset of
    ``1..count`` in lexicographic order, the order of :meth:`sets`.
    """

    kind: str  # "spectral" or "norm"
    m: int
    count: int
    value: float
    argmax_sets: tuple[ErasureSet, ...]
    per_set_values: np.ndarray

    def sets(self):
        """Every size-m erasure set, in the order of ``per_set_values``."""
        return _sets(self.count, self.m)

    def value_of(self, indices) -> float:
        lam = ErasureSet.of(indices, self.count)
        if lam.size != self.m:
            raise ValueError(f"expected {self.m} erasure indices, got {lam.indices}")
        return float(self.per_set_values[_lex_rank(lam.indices, self.count)])


def _sets(count: int, m: int):
    """The size-m subsets of ``1..count`` as sorted tuples, lexicographically."""
    return itertools.combinations(range(1, count + 1), m)


def _lex_rank(indices: tuple[int, ...], count: int) -> int:
    """Position of a sorted 1-based set among the size-m subsets of
    ``1..count`` in lexicographic order (combinatorial number system)."""
    m = len(indices)
    return math.comb(count, m) - 1 - sum(
        math.comb(count - c, m - k) for k, c in enumerate(indices)
    )


def _check_compatible(pair: DualPair, profile: ProbabilityProfile) -> None:
    if profile.count != pair.count:
        raise ShapeMismatch(
            f"profile has {profile.count} probabilities for {pair.count} vectors"
        )
    if profile.dim != pair.dim:
        raise ShapeMismatch(
            f"profile was built for dimension {profile.dim}, frame has dimension {pair.dim}"
        )


def error_operator(
    pair: DualPair, profile: ProbabilityProfile, lam: ErasureSet
) -> np.ndarray:
    """Matrix of ``f -> sum_{i in lam} q_i <f, f_i> g_i`` (rank <= |lam|)."""
    _check_compatible(pair, profile)
    if lam.size and lam.indices[-1] > pair.count:
        raise ShapeMismatch(f"erasure set {lam.indices} exceeds vector count {pair.count}")
    n = pair.dim
    if lam.size == 0:
        return np.zeros((n, n), dtype=np.complex128)
    ix = lam.offsets()
    g = pair.dual.matrix[:, ix]
    f = pair.frame.matrix[:, ix]
    q = profile.weights[ix]
    return g @ (q[:, None] * f.conj().T)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(_largest_eigenvalue_moduli(m[None])[0])


def operator_norm(matrix) -> float:
    """Largest singular value of a (not necessarily square) matrix."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    try:
        singular_values = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SvdFailure(str(exc)) from exc
    return float(singular_values[0])


def _largest_eigenvalue_moduli(blocks: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix in a ``(S, m, m)`` stack."""
    try:
        eigenvalues = np.linalg.eigvals(blocks)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise EigenFailure(str(exc)) from exc
    return np.abs(eigenvalues).max(axis=1)


# numpy's vectorised complex product and modulus may round differently from
# its scalar ones (fused multiply-adds, another hypot); spelled out in real
# arithmetic, a value does not depend on how many sets are evaluated together.
def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _two_erasure_roots(alpha: np.ndarray, q: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Both roots of the two-erasure quadratic at each pair of 0-based
    indices ``(i[k], j[k])``."""
    a = q[i] * alpha[i, i]
    d = q[j] * alpha[j, j]
    cross = _cmul(q[i] * q[j] * alpha[i, j], alpha[j, i])
    root = np.sqrt(_cmul(a - d, a - d) + 4.0 * cross)
    return (a + d + root) / 2.0, (a + d - root) / 2.0


def two_erasure_eigenvalues(
    pair: DualPair, profile: ProbabilityProfile, i: int, j: int
) -> tuple[complex, complex]:
    """Both eigenvalues of the two-erasure error block for indices ``i != j``.

    Roots of ``x^2 - (q_i a_ii + q_j a_jj) x + q_i q_j (a_ii a_jj - a_ij a_ji)``
    where ``a`` is the cross-Gram matrix; evaluated via the explicit quadratic
    formula with a complex square root, the formula ``spectral_measure``
    evaluates over all pairs at once.
    """
    _check_compatible(pair, profile)
    if i == j:
        raise ValueError("two-erasure indices must differ")
    hi, lo = _two_erasure_roots(
        pair.cross_gram, profile.weights, np.array([i - 1]), np.array([j - 1])
    )
    return complex(hi[0]), complex(lo[0])


def _check_measure_args(
    pair: DualPair, profile: ProbabilityProfile, m: int, max_sets: int
) -> None:
    _check_compatible(pair, profile)
    if not 1 <= m <= pair.count:
        raise ValueError(f"erasure count m={m} must be in 1..{pair.count}")
    total = math.comb(pair.count, m)
    if total > max_sets:
        raise CombinatorialLimit(
            f"{total} erasure sets of size {m} exceed the cap of {max_sets}"
        )


def _per_set(count: int, m: int, evaluate) -> np.ndarray:
    """``evaluate`` over every size-m set in lexicographic order, in chunks of
    ``CHUNK_SETS`` sets; ``evaluate`` maps an ``(S, m)`` array of 0-based
    indices to the ``S`` values of those sets."""
    total = math.comb(count, m)
    values = np.empty(total)
    combos = itertools.combinations(range(count), m)
    for start in range(0, total, CHUNK_SETS):
        size = min(CHUNK_SETS, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(combos, size))
        ix = np.fromiter(flat, dtype=np.intp, count=size * m).reshape(size, m)
        values[start : start + size] = evaluate(ix)
    return values


def _build_report(kind: str, m: int, count: int, values: np.ndarray) -> ErasureMeasureReport:
    values.setflags(write=False)
    best = float(values.max())
    ties = itertools.compress(_sets(count, m), (values >= best - TIE_TOL).tolist())
    return ErasureMeasureReport(
        kind=kind,
        m=m,
        count=count,
        value=best,
        argmax_sets=tuple(ErasureSet(s) for s in ties),
        per_set_values=values,
    )


def spectral_measure(
    pair: DualPair,
    profile: ProbabilityProfile,
    m: int,
    max_sets: int = DEFAULT_MAX_SETS,
) -> ErasureMeasureReport:
    """Worst-case spectral radius of the error operator over size-m erasures.

    Uses the per-index closed form for ``m == 1``, the quadratic roots for
    ``m == 2`` and stacked small-block eigenproblems for larger ``m``;
    enumeration is lexicographic, so reports are reproducible.
    """
    _check_measure_args(pair, profile, m, max_sets)
    alpha, q = pair.cross_gram, profile.weights
    if m == 1:
        values = np.abs(np.diagonal(alpha)) * q
    elif m == 2:

        def evaluate(ix):
            hi, lo = _two_erasure_roots(alpha, q, ix[:, 0], ix[:, 1])
            return np.maximum(np.hypot(hi.real, hi.imag), np.hypot(lo.real, lo.imag))

        values = _per_set(pair.count, m, evaluate)
    else:

        def evaluate(ix):
            # block [a, b] = q_a <g_b, f_a> shares its nonzero spectrum with E_L
            blocks = q[ix][:, :, None] * alpha[ix[:, None, :], ix[:, :, None]]
            return _largest_eigenvalue_moduli(blocks)

        values = _per_set(pair.count, m, evaluate)
    return _build_report("spectral", m, pair.count, values)


def norm_measure(
    pair: DualPair,
    profile: ProbabilityProfile,
    m: int,
    max_sets: int = DEFAULT_MAX_SETS,
) -> ErasureMeasureReport:
    """Worst-case operator norm of the error operator over size-m erasures.

    For ``m == 1`` the closed form ``q_i ||f_i|| ||g_i||`` is used and the
    value at the attaining index is cross-checked against the full singular
    value path (the argmax index is used for the check so that reports stay
    deterministic).  For larger ``m`` the squared norm is the largest
    eigenvalue of an ``m x m`` product of Gram blocks (see the module
    docstring).
    """
    _check_measure_args(pair, profile, m, max_sets)
    f, g, q = pair.frame.matrix, pair.dual.matrix, profile.weights
    if m == 1:
        values = q * np.linalg.norm(f, axis=0) * np.linalg.norm(g, axis=0)
        check = int(np.argmax(values)) + 1
        direct = operator_norm(error_operator(pair, profile, ErasureSet((check,))))
        if abs(direct - values[check - 1]) > 1e-8 * max(1.0, direct):
            raise SvdFailure(
                f"closed-form norm {values[check - 1]:.17g} disagrees with "
                f"singular value {direct:.17g} at index {check}"
            )
    else:
        gram_f = f.conj().T @ f
        gram_g = g.conj().T @ g

        def evaluate(ix):
            rows, cols = ix[:, :, None], ix[:, None, :]
            weighted = q[rows] * gram_g[rows, cols] * q[cols]
            return np.sqrt(_largest_eigenvalue_moduli(weighted @ gram_f[rows, cols]))

        values = _per_set(pair.count, m, evaluate)
    return _build_report("norm", m, pair.count, values)


@dataclass(frozen=True)
class SimulationStats:
    """Summary of a seeded erasure-channel simulation."""

    m: int
    trials: int
    seed: int
    rng: str
    max_error: float
    mean_error: float
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]


def _draw_erasures(rng: np.random.Generator, p: np.ndarray, m: int, t: int) -> np.ndarray:
    """(t, m) array of 0-based erasure sets drawn proportional to p without
    replacement: each row holds the m smallest keys ``Exp(1) / p_i``, compared
    as logarithms so that a tiny ``p_i`` cannot overflow its key.  When fewer
    than m indices have positive mass, all of them are taken and the rest are
    drawn uniformly from the zero-mass indices."""
    support = np.flatnonzero(p > 0.0)
    if support.size >= m:
        pool = support
        keys = np.log(rng.standard_exponential((t, support.size))) - np.log(p[support])
    else:
        pool = np.arange(p.size)
        keys = rng.random((t, p.size))
        keys[:, support] = -1.0
    return pool[np.argpartition(keys, m - 1, axis=1)[:, :m]]


def simulate_erasure_channel(
    pair: DualPair,
    profile: ProbabilityProfile,
    m: int,
    trials: int,
    seed: int,
    bins: int = 20,
) -> SimulationStats:
    """Monte Carlo estimate of erasure error magnitudes.

    Each trial draws a unit-norm complex vector, an erasure set of size ``m``
    (indices sampled proportional to their probabilities, without
    replacement, by exponential keys), and records ``||E_L f||``; trials run
    in chunks of ``CHUNK_TRIALS`` with one batched error product each.  The
    reported maximum is bounded by the worst-case operator norm of the same
    size.  Replays bit-exactly for a fixed seed (``numpy.random.PCG64``).
    """
    _check_compatible(pair, profile)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if m < 0:
        raise ValueError(f"erasure count m={m} must be >= 0")
    if m > pair.count:
        raise InsufficientSupport(f"cannot erase {m} of {pair.count} coefficients")
    rng = np.random.default_rng(seed)
    f_conj = pair.frame.matrix.conj()
    g_rows = pair.dual.matrix.T
    errors = np.zeros(trials)
    for start in range(0, trials, CHUNK_TRIALS):
        t = min(CHUNK_TRIALS, trials - start)
        z = rng.standard_normal((2, t, pair.dim))
        v = z[0] + 1j * z[1]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ix = _draw_erasures(rng, profile.probabilities, m, t)
        coeffs = profile.weights[ix] * np.take_along_axis(v @ f_conj, ix, axis=1)
        errors[start : start + t] = np.linalg.norm(
            np.einsum("tk,tkn->tn", coeffs, g_rows[ix]), axis=1
        )
    top = float(errors.max())
    counts, edges = np.histogram(errors, bins=bins, range=(0.0, top if top > 0 else 1.0))
    return SimulationStats(
        m=m,
        trials=trials,
        seed=seed,
        rng=RNG_ID,
        max_error=top,
        mean_error=float(errors.mean()),
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
    )
