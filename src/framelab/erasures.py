"""Probability-weighted erasure error operators and worst-case measures.

When the coefficients indexed by an erasure set ``L`` are lost, the weighted
error operator is ``E_L f = sum_{i in L} q_i <f, f_i> g_i``.  The worst case
over all erasure sets of size ``m`` is measured either by the spectral
radius (``spectral_measure``) or by the operator norm (``norm_measure``).

Closed forms: for ``m == 1`` the spectral value at index ``i`` is
``q_i |<f_i, g_i>|`` and the norm value is ``q_i ||f_i|| ||g_i||``; for
``m == 2`` the nonzero eigenvalues of ``E_L``, ``L = {i, j}``, are the roots
``_two_erasure_roots`` of ``x^2 - (q_i a_ii + q_j a_jj) x + q_i q_j (a_ii
a_jj - a_ij a_ji)`` with ``a`` the cross-Gram matrix, whose discriminant
holds the weighted cross product ``q_i q_j a_ij a_ji`` (``_cross_products``).
The dual search and the certificates reuse these evaluations and the one tie
rule of ``_ties``: values within ``TIE_TOL`` of the maximum attain it.  For
general ``m`` the nonzero spectrum of ``E_L`` equals that of the small
``m x m`` block ``[q_i <g_j, f_i>]_{i,j in L}``, and ``||E_L||^2`` is the
largest eigenvalue of ``D G_L^H G_L D F_L^H F_L`` with ``D = diag(q_L)``,
whose factors are cut from the Gram matrices ``G^H G`` and ``F^H F``; both
keep the eigenproblem at size ``m`` instead of ``n``.

For ``m == 3`` both values are read off the characteristic cubic of the
block, whose coefficients are sums of products of gathered entries: the
trace, the principal 2x2 minors (the pair terms of ``m == 2``) and the
determinant for the spectral block, and Cauchy-Binet sums of the minors of
the two Gram blocks for the norm.  Cardano's formula with one Newton step
gives the roots; a set's value is kept only when an a-posteriori bound (the
Newton residual plus a rounding term, and Vieta's relations between the
roots and the coefficients) places it within ``CUBIC_TOL``.  The other sets,
a few in a thousand on random frames, and every set for ``m >= 4``, go
through stacked eigenvalue solves of the blocks.

The measures enumerate the erasure sets in lexicographic order, in chunks of
``CHUNK_SETS`` sets evaluated by array expressions, and keep one value per
set in that order; a measure over more than ``DEFAULT_MAX_SETS`` sets
raises :class:`~framelab.errors.InputError` before it evaluates any.
The cubic's complex products, quotients and moduli are spelled out in real
parts (``_cmul``, ``_cdiv``, ``_cabs``), so a value does not depend on the
chunk it is evaluated in.

``simulate_erasure_channel`` draws erasure sets proportional to the
probabilities without replacement by exponential keys (Efraimidis and
Spirakis, Inf. Process. Lett. 97(5), 2006), in chunks of trials, and bins
the errors into ``HISTOGRAM_BINS`` bins.  Its uniforms come from SplitMix64
(Steele, Lea and Flood, OOPSLA 2014) read as a counter-based stream: output
``k`` (from 0) is ``mix(seed + (k + 1) gamma)``, so any stretch of it is
computed directly, in ``uint64`` array arithmetic, without ``numpy.random``.

Erasure-set indices are 1-based throughout, matching the vector numbering,
and an erasure set is the sorted tuple of its indices, as reports write it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameLabError, InputError
from .frames import DualPair
from .weights import ProbabilityProfile

# Values within this fraction of max(1, |maximum|) of the maximum are all
# reported as attaining it.
TIE_TOL = 1e-9
# Cap on the number of erasure sets enumerated per measure call.
DEFAULT_MAX_SETS = 1_000_000
# Erasure sets evaluated together; at m = 3 a chunk's temporaries are
# vectors of one number per set (64 kB when complex), and only the sets the
# cubic leaves uncertified are gathered into 3 x 3 blocks.
CHUNK_SETS = 4096
# An m = 3 value read off the characteristic cubic is kept only when its
# a-posteriori error bound is within this fraction of it; the other sets go to
# the stacked eigenvalue solver.
CUBIC_TOL = 1e-12
# First-order bound on the relative rounding of a cubic's coefficients and of
# its Horner evaluation, each a few dozen floating-point operations.
_ROUNDING = 32 * 2.0**-53
# The cube roots of unity other than 1.
_OMEGA = (
    np.complex128(complex(-0.5, math.sqrt(3.0) / 2.0)),
    np.complex128(complex(-0.5, -math.sqrt(3.0) / 2.0)),
)

RNG_ID = "splitmix64"
# Trials simulated together; keeps each chunk's arrays near a megabyte.
CHUNK_TRIALS = 1024
# Bins of a simulation's error histogram.
HISTOGRAM_BINS = 20
# SplitMix64's increment (the golden ratio times 2^64) and its two
# multipliers; the stream's seeds are 0 .. 2^64 - 1.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


@dataclass(frozen=True, eq=False)
class ErasureMeasureReport:
    """Worst-case value of one measure with the sets attaining it.

    ``per_set_values[k]`` is the value at the ``k``-th size-``m`` subset of
    ``1..count`` in lexicographic order, the order of :meth:`sets`; each
    set, in ``argmax_sets`` too, is a sorted tuple of 1-based indices.
    """

    kind: str  # "spectral" or "norm"
    m: int
    count: int
    value: float
    argmax_sets: tuple[tuple[int, ...], ...]
    per_set_values: np.ndarray

    def sets(self):
        """Every size-m erasure set, in the order of ``per_set_values``."""
        return _sets(self.count, self.m)


def _sets(count: int, m: int):
    """The size-m subsets of ``1..count`` as sorted tuples, lexicographically."""
    return itertools.combinations(range(1, count + 1), m)


def _offsets(indices, count: int) -> np.ndarray:
    """0-based offsets of the 1-based ``indices``, sorted; ``ValueError``
    unless they are distinct and in ``1..count``."""
    idx = sorted(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"erasure indices must be distinct, got {tuple(idx)}")
    if idx and not (1 <= idx[0] and idx[-1] <= count):
        raise ValueError(f"erasure indices {tuple(idx)} out of range 1..{count}")
    return np.asarray(idx, dtype=np.intp) - 1


def _check_compatible(pair: DualPair, profile: ProbabilityProfile) -> None:
    if profile.count != pair.count:
        raise InputError(
            f"profile has {profile.count} probabilities for {pair.count} vectors"
        )
    if profile.dim != pair.dim:
        raise InputError(
            f"profile was built for dimension {profile.dim}, frame has dimension {pair.dim}"
        )


def error_operator(pair: DualPair, profile: ProbabilityProfile, indices) -> np.ndarray:
    """Matrix of ``f -> sum_{i in L} q_i <f, f_i> g_i`` (rank <= |L|) for the
    erasure set ``L`` of the 1-based ``indices``.

    ``indices`` must be distinct and in ``1..count``; ``ValueError``
    otherwise.
    """
    _check_compatible(pair, profile)
    ix = _offsets(indices, pair.count)
    g = pair.dual[:, ix]
    f = pair.frame.matrix[:, ix]
    q = profile.weights[ix]
    return g @ (q[:, None] * f.conj().T)


def operator_norm(matrix) -> float:
    """Largest singular value of a (not necessarily square) matrix."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _largest_eigenvalue_moduli(blocks: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix in a ``(S, m, m)`` stack."""
    return np.abs(np.linalg.eigvals(blocks)).max(axis=1)


# numpy's vectorised complex product and modulus may round differently from
# its scalar ones (fused multiply-adds, another hypot); spelled out in real
# arithmetic, a value does not depend on how many sets are evaluated together.
def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _cabs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _cdiv(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    den = y.real * y.real + y.imag * y.imag
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = (x.real * y.real + x.imag * y.imag) / den
    out.imag = (x.imag * y.real - x.real * y.imag) / den
    return out


def _ties(values: np.ndarray) -> tuple[float, np.ndarray]:
    """The maximum of ``values`` and the mask of the values within
    ``TIE_TOL * max(1, |maximum|)`` of it, which all count as attaining it."""
    best = float(np.max(values))
    return best, values >= best - TIE_TOL * max(1.0, abs(best))


def _cross_products(alpha: np.ndarray, q: np.ndarray, i=None, j=None) -> np.ndarray:
    """Weighted cross products ``q_i q_j alpha_ij alpha_ji`` at each pair of
    0-based indices ``(i[k], j[k])``; by default at every pair ``i < j`` in
    the row-major order of ``np.triu_indices``."""
    if i is None:
        i, j = np.triu_indices(q.size, 1)
    return _cmul(q[i] * q[j] * alpha[i, j], alpha[j, i])


def _two_erasure_roots(alpha: np.ndarray, q: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Both roots of the two-erasure quadratic at each pair of 0-based
    indices ``(i[k], j[k])``."""
    a = q[i] * alpha[i, i]
    d = q[j] * alpha[j, j]
    cross = _cross_products(alpha, q, i, j)
    root = np.sqrt(_cmul(a - d, a - d) + 4.0 * cross)
    return (a + d + root) / 2.0, (a + d - root) / 2.0


def _cubic(c1, c2, c3, x):
    """``p(x) = x^3 - c1 x^2 + c2 x - c3`` and ``p'(x)`` by Horner's rule."""
    return _cmul(_cmul(x - c1, x) + c2, x) - c3, _cmul(3.0 * x - 2.0 * c1, x) + c2


def _cubic_roots(c1, c2, c3):
    """The three roots of ``x^3 - c1 x^2 + c2 x - c3`` at each set, by
    Cardano's formula, each polished by one Newton step."""
    h = c1 / 3.0
    hh = _cmul(h, h)
    # x = h + t turns the cubic into t^3 + 3 p t - 2 r, solved by
    # t = u - p / u with u^3 = r + sqrt(r^2 + p^3)
    p = (c2 - 3.0 * hh) / 3.0
    r = (c3 - _cmul(c2 - 2.0 * hh, h)) / 2.0
    root = np.sqrt(_cmul(r, r) + _cmul(_cmul(p, p), p))
    # the sign of the square root that avoids cancellation in r + root
    flip = r.real * root.real + r.imag * root.imag < 0.0
    root[flip] = -root[flip]
    w = r + root
    rho = np.cbrt(_cabs(w))
    phase = np.arctan2(w.imag, w.real) / 3.0
    u = np.empty_like(w)
    u.real = rho * np.cos(phase)
    u.imag = rho * np.sin(phase)
    # p / u = p conj(u) / rho^2; u = 0 only when p = r = 0, a triple root
    inverse = np.zeros_like(rho)
    np.divide(1.0, rho * rho, out=inverse, where=rho > 0.0)
    roots = []
    for uk in (u, _cmul(u, _OMEGA[0]), _cmul(u, _OMEGA[1])):
        x = h + uk - _cmul(p, uk.conj()) * inverse
        value, slope = _cubic(c1, c2, c3, x)
        roots.append(x - _cdiv(value, slope))
    return roots


def _cubic_top_moduli(c1, c2, c3, a1, a2, a3):
    """Largest root modulus of ``x^3 - c1 x^2 + c2 x - c3`` at each set, and
    the mask of the sets where it is certified to ``CUBIC_TOL``.

    ``a_k`` bounds the sum of the magnitudes of the terms that form ``c_k``.
    Each root ``x`` lies within ``(|p(x)| + _ROUNDING s) / |p'(x)|`` of a root
    of the exact cubic, where ``s = sum a_k |x|^(3-k) + |x|^3`` bounds the
    rounding of ``c_k`` and of Horner's rule.  A set is accepted when these
    bounds place the largest modulus within ``CUBIC_TOL`` of the value and
    when the roots reproduce ``c1, c2, c3`` (Vieta), so that none is missed.
    """
    with np.errstate(all="ignore"):
        x0, x1, x2 = _cubic_roots(c1, c2, c3)
        m0, m1, m2 = _cabs(x0), _cabs(x1), _cabs(x2)
        top = np.maximum(np.maximum(m0, m1), m2)
        upper = np.zeros_like(top)
        lower = np.zeros_like(top)
        for x, mod in ((x0, m0), (x1, m1), (x2, m2)):
            value, slope = _cubic(c1, c2, c3, x)
            residual = _cabs(value) + _ROUNDING * (((mod + a1) * mod + a2) * mod + a3)
            # a zero residual makes x an exact root, even where p'(x) = 0
            bound = np.where(residual == 0.0, 0.0, residual / _cabs(slope))
            np.maximum(upper, mod + bound, out=upper)
            np.maximum(lower, mod - bound, out=lower)
        vieta = (
            (_cabs(x0 + x1 + x2 - c1) <= CUBIC_TOL * 3.0 * top + _ROUNDING * (a1 + m0 + m1 + m2))
            & (
                _cabs(_cmul(x0, x1 + x2) + _cmul(x1, x2) - c2)
                <= CUBIC_TOL * 3.0 * top * top + _ROUNDING * (a2 + m0 * (m1 + m2) + m1 * m2)
            )
            & (
                _cabs(_cmul(_cmul(x0, x1), x2) - c3)
                <= CUBIC_TOL * top * top * top + _ROUNDING * (a3 + m0 * m1 * m2)
            )
        )
        certified = (
            vieta
            & (upper <= top * (1.0 + CUBIC_TOL))
            & (lower >= top * (1.0 - CUBIC_TOL))
        )
    return top, certified


def _re_conj(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``Re(x conj(y))``."""
    return x.real * y.real + x.imag * y.imag


def _three_cycles(alpha: np.ndarray, i, j, k):
    """``alpha_ij alpha_jk alpha_ki + alpha_ik alpha_kj alpha_ji`` at each
    set, with the sum of the magnitudes of its two terms."""
    forward = (alpha[i, j], alpha[j, k], alpha[k, i])
    backward = (alpha[i, k], alpha[k, j], alpha[j, i])
    value = _cmul(_cmul(forward[0], forward[1]), forward[2]) + _cmul(
        _cmul(backward[0], backward[1]), backward[2]
    )
    f0, f1, f2 = (_cabs(z) for z in forward)
    b0, b1, b2 = (_cabs(z) for z in backward)
    return value, f0 * f1 * f2 + b0 * b1 * b2


def _spectral_cubic(alpha: np.ndarray, q: np.ndarray, ix: np.ndarray):
    """Characteristic cubic ``x^3 - c1 x^2 + c2 x - c3`` of each set's block
    ``[q_a alpha_ba]``: ``c1, c2, c3`` and the sums ``a1, a2, a3`` of the
    magnitudes of the terms that form them."""
    i, j, k = ix[:, 0], ix[:, 1], ix[:, 2]
    d0, d1, d2 = q[i] * alpha[i, i], q[j] * alpha[j, j], q[k] * alpha[k, k]
    m0, m1, m2 = _cabs(d0), _cabs(d1), _cabs(d2)
    k01, k02, k12 = (_cross_products(alpha, q, a, b) for a, b in ((i, j), (i, k), (j, k)))
    n01, n02, n12 = _cabs(k01), _cabs(k02), _cabs(k12)
    # q_i q_j q_k det alpha_L: the diagonal, the diagonal times a pair's
    # cross product, and the two 3-cycles
    qqq = q[i] * q[j] * q[k]
    cycles, cycles_mag = _three_cycles(alpha, i, j, k)
    d01 = _cmul(d0, d1)
    c3 = _cmul(d01, d2) - _cmul(d0, k12) - _cmul(d1, k02) - _cmul(d2, k01) + qqq * cycles
    a3 = m0 * m1 * m2 + m0 * n12 + m1 * n02 + m2 * n01 + qqq * cycles_mag
    c2 = d01 + _cmul(d0, d2) + _cmul(d1, d2) - (k01 + k02 + k12)
    a2 = m0 * m1 + m0 * m2 + m1 * m2 + n01 + n02 + n12
    return d0 + d1 + d2, c2, c3, m0 + m1 + m2, a2, a3


def _hermitian_minors(diagonal, upper, moduli):
    """The 2x2 minors of Hermitian 3x3 blocks, given by their diagonal, upper
    entries and their moduli (pairs 01, 02, 12): the minors at row pairs S
    and column pairs T, the three with S = T and then the three with S < T,
    each with its weight in ``c2`` (1 or 2, since the minor at T, S is the
    conjugate) and the sum of the magnitudes of its terms."""
    (d0, d1, d2), (z01, z02, z12), (m01, m02, m12) = diagonal, upper, moduli
    for a, b, z, m in ((d0, d1, z01, m01), (d0, d2, z02, m02), (d1, d2, z12, m12)):
        yield 1.0, a * b - _re_conj(z, z), a * b + m * m
    yield 2.0, d0 * z12 - _cmul(z02, z01.conj()), d0 * m12 + m02 * m01
    yield 2.0, _cmul(z01, z12) - d1 * z02, m01 * m12 + d1 * m02
    yield 2.0, d2 * z01 - _cmul(z02, z12.conj()), d2 * m01 + m02 * m12


def _hermitian_det(diagonal, upper, moduli):
    """Determinant of Hermitian 3x3 blocks, with the sum of the magnitudes
    of its terms."""
    (d0, d1, d2), (z01, z02, z12), (m01, m02, m12) = diagonal, upper, moduli
    s01, s02, s12 = _re_conj(z01, z01), _re_conj(z02, z02), _re_conj(z12, z12)
    det = d0 * d1 * d2 + 2.0 * _re_conj(_cmul(z01, z12), z02) - d0 * s12 - d1 * s02 - d2 * s01
    mag = d0 * d1 * d2 + 2.0 * m01 * m12 * m02 + d0 * s12 + d1 * s02 + d2 * s01
    return det, mag


def _norm_cubic(weighted: np.ndarray, gram_f: np.ndarray, ix: np.ndarray):
    """Characteristic cubic of each set's ``W_L H_L``, where ``W = D G^H G D``
    (``G`` the dual, ``D = diag(q)``) and ``H = F^H F``: ``c1`` is the trace,
    ``c2`` the sum of the products of the 2x2 minors of the two blocks
    (Cauchy-Binet) and ``c3`` the product of their determinants; with the
    sums ``a1, a2, a3`` of the magnitudes of the terms that form them."""
    i, j, k = ix[:, 0], ix[:, 1], ix[:, 2]
    blocks = []
    for gram in (weighted, gram_f):
        upper = (gram[i, j], gram[i, k], gram[j, k])
        diagonal = (gram[i, i].real, gram[j, j].real, gram[k, k].real)
        blocks.append((diagonal, upper, tuple(_cabs(z) for z in upper)))
    (wd, wz, wm), (hd, hz, hm) = blocks
    c1 = a1 = 0.0
    for s in range(3):
        c1 = c1 + wd[s] * hd[s] + 2.0 * _re_conj(wz[s], hz[s])
        a1 = a1 + wd[s] * hd[s] + 2.0 * wm[s] * hm[s]
    c2 = a2 = 0.0
    for (weight, w, w_mag), (_, h, h_mag) in zip(
        _hermitian_minors(*blocks[0]), _hermitian_minors(*blocks[1])
    ):
        c2 = c2 + weight * _re_conj(w, h)
        a2 = a2 + weight * w_mag * h_mag
    (w_det, w_det_mag), (h_det, h_det_mag) = (_hermitian_det(*block) for block in blocks)
    c1, c2, c3 = (c.astype(np.complex128) for c in (c1, c2, w_det * h_det))
    return c1, c2, c3, a1, a2, w_det_mag * h_det_mag


def _check_measure_args(pair: DualPair, profile: ProbabilityProfile, m: int) -> None:
    _check_compatible(pair, profile)
    if not 1 <= m <= pair.count:
        raise ValueError(f"erasure count m={m} must be in 1..{pair.count}")
    total = math.comb(pair.count, m)
    if total > DEFAULT_MAX_SETS:
        raise InputError(
            f"{total} erasure sets of size {m} exceed the cap of {DEFAULT_MAX_SETS}"
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


def _spectral_blocks(alpha: np.ndarray, q: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Spectral radius of each set's block ``[a, b] = q_a <g_b, f_a>``, which
    shares its nonzero spectrum with ``E_L``, by stacked eigenvalue solves."""
    blocks = q[ix][:, :, None] * alpha[ix[:, None, :], ix[:, :, None]]
    return _largest_eigenvalue_moduli(blocks)


def _norm_blocks(weighted: np.ndarray, gram_f: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Square root of the largest eigenvalue of each set's ``W_L H_L`` (see
    :func:`_norm_cubic`), by stacked eigenvalue solves."""
    rows, cols = ix[:, :, None], ix[:, None, :]
    return np.sqrt(_largest_eigenvalue_moduli(weighted[rows, cols] @ gram_f[rows, cols]))


def _spectral_three(alpha: np.ndarray, q: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """:func:`_spectral_blocks` at ``m = 3``, read off the characteristic
    cubic where its bound certifies the value."""
    top, certified = _cubic_top_moduli(*_spectral_cubic(alpha, q, ix))
    if not certified.all():
        top[~certified] = _spectral_blocks(alpha, q, ix[~certified])
    return top


def _norm_three(weighted: np.ndarray, gram_f: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """:func:`_norm_blocks` at ``m = 3``, read off the characteristic cubic
    where its bound certifies the value."""
    top, certified = _cubic_top_moduli(*_norm_cubic(weighted, gram_f, ix))
    values = np.sqrt(top)
    if not certified.all():
        values[~certified] = _norm_blocks(weighted, gram_f, ix[~certified])
    return values


def _build_report(kind: str, m: int, count: int, values: np.ndarray) -> ErasureMeasureReport:
    values.setflags(write=False)
    best, attaining = _ties(values)
    ties = itertools.compress(_sets(count, m), attaining.tolist())
    return ErasureMeasureReport(
        kind=kind,
        m=m,
        count=count,
        value=best,
        argmax_sets=tuple(ties),
        per_set_values=values,
    )


def spectral_measure(pair: DualPair, profile: ProbabilityProfile, m: int) -> ErasureMeasureReport:
    """Worst-case spectral radius of the error operator over size-m erasures.

    Uses the per-index closed form for ``m == 1``, the quadratic roots for
    ``m == 2``, the certified characteristic cubic for ``m == 3`` and
    stacked small-block eigenproblems for larger ``m`` (and for the sets the
    cubic does not certify); enumeration is lexicographic, so reports are
    reproducible.
    """
    _check_measure_args(pair, profile, m)
    alpha, q = pair.cross_gram, profile.weights
    if m == 1:
        values = np.abs(np.diagonal(alpha)) * q
    elif m == 2:

        def evaluate(ix):
            hi, lo = _two_erasure_roots(alpha, q, ix[:, 0], ix[:, 1])
            return np.maximum(_cabs(hi), _cabs(lo))

        values = _per_set(pair.count, m, evaluate)
    else:
        evaluate = _spectral_three if m == 3 else _spectral_blocks
        values = _per_set(pair.count, m, functools.partial(evaluate, alpha, q))
    return _build_report("spectral", m, pair.count, values)


def norm_measure(pair: DualPair, profile: ProbabilityProfile, m: int) -> ErasureMeasureReport:
    """Worst-case operator norm of the error operator over size-m erasures.

    For ``m == 1`` the closed form ``q_i ||f_i|| ||g_i||`` is used and the
    value at the attaining index is cross-checked against the full singular
    value path (the argmax index is used for the check so that reports stay
    deterministic).  For larger ``m`` the squared norm is the largest
    eigenvalue of an ``m x m`` product of Gram blocks, read off its
    certified characteristic cubic for ``m == 3`` (see the module
    docstring).
    """
    _check_measure_args(pair, profile, m)
    f, g, q = pair.frame.matrix, pair.dual, profile.weights
    if m == 1:
        values = q * np.linalg.norm(f, axis=0) * np.linalg.norm(g, axis=0)
        check = int(np.argmax(values)) + 1
        direct = operator_norm(error_operator(pair, profile, (check,)))
        if abs(direct - values[check - 1]) > 1e-8 * max(1.0, direct):
            raise FrameLabError(
                f"closed-form norm {values[check - 1]:.17g} disagrees with "
                f"singular value {direct:.17g} at index {check}"
            )
    else:
        gram_f = f.conj().T @ f
        weighted = q[:, None] * (g.conj().T @ g) * q
        evaluate = _norm_three if m == 3 else _norm_blocks
        values = _per_set(pair.count, m, functools.partial(evaluate, weighted, gram_f))
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


def _splitmix64(seed: int, x: np.ndarray) -> np.ndarray:
    """Overwrites the 0-based positions ``x`` (``uint64``) with the outputs of
    the SplitMix64 stream of ``seed`` there: output ``k`` is
    ``mix(seed + (k + 1) gamma)``."""
    # uint64 array arithmetic wraps modulo 2^64 without a warning
    x += np.uint64(1)
    x *= _GAMMA
    x += np.uint64(seed)
    shifted = np.empty_like(x)
    for shift, multiplier in _MIX:
        np.right_shift(x, shift, out=shifted)
        x ^= shifted
        x *= multiplier
    np.right_shift(x, 31, out=shifted)
    x ^= shifted
    return x


def _unit_interval(bits: np.ndarray) -> np.ndarray:
    """``(b + 1) 2^-53`` in ``(0, 1]`` for the top 53 bits ``b`` of each
    ``uint64``; overwrites ``bits``."""
    bits >>= np.uint64(11)
    bits += np.uint64(1)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    return u


def _uniforms(seed: int, start: int, rows: int, width: int, columns: range) -> np.ndarray:
    """``(rows, len(columns))`` uniforms in ``(0, 1]``: entry ``(r, c)`` maps
    output ``(start + r) width + columns[c]`` of the SplitMix64 stream of
    ``seed``, so row ``r`` reads from the ``width`` outputs of trial
    ``start + r``."""
    trials = np.arange(start, start + rows, dtype=np.uint64)
    trials *= np.uint64(width)
    offsets = np.arange(columns.start, columns.stop, dtype=np.uint64)
    return _unit_interval(_splitmix64(seed, np.add.outer(trials, offsets)))


def _key_count(p: np.ndarray, m: int) -> int:
    """Uniforms :func:`_draw_erasures` takes per trial: one per index of
    positive mass, or one per index when fewer than m have positive mass."""
    support = int(np.count_nonzero(p > 0.0))
    return support if support >= m else p.size


def _draw_erasures(u: np.ndarray, p: np.ndarray, m: int) -> np.ndarray:
    """(t, m) array of 0-based erasure sets drawn proportional to p without
    replacement from a ``(t, _key_count(p, m))`` array of uniforms in
    ``(0, 1]``, which it overwrites: each row holds the m smallest keys
    ``Exp(1) / p_i`` with ``Exp(1) = -log u``, compared as logarithms so that
    a tiny ``p_i`` cannot overflow its key.  When fewer than m indices have
    positive mass, all of them are taken and the rest are drawn uniformly from
    the zero-mass indices."""
    support = np.flatnonzero(p > 0.0)
    keys = u
    if support.size >= m:
        pool = support
        np.log(keys, out=keys)
        np.negative(keys, out=keys)
        # u = 1 gives the key -inf, the limit of a vanishing Exp(1) draw
        with np.errstate(divide="ignore"):
            np.log(keys, out=keys)
        keys -= np.log(p[support])
    else:
        pool = np.arange(p.size)
        keys[:, support] = -1.0
    return pool[np.argpartition(keys, m - 1, axis=1)[:, :m]]


def _unit_vectors(u_radius: np.ndarray, u_angle: np.ndarray) -> np.ndarray:
    """Rows of standard complex Gaussians ``sqrt(-log u) exp(2 pi i u')``
    (Box-Muller), one per pair of uniforms in ``(0, 1]``, each row
    normalized: unit vectors uniform on the complex sphere."""
    radius = np.sqrt(-np.log(u_radius))
    angle = 2.0 * np.pi * u_angle
    v = np.empty(radius.shape, dtype=np.complex128)
    v.real = radius * np.cos(angle)
    v.imag = radius * np.sin(angle)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def simulate_erasure_channel(
    pair: DualPair,
    profile: ProbabilityProfile,
    m: int,
    trials: int,
    seed: int,
) -> SimulationStats:
    """Monte Carlo estimate of erasure error magnitudes.

    Each trial draws a unit-norm complex vector, an erasure set of size ``m``
    (indices sampled proportional to their probabilities, without
    replacement, by exponential keys), and records ``||E_L f||``; trials run
    in chunks of ``CHUNK_TRIALS`` with one batched error product each.  The
    reported maximum is bounded by the worst-case operator norm of the same
    size.

    Trial ``i`` reads ``D = 2 n + K`` uniforms, outputs ``i D`` to
    ``(i + 1) D - 1`` of the SplitMix64 stream of ``seed`` (``RNG_ID``),
    where ``K`` is the number of indices of positive mass, or ``N`` when
    fewer than ``m`` have positive mass.  The first ``2 n`` give the
    vector: coordinate ``k`` is ``sqrt(-log u_k) exp(2 pi i u_{n+k})``, a
    standard complex Gaussian (Box-Muller), normalized with the others.  The
    last ``K`` are the erasure keys.  So a trial's draws depend on ``seed``
    and ``i`` only, and the result replays bit-exactly for a fixed seed.
    ``seed`` must lie in ``0 .. 2^64 - 1`` (``ValueError`` otherwise).
    """
    _check_compatible(pair, profile)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if m < 0:
        raise ValueError(f"erasure count m={m} must be >= 0")
    if m > pair.count:
        raise InputError(f"cannot erase {m} of {pair.count} coefficients")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} must be in 0..2^64-1")
    n, p = pair.dim, profile.probabilities
    width = 2 * n + _key_count(p, m)
    f_conj = pair.frame.matrix.conj()
    g_rows = pair.dual.T
    errors = np.zeros(trials)
    # with nothing erased every error is 0, so no trial is drawn
    for start in range(0, trials if m else 0, CHUNK_TRIALS):
        t = min(CHUNK_TRIALS, trials - start)
        draw = functools.partial(_uniforms, seed, start, t, width)
        v = _unit_vectors(draw(range(n)), draw(range(n, 2 * n)))
        ix = _draw_erasures(draw(range(2 * n, width)), p, m)
        coeffs = profile.weights[ix] * np.take_along_axis(v @ f_conj, ix, axis=1)
        errors[start : start + t] = np.linalg.norm(
            np.einsum("tk,tkn->tn", coeffs, g_rows[ix]), axis=1
        )
    top = float(errors.max())
    counts, edges = np.histogram(
        errors, bins=HISTOGRAM_BINS, range=(0.0, top if top > 0 else 1.0)
    )
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
