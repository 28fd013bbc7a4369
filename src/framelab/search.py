"""Certified minimax search over the dual-frame space for one-erasure optimal duals.

Every dual of a frame is ``G = S^-1 F + C V^H`` (see :mod:`framelab.frames`),
and both one-erasure measures are maxima over the indices of norms of affine
functions of the ``n x (N - n)`` matrix ``C``:

* spectral: ``e_i = q_i |<f_i, g_i>|``,
* norm:     ``e_i = q_i ||f_i|| ||g_i||``.

Minimizing ``max_i e_i`` over ``C`` is a convex minimax problem, solved by
Lawson's iteratively reweighted least squares (C. L. Lawson, PhD thesis,
UCLA, 1961; Y. Nakatsukasa and L. N. Trefethen, SIAM J. Sci. Comput. 42,
2020).  Weights ``lam`` on the simplex select the ``C`` minimizing
``sum_i lam_i e_i^2``, one least-squares solve, and are then updated to
``lam_i e_i / sum_j lam_j e_j``.  Each step brackets the optimum: its
``max_i e_i`` is attained, and its ``sqrt(sum_i lam_i e_i^2)`` is a lower
bound, because no ``C`` has a maximum below a weighted mean.  The trace
identity ``sum_i <f_i, g_i> = n`` bounds both optima below by 1.  The search
stops when the bounds are within a relative ``1e-10``, or unconverged after
``_MAX_SOLVES`` least-squares solves.

Lawson's steps approach the optimum slowly when an index has a small optimal
weight.  So every ``_POLISH_EVERY`` steps a short chain of Newton steps on
the weights, an active-set method for the dual problem, proposes further
brackets; the Lawson iteration itself goes on unchanged.

The first weights are ``lam_i = 1 / (n q_i)``.  By the trace identity and
Cauchy-Schwarz, the first spectral step then solves ``<f_i, g_i> = 1 / q_i``
for every ``i`` whenever such a one-uniform dual exists, and its value 1 ends
the search.

Every step works in ``N`` dimensions.  Written as ``e_i = w_i ||b_i + a_i x||``
over a coefficient vector ``x``, a step needs ``a`` only through its ``N x N``
Gram matrix ``K = a a^H``, so it runs on a factor ``L`` with ``L L^H = K``:
the minimizing ``z`` of ``sum_i lam_i w_i^2 ||b_i + L_i z||^2`` comes from one
singular value decomposition of the weighted ``L``, which the Newton steps
reuse.  For the norm the rows of ``G`` decouple: ``a`` is ``conj(V)``, ``N x
(N - n)``, and ``L`` is ``a``.  For the spectral measure ``a`` is ``N x n (N -
n)`` (``96 x 2048`` at ``32 x 96``) and is never formed: ``L = R^H`` for the
triangular ``R`` of ``a^H = Q R``, factored ``N - n`` rows at a time.  Forming
``K`` itself, or taking its eigenvalues, would square the condition number
of ``a``; the bounds would then rest on fits that are not minimizers, and a
search could certify a value above the optimum.  The spectral ``x`` is
``S^(1/2) C``, so the conditioning of the frame operator does not enter, and
among a step's minimizers the one with the smallest ``||S^(1/2) C||``, whose
cross-Gram matrix ``F^H G`` is closest to the canonical one, is taken.  Its
``C = G0 diag(y) V`` for ``y = K^+ (t - b)`` loses a further factor of the
condition number to cancellation, which ``_REFINE_PASSES`` passes of
iterative refinement on the fitted values ``t`` win back.  A spectral step
costs ``O(N^3)`` and the factor ``O(n N^3)`` once per search, where a
least-squares solve with ``a`` itself costs ``O(n N^3)`` per step.

``V`` is the frame's own (:func:`~framelab.frames.dual_perturbation_basis`),
whose coloop rows are zero, and a fit's ``C`` goes to
:func:`~framelab.frames.dual_from_coefficients` as the matrix it is: ``z^T``
for the norm, ``G0 diag(y) V`` for the spectral measure.

The reported values are the m = 1 measures of :mod:`framelab.erasures`.  The
canonical dual is the starting point, so ``best_value`` never exceeds
``canonical_value``.  Whether the canonical dual itself is optimal is
decided exactly, without a search, by the certificates of
:mod:`framelab.optimality`; :func:`certify_canonical_optimal` gives the
search's own verdict, whether the canonical value is within ``CERTIFY_TOL``
of the searched optimum, which the Parseval equivalence report records next
to the exact one.  A fitted dual that fails the reconstruction identity is
not used: the canonical dual is reported, with a note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erasures import norm_measure, spectral_measure
from .errors import NotDual
from .frames import DualPair, Frame, canonical_dual, dual_from_coefficients, dual_perturbation_basis
from .weights import ProbabilityProfile

MEASURE_KINDS = ("spectral", "norm")
# certify_canonical_optimal calls the canonical dual optimal when its value is
# within this of the searched optimum.
CERTIFY_TOL = 1e-6

# The search stops once (upper - lower) <= _GAP_TOL * upper.
_GAP_TOL = 1e-10
# Least-squares solves after which a search stops unconverged.
_MAX_SOLVES = 1000
# Every _POLISH_EVERY Lawson steps, up to _POLISH_STEPS Newton steps run from
# the current weights.
_POLISH_EVERY = 10
_POLISH_STEPS = 8
# Singular values below this fraction of the largest count as zero.
_RANK_TOL = 1e-13
# Passes of iterative refinement that turn a spectral fit into coefficients.
_REFINE_PASSES = 3
# A Newton system whose relative residual exceeds this has no solution.
_NEWTON_TOL = 1e-9


@dataclass(frozen=True)
class SearchResult:
    """``best_dual`` attains ``best_value``; no dual has a one-erasure value
    below ``lower_bound``.  ``converged`` means ``best_value - lower_bound``
    is at most ``1e-10 * best_value``, so ``best_value`` is the optimum to
    that precision.  ``iterations`` counts the least-squares solves."""

    best_value: float
    canonical_value: float
    gap: float
    lower_bound: float
    iterations: int
    converged: bool
    note: str
    best_dual: DualPair


@dataclass(frozen=True)
class CertificationOutcome:
    """Numerical verdict on canonical-dual optimality.

    ``optimal`` is None when the search did not converge (inconclusive,
    deliberately distinct from False).
    """

    optimal: bool | None
    gap: float
    result: SearchResult


def _one_erasure_value(kind: str, pair: DualPair, profile: ProbabilityProfile) -> float:
    measure = spectral_measure if kind == "spectral" else norm_measure
    return measure(pair, profile, 1).value


def _spectral_factor(wh, v):
    """The upper-triangular ``R`` (at most ``N x N``) of ``a^H = Q R``, where
    row ``(r, j)`` of ``a^H`` is ``wh[r, i] v[i, j]`` over ``i``, so that
    ``R^H R = a a^H = K``.  The ``n`` blocks of ``N - n`` rows of ``a^H``
    are factored in one at a time, so ``a`` is never held whole."""
    r = np.zeros((0, v.shape[0]), dtype=np.complex128)
    for row in wh:
        r = np.linalg.qr(np.vstack((r, v.T * row)), mode="r")
    return r


def _spectral_coefficients(f, g0, v, r, t):
    """The ``C`` with the smallest ``||S^(1/2) C||`` whose dual
    ``G = G0 + C V^H`` has ``f_i^H g_i = t_i``.

    With ``x = a^H y``, that ``C`` is ``G0 diag(y) V`` for
    ``y = (R^H R)^+ (t_i - f_i^H g0_i)_i``.  ``y`` grows as the square of the
    condition number of ``a`` and ``C`` only as its first power, so the
    cancellation in ``G0 diag(y) V`` is undone by iterative refinement on the
    values ``f_i^H g_i`` of the dual as :func:`dual_from_coefficients` forms
    it.
    """
    rp = np.linalg.pinv(r)
    c = np.zeros((f.shape[0], v.shape[1]), dtype=np.complex128)
    for _ in range(_REFINE_PASSES):
        delta = t - np.diagonal(f.conj().T @ (g0 + c @ v.conj().T))[:, None]
        c = c + g0 @ ((rp @ (rp.conj().T @ delta)) * v)
    return c


def _fit(w, l, b, lam):
    """The ``z`` minimizing ``sum_i lam_i e_i^2``, with minimum norm, its
    residual rows ``b + l z``, its ``e``, and the kept right singular
    vectors and values of the weighted ``l``."""
    root = (np.sqrt(lam) * w)[:, None]
    u, s, vh = np.linalg.svd(root * l, full_matrices=False)
    rank = s > _RANK_TOL * s[0]
    u, s, vh = u[:, rank], s[rank], vh[rank]
    z = -vh.conj().T @ ((u.conj().T @ (root * b)) / s[:, None])
    r = b + l @ z
    return z, r, w * np.linalg.norm(r, axis=1), (vh, s)


def _newton_weights(w, l, lam, r, e, active, svd):
    """Weights on ``active`` from one Newton step, from ``lam``, towards a fit
    with equal ``e_i`` on ``active``: the stationarity condition of the dual
    problem on that face of the simplex.  None if no step is defined.

    The fit moves by ``dz/dlam_j = -H^+ l_j^H w_j^2 r_j`` with
    ``H = sum_i lam_i w_i^2 l_i^H l_i``, so ``de_i/dlam_j`` is
    ``-w_i^2 w_j^2 Re(P_ij conj(r_i r_j^H)) / e_i`` with ``P = l H^+ l^H``,
    which is ``K D U diag(s)^-4 U^H D K`` for the weighted ``D l = U s V^H``
    of the fit at ``lam`` (``svd``).  An index whose new weight is not
    positive leaves ``active``; when the Newton system has no solution, the
    face holds no stationary point and the index with the smallest ``e``
    leaves.
    """
    if not np.all(e[active] > 0.0):
        return None
    vh, s = svd
    half = (l @ vh.conj().T) / s
    w2 = w**2
    dw = np.divide(w2, e, out=np.zeros_like(e), where=e > 0.0)
    jac = -np.real((half @ half.conj().T) * (r @ r.conj().T).conj()) * np.outer(dw, w2)
    while active.size:
        k = active.size
        kkt = np.block(
            [[jac[np.ix_(active, active)], -np.ones((k, 1))], [np.ones((1, k)), 0.0]]
        )
        # e on active, linearized at weights that are zero off active, equals t
        rhs = np.append(jac[active] @ lam - e[active], 1.0)
        solution = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        new = solution[:k]
        if np.linalg.norm(kkt @ solution - rhs) > _NEWTON_TOL * np.linalg.norm(rhs):
            active = np.delete(active, np.argmin(e[active]))
        elif np.all(new > 0.0):
            out = np.zeros_like(lam)
            out[active] = new
            return out / out.sum()
        else:
            active = active[new > 0.0]
    return None


def _minimax(w, l, b, lam, upper):
    """Minimize ``max_i e_i`` with ``e_i = w_i ||b_i + l_i z||`` (rows
    ``i``), starting from Lawson weights ``lam`` and the attained value
    ``upper``.

    Every ``_POLISH_EVERY`` Lawson steps, a chain of Newton steps from the
    current weights equalizes ``e`` on the indices with positive weight,
    adding back any index whose ``e`` exceeds the chain's lower bound.  Each
    fit, Lawson's or Newton's, tightens the bounds.

    Returns the best fit's ``z`` (None if no fit beat ``upper``), the best
    lower bound and the number of fits.
    """
    best_z, lower, solves = None, 1.0, 0

    def bracket(weights):
        nonlocal best_z, upper, lower, solves
        z, r, e, svd = _fit(w, l, b, weights)
        solves += 1
        lower = max(lower, float(np.sqrt(weights @ e**2)))
        if e.max() < upper:
            best_z, upper = z, float(e.max())
        return r, e, svd, upper - lower <= _GAP_TOL * upper or solves >= _MAX_SOLVES

    done = upper - lower <= _GAP_TOL * upper
    step = 0
    while not done:
        r, e, svd, done = bracket(lam)
        step += 1
        if step % _POLISH_EVERY == 0:
            trial, tr, te, tsvd, active = lam, r, e, svd, np.flatnonzero(lam > 0.0)
            for _ in range(_POLISH_STEPS):
                if done:
                    break
                trial = _newton_weights(w, l, trial, tr, te, active, tsvd)
                if trial is None:
                    break
                tr, te, tsvd, done = bracket(trial)
                active = np.flatnonzero((trial > 0.0) | (te**2 > trial @ te**2))
        lam = lam * e / (lam @ e)
    return best_z, lower, solves


def _run_search(kind: str, frame: Frame, profile: ProbabilityProfile) -> SearchResult:
    if kind not in MEASURE_KINDS:
        raise ValueError(f"measure kind must be one of {MEASURE_KINDS}, got {kind!r}")
    canonical = canonical_dual(frame)
    canonical_value = _one_erasure_value(kind, canonical, profile)
    if frame.count == frame.dim:
        return SearchResult(
            best_dual=canonical,
            best_value=canonical_value,
            canonical_value=canonical_value,
            gap=0.0,
            lower_bound=canonical_value,
            iterations=0,
            converged=True,
            note="canonical dual is the unique dual; the search space is empty",
        )

    # V's coloop rows are zero: a fit that read their rounding as directions
    # would call for coefficients of order 1e16
    f, g0, q = frame.matrix, canonical.dual, profile.weights
    v = dual_perturbation_basis(frame)
    if kind == "spectral":
        # With F = U diag(sigma) W^H: <f_i, g_i>^* = f_i^H g0_i + (a x)_i,
        # where x is diag(sigma) U^H C row by row (||x|| = ||S^(1/2) C||) and
        # a_i = h_i^* kron v_i^* for the columns h_i of W^H; W^H has
        # orthonormal rows, so the conditioning of S does not enter the fit
        r = _spectral_factor(frame._svd[2], v)
        l, w, b = r.conj().T, q, np.sum(f.conj() * g0, axis=0)[:, None]
    else:
        # g_i^T = g0_i^T + (a x)_i with a = conj(V) and x = C^T
        l, w, b = v.conj(), q * np.linalg.norm(f, axis=0), g0.T
    z, lower, solves = _minimax(w, l, b, 1.0 / (frame.dim * q), canonical_value)

    best_pair, measured, note = canonical, canonical_value, ""
    if z is not None:
        coeffs = _spectral_coefficients(f, g0, v, r, b + l @ z) if kind == "spectral" else z.T
        try:
            pair = dual_from_coefficients(frame, coeffs)
        except NotDual as exc:
            # near-parallel frame vectors can call for coefficients so large
            # that the fitted dual reconstructs only to their rounding
            note = f"{exc}; the canonical dual is reported instead"
        else:
            value = _one_erasure_value(kind, pair, profile)
            if value <= canonical_value:
                best_pair, measured = pair, value
    # a computed bound above an attained value is rounding
    lower = min(lower, measured)
    return SearchResult(
        best_dual=best_pair,
        best_value=measured,
        canonical_value=canonical_value,
        gap=canonical_value - measured,
        lower_bound=lower,
        iterations=solves,
        converged=measured - lower <= _GAP_TOL * measured,
        note=note,
    )


def minimize_spectral_one(frame: Frame, profile: ProbabilityProfile) -> SearchResult:
    """Minimize the worst one-erasure spectral value over all duals of ``frame``."""
    return _run_search("spectral", frame, profile)


def minimize_norm_one(frame: Frame, profile: ProbabilityProfile) -> SearchResult:
    """Minimize the worst one-erasure norm value over all duals of ``frame``."""
    return _run_search("norm", frame, profile)


def certify_canonical_optimal(
    frame: Frame, profile: ProbabilityProfile, measure_kind: str
) -> CertificationOutcome:
    """Is the canonical dual within ``CERTIFY_TOL`` of the searched optimum?

    Returns an inconclusive outcome (``optimal=None``) when the search does
    not converge, so inconclusiveness is kept distinct from False.
    """
    result = _run_search(measure_kind, frame, profile)
    if not result.converged:
        return CertificationOutcome(optimal=None, gap=result.gap, result=result)
    return CertificationOutcome(
        optimal=bool(result.gap <= CERTIFY_TOL), gap=result.gap, result=result
    )
