"""Minimax search over the dual-frame space for one-erasure optimal duals.

Every dual of a frame is ``G = S^-1 F + C V^H`` (see :mod:`framelab.frames`),
so both one-erasure objectives are maxima of convex functions of the real and
imaginary parts of the ``n x (N - n)`` matrix ``C``:

* spectral: ``max_i q_i |<g_i, f_i>|`` -- moduli of affine complex maps,
* norm:     ``max_i q_i ||f_i|| ||g_i||`` -- norms of affine maps.

Values and gradients are ``n x N`` and ``n x (N - n)`` matrix products
against ``V``.

Two convergent convex-minimax methods are provided: log-sum-exp smoothing
with L-BFGS refinement over a decreasing smoothing schedule (default), and
plain subgradient descent with diminishing ``c/sqrt(k)`` steps.  Each solve
runs from the canonical dual (zero coefficients) plus a number of random
restarts and keeps the best evaluated point, so the reported value never
exceeds the canonical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import DualPair, Frame, canonical_dual, dual_from_coefficients, dual_perturbation_basis
from .weights import ProbabilityProfile

MEASURE_KINDS = ("spectral", "norm")


@dataclass(frozen=True)
class SearchOptions:
    """Solver configuration.

    ``tolerance`` is the allowed spread between restart outcomes for the
    search to count as converged.  ``step_scale`` only affects the
    subgradient method (step ``step_scale / sqrt(k)``); when None it is set
    from the canonical objective value.
    """

    restarts: int = 20
    max_iterations: int = 5000
    tolerance: float = 1e-8
    seed: int = 0
    method: str = "smoothed"  # "smoothed" or "subgradient"
    start_radius: float = 1.0
    step_scale: float | None = None
    stall_window: int = 200
    stall_tol: float = 1e-10


@dataclass(frozen=True)
class SearchResult:
    best_dual: DualPair
    best_value: float
    canonical_value: float
    gap: float
    iterations: int
    converged: bool
    note: str = ""


@dataclass(frozen=True)
class CertificationOutcome:
    """Numerical verdict on canonical-dual optimality.

    ``optimal`` is None when the search did not converge (inconclusive,
    deliberately distinct from False).
    """

    optimal: bool | None
    gap: float
    result: SearchResult


def _spectral_one_value(pair: DualPair, profile: ProbabilityProfile) -> float:
    return float(np.max(profile.weights * np.abs(np.diagonal(pair.cross_gram))))


def _norm_one_value(pair: DualPair, profile: ProbabilityProfile) -> float:
    return float(
        np.max(
            profile.weights
            * np.linalg.norm(pair.frame.matrix, axis=0)
            * np.linalg.norm(pair.dual.matrix, axis=0)
        )
    )


_VALUE_FUNCTIONS = {"spectral": _spectral_one_value, "norm": _norm_one_value}


class _Objective:
    """One objective over x in R^(2K), the real and imaginary parts of ``C``.

    Index ``i`` contributes ``scales_i |a_i|``, where ``a_i`` is
    ``<g_i, f_i>`` (spectral) or the vector ``g_i`` (norm).  The gradient of
    ``|a_i|`` with respect to ``C`` is ``conj(D[:, i]) conj(V[i, :]) / |a_i|``
    for the carrier ``D = F * a`` (spectral) or ``D = G`` (norm).
    """

    def __init__(self, kind: str, frame: Frame, profile: ProbabilityProfile, basis) -> None:
        self.kind = kind
        self.k = basis.size
        self.f = frame.matrix
        self.g0 = canonical_dual(frame).dual.matrix
        self.v = basis.null_vectors
        self.scales = profile.weights
        if kind == "norm":
            self.scales = self.scales * np.linalg.norm(self.f, axis=0)

    def _carrier(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The carrier ``D`` and the moduli ``|a_i|`` at ``x``."""
        c = (x[: self.k] + 1j * x[self.k :]).reshape(-1, self.v.shape[1])
        g = self.g0 + c @ self.v.conj().T
        if self.kind == "spectral":
            t = np.einsum("di,di->i", self.f.conj(), g)
            return self.f * t, np.abs(t)
        return g, np.linalg.norm(g, axis=0)

    def _gradient(self, carrier: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Gradient in x of ``sum_i weights_i |a_i|^2 / 2``."""
        row = ((carrier.conj() * weights) @ self.v.conj()).reshape(-1)
        return np.concatenate([np.real(row), -np.imag(row)])

    def value(self, x: np.ndarray) -> float:
        _, moduli = self._carrier(x)
        return float(np.max(self.scales * moduli))

    def smoothed(self, x: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        """Log-sum-exp smoothed objective and gradient; upper-bounds the max."""
        carrier, moduli = self._carrier(x)
        radicals = np.sqrt(moduli**2 + mu * mu)
        terms = self.scales * radicals
        top = float(np.max(terms))
        expo = np.exp((terms - top) / mu)
        total = float(np.sum(expo))
        value = top + mu * np.log(total)
        weights = (expo / total) * (self.scales / radicals)
        return value, self._gradient(carrier, weights)

    def subgradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """True objective value and a subgradient of the active term."""
        carrier, moduli = self._carrier(x)
        vals = self.scales * moduli
        i = int(np.argmax(vals))
        value = float(vals[i])
        if moduli[i] == 0.0:
            return value, np.zeros(2 * self.k)
        weights = np.zeros(vals.size)
        weights[i] = self.scales[i] / moduli[i]
        return value, self._gradient(carrier, weights)


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use: the import takes
    most of the package's start-up time, and only a search needs it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _minimize_smoothed(
    objective: _Objective, x0: np.ndarray, options: SearchOptions, scale: float
) -> tuple[np.ndarray, int]:
    schedule = scale * 10.0 ** -np.arange(1, 10, dtype=float)
    per_stage = max(50, options.max_iterations // schedule.size)
    x = x0.copy()
    iterations = 0
    for mu in schedule:
        res = _scipy_minimize(
            lambda v: objective.smoothed(v, mu),
            x,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": per_stage, "ftol": 1e-15, "gtol": 1e-12},
        )
        x = res.x
        iterations += int(res.nit)
    return x, iterations


def _minimize_subgradient(
    objective: _Objective, x0: np.ndarray, options: SearchOptions, scale: float
) -> tuple[np.ndarray, int]:
    step0 = options.step_scale if options.step_scale is not None else 0.5 * scale
    x = x0.copy()
    best_x = x.copy()
    best = np.inf
    window_best = np.inf
    since_improvement = 0
    k = 0
    for k in range(1, options.max_iterations + 1):
        value, sub = objective.subgradient(x)
        if value < best:
            best = value
            best_x = x.copy()
        if value < window_best - options.stall_tol:
            window_best = value
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= options.stall_window:
                break
        norm = float(np.linalg.norm(sub))
        if norm == 0.0:
            break
        x = x - (step0 / np.sqrt(k)) * (sub / norm)
    return best_x, k


_SOLVERS = {"smoothed": _minimize_smoothed, "subgradient": _minimize_subgradient}


def _run_search(
    kind: str, frame: Frame, profile: ProbabilityProfile, options: SearchOptions | None
) -> SearchResult:
    if kind not in MEASURE_KINDS:
        raise ValueError(f"measure kind must be one of {MEASURE_KINDS}, got {kind!r}")
    opts = options or SearchOptions()
    if opts.method not in _SOLVERS:
        raise ValueError(f"unknown method {opts.method!r}")
    solver = _SOLVERS[opts.method]
    basis = dual_perturbation_basis(frame)
    canonical = canonical_dual(frame)
    value_of = _VALUE_FUNCTIONS[kind]
    canonical_value = value_of(canonical, profile)
    if basis.size == 0:
        return SearchResult(
            best_dual=canonical,
            best_value=canonical_value,
            canonical_value=canonical_value,
            gap=0.0,
            iterations=0,
            converged=True,
            note="canonical dual is the unique dual; the search space is empty",
        )

    objective = _Objective(kind, frame, profile, basis)
    scale = max(1.0, canonical_value)
    dim = 2 * basis.size
    rng = np.random.default_rng(opts.seed)
    radius = opts.start_radius * float(np.linalg.norm(canonical.dual.matrix))

    starts = [np.zeros(dim)]
    for _ in range(max(0, opts.restarts)):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        starts.append(radius * rng.uniform(0.1, 1.0) * direction)

    finals: list[float] = []
    best_x = np.zeros(dim)
    best_value = canonical_value
    iterations = 0
    for x0 in starts:
        x, its = solver(objective, x0, opts, scale)
        iterations += its
        value = objective.value(x)
        finals.append(value)
        if value < best_value:
            best_value = value
            best_x = x
    spread = max(finals) - min(finals)
    converged = spread <= max(opts.tolerance, 1e-12 * scale)

    coeffs = best_x[: basis.size] + 1j * best_x[basis.size :]
    best_pair = dual_from_coefficients(basis, coeffs)
    measured = value_of(best_pair, profile)
    if measured > canonical_value:
        best_pair, measured = canonical, canonical_value
    return SearchResult(
        best_dual=best_pair,
        best_value=measured,
        canonical_value=canonical_value,
        gap=canonical_value - measured,
        iterations=iterations,
        converged=converged,
    )


def minimize_spectral_one(
    frame: Frame, profile: ProbabilityProfile, options: SearchOptions | None = None
) -> SearchResult:
    """Minimize the worst one-erasure spectral value over all duals of ``frame``."""
    return _run_search("spectral", frame, profile, options)


def minimize_norm_one(
    frame: Frame, profile: ProbabilityProfile, options: SearchOptions | None = None
) -> SearchResult:
    """Minimize the worst one-erasure norm value over all duals of ``frame``."""
    return _run_search("norm", frame, profile, options)


def random_dual_sampler(
    frame: Frame,
    profile: ProbabilityProfile,
    count: int,
    seed: int,
    measure_kind: str,
) -> list[tuple[DualPair, float]]:
    """Sample duals at several coefficient radii and measure each.

    Radii cycle through ``(0, 0.1, 0.3, 1, 3)`` times the canonical dual's
    Frobenius norm, with directions uniform on the coefficient sphere; the
    first sample is always the canonical dual itself.  Deterministic for a
    fixed seed.
    """
    if measure_kind not in MEASURE_KINDS:
        raise ValueError(f"measure kind must be one of {MEASURE_KINDS}, got {measure_kind!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    basis = dual_perturbation_basis(frame)
    canonical = canonical_dual(frame)
    value_of = _VALUE_FUNCTIONS[measure_kind]
    rng = np.random.default_rng(seed)
    base_radius = float(np.linalg.norm(canonical.dual.matrix))
    levels = (0.0, 0.1, 0.3, 1.0, 3.0)
    out: list[tuple[DualPair, float]] = []
    for j in range(count):
        radius = levels[j % len(levels)] * base_radius
        if basis.size == 0 or radius == 0.0:
            pair = canonical
        else:
            direction = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            direction /= np.linalg.norm(direction)
            pair = dual_from_coefficients(basis, radius * direction)
        out.append((pair, value_of(pair, profile)))
    return out


def certify_canonical_optimal(
    frame: Frame,
    profile: ProbabilityProfile,
    measure_kind: str,
    tol: float = 1e-6,
    options: SearchOptions | None = None,
) -> CertificationOutcome:
    """Is the canonical dual within ``tol`` of the searched optimum?

    Returns an inconclusive outcome (``optimal=None``) when the search does
    not converge; a numerical search can bound the gap but never prove
    optimality, so inconclusiveness is kept distinct from False.
    """
    result = _run_search(measure_kind, frame, profile, options)
    if not result.converged:
        return CertificationOutcome(optimal=None, gap=result.gap, result=result)
    return CertificationOutcome(optimal=bool(result.gap <= tol), gap=result.gap, result=result)
