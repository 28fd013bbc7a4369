"""Certificates for optimality conditions on dual pairs and canonical duals.

Each operation evaluates the hypotheses of one optimality statement and
returns an :class:`OptimalityCertificate` with the checked hypotheses, a
conclusion, and numeric witnesses, in every case: a certificate whose
prerequisites fail lists them as failed hypotheses, with the conclusion
``False``, or ``None`` for the two-erasure prediction, whose conclusion is a
value and not a verdict.  The global lower bounds are 1 for both
the one-erasure spectral and norm measures; a pair attains them exactly when
``<f_i, g_i> = 1/q_i`` for all ``i`` (spectral) with the extra condition
``||f_i|| ||g_i|| = 1/q_i`` (norm).

The canonical dual is one-erasure optimal, under either measure, exactly
when some connected component of the frame's vector matroid (see
:mod:`framelab.frames`) lies inside the set ``A`` of indices attaining its
worst value, by linear-programming duality on the m = 1 problem; the
component found is the witness.  ``A`` is a union of components exactly when
the spans of the attaining and remaining vectors intersect trivially, and
the remaining vectors are then independent exactly when each is a coloop.
No verdict rests on a search; the Parseval equivalence report records the
gaps of the two searches, which bear out the canonical certificates' exact
verdicts.

A lower bound on the two-erasure spectral value over one-erasure optimal
(one-uniform) duals depends only on the weights, through the budget
``n - sum_i 1/q_i^2`` that the trace identity forces onto the off-diagonal
cross-Gram products.  It is not the optimum over all duals: a dual that is
not one-erasure optimal can fall below it.

The closed forms live in :mod:`framelab.erasures`: the canonical partition
certificates, the norm membership certificate and the two-erasure
prediction take their per-index values ``q_i |<f_i, g_i>|`` and
``q_i ||f_i|| ||g_i||`` from the m = 1 measures, the pairwise certificates
take the cross products ``q_i q_j a_ij a_ji`` over all pairs ``i < j`` from
``erasures._cross_products``, and every tie set follows ``erasures._ties``,
so a canonical certificate's attaining set is cut exactly where the m = 1
measure's ``argmax_sets`` are.  A condition stated for every index or every
pair is one hypothesis: its witness is the largest residual, and it holds
when that is at most ``DEFAULT_TOL``; no certificate takes a tolerance of
its own.

:func:`analyze_certificates` builds an ``analyze`` report's certificates.
The private ones take the values, partitions and residuals it computes once,
reading only the m = 1 measures from one memo (:func:`_measure_memo`) that
``analyze`` shares with its measures section; no certificate enumerates a
set of two or more erasures.  No detail repeats what the report's other
sections hold or give exactly: the per-index values are the m = 1 measures'
per-set values, a partition's remaining indices are those not attaining,
the two-erasure lower bound is ``canonical_spectral_two``'s
``predicted_two_erasure_value``, and the two-erasure prediction is its
certificate's conclusion, from the one-erasure value and tie set of
``canonical_spectral_one``'s partition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .erasures import (
    ErasureMeasureReport,
    _cabs,
    _cross_products,
    _ties,
    norm_measure,
    spectral_measure,
)
from .frames import DualPair, Frame, canonical_dual
from .weights import ProbabilityProfile

# A hypothesis holds when its witness is at most this.
DEFAULT_TOL = 1e-9

CONDITION_ONE_UNIFORM = "one_uniform_pair"
CONDITION_TWO_UNIFORM = "two_uniform_pair"
CONDITION_SPECTRAL_TWO_PAIR = "spectral_two_optimal_pair"
CONDITION_NORM_ONE_PAIR = "norm_one_optimal_pair"
CONDITION_CANONICAL_SPECTRAL_ONE = "canonical_spectral_one"
CONDITION_CANONICAL_NORM_ONE = "canonical_norm_one"
CONDITION_CANONICAL_SPECTRAL_TWO = "canonical_spectral_two"
CONDITION_TWO_ERASURE_PREDICTION = "two_erasure_prediction"
CONDITION_UNIFORM_PARSEVAL = "uniform_parseval"
CONDITION_PARSEVAL_EQUIVALENCE = "parseval_equivalence"


@dataclass(frozen=True)
class Hypothesis:
    description: str
    holds: bool
    witness: float


@dataclass(frozen=True)
class OptimalityCertificate:
    """Structured verdict for one optimality condition."""

    condition_id: str
    hypotheses: tuple[Hypothesis, ...]
    conclusion: object  # bool for membership conditions, float for predictions
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PartitionReport:
    """Index partition by the per-index canonical values.

    ``attaining`` holds the (1-based) indices whose value reaches the
    maximum ``threshold``; the other indices are the remaining ones.
    ``witness`` is the smallest component of the frame's vector matroid
    inside ``attaining``, or empty when none is.  ``crossing_components``
    counts the components that meet both sides; it is 0 exactly when the
    spans of the attaining and remaining vectors intersect trivially.
    """

    threshold: float
    attaining: tuple[int, ...]
    witness: tuple[int, ...]
    crossing_components: int


@dataclass(frozen=True, kw_only=True)
class _CanonicalCertificate(OptimalityCertificate):
    """A canonical one-erasure certificate with the index ``partition`` it
    decides on."""

    partition: PartitionReport


@dataclass(frozen=True)
class OptimalBounds:
    """A lower bound over one-erasure optimal (one-uniform) duals on the
    two-erasure spectral value, which the weight sequence alone determines
    (both one-erasure optima are 1).

    ``cross_budget`` is ``n - sum_i 1/q_i^2``: the total off-diagonal
    cross-Gram product mass available to a one-erasure optimal pair.  Its
    sign selects the branch of ``spectral_two``.  ``cross_target`` is its
    share per pair, ``cross_budget / sum_{i != j} 1/(q_i q_j)``, and
    ``spectral_two`` is ``1 + sqrt(cross_target)`` when the budget is
    nonnegative.  A one-uniform pair attains the bound exactly when its
    weighted cross products all equal ``cross_target``, which many weight
    sequences do not allow; a dual that is not one-uniform can fall below
    it.
    """

    spectral_two: float
    cross_budget: float
    cross_target: float


def _hypothesis(residuals: np.ndarray, claim: str) -> Hypothesis:
    """The one hypothesis that ``claim`` holds at every index or pair: its
    witness is the largest of the nonnegative ``residuals`` (0 when there
    are none), and a NaN residual fails it."""
    worst = float(np.max(residuals, initial=0.0))
    return Hypothesis(description=claim, holds=worst <= DEFAULT_TOL, witness=worst)


def _one_uniform_residuals(pair: DualPair, q: np.ndarray) -> np.ndarray:
    """The residual of ``<f_i, g_i> = 1/q_i`` at each index: the larger of
    the deviations of the real part of ``q_i <f_i, g_i>`` from 1 and of its
    imaginary part from 0, divided by ``q_i``."""
    products = q * np.conj(np.diagonal(pair.cross_gram))
    return np.maximum(np.abs(products.real - 1.0), np.abs(products.imag)) / q


def is_one_uniform(pair: DualPair, profile: ProbabilityProfile) -> OptimalityCertificate:
    """Does ``<f_i, g_i> = 1/q_i`` hold for every index?

    The products are complex; both the deviation of the real part from the
    target and the imaginary part must stay within ``DEFAULT_TOL``.
    """
    hypothesis = _hypothesis(
        _one_uniform_residuals(pair, profile.weights),
        "every vector: <f,g> equals the reciprocal weight",
    )
    return OptimalityCertificate(
        condition_id=CONDITION_ONE_UNIFORM, hypotheses=(hypothesis,), conclusion=hypothesis.holds
    )


def _two_uniform(products: np.ndarray, q: np.ndarray) -> OptimalityCertificate:
    """Does ``<f_i, g_j><f_j, g_i> = 1/(q_i q_j)`` hold for every ``i != j``?

    ``products`` are the pair's weighted cross products ``w_ij = q_i q_j
    a_ij a_ji`` (``erasures._cross_products``); the residual of a pair is
    ``|w_ij - 1| / (q_i q_j)``."""
    i, j = np.triu_indices(q.size, 1)
    hypothesis = _hypothesis(
        _cabs(products - 1.0) / (q[i] * q[j]), "every pair: cross products match"
    )
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_UNIFORM, hypotheses=(hypothesis,), conclusion=hypothesis.holds
    )


def optimal_values(profile: ProbabilityProfile) -> OptimalBounds:
    """A lower bound on the two-erasure spectral value over one-erasure
    optimal (one-uniform) duals; not the optimum over all dual pairs.

    Both one-erasure optima equal 1.  The bound follows the sign of the
    cross budget ``n - sum 1/q_i^2``; a negative budget is only possible
    when the vector count equals the dimension.
    """
    inv_q = 1.0 / profile.weights
    n = profile.dim
    square_sum = float(np.sum(inv_q**2))
    budget = n - square_sum
    # the budget's share per pair: sum_{i != j} 1/(q_i q_j) weighs the pairs
    target = budget / float(np.sum(inv_q) ** 2 - square_sum)
    if budget >= 0:
        spectral_two = 1.0 + np.sqrt(target)
    else:
        spectral_two = np.sqrt((n * n - n) / (n * n - square_sum))
    return OptimalBounds(
        spectral_two=float(spectral_two), cross_budget=float(budget), cross_target=target
    )


def _spectral_two_pair(
    one_uniform: bool, spectral_one: float, bounds: OptimalBounds, residuals: np.ndarray
) -> OptimalityCertificate:
    """Does the pair attain the lower bound on the two-erasure spectral
    value over one-erasure optimal (one-uniform) duals?  A pair that does is
    two-erasure optimal among them; one that does not may still be, as the
    bound is not always attained.

    Requires one-erasure optimality, the pair's one-uniformity, first:
    otherwise the one hypothesis is that the pair attains it, failed, with
    witness ``spectral_one - 1`` (its m = 1 spectral value less 1).  Then
    checks that every weighted off-diagonal cross product equals the shared
    constant ``cross_target`` of ``bounds``; ``residuals`` are the moduli of
    their differences from it.
    """
    if not one_uniform:
        hypothesis = Hypothesis(
            description="pair attains the one-erasure spectral optimum",
            holds=False,
            witness=spectral_one - 1.0,
        )
        return OptimalityCertificate(
            condition_id=CONDITION_SPECTRAL_TWO_PAIR, hypotheses=(hypothesis,), conclusion=False
        )
    hypothesis = _hypothesis(
        residuals, "every pair: weighted cross product equals the shared constant"
    )
    return OptimalityCertificate(
        condition_id=CONDITION_SPECTRAL_TWO_PAIR,
        hypotheses=(hypothesis,),
        conclusion=hypothesis.holds,
        details={"cross_target": bounds.cross_target},
    )


def _measure_memo(pair: DualPair, profile: ProbabilityProfile):
    """``measure(kind, m)``: the ``kind`` measure of ``pair`` at ``m``,
    evaluated once however often it is asked for."""

    @functools.cache
    def measure(kind: str, m: int) -> ErasureMeasureReport:
        return (spectral_measure if kind == "spectral" else norm_measure)(pair, profile, m)

    return measure


def _canonical_one_certificate(frame: Frame, report: ErasureMeasureReport) -> _CanonicalCertificate:
    """Is the canonical dual one-erasure optimal under the measure of its
    m = 1 report ``report``?

    Partitions the indices by the per-set values ``q_i |<S^-1 f_i, f_i>|``
    or ``q_i ||f_i|| ||S^-1 f_i||``, cut where ``argmax_sets`` are, and
    looks for a component of the frame's vector matroid inside the
    attaining set.  The norm certificate adds the uniqueness sub-check: the
    canonical dual is the unique optimal dual when the attaining set is a
    union of components and the remaining vectors are independent.
    """
    values = report.per_set_values
    threshold, attaining = _ties(values)
    components = frame._components
    inside = [c for c in components if attaining[c].all()]
    touching = sum(bool(attaining[c].any()) for c in components)
    partition = PartitionReport(
        threshold=threshold,
        attaining=tuple(int(i) + 1 for i in np.flatnonzero(attaining)),
        witness=tuple(int(i) + 1 for i in min(inside, key=len, default=())),
        crossing_components=touching - len(inside),
    )
    details = {}
    condition_id = CONDITION_CANONICAL_SPECTRAL_ONE
    if report.kind == "norm":
        # the attaining set is a union of components and every other vector
        # is a coloop: the remaining vectors are independent
        details["canonical_unique"] = partition.crossing_components == 0 and bool(
            np.all(frame._coloops | attaining)
        )
        condition_id = CONDITION_CANONICAL_NORM_ONE
    hypothesis = Hypothesis(
        description="a component of the frame's vector matroid lies inside the attaining set",
        holds=bool(inside),
        witness=float(len(inside)),
    )
    return _CanonicalCertificate(
        condition_id=condition_id,
        hypotheses=(hypothesis,),
        conclusion=bool(inside),
        details=details,
        partition=partition,
    )


def _canonical_spectral_two(
    partition: PartitionReport, bounds: OptimalBounds, residuals: np.ndarray
) -> OptimalityCertificate:
    """Sufficient condition for the canonical dual to be two-erasure
    spectrally optimal for this frame.

    Requires the spans of the attaining and remaining vectors of the
    canonical spectral certificate's ``partition`` to intersect trivially
    (the attaining set is a union of components), at least two attaining
    indices, and all pairwise products ``<S^-1 f_i, f_j><S^-1 f_j, f_i>``
    equal to the weighted share of the cross budget, which ``residuals``
    measure as in :func:`_spectral_two_pair`.  A negative budget makes the
    required constant imaginary and is reported as a failed hypothesis.
    """
    hypotheses = [
        Hypothesis(
            description="spans of attaining and remaining vectors intersect trivially",
            holds=partition.crossing_components == 0,
            witness=float(partition.crossing_components),
        ),
        Hypothesis(
            description="at least two indices attain the threshold",
            holds=len(partition.attaining) >= 2,
            witness=float(len(partition.attaining)),
        ),
    ]
    if bounds.cross_budget < 0:
        hypotheses.append(
            Hypothesis(
                description="cross budget is nonnegative (required constant is real)",
                holds=False,
                witness=bounds.cross_budget,
            )
        )
    else:
        hypotheses.append(
            _hypothesis(
                residuals, "all pairwise inverse-operator products equal the weighted cross target"
            )
        )
    return OptimalityCertificate(
        condition_id=CONDITION_CANONICAL_SPECTRAL_TWO,
        hypotheses=tuple(hypotheses),
        conclusion=all(h.holds for h in hypotheses),
        details={
            "cross_budget": bounds.cross_budget,
            "predicted_two_erasure_value": bounds.spectral_two,
        },
    )


def _two_erasure_prediction(
    pair: DualPair, products: np.ndarray, spectral_one: ErasureMeasureReport
) -> OptimalityCertificate:
    """Predict the worst two-erasure spectral value from one-erasure data.

    Requires a real nonnegative cross-Gram diagonal and a constant positive
    weighted cross product ``c``; ``products`` are the pair's weighted cross
    products (``erasures._cross_products``).  The value of a pair of indices
    is then the larger root ``(a + d + sqrt((a - d)^2 + 4c)) / 2`` of its
    two-erasure quadratic, where ``a`` and ``d`` are their weighted diagonal
    values, the m = 1 spectral values of ``spectral_one``.  That root grows
    with both ``a`` and ``d``, so the prediction is its value at the two
    largest: ``R1``, the report's ``value``, and ``M2``, the second largest
    of its ``per_set_values``, ties included (``M2 = R1`` under a tie).
    This is exact when the products are equal; when each lies within
    ``delta`` of ``c``, it is within ``delta / (2 sqrt(c - delta))`` of the
    enumerated value.

    The details hold ``c`` and ``M2``; ``R1`` is ``canonical_spectral_one``'s
    threshold.  When a hypothesis is violated the certificate carries the
    two evaluated hypotheses, no details, and the conclusion ``None``.
    """
    diag = np.diagonal(pair.cross_gram)
    diag_violation = float(
        max(np.max(np.maximum(-diag.real, 0.0)), np.max(np.abs(diag.imag)))
    )
    hyp_diag = Hypothesis(
        description="cross-Gram diagonal is real and nonnegative",
        holds=diag_violation <= DEFAULT_TOL,
        witness=diag_violation,
    )
    mean = complex(np.mean(products))
    deviation = float(np.max(_cabs(products - mean)))
    constant_ok = (
        deviation <= DEFAULT_TOL and abs(mean.imag) <= DEFAULT_TOL and mean.real > DEFAULT_TOL
    )
    hyp_cross = Hypothesis(
        description="weighted cross products share one positive constant",
        holds=constant_ok,
        witness=max(deviation, abs(mean.imag)),
    )
    hypotheses = (hyp_diag, hyp_cross)
    if not (hyp_diag.holds and hyp_cross.holds):
        return OptimalityCertificate(
            condition_id=CONDITION_TWO_ERASURE_PREDICTION, hypotheses=hypotheses, conclusion=None
        )
    c = mean.real
    r1 = spectral_one.value
    m2 = float(np.partition(spectral_one.per_set_values, -2)[-2])
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_ERASURE_PREDICTION,
        hypotheses=hypotheses,
        conclusion=float(0.5 * (r1 + m2 + np.sqrt((r1 - m2) ** 2 + 4.0 * c))),
        details={"cross_constant": c, "second_level_value": m2},
    )


def _norm_one_pair(
    pair: DualPair, profile: ProbabilityProfile, norm_one: ErasureMeasureReport
) -> OptimalityCertificate:
    """Membership in the set attaining the one-erasure norm optimum.

    Requires both ``<f_i, g_i> = 1/q_i`` and ``||f_i|| ||g_i|| = 1/q_i`` for
    every index, so a member is one-uniform.  The residual at an index is
    the larger of its one-uniform residual and ``|v_i - 1| / q_i``, where
    ``v_i = q_i ||f_i|| ||g_i||`` is the m = 1 norm value of ``norm_one``.
    """
    q = profile.weights
    hypothesis = _hypothesis(
        np.maximum(_one_uniform_residuals(pair, q), np.abs(norm_one.per_set_values - 1.0) / q),
        "every vector: inner product and norm product equal the reciprocal weight",
    )
    return OptimalityCertificate(
        condition_id=CONDITION_NORM_ONE_PAIR, hypotheses=(hypothesis,), conclusion=hypothesis.holds
    )


def is_probabilistic_uniform_parseval(
    frame: Frame, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Is the frame Parseval with ``||f_i||^2 = 1/q_i`` for all ``i``?"""
    parseval_residual = frame.parseval_residual
    norms_sq = np.linalg.norm(frame.matrix, axis=0) ** 2
    norm_residual = float(np.max(np.abs(norms_sq - 1.0 / profile.weights)))
    hypotheses = (
        Hypothesis(
            description="frame operator equals the identity",
            holds=parseval_residual <= DEFAULT_TOL,
            witness=parseval_residual,
        ),
        Hypothesis(
            description="squared vector norms equal the reciprocal weights",
            holds=norm_residual <= DEFAULT_TOL,
            witness=norm_residual,
        ),
    )
    return OptimalityCertificate(
        condition_id=CONDITION_UNIFORM_PARSEVAL,
        hypotheses=hypotheses,
        conclusion=all(h.holds for h in hypotheses),
    )


def _parseval_equivalence(
    frame: Frame, profile: ProbabilityProfile, spectral, norm
) -> OptimalityCertificate:
    """For a Parseval frame, canonical-dual one-erasure optimality under the
    spectral and norm measures must agree: both per-index values are
    ``q_i ||f_i||^2``, so the two exact tests look at one attaining set.

    The one hypothesis is the one Parseval test, ``frame.parseval_residual``
    at most ``DEFAULT_TOL``; when it fails, the conclusion is ``False`` and
    nothing else is computed.  Otherwise the conclusion is whether the
    canonical ``spectral`` and ``norm`` certificates agree, and the gaps are
    those of the two searches, which bear their verdicts out numerically.
    """
    residual = frame.parseval_residual
    hypothesis = Hypothesis(
        description="frame operator equals the identity",
        holds=residual <= DEFAULT_TOL,
        witness=residual,
    )
    if not hypothesis.holds:
        return OptimalityCertificate(
            condition_id=CONDITION_PARSEVAL_EQUIVALENCE, hypotheses=(hypothesis,), conclusion=False
        )
    # only a Parseval frame loads the search layer
    from .search import certify_canonical_optimal

    return OptimalityCertificate(
        condition_id=CONDITION_PARSEVAL_EQUIVALENCE,
        hypotheses=(hypothesis,),
        conclusion=spectral.conclusion == norm.conclusion,
        details={
            "spectral_gap": certify_canonical_optimal(frame, profile, "spectral").gap,
            "norm_gap": certify_canonical_optimal(frame, profile, "norm").gap,
        },
    )


def analyze_certificates(
    frame: Frame, profile: ProbabilityProfile, measure=None
) -> list[OptimalityCertificate]:
    """The certificates of an ``analyze`` report on the canonical dual, in
    report order; the two canonical one-erasure ones carry their
    ``partition``.

    ``measure(kind, m)`` gives the canonical dual's measure reports (a memo
    from :func:`_measure_memo`, a fresh one by default); ``analyze`` passes
    the one its measures section reads, so a measure that both read is
    evaluated once.  The certificates read only the two m = 1 measures; the
    weighted cross products, the optimal values and the residuals of the
    products from the shared cross target are computed here, once."""
    pair = canonical_dual(frame)
    if measure is None:
        measure = _measure_memo(pair, profile)
    one_uniform = is_one_uniform(pair, profile)
    spectral_one, norm_one = measure("spectral", 1), measure("norm", 1)
    spectral = _canonical_one_certificate(frame, spectral_one)
    norm = _canonical_one_certificate(frame, norm_one)
    products = _cross_products(pair.cross_gram, profile.weights)
    bounds = optimal_values(profile)
    residuals = _cabs(products - bounds.cross_target)
    return [
        one_uniform,
        _two_uniform(products, profile.weights),
        _norm_one_pair(pair, profile, norm_one),
        _spectral_two_pair(
            one_uniform.conclusion, spectral.partition.threshold, bounds, residuals
        ),
        spectral,
        norm,
        _canonical_spectral_two(spectral.partition, bounds, residuals),
        _two_erasure_prediction(pair, products, spectral_one),
        is_probabilistic_uniform_parseval(frame, profile),
        _parseval_equivalence(frame, profile, spectral, norm),
    ]
