"""Certificates for optimality conditions on dual pairs and canonical duals.

Each operation evaluates the hypotheses of one optimality statement and
returns an :class:`OptimalityCertificate` with the checked hypotheses, a
conclusion, and numeric witnesses.  The global lower bounds are 1 for both
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
gaps of the two searches next to its exact verdicts.

The two-erasure optimal value over one-erasure optimal pairs depends only on
the weights, through the budget ``n - sum_i 1/q_i^2`` that the trace identity
forces onto the off-diagonal cross-Gram products.

The closed forms live in :mod:`framelab.erasures`: the canonical partition
certificates take their per-index values ``q_i |<f_i, g_i>|`` and
``q_i ||f_i|| ||g_i||`` from the m = 1 measures, the pairwise certificates
take the cross products ``q_i q_j a_ij a_ji`` over all pairs ``i < j`` from
``erasures._cross_products``, and every tie set follows ``erasures._ties``,
so a canonical certificate's attaining set is cut exactly where the m = 1
measure's ``argmax_sets`` are.  Every other hypothesis holds when its witness
is at most ``DEFAULT_TOL``; no certificate takes a tolerance of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .erasures import (
    _cabs,
    _cross_products,
    _ties,
    norm_measure,
    spectral_measure,
    two_erasure_eigenvalues,
)
from .errors import (
    DegenerateDenominator,
    HypothesisFailed,
    NotOneErasureOptimal,
    NotParseval,
)
from .frames import DualPair, Frame, canonical_dual
from .weights import ProbabilityProfile

# A hypothesis holds when its witness is at most this.
DEFAULT_TOL = 1e-9

CONDITION_ONE_UNIFORM = "one_uniform_pair"
CONDITION_TWO_UNIFORM = "two_uniform_pair"
CONDITION_SPECTRAL_ONE_PAIR = "spectral_one_optimal_pair"
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "holds", bool(self.holds))
        object.__setattr__(self, "witness", float(self.witness))


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
    maximum ``threshold``.  ``witness`` is the smallest component of the
    frame's vector matroid inside ``attaining``, or empty when none is.
    ``crossing_components`` counts the components that meet both sides; it
    is 0 exactly when the spans of the attaining and remaining vectors
    intersect trivially.
    """

    threshold: float
    attaining: tuple[int, ...]
    remaining: tuple[int, ...]
    witness: tuple[int, ...]
    crossing_components: int


@dataclass(frozen=True)
class OptimalBounds:
    """Optimal values determined by the weight sequence alone.

    ``cross_budget`` is ``n - sum_i 1/q_i^2``: the total off-diagonal
    cross-Gram product mass available to a one-erasure optimal pair.  Its
    sign selects the branch of the two-erasure optimal value.
    """

    spectral_one: float
    norm_one: float
    spectral_two: float
    cross_budget: float
    offdiag_weight_sum: float


def _index_hypotheses(witnesses: np.ndarray, claim: str) -> tuple[Hypothesis, ...]:
    """One hypothesis per vector ``i``, in index order."""
    return tuple(
        Hypothesis(description=f"vector {i}: {claim}", holds=w <= DEFAULT_TOL, witness=w)
        for i, w in enumerate(witnesses.tolist(), start=1)
    )


def _pair_hypotheses(count: int, witnesses: np.ndarray, claim: str) -> tuple[Hypothesis, ...]:
    """One hypothesis per pair ``i < j``, in the order of ``_cross_products``."""
    i, j = np.triu_indices(count, 1)
    return tuple(
        Hypothesis(
            description=f"pair ({a + 1},{b + 1}): {claim}", holds=w <= DEFAULT_TOL, witness=w
        )
        for a, b, w in zip(i.tolist(), j.tolist(), witnesses.tolist())
    )


def is_one_uniform(pair: DualPair, profile: ProbabilityProfile) -> OptimalityCertificate:
    """Does ``<f_i, g_i> = 1/q_i`` hold for every index?

    The products are complex; both the deviation of the real part from the
    target and the imaginary part must stay within ``DEFAULT_TOL``.
    """
    q = profile.weights
    products = q * np.conj(np.diagonal(pair.cross_gram))
    witnesses = np.maximum(np.abs(products.real - 1.0), np.abs(products.imag)) / q
    hypotheses = _index_hypotheses(witnesses, "<f,g> equals the reciprocal weight")
    return OptimalityCertificate(
        condition_id=CONDITION_ONE_UNIFORM,
        hypotheses=hypotheses,
        conclusion=all(h.holds for h in hypotheses),
        details={
            "weighted_diagonal": [complex(v) for v in products],
            "max_residual": float(np.max(witnesses)),
        },
    )


def is_two_uniform(pair: DualPair, profile: ProbabilityProfile) -> OptimalityCertificate:
    """Does ``<f_i, g_j><f_j, g_i> = 1/(q_i q_j)`` hold for every ``i != j``?"""
    q = profile.weights
    i, j = np.triu_indices(pair.count, 1)
    products = _cross_products(pair.cross_gram, np.ones(pair.count))
    witnesses = _cabs(products - 1.0 / (q[i] * q[j]))
    hypotheses = _pair_hypotheses(pair.count, witnesses, "cross products match")
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_UNIFORM,
        hypotheses=hypotheses,
        conclusion=all(h.holds for h in hypotheses),
        details={"max_residual": float(np.max(witnesses, initial=0.0))},
    )


def one_erasure_spectral_optimal_pair(
    pair: DualPair, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Membership in the set of pairs attaining the one-erasure spectral optimum.

    The test is the one-uniformity condition; the certificate records the
    pair's worst one-erasure spectral value next to the optimal value 1.
    """
    base = is_one_uniform(pair, profile)
    value = spectral_measure(pair, profile, 1).value
    return OptimalityCertificate(
        condition_id=CONDITION_SPECTRAL_ONE_PAIR,
        hypotheses=base.hypotheses,
        conclusion=base.conclusion,
        details={"measure_value": value, "optimal_value": 1.0},
    )


def optimal_values(profile: ProbabilityProfile) -> OptimalBounds:
    """Optimal one- and two-erasure values over all dual pairs.

    Both one-erasure optima equal 1.  The two-erasure optimum follows the
    sign of the cross budget ``n - sum 1/q_i^2``; a negative budget is only
    possible when the vector count equals the dimension.
    """
    if profile.count < 2:
        raise DegenerateDenominator("optimal values need at least two vectors")
    inv_q = 1.0 / profile.weights
    n = profile.dim
    square_sum = float(np.sum(inv_q**2))
    offdiag = float(np.sum(inv_q) ** 2 - square_sum)
    budget = n - square_sum
    if budget >= 0:
        spectral_two = 1.0 + np.sqrt(budget / offdiag)
    else:
        spectral_two = np.sqrt((n * n - n) / (n * n - square_sum))
    return OptimalBounds(
        spectral_one=1.0,
        norm_one=1.0,
        spectral_two=float(spectral_two),
        cross_budget=float(budget),
        offdiag_weight_sum=offdiag,
    )


def two_erasure_spectral_optimal_pair(
    pair: DualPair, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Membership in the set attaining the two-erasure spectral optimum.

    Requires one-erasure optimality first (raises
    :class:`NotOneErasureOptimal` otherwise), then checks that every
    weighted off-diagonal cross product equals the shared constant
    ``cross_budget / offdiag_weight_sum``.
    """
    first = one_erasure_spectral_optimal_pair(pair, profile)
    if not first.conclusion:
        raise NotOneErasureOptimal(
            "pair does not attain the one-erasure spectral optimum "
            f"(max residual {first.details['measure_value'] - 1.0:.3e})"
        )
    bounds = optimal_values(profile)
    target = bounds.cross_budget / bounds.offdiag_weight_sum
    witnesses = _cabs(_cross_products(pair.cross_gram, profile.weights) - target)
    hypotheses = _pair_hypotheses(
        pair.count, witnesses, "weighted cross product equals the shared constant"
    )
    value = spectral_measure(pair, profile, 2).value
    return OptimalityCertificate(
        condition_id=CONDITION_SPECTRAL_TWO_PAIR,
        hypotheses=hypotheses,
        conclusion=all(h.holds for h in hypotheses),
        details={
            "measure_value": value,
            "optimal_value": bounds.spectral_two,
            "cross_target": target,
        },
    )


def _canonical_one_certificate(
    kind: str, frame: Frame, profile: ProbabilityProfile
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Partition the indices by the canonical dual's m = 1 ``kind`` values and
    look for a component of the frame's vector matroid inside the attaining
    set, which is cut where the measure's ``argmax_sets`` are; the norm
    certificate adds the uniqueness sub-check."""
    measure = spectral_measure if kind == "spectral" else norm_measure
    values = measure(canonical_dual(frame), profile, 1).per_set_values
    threshold, attaining = _ties(values)
    components = frame._components
    inside = [c for c in components if attaining[c].all()]
    touching = sum(bool(attaining[c].any()) for c in components)
    partition = PartitionReport(
        threshold=threshold,
        attaining=tuple(int(i) + 1 for i in np.flatnonzero(attaining)),
        remaining=tuple(int(i) + 1 for i in np.flatnonzero(~attaining)),
        witness=tuple(int(i) + 1 for i in min(inside, key=len, default=())),
        crossing_components=touching - len(inside),
    )
    details = {"per_index_values": values.tolist(), "threshold": threshold}
    condition_id = CONDITION_CANONICAL_SPECTRAL_ONE
    if kind == "norm":
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
    certificate = OptimalityCertificate(
        condition_id=condition_id,
        hypotheses=(hypothesis,),
        conclusion=bool(inside),
        details=details,
    )
    return certificate, partition


def canonical_spectral_one_certificate(
    frame: Frame, profile: ProbabilityProfile
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Is the canonical dual one-erasure spectrally optimal for this frame?

    Partitions indices by ``q_i |<S^-1 f_i, f_i>|``; the canonical dual is
    optimal exactly when some component of the frame's vector matroid lies
    inside the attaining set.
    """
    return _canonical_one_certificate("spectral", frame, profile)


def canonical_norm_one_certificate(
    frame: Frame, profile: ProbabilityProfile
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Is the canonical dual one-erasure optimal under the operator norm?
    With a uniqueness sub-check.

    Partitions indices by ``q_i ||f_i|| ||S^-1 f_i||``; the canonical dual is
    optimal exactly when some component of the frame's vector matroid lies
    inside the attaining set.  When the spans of the attaining and remaining
    vectors intersect trivially and the remaining vectors are linearly
    independent, the canonical dual is the unique one-erasure optimal dual.
    """
    return _canonical_one_certificate("norm", frame, profile)


def canonical_spectral_two_certificate(
    frame: Frame, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Sufficient condition for the canonical dual to be two-erasure
    spectrally optimal for this frame.

    Requires the spans of the attaining and remaining vectors to intersect
    trivially (the attaining set is a union of components), at least two
    attaining indices, and all pairwise products
    ``<S^-1 f_i, f_j><S^-1 f_j, f_i>`` equal to the weighted share of the
    cross budget.  A negative budget makes the required constant imaginary
    and is reported as a failed hypothesis.
    """
    _, partition = canonical_spectral_one_certificate(frame, profile)
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
    bounds = optimal_values(profile)
    details: dict = {
        "threshold": partition.threshold,
        "cross_budget": bounds.cross_budget,
        "predicted_two_erasure_value": bounds.spectral_two,
    }
    if bounds.cross_budget < 0:
        hypotheses.append(
            Hypothesis(
                description="cross budget is nonnegative (required constant is real)",
                holds=False,
                witness=bounds.cross_budget,
            )
        )
    else:
        pair = canonical_dual(frame)
        target = bounds.cross_budget / bounds.offdiag_weight_sum
        products = _cross_products(pair.cross_gram, profile.weights)
        worst = float(np.max(_cabs(products - target)))
        hypotheses.append(
            Hypothesis(
                description="all pairwise inverse-operator products equal the weighted cross target",
                holds=worst <= DEFAULT_TOL,
                witness=float(worst),
            )
        )
        details["canonical_two_erasure_value"] = spectral_measure(pair, profile, 2).value
    return OptimalityCertificate(
        condition_id=CONDITION_CANONICAL_SPECTRAL_TWO,
        hypotheses=tuple(hypotheses),
        conclusion=all(h.holds for h in hypotheses),
        details=details,
    )


def two_erasure_spectral_prediction(
    pair: DualPair, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Predict the worst two-erasure spectral value from one-erasure data.

    Requires a real nonnegative cross-Gram diagonal and a constant positive
    weighted cross product ``c``.  With a unique worst index the prediction
    is ``(R1 + M2 + sqrt((R1 - M2)^2 + 4c)) / 2`` where ``M2`` is the
    second-highest weighted diagonal; with a tie the prediction evaluates
    the closed-form roots at two tied indices, giving ``R1 + sqrt(c)``.
    The unhalved variant ``R1 + sqrt(4c)`` (which skips the final division
    by two in the tie case) is recorded alongside for comparison; the
    enumerated measure confirms the halved form.

    Raises :class:`HypothesisFailed` when a hypothesis is violated; the
    exception carries the evaluated hypotheses.
    """
    alpha = pair.cross_gram
    q = profile.weights
    diag = np.diagonal(alpha)
    diag_violation = float(
        max(np.max(np.maximum(-diag.real, 0.0)), np.max(np.abs(diag.imag)))
    )
    hyp_diag = Hypothesis(
        description="cross-Gram diagonal is real and nonnegative",
        holds=diag_violation <= DEFAULT_TOL,
        witness=diag_violation,
    )
    products = _cross_products(alpha, q)
    if not products.size:
        raise HypothesisFailed("prediction needs at least two vectors", [hyp_diag])
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
        raise HypothesisFailed(
            "two-erasure prediction hypotheses violated", hypotheses
        )
    c = mean.real
    weighted = q * diag.real
    r1, tied = _ties(weighted)
    tie_set = tuple(int(i) + 1 for i in np.flatnonzero(tied))
    details: dict = {
        "one_erasure_value": r1,
        "cross_constant": c,
        "tie_set": list(tie_set),
    }
    if len(tie_set) == 1:
        m2 = float(np.max(weighted[~tied]))
        predicted = 0.5 * (r1 + m2 + np.sqrt((r1 - m2) ** 2 + 4.0 * c))
        details["second_level_value"] = m2
        details["unhalved_variant"] = None
        details["unhalved_discrepancy"] = None
    else:
        i1, i2 = tie_set[0], tie_set[1]
        roots = two_erasure_eigenvalues(pair, profile, i1, i2)
        predicted = max(abs(roots[0]), abs(roots[1]))
        details["second_level_value"] = None
        details["unhalved_variant"] = r1 + float(np.sqrt(4.0 * c))
        details["unhalved_discrepancy"] = details["unhalved_variant"] - predicted
    enumerated = spectral_measure(pair, profile, 2).value
    details["predicted_two_erasure_value"] = float(predicted)
    details["enumerated_two_erasure_value"] = enumerated
    details["prediction_residual"] = float(abs(predicted - enumerated))
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_ERASURE_PREDICTION,
        hypotheses=hypotheses,
        conclusion=float(predicted),
        details=details,
    )


def one_erasure_norm_optimal_pair(
    pair: DualPair, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """Membership in the set attaining the one-erasure norm optimum.

    Requires both ``<f_i, g_i> = 1/q_i`` and ``||f_i|| ||g_i|| = 1/q_i`` for
    every index.  Membership implies the pair is one-uniform, which the
    certificate records.
    """
    diag = np.conj(np.diagonal(pair.cross_gram))
    f_norms = np.linalg.norm(pair.frame.matrix, axis=0)
    g_norms = np.linalg.norm(pair.dual, axis=0)
    inv_q = 1.0 / profile.weights
    inner_dev = np.maximum(np.abs(diag.real - inv_q), np.abs(diag.imag))
    witnesses = np.maximum(inner_dev, np.abs(f_norms * g_norms - inv_q))
    hypotheses = _index_hypotheses(
        witnesses, "inner product and norm product equal the reciprocal weight"
    )
    conclusion = all(h.holds for h in hypotheses)
    details = {
        "measure_value": norm_measure(pair, profile, 1).value,
        "optimal_value": 1.0,
    }
    if conclusion:
        implied = is_one_uniform(pair, profile)
        details["one_uniform_implied"] = bool(implied.conclusion)
    return OptimalityCertificate(
        condition_id=CONDITION_NORM_ONE_PAIR,
        hypotheses=hypotheses,
        conclusion=conclusion,
        details=details,
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
        details={"squared_norms": [float(v) for v in norms_sq]},
    )


def parseval_equivalence_report(
    frame: Frame, profile: ProbabilityProfile
) -> OptimalityCertificate:
    """For a Parseval frame, canonical-dual one-erasure optimality under the
    spectral and norm measures must agree: both per-index values are
    ``q_i ||f_i||^2``, so the two exact tests look at one attaining set.

    Raises :class:`NotParseval` when ``frame.parseval_residual`` exceeds
    ``DEFAULT_TOL``, the one Parseval test.  ``witness`` is the
    spectral certificate's component inside the attaining set; the gaps are
    those of the two searches, which bear the verdicts out numerically.
    """
    from .search import certify_canonical_optimal

    residual = frame.parseval_residual
    if residual > DEFAULT_TOL:
        raise NotParseval(f"frame operator deviates from identity by {residual:.3e}")
    spectral, partition = canonical_spectral_one_certificate(frame, profile)
    norm, _ = canonical_norm_one_certificate(frame, profile)
    return OptimalityCertificate(
        condition_id=CONDITION_PARSEVAL_EQUIVALENCE,
        hypotheses=(
            Hypothesis(
                description="frame operator equals the identity",
                holds=True,
                witness=residual,
            ),
        ),
        conclusion=spectral.conclusion == norm.conclusion,
        details={
            "canonical_spectral_optimal": spectral.conclusion,
            "canonical_norm_optimal": norm.conclusion,
            "spectral_gap": certify_canonical_optimal(frame, profile, "spectral").gap,
            "norm_gap": certify_canonical_optimal(frame, profile, "norm").gap,
            "witness": partition.witness,
        },
    )
