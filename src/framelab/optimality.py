"""Certificates for optimality conditions on dual pairs and canonical duals.

Each operation evaluates the hypotheses of one optimality statement and
returns an :class:`OptimalityCertificate` with the checked hypotheses, a
conclusion, and numeric witnesses.  The global lower bounds are 1 for both
the one-erasure spectral and norm measures; a pair attains them exactly when
``<f_i, g_i> = 1/q_i`` for all ``i`` (spectral) with the extra condition
``||f_i|| ||g_i|| = 1/q_i`` (norm).

The two-erasure optimal value over one-erasure optimal pairs depends only on
the weights, through the budget ``n - sum_i 1/q_i^2`` that the trace identity
forces onto the off-diagonal cross-Gram products.

The closed forms live in :mod:`framelab.erasures`: the canonical partition
certificates take their per-index values ``q_i |<f_i, g_i>|`` and
``q_i ||f_i|| ||g_i||`` from the m = 1 measures, the pairwise certificates
take the cross products ``q_i q_j a_ij a_ji`` over all pairs ``i < j`` from
``erasures._cross_products``, and every tie set follows ``erasures._ties``.
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

DEFAULT_TOL = 1e-9

# Singular values below this fraction of the largest are treated as zero
# when computing subspace ranks (the intersection test must be robust).
RANK_REL_TOL = 1e-10

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

    def failed_hypotheses(self) -> tuple[Hypothesis, ...]:
        return tuple(h for h in self.hypotheses if not h.holds)


@dataclass(frozen=True)
class PartitionReport:
    """Index partition by the per-index canonical values.

    ``attaining`` holds the (1-based) indices whose value reaches the
    maximum ``threshold``; ``subspace_dims`` is ``(dim span(attaining),
    dim span(remaining), dim of their intersection)``.
    """

    threshold: float
    attaining: tuple[int, ...]
    remaining: tuple[int, ...]
    subspace_dims: tuple[int, int, int]


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


def _diag_products(pair: DualPair, profile: ProbabilityProfile) -> np.ndarray:
    """Complex values ``q_i <f_i, g_i>`` (target 1 for optimal pairs)."""
    return profile.weights * np.conj(np.diagonal(pair.cross_gram))


def _pair_hypotheses(
    count: int, witnesses: np.ndarray, claim: str, tol: float
) -> tuple[Hypothesis, ...]:
    """One hypothesis per pair ``i < j``, in the order of ``_cross_products``."""
    i, j = np.triu_indices(count, 1)
    return tuple(
        Hypothesis(description=f"pair ({a + 1},{b + 1}): {claim}", holds=w <= tol, witness=w)
        for a, b, w in zip(i.tolist(), j.tolist(), witnesses.tolist())
    )


def _rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def is_one_uniform(
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Does ``<f_i, g_i> = 1/q_i`` hold for every index?

    The products are complex; both the deviation of the real part from the
    target and the imaginary part must stay within ``tol``.
    """
    products = _diag_products(pair, profile)
    hypotheses = []
    for i, value in enumerate(products, start=1):
        witness = max(abs(value.real - 1.0), abs(value.imag)) / profile.weight(i)
        hypotheses.append(
            Hypothesis(
                description=f"vector {i}: <f,g> equals the reciprocal weight",
                holds=witness <= tol,
                witness=float(witness),
            )
        )
    conclusion = all(h.holds for h in hypotheses)
    return OptimalityCertificate(
        condition_id=CONDITION_ONE_UNIFORM,
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        details={
            "weighted_diagonal": [complex(v) for v in products],
            "max_residual": max(h.witness for h in hypotheses),
        },
    )


def is_two_uniform(
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Does ``<f_i, g_j><f_j, g_i> = 1/(q_i q_j)`` hold for every ``i != j``?"""
    q = profile.weights
    i, j = np.triu_indices(pair.count, 1)
    products = _cross_products(pair.cross_gram, np.ones(pair.count))
    witnesses = _cabs(products - 1.0 / (q[i] * q[j]))
    hypotheses = _pair_hypotheses(pair.count, witnesses, "cross products match", tol)
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_UNIFORM,
        hypotheses=hypotheses,
        conclusion=all(h.holds for h in hypotheses),
        details={"max_residual": float(np.max(witnesses, initial=0.0))},
    )


def one_erasure_spectral_optimal_pair(
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Membership in the set of pairs attaining the one-erasure spectral optimum.

    The test is the one-uniformity condition; the certificate records the
    pair's worst one-erasure spectral value next to the optimal value 1.
    """
    base = is_one_uniform(pair, profile, tol)
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
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Membership in the set attaining the two-erasure spectral optimum.

    Requires one-erasure optimality first (raises
    :class:`NotOneErasureOptimal` otherwise), then checks that every
    weighted off-diagonal cross product equals the shared constant
    ``cross_budget / offdiag_weight_sum``.
    """
    first = one_erasure_spectral_optimal_pair(pair, profile, tol)
    if not first.conclusion:
        raise NotOneErasureOptimal(
            "pair does not attain the one-erasure spectral optimum "
            f"(max residual {first.details['measure_value'] - 1.0:.3e})"
        )
    bounds = optimal_values(profile)
    target = bounds.cross_budget / bounds.offdiag_weight_sum
    witnesses = _cabs(_cross_products(pair.cross_gram, profile.weights) - target)
    hypotheses = _pair_hypotheses(
        pair.count, witnesses, "weighted cross product equals the shared constant", tol
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
    kind: str, frame: Frame, profile: ProbabilityProfile, tol: float
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Partition the indices by the canonical dual's m = 1 ``kind`` values and
    test that the spans of the attaining and remaining vectors intersect
    trivially; the norm certificate adds the uniqueness sub-check."""
    measure = spectral_measure if kind == "spectral" else norm_measure
    values = measure(canonical_dual(frame), profile, 1).per_set_values
    threshold, attaining = _ties(values, tol)
    att_ix, rem_ix = np.flatnonzero(attaining), np.flatnonzero(~attaining)
    d1 = _rank(frame.matrix[:, att_ix])
    d2 = _rank(frame.matrix[:, rem_ix])
    intersection = d1 + d2 - frame.dim
    partition = PartitionReport(
        threshold=threshold,
        attaining=tuple(int(i) + 1 for i in att_ix),
        remaining=tuple(int(i) + 1 for i in rem_ix),
        subspace_dims=(d1, d2, intersection),
    )
    trivial = intersection == 0
    details = {"per_index_values": values.tolist(), "threshold": threshold}
    condition_id = CONDITION_CANONICAL_SPECTRAL_ONE
    if kind == "norm":
        independent = d2 == rem_ix.size
        details["remaining_linearly_independent"] = independent
        details["canonical_unique"] = trivial and independent
        condition_id = CONDITION_CANONICAL_NORM_ONE
    hypothesis = Hypothesis(
        description="spans of attaining and remaining vectors intersect trivially",
        holds=trivial,
        witness=float(intersection),
    )
    certificate = OptimalityCertificate(
        condition_id=condition_id,
        hypotheses=(hypothesis,),
        conclusion=trivial,
        details=details,
    )
    return certificate, partition


def canonical_spectral_one_certificate(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Sufficient condition for the canonical dual to be one-erasure
    spectrally optimal for this frame.

    Partitions indices by ``q_i |<S^-1 f_i, f_i>|``; the condition holds when
    the spans of the attaining and remaining vectors intersect trivially.
    """
    return _canonical_one_certificate("spectral", frame, profile, tol)


def canonical_norm_one_certificate(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Sufficient condition for the canonical dual to be one-erasure optimal
    under the operator norm, with a uniqueness sub-check.

    Partitions indices by ``q_i ||f_i|| ||S^-1 f_i||``.  When the condition
    holds and the remaining vectors are linearly independent, the canonical
    dual is the unique one-erasure optimal dual.
    """
    return _canonical_one_certificate("norm", frame, profile, tol)


def canonical_spectral_two_certificate(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Sufficient condition for the canonical dual to be two-erasure
    spectrally optimal for this frame.

    Requires the trivial-intersection partition condition, at least two
    attaining indices, and all pairwise products
    ``<S^-1 f_i, f_j><S^-1 f_j, f_i>`` equal to the weighted share of the
    cross budget.  A negative budget makes the required constant imaginary
    and is reported as a failed hypothesis.
    """
    spectral_cert, partition = canonical_spectral_one_certificate(frame, profile, tol)
    intersection = partition.subspace_dims[2]
    hypotheses = [
        spectral_cert.hypotheses[0],
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
                holds=worst <= tol,
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
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
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
        holds=diag_violation <= tol,
        witness=diag_violation,
    )
    products = _cross_products(alpha, q)
    if not products.size:
        raise HypothesisFailed("prediction needs at least two vectors", [hyp_diag])
    mean = complex(np.mean(products))
    deviation = float(np.max(_cabs(products - mean)))
    constant_ok = deviation <= tol and abs(mean.imag) <= tol and mean.real > tol
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
    r1, tied = _ties(weighted, tol)
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
    pair: DualPair, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Membership in the set attaining the one-erasure norm optimum.

    Requires both ``<f_i, g_i> = 1/q_i`` and ``||f_i|| ||g_i|| = 1/q_i`` for
    every index.  Membership implies the pair is one-uniform, which the
    certificate records.
    """
    diag = np.conj(np.diagonal(pair.cross_gram))
    f_norms = np.linalg.norm(pair.frame.matrix, axis=0)
    g_norms = np.linalg.norm(pair.dual.matrix, axis=0)
    inv_q = 1.0 / profile.weights
    hypotheses = []
    for i in range(pair.count):
        inner_dev = max(abs(diag[i].real - inv_q[i]), abs(diag[i].imag))
        norm_dev = abs(f_norms[i] * g_norms[i] - inv_q[i])
        witness = float(max(inner_dev, norm_dev))
        hypotheses.append(
            Hypothesis(
                description=f"vector {i + 1}: inner product and norm product equal the reciprocal weight",
                holds=witness <= tol,
                witness=witness,
            )
        )
    conclusion = all(h.holds for h in hypotheses)
    details = {
        "measure_value": norm_measure(pair, profile, 1).value,
        "optimal_value": 1.0,
    }
    if conclusion:
        implied = is_one_uniform(pair, profile, tol)
        details["one_uniform_implied"] = bool(implied.conclusion)
    return OptimalityCertificate(
        condition_id=CONDITION_NORM_ONE_PAIR,
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        details=details,
    )


def is_probabilistic_uniform_parseval(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> OptimalityCertificate:
    """Is the frame Parseval with ``||f_i||^2 = 1/q_i`` for all ``i``?"""
    parseval_residual = frame.parseval_residual
    norms_sq = np.linalg.norm(frame.matrix, axis=0) ** 2
    norm_residual = float(np.max(np.abs(norms_sq - 1.0 / profile.weights)))
    hypotheses = (
        Hypothesis(
            description="frame operator equals the identity",
            holds=parseval_residual <= tol,
            witness=parseval_residual,
        ),
        Hypothesis(
            description="squared vector norms equal the reciprocal weights",
            holds=norm_residual <= tol,
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
    frame: Frame,
    profile: ProbabilityProfile,
    tol: float = DEFAULT_TOL,
    gap_tol: float = 1e-5,
    options=None,
) -> OptimalityCertificate:
    """For a Parseval frame, canonical-dual optimality under the spectral
    and norm measures must agree; this runs both searches and compares.

    Raises :class:`NotParseval` for non-Parseval input.  A search that does
    not converge makes the verdict inconclusive (conclusion ``None``).
    """
    from .search import certify_canonical_optimal

    residual = frame.parseval_residual
    if residual > tol:
        raise NotParseval(f"frame operator deviates from identity by {residual:.3e}")
    spectral = certify_canonical_optimal(frame, profile, "spectral", gap_tol, options)
    norm = certify_canonical_optimal(frame, profile, "norm", gap_tol, options)
    if spectral.optimal is None or norm.optimal is None:
        conclusion = None
    else:
        conclusion = bool(spectral.optimal == norm.optimal)
    return OptimalityCertificate(
        condition_id=CONDITION_PARSEVAL_EQUIVALENCE,
        hypotheses=(
            Hypothesis(
                description="frame operator equals the identity",
                holds=True,
                witness=residual,
            ),
        ),
        conclusion=conclusion,
        details={
            "canonical_spectral_optimal": spectral.optimal,
            "canonical_norm_optimal": norm.optimal,
            "spectral_gap": spectral.gap,
            "norm_gap": norm.gap,
        },
    )
