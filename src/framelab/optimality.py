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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .erasures import norm_measure, spectral_measure, two_erasure_eigenvalues
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
    alpha = pair.cross_gram
    q = profile.weights
    hypotheses = []
    worst = 0.0
    for i in range(pair.count):
        for j in range(i + 1, pair.count):
            product = alpha[i, j] * alpha[j, i]
            witness = float(abs(product - 1.0 / (q[i] * q[j])))
            worst = max(worst, witness)
            hypotheses.append(
                Hypothesis(
                    description=f"pair ({i + 1},{j + 1}): cross products match",
                    holds=witness <= tol,
                    witness=witness,
                )
            )
    conclusion = all(h.holds for h in hypotheses) if hypotheses else True
    return OptimalityCertificate(
        condition_id=CONDITION_TWO_UNIFORM,
        hypotheses=tuple(hypotheses),
        conclusion=conclusion,
        details={"max_residual": worst},
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
    alpha = pair.cross_gram
    q = profile.weights
    hypotheses = []
    for i in range(pair.count):
        for j in range(i + 1, pair.count):
            product = q[i] * q[j] * alpha[i, j] * alpha[j, i]
            witness = float(abs(product - target))
            hypotheses.append(
                Hypothesis(
                    description=f"pair ({i + 1},{j + 1}): weighted cross product equals the shared constant",
                    holds=witness <= tol,
                    witness=witness,
                )
            )
    value = spectral_measure(pair, profile, 2).value
    return OptimalityCertificate(
        condition_id=CONDITION_SPECTRAL_TWO_PAIR,
        hypotheses=tuple(hypotheses),
        conclusion=all(h.holds for h in hypotheses),
        details={
            "measure_value": value,
            "optimal_value": bounds.spectral_two,
            "cross_target": target,
        },
    )


def _partition(values: np.ndarray, tol: float) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    c = float(np.max(values))
    cutoff = c - tol * max(1.0, abs(c))
    attaining = tuple(int(i) + 1 for i in np.flatnonzero(values >= cutoff))
    remaining = tuple(i for i in range(1, values.size + 1) if i not in attaining)
    return c, attaining, remaining


def _partition_report(frame: Frame, values: np.ndarray, tol: float) -> PartitionReport:
    c, attaining, remaining = _partition(values, tol)
    att_ix = np.asarray(attaining, dtype=np.intp) - 1
    rem_ix = np.asarray(remaining, dtype=np.intp) - 1
    d1 = _rank(frame.matrix[:, att_ix])
    d2 = _rank(frame.matrix[:, rem_ix])
    return PartitionReport(
        threshold=c,
        attaining=attaining,
        remaining=remaining,
        subspace_dims=(d1, d2, d1 + d2 - frame.dim),
    )


def canonical_spectral_one_certificate(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Sufficient condition for the canonical dual to be one-erasure
    spectrally optimal for this frame.

    Partitions indices by ``q_i <S^-1 f_i, f_i>``; the condition holds when
    the spans of the attaining and remaining vectors intersect trivially.
    """
    inv_f = canonical_dual(frame).dual.matrix
    values = profile.weights * np.real(np.einsum("ij,ij->j", frame.matrix.conj(), inv_f))
    partition = _partition_report(frame, values, tol)
    intersection = partition.subspace_dims[2]
    hypothesis = Hypothesis(
        description="spans of attaining and remaining vectors intersect trivially",
        holds=intersection == 0,
        witness=float(intersection),
    )
    certificate = OptimalityCertificate(
        condition_id=CONDITION_CANONICAL_SPECTRAL_ONE,
        hypotheses=(hypothesis,),
        conclusion=intersection == 0,
        details={
            "per_index_values": [float(v) for v in values],
            "threshold": partition.threshold,
        },
    )
    return certificate, partition


def canonical_norm_one_certificate(
    frame: Frame, profile: ProbabilityProfile, tol: float = DEFAULT_TOL
) -> tuple[OptimalityCertificate, PartitionReport]:
    """Sufficient condition for the canonical dual to be one-erasure optimal
    under the operator norm, with a uniqueness sub-check.

    Partitions indices by ``q_i ||f_i|| ||S^-1 f_i||``.  When the condition
    holds and the remaining vectors are linearly independent, the canonical
    dual is the unique one-erasure optimal dual.
    """
    inv_f = canonical_dual(frame).dual.matrix
    values = (
        profile.weights
        * np.linalg.norm(frame.matrix, axis=0)
        * np.linalg.norm(inv_f, axis=0)
    )
    partition = _partition_report(frame, values, tol)
    intersection = partition.subspace_dims[2]
    rem_ix = np.asarray(partition.remaining, dtype=np.intp) - 1
    remaining_rank = _rank(frame.matrix[:, rem_ix])
    independent = remaining_rank == len(partition.remaining)
    hypothesis = Hypothesis(
        description="spans of attaining and remaining vectors intersect trivially",
        holds=intersection == 0,
        witness=float(intersection),
    )
    conclusion = intersection == 0
    certificate = OptimalityCertificate(
        condition_id=CONDITION_CANONICAL_NORM_ONE,
        hypotheses=(hypothesis,),
        conclusion=conclusion,
        details={
            "per_index_values": [float(v) for v in values],
            "threshold": partition.threshold,
            "remaining_linearly_independent": bool(independent),
            "canonical_unique": bool(conclusion and independent),
        },
    )
    return certificate, partition


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
        gram = frame.matrix.conj().T @ pair.dual.matrix
        q = profile.weights
        target = bounds.cross_budget / bounds.offdiag_weight_sum
        worst = 0.0
        for i in range(frame.count):
            for j in range(i + 1, frame.count):
                product = q[i] * q[j] * abs(gram[i, j]) ** 2
                worst = max(worst, abs(product - target))
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
    products = [
        q[i] * q[j] * alpha[i, j] * alpha[j, i]
        for i in range(pair.count)
        for j in range(i + 1, pair.count)
    ]
    if not products:
        raise HypothesisFailed("prediction needs at least two vectors", [hyp_diag])
    mean = complex(np.mean(products))
    deviation = float(max(abs(p - mean) for p in products))
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
    r1 = float(np.max(weighted))
    tie_cut = r1 - max(tol, 1e-12)
    tie_set = tuple(int(i) + 1 for i in np.flatnonzero(weighted >= tie_cut))
    details: dict = {
        "one_erasure_value": r1,
        "cross_constant": c,
        "tie_set": list(tie_set),
    }
    if len(tie_set) == 1:
        others = np.array([w for k, w in enumerate(weighted, start=1) if k not in tie_set])
        m2 = float(np.max(others))
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
