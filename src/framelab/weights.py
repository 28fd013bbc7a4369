"""Erasure probability sequences and their derived weight numbers.

Each transmitted coefficient ``i`` carries an erasure probability ``p_i``
(summing to one) and a weight number

    q_i = (sum_j p_j) / (sum_j p_j - p_i) * (N - 1) / n

that scales its contribution to the reconstruction error.  The reciprocals
always satisfy ``sum_i 1/q_i = n``, and ``q`` is strictly increasing in
``p``.  The bound ``q_i >= 1`` holds whenever ``N >= n + 1`` but can fail
for ``N == n``, so it is reported rather than enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeight, InvalidProbability

PROBABILITY_SUM_TOL = 1e-12
WEIGHT_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class ProbabilityProfile:
    """Validated erasure probabilities with their weight numbers."""

    probabilities: np.ndarray
    weights: np.ndarray
    dim: int

    @property
    def count(self) -> int:
        return self.probabilities.size


def weights_from_probabilities(probabilities, dim: int) -> ProbabilityProfile:
    """Build a profile from a probability sequence for an n-dimensional space.

    Raises
    ------
    InvalidProbability
        If the sequence does not sum to one, has entries outside [0, 1],
        or is shorter than ``dim``.
    DegenerateWeight
        If some ``p_i == 1`` or ``sum_j p_j - p_i == 0`` (its weight would be
        infinite).
    """
    p = np.asarray(probabilities, dtype=np.float64).reshape(-1)
    if dim < 1:
        raise InvalidProbability(f"dimension must be positive, got {dim}")
    if p.size < dim:
        raise InvalidProbability(f"need at least {dim} probabilities, got {p.size}")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise InvalidProbability("probabilities must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise InvalidProbability(f"probabilities sum to {total:.17g}, expected 1")
    # a remainder sum_j p_j - p_i other than 0 is at least 2**-53, as the sum
    # is within PROBABILITY_SUM_TOL of 1, so its weight is finite
    remainders = total - p
    if np.any(p >= 1.0) or np.any(remainders <= 0.0):
        raise DegenerateWeight("an erasure probability of 1 (to rounding) has infinite weight")

    count = p.size
    q = (total / remainders) * (count - 1) / dim
    partition = float(np.sum(1.0 / q))
    if not abs(partition - dim) <= WEIGHT_IDENTITY_TOL:  # raises for NaN too
        raise InvalidProbability(
            f"weight identity violated: sum of reciprocal weights {partition:.17g} != {dim}"
        )
    p = p.copy()
    p.setflags(write=False)
    q.setflags(write=False)
    return ProbabilityProfile(probabilities=p, weights=q, dim=dim)


def uniform_profile(count: int, dim: int) -> ProbabilityProfile:
    """Profile with equal erasure probability on every index."""
    return weights_from_probabilities(np.full(count, 1.0 / count), dim)


@dataclass(frozen=True)
class WeightPropertiesReport:
    """Checked properties of a weight sequence.

    ``all_at_least_one`` can legitimately be False when the vector count
    equals the dimension; it is a reported flag, not an error.
    """

    min_weight: float
    all_at_least_one: bool
    partition_residual: float
    monotone: bool
    table: tuple = field(default=())  # rows (index, probability, weight) sorted by probability


def weight_properties_report(profile: ProbabilityProfile) -> WeightPropertiesReport:
    """Evaluate the weight-sequence properties on a profile."""
    p = profile.probabilities
    q = profile.weights
    order = np.argsort(p, kind="stable")
    monotone = True
    for a, b in zip(order[:-1], order[1:]):
        if p[a] < p[b] and not q[a] < q[b]:
            monotone = False
        if p[a] == p[b] and q[a] != q[b]:
            monotone = False
    table = tuple((int(i) + 1, float(p[i]), float(q[i])) for i in order)
    return WeightPropertiesReport(
        min_weight=float(q.min()),
        all_at_least_one=bool(q.min() >= 1.0),
        partition_residual=float(abs(np.sum(1.0 / q) - profile.dim)),
        monotone=monotone,
        table=table,
    )
