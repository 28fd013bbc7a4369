"""Acceptance suite.

One test per acceptance criterion; every criterion prints a single
``criterion N ...: PASS/FAIL`` line (run pytest with ``-s`` to stream them)
and enforces both its numeric tolerances and its runtime budget.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from conftest import (
    mercedes_vectors,
    plane_better_dual,
    random_dual_pair,
    random_frame,
    random_parseval_frame,
    random_profile,
)

PLANE_VECTORS = [(1, 0), (0, 1), (1, 1)]
PLANE_PROBS = [0.25, 0.25, 0.5]
TIGHT_VECTORS = [(1, 0), (0, 1), (1, 1), (1, -1)]
TIGHT_PROBS = [0.5, 0.5, 0.0, 0.0]


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number} ({description}): PASS [{elapsed:.2f}s of {budget_seconds:.0f}s budget]"
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def enumerated_measure(pair, profile, m, kind):
    evaluate = fl.spectral_radius if kind == "spectral" else fl.operator_norm
    return max(
        evaluate(fl.error_operator(pair, profile, fl.ErasureSet.of(combo, pair.count)))
        for combo in itertools.combinations(range(1, pair.count + 1), m)
    )


def test_criterion_1_first_example_golden():
    with criterion(1, "three-vector example golden values", 1.0):
        frame = fl.build_frame(2, PLANE_VECTORS)
        profile = fl.weights_from_probabilities(PLANE_PROBS, 2)
        assert list(profile.weights) == [4 / 3, 4 / 3, 2.0]  # exact
        pair = fl.canonical_dual(frame)
        spectral = fl.spectral_measure(pair, profile, 1)
        assert_allclose(
            [spectral.value_of([i]) for i in (1, 2, 3)], [8 / 9, 8 / 9, 4 / 3], atol=1e-9
        )
        assert abs(spectral.value - 4 / 3) <= 1e-9
        better = plane_better_dual(frame)
        assert abs(fl.spectral_measure(better, profile, 1).value - 10 / 9) <= 1e-9
        assert abs(fl.norm_measure(pair, profile, 1).value - 4 / 3) <= 1e-9
        assert abs(fl.norm_measure(better, profile, 1).value - 2 * math.sqrt(26) / 9) <= 1e-9
        spectral_cert, spectral_partition = fl.canonical_spectral_one_certificate(frame, profile)
        norm_cert, norm_partition = fl.canonical_norm_one_certificate(frame, profile)
        # one component, not inside the attaining set {3}: the spans intersect
        assert spectral_partition.crossing_components == 1 and not spectral_cert.conclusion
        assert norm_partition.crossing_components == 1 and not norm_cert.conclusion
        assert spectral_partition.witness == norm_partition.witness == ()


def test_criterion_2_second_example_golden():
    with criterion(2, "tight four-vector example golden values", 1.0):
        frame = fl.build_frame(2, TIGHT_VECTORS)
        profile = fl.weights_from_probabilities(TIGHT_PROBS, 2)
        assert abs(frame.lower_bound - 3.0) <= 1e-9
        assert abs(frame.upper_bound - 3.0) <= 1e-9
        pair = fl.canonical_dual(frame)
        spectral = fl.spectral_measure(pair, profile, 1)
        norm = fl.norm_measure(pair, profile, 1)
        for i in (1, 2, 3, 4):
            assert abs(spectral.value_of([i]) - 1.0) <= 1e-9
            assert abs(norm.value_of([i]) - 1.0) <= 1e-9
        spectral_cert, spectral_partition = fl.canonical_spectral_one_certificate(frame, profile)
        norm_cert, norm_partition = fl.canonical_norm_one_certificate(frame, profile)
        assert spectral_cert.conclusion and norm_cert.conclusion
        assert spectral_partition.remaining == norm_partition.remaining == ()
        assert spectral_partition.witness == norm_partition.witness == (1, 2, 3, 4)
        assert fl.minimize_spectral_one(frame, profile).gap <= 1e-6
        assert fl.minimize_norm_one(frame, profile).gap <= 1e-6


def test_criterion_3_weight_identities():
    with criterion(3, "weight identities on 1000 random profiles", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            count = int(rng.integers(n, 4 * n + 1))
            p = rng.dirichlet(np.ones(count))
            profile = fl.weights_from_probabilities(p, n)
            assert abs(np.sum(1.0 / profile.weights) - n) <= 1e-10
            order = np.argsort(p)
            q_sorted = profile.weights[order]
            p_sorted = p[order]
            strict = p_sorted[:-1] < p_sorted[1:]
            assert np.all(q_sorted[:-1][strict] < q_sorted[1:][strict])
            if count >= n + 1:
                assert np.all(profile.weights >= 1.0)


def test_criterion_4_lower_bounds_and_membership():
    with criterion(4, "one-erasure lower bounds on 500 random pairs", 10.0):
        rng = np.random.default_rng(4096)
        corpus = []
        for _ in range(500):
            n = int(rng.integers(2, 6))
            count = int(rng.integers(n, 11))
            frame = random_frame(rng, n, count)
            profile = random_profile(rng, n, count)
            corpus.append((random_dual_pair(rng, frame), profile))
        # constructed members exercise the equality side of the iff
        tight = fl.build_frame(2, TIGHT_VECTORS)
        corpus.append((fl.canonical_dual(tight), fl.weights_from_probabilities(TIGHT_PROBS, 2)))
        mercedes = fl.build_frame(2, mercedes_vectors())
        corpus.append((fl.canonical_dual(mercedes), fl.uniform_profile(3, 2)))
        for pair, profile in corpus:
            spectral_value = fl.spectral_measure(pair, profile, 1).value
            norm_value = fl.norm_measure(pair, profile, 1).value
            assert spectral_value >= 1.0 - 1e-9
            assert norm_value >= 1.0 - 1e-9
            spectral_member = fl.one_erasure_spectral_optimal_pair(pair, profile).conclusion
            norm_member = fl.one_erasure_norm_optimal_pair(pair, profile).conclusion
            assert (abs(spectral_value - 1.0) <= 1e-9) == spectral_member
            assert (abs(norm_value - 1.0) <= 1e-9) == norm_member


def test_criterion_5_closed_forms_match_enumeration():
    with criterion(5, "closed forms vs full-operator enumeration", 10.0):
        rng = np.random.default_rng(515)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            count = int(rng.integers(n, 11))
            frame = random_frame(rng, n, count)
            profile = random_profile(rng, n, count)
            pair = random_dual_pair(rng, frame)
            for m in (1, 2):
                if m > count:
                    continue
                assert abs(
                    fl.spectral_measure(pair, profile, m).value
                    - enumerated_measure(pair, profile, m, "spectral")
                ) <= 1e-9
                assert abs(
                    fl.norm_measure(pair, profile, m).value
                    - enumerated_measure(pair, profile, m, "norm")
                ) <= 1e-9
            if count >= 3:
                assert abs(
                    fl.spectral_measure(pair, profile, 3).value
                    - enumerated_measure(pair, profile, 3, "spectral")
                ) <= 1e-9


def test_criterion_6_mercedes_certification():
    with criterion(6, "Mercedes-Benz two-erasure certification", 1.0):
        frame = fl.build_frame(2, mercedes_vectors())
        profile = fl.uniform_profile(3, 2)
        assert_allclose(profile.weights, [1.5, 1.5, 1.5], atol=1e-12)
        bounds = fl.optimal_values(profile)
        assert abs(bounds.cross_budget - 2 / 3) <= 1e-9
        assert abs(bounds.spectral_two - 1.5) <= 1e-9
        pair = fl.canonical_dual(frame)
        assert fl.one_erasure_spectral_optimal_pair(pair, profile).conclusion
        assert fl.two_erasure_spectral_optimal_pair(pair, profile).conclusion
        enumerated = fl.spectral_measure(pair, profile, 2).value
        assert abs(enumerated - 1.5) <= 1e-9
        # exhaustive 2x2 block eigenvalue oracle
        assert abs(enumerated_measure(pair, profile, 2, "spectral") - 1.5) <= 1e-9
        prediction = fl.two_erasure_spectral_prediction(pair, profile)
        assert len(prediction.details["tie_set"]) == 3
        assert abs(prediction.details["cross_constant"] - 0.25) <= 1e-9
        assert abs(prediction.conclusion - 1.5) <= 1e-9
        # the unhalved variant of the tie-branch increment is recorded so the
        # discrepancy with the closed-form roots is visible in reports
        assert abs(prediction.details["unhalved_variant"] - 2.0) <= 1e-9
        assert abs(prediction.details["unhalved_discrepancy"] - 0.5) <= 1e-9


def test_criterion_7_parseval_equivalence():
    with criterion(7, "Parseval spectral/norm optimality agreement", 30.0):
        rng = np.random.default_rng(7171)
        for k in range(20):
            n = 2 if k % 2 == 0 else 3
            count = int(rng.integers(n + 1, 9))
            frame = random_parseval_frame(rng, n, count)
            profile = random_profile(rng, n, count)
            cert = fl.parseval_equivalence_report(frame, profile)
            assert cert.conclusion is True
            # both verdicts are those of converged searches
            for kind in ("spectral", "norm"):
                outcome = fl.certify_canonical_optimal(frame, profile, kind)
                assert outcome.optimal is not None
                assert (outcome.gap <= 1e-8) is cert.details[f"canonical_{kind}_optimal"]
                assert cert.details[f"{kind}_gap"] == outcome.gap


def test_criterion_8_simulation_soundness():
    with criterion(8, "simulation never exceeds worst case", 10.0):
        rng = np.random.default_rng(808)
        plane = (fl.build_frame(2, PLANE_VECTORS), fl.weights_from_probabilities(PLANE_PROBS, 2))
        tight = (fl.build_frame(2, TIGHT_VECTORS), fl.weights_from_probabilities(TIGHT_PROBS, 2))
        complex_16x40 = (random_frame(rng, 16, 40), random_profile(rng, 16, 40))
        cases = [
            (plane, (1, 2), 10_000),
            # m = 3 exceeds the two-index support and draws a zero-mass index
            (tight, (1, 2, 3), 10_000),
            (complex_16x40, (2, 3), 20_000),
        ]
        for (frame, profile), ms, trials in cases:
            pair = fl.canonical_dual(frame)
            for m in ms:
                stats = fl.simulate_erasure_channel(pair, profile, m, trials=trials, seed=90 + m)
                bound = fl.norm_measure(pair, profile, m).value
                assert stats.max_error <= bound + 1e-9
                assert sum(stats.histogram_counts) == trials
