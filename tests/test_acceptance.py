"""Acceptance suite.

One test per acceptance criterion; every criterion prints a single
``criterion N ...: PASS/FAIL`` line (run pytest with ``-s`` to stream them)
and enforces both its numeric tolerances and its runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

import framelab as fl
from conftest import (
    PLANE_PROBS,
    PLANE_VECTORS,
    TIGHT_PROBS,
    TIGHT_VECTORS,
    analyze_by_id,
    enumerated_values,
    mercedes_vectors,
    plane_better_dual,
    random_dual_pair,
    random_frame,
    random_parseval_frame,
    random_profile,
    uniform_profile,
)


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


def test_criterion_1_first_example_golden():
    with criterion(1, "three-vector example golden values", 1.0):
        frame = fl.build_frame(2, PLANE_VECTORS)
        profile = fl.weights_from_probabilities(PLANE_PROBS, 2)
        assert list(profile.weights) == [4 / 3, 4 / 3, 2.0]  # exact
        pair = fl.canonical_dual(frame)
        spectral = fl.spectral_measure(pair, profile, 1)
        assert_allclose(spectral.per_set_values, [8 / 9, 8 / 9, 4 / 3], atol=1e-9)
        assert abs(spectral.value - 4 / 3) <= 1e-9
        better = plane_better_dual(frame)
        assert abs(fl.spectral_measure(better, profile, 1).value - 10 / 9) <= 1e-9
        assert abs(fl.norm_measure(pair, profile, 1).value - 4 / 3) <= 1e-9
        assert abs(fl.norm_measure(better, profile, 1).value - 2 * math.sqrt(26) / 9) <= 1e-9
        certificates = analyze_by_id(frame, profile)
        spectral_cert = certificates["canonical_spectral_one"]
        norm_cert = certificates["canonical_norm_one"]
        spectral_partition, norm_partition = spectral_cert.partition, norm_cert.partition
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
        assert np.all(np.abs(spectral.per_set_values - 1.0) <= 1e-9)
        assert np.all(np.abs(norm.per_set_values - 1.0) <= 1e-9)
        certificates = analyze_by_id(frame, profile)
        spectral_cert = certificates["canonical_spectral_one"]
        norm_cert = certificates["canonical_norm_one"]
        spectral_partition, norm_partition = spectral_cert.partition, norm_cert.partition
        assert spectral_cert.conclusion and norm_cert.conclusion
        assert spectral_partition.attaining == norm_partition.attaining == (1, 2, 3, 4)
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
        corpus.append((fl.canonical_dual(mercedes), uniform_profile(3, 2)))
        for pair, profile in corpus:
            spectral_value = fl.spectral_measure(pair, profile, 1).value
            norm_one = fl.norm_measure(pair, profile, 1)
            norm_value = norm_one.value
            assert spectral_value >= 1.0 - 1e-9
            assert norm_value >= 1.0 - 1e-9
            # one-uniformity is the spectral membership test
            spectral_member = fl.is_one_uniform(pair, profile).conclusion
            norm_member = fl.optimality._norm_one_pair(pair, profile, norm_one).conclusion
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
                    - enumerated_values(pair, profile, m, "spectral").max()
                ) <= 1e-9
                assert abs(
                    fl.norm_measure(pair, profile, m).value
                    - enumerated_values(pair, profile, m, "norm").max()
                ) <= 1e-9
            if count >= 3:
                assert abs(
                    fl.spectral_measure(pair, profile, 3).value
                    - enumerated_values(pair, profile, 3, "spectral").max()
                ) <= 1e-9


def test_criterion_6_mercedes_certification():
    with criterion(6, "Mercedes-Benz two-erasure certification", 1.0):
        frame = fl.build_frame(2, mercedes_vectors())
        profile = uniform_profile(3, 2)
        assert_allclose(profile.weights, [1.5, 1.5, 1.5], atol=1e-12)
        bounds = fl.optimal_values(profile)
        assert abs(bounds.cross_budget - 2 / 3) <= 1e-9
        assert abs(bounds.spectral_two - 1.5) <= 1e-9
        pair = fl.canonical_dual(frame)
        certificates = analyze_by_id(frame, profile)
        assert certificates["one_uniform_pair"].conclusion
        assert certificates["spectral_two_optimal_pair"].conclusion
        enumerated = fl.spectral_measure(pair, profile, 2).value
        assert abs(enumerated - 1.5) <= 1e-9
        # exhaustive 2x2 block eigenvalue oracle
        assert abs(enumerated_values(pair, profile, 2, "spectral").max() - 1.5) <= 1e-9
        prediction = certificates["two_erasure_prediction"]
        partition = certificates["canonical_spectral_one"].partition
        assert len(partition.attaining) == 3
        assert abs(prediction.details["cross_constant"] - 0.25) <= 1e-9
        assert abs(prediction.conclusion - 1.5) <= 1e-9
        # under the tie, the increment without its final halving, R1 + 2 sqrt(c),
        # would exceed the closed-form roots by sqrt(c)
        unhalved = partition.threshold + 2.0 * np.sqrt(prediction.details["cross_constant"])
        assert abs(unhalved - 2.0) <= 1e-9
        assert abs(unhalved - prediction.conclusion - 0.5) <= 1e-9


def test_criterion_7_parseval_equivalence():
    with criterion(7, "Parseval spectral/norm optimality agreement", 30.0):
        rng = np.random.default_rng(7171)
        for k in range(20):
            n = 2 if k % 2 == 0 else 3
            count = int(rng.integers(n + 1, 9))
            frame = random_parseval_frame(rng, n, count)
            profile = random_profile(rng, n, count)
            certificates = analyze_by_id(frame, profile)
            cert = certificates["parseval_equivalence"]
            assert cert.conclusion is True
            # both verdicts are those of converged searches
            for kind in ("spectral", "norm"):
                outcome = fl.certify_canonical_optimal(frame, profile, kind)
                assert outcome.optimal is not None
                assert (outcome.gap <= 1e-8) is certificates[f"canonical_{kind}_one"].conclusion
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
