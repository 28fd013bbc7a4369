import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from conftest import (
    coloop_case,
    mercedes_vectors,
    plane_better_dual,
    random_dual_pair,
    random_frame,
    random_parseval_frame,
    random_profile,
)


@pytest.fixture
def scaled_tight_pair(tight_frame, tight_profile):
    """The tight frame scaled to Parseval; norms match reciprocal weights."""
    frame = fl.Frame(tight_frame.matrix / np.sqrt(3.0))
    return frame, tight_profile


def test_is_one_uniform(plane_frame, plane_profile, tight_frame, tight_profile):
    assert fl.is_one_uniform(fl.canonical_dual(tight_frame), tight_profile).conclusion
    cert = fl.is_one_uniform(fl.canonical_dual(plane_frame), plane_profile)
    assert not cert.conclusion
    assert not cert.hypotheses[0].holds  # q_1 <f_1, g_1> = 8/9, not 1
    failed = [h for h in cert.hypotheses if not h.holds]
    assert len(failed) == 3 and all(h.witness > 1e-3 for h in failed)


def test_is_one_uniform_uniform_parseval(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    assert fl.is_one_uniform(fl.canonical_dual(frame), profile).conclusion


def test_is_two_uniform(mercedes_frame, mercedes_profile):
    assert not fl.is_two_uniform(
        fl.canonical_dual(mercedes_frame), mercedes_profile
    ).conclusion
    basis = fl.build_frame(2, np.eye(2))
    assert not fl.is_two_uniform(
        fl.DualPair(basis, basis.matrix), fl.uniform_profile(2, 2)
    ).conclusion


def test_is_two_uniform_scalar_member():
    # scalar frame (1,1) with dual (1/2,1/2): cross products equal 1/(q_i q_j)
    frame = fl.build_frame(1, [(1,), (1,)])
    dual = [[0.5, 0.5]]
    profile = fl.uniform_profile(2, 1)
    cert = fl.is_two_uniform(fl.DualPair(frame, dual), profile)
    assert cert.conclusion


def test_spectral_one_membership(tight_frame, tight_profile, plane_frame, plane_profile):
    member = fl.one_erasure_spectral_optimal_pair(
        fl.canonical_dual(tight_frame), tight_profile
    )
    assert member.conclusion
    assert member.details["measure_value"] == pytest.approx(1.0, abs=1e-12)
    non_member = fl.one_erasure_spectral_optimal_pair(
        plane_better_dual(plane_frame), plane_profile
    )
    assert not non_member.conclusion
    assert non_member.details["measure_value"] == pytest.approx(10 / 9, abs=1e-12)


def test_spectral_one_lower_bound_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n, 9))
        frame = random_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        pair = random_dual_pair(rng, frame)
        value = fl.spectral_measure(pair, profile, 1).value
        assert value >= 1.0 - 1e-9


def test_optimal_values_mercedes(mercedes_profile):
    bounds = fl.optimal_values(mercedes_profile)
    assert bounds.spectral_one == 1.0 and bounds.norm_one == 1.0
    assert bounds.cross_budget == pytest.approx(2 / 3, abs=1e-12)
    assert bounds.offdiag_weight_sum == pytest.approx(8 / 3, abs=1e-12)
    assert bounds.spectral_two == pytest.approx(1.5, abs=1e-12)


def test_optimal_values_negative_budget():
    profile = fl.weights_from_probabilities([0.9, 0.1], 2)
    bounds = fl.optimal_values(profile)
    assert_allclose(profile.weights, [5.0, 5 / 9], atol=1e-12)
    assert bounds.cross_budget == pytest.approx(-1.28, abs=1e-12)
    assert bounds.spectral_two == pytest.approx(np.sqrt(2.0 / 0.72), abs=1e-9)
    assert bounds.spectral_two == pytest.approx(5 / 3, abs=1e-9)


def test_optimal_values_uniform_double_redundancy():
    profile = fl.uniform_profile(4, 2)
    bounds = fl.optimal_values(profile)
    assert_allclose(profile.weights, np.full(4, 2.0), atol=1e-14)
    assert bounds.cross_budget == pytest.approx(1.0, abs=1e-12)
    assert bounds.spectral_two == pytest.approx(1 + np.sqrt(1 / 3), abs=1e-12)


def test_optimal_values_degenerate_count():
    lonely = fl.ProbabilityProfile(
        probabilities=np.array([1.0]), weights=np.array([1.0]), dim=1
    )
    with pytest.raises(fl.DegenerateDenominator):
        fl.optimal_values(lonely)


def test_spectral_two_membership(mercedes_frame, mercedes_profile, tight_frame, tight_profile):
    mercedes = fl.two_erasure_spectral_optimal_pair(
        fl.canonical_dual(mercedes_frame), mercedes_profile
    )
    assert mercedes.conclusion
    assert mercedes.details["measure_value"] == pytest.approx(1.5, abs=1e-12)
    assert mercedes.details["cross_target"] == pytest.approx(0.25, abs=1e-12)
    # the tight pair is one-erasure optimal but its cross products vary
    tight = fl.two_erasure_spectral_optimal_pair(
        fl.canonical_dual(tight_frame), tight_profile
    )
    assert not tight.conclusion


def test_spectral_two_requires_one_erasure_optimality(plane_frame, plane_profile):
    with pytest.raises(fl.NotOneErasureOptimal):
        fl.two_erasure_spectral_optimal_pair(
            fl.canonical_dual(plane_frame), plane_profile
        )


def test_spectral_two_orthonormal_square_zero_budget():
    basis = fl.build_frame(2, np.eye(2))
    profile = fl.uniform_profile(2, 2)
    cert = fl.two_erasure_spectral_optimal_pair(fl.DualPair(basis, basis.matrix), profile)
    # alpha off-diagonal is 0 and the budget is 0, so membership holds
    assert fl.optimal_values(profile).cross_budget == pytest.approx(0.0, abs=1e-14)
    assert cert.conclusion


def test_canonical_spectral_one_certificates(plane_frame, plane_profile, tight_frame, tight_profile):
    # each frame is one component of its vector matroid
    cert, partition = fl.canonical_spectral_one_certificate(plane_frame, plane_profile)
    assert not cert.conclusion
    assert partition.attaining == (3,)
    assert partition.witness == ()
    assert partition.crossing_components == 1  # the spans intersect
    cert, partition = fl.canonical_spectral_one_certificate(tight_frame, tight_profile)
    assert cert.conclusion
    assert partition.attaining == (1, 2, 3, 4)
    assert partition.witness == (1, 2, 3, 4)
    assert partition.crossing_components == 0


def test_canonical_spectral_one_orthonormal():
    frame = fl.build_frame(3, np.eye(3))
    cert, partition = fl.canonical_spectral_one_certificate(frame, fl.uniform_profile(3, 3))
    assert cert.conclusion
    assert partition.remaining == ()


def test_canonical_norm_one_certificates(plane_frame, plane_profile, tight_frame, tight_profile):
    cert, partition = fl.canonical_norm_one_certificate(tight_frame, tight_profile)
    assert cert.conclusion
    assert partition.remaining == ()
    assert cert.details["canonical_unique"]
    cert, partition = fl.canonical_norm_one_certificate(plane_frame, plane_profile)
    assert not cert.conclusion
    assert partition.crossing_components == 1
    assert not cert.details["canonical_unique"]


def test_canonical_norm_one_uniqueness_needs_coloops_outside_the_attaining_set():
    cases = [
        ([(1, 0), (0, 1)], [0.4, 0.6], True),  # a basis: 1 and 2 are coloops
        ([(1, 0), (0, 1), (0, 1)], [0.8, 0.1, 0.1], False),  # {2, 3} is dependent
        ([(1, 0), (0, 1), (0, 0)], [0.6, 0.3, 0.1], False),  # 3 is a loop
    ]
    for vectors, probabilities, unique in cases:
        frame = fl.build_frame(2, vectors)
        profile = fl.weights_from_probabilities(probabilities, 2)
        cert, partition = fl.canonical_norm_one_certificate(frame, profile)
        assert cert.conclusion and partition.crossing_components == 0
        assert partition.remaining and cert.details["canonical_unique"] is unique


def test_canonical_norm_one_uniform_parseval(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    cert, partition = fl.canonical_norm_one_certificate(frame, profile)
    assert cert.conclusion
    assert partition.threshold == pytest.approx(1.0, abs=1e-12)
    assert partition.remaining == ()
    assert cert.details["canonical_unique"]


def test_canonical_spectral_two_certificate(mercedes_frame, mercedes_profile, plane_frame, plane_profile, tight_frame, tight_profile):
    cert = fl.canonical_spectral_two_certificate(mercedes_frame, mercedes_profile)
    assert cert.conclusion
    assert cert.details["canonical_two_erasure_value"] == pytest.approx(1.5, abs=1e-12)
    cert = fl.canonical_spectral_two_certificate(plane_frame, plane_profile)
    assert not cert.conclusion
    assert not cert.hypotheses[0].holds  # the spans intersect
    cert = fl.canonical_spectral_two_certificate(tight_frame, tight_profile)
    assert not cert.conclusion
    assert cert.hypotheses[0].holds and cert.hypotheses[1].holds
    assert not cert.hypotheses[2].holds  # cross products are not constant


def test_canonical_spectral_two_negative_budget_reported():
    frame = fl.build_frame(2, np.eye(2))
    profile = fl.weights_from_probabilities([0.9, 0.1], 2)
    cert = fl.canonical_spectral_two_certificate(frame, profile)
    assert not cert.conclusion
    negative = [h for h in cert.hypotheses if "nonnegative" in h.description]
    assert len(negative) == 1 and not negative[0].holds
    assert negative[0].witness == pytest.approx(-1.28, abs=1e-12)


def test_two_erasure_prediction_tie_branch(mercedes_frame, mercedes_profile):
    pair = fl.canonical_dual(mercedes_frame)
    cert = fl.two_erasure_spectral_prediction(pair, mercedes_profile)
    assert cert.conclusion == pytest.approx(1.5, abs=1e-12)
    assert cert.details["tie_set"] == [1, 2, 3]
    assert cert.details["cross_constant"] == pytest.approx(0.25, abs=1e-12)
    assert cert.details["prediction_residual"] <= 1e-9
    # the unhalved variant would overshoot by sqrt(c)
    assert cert.details["unhalved_variant"] == pytest.approx(2.0, abs=1e-12)
    assert cert.details["unhalved_discrepancy"] == pytest.approx(0.5, abs=1e-12)


def test_two_erasure_prediction_single_max_branch():
    # scalar frame, distinct weighted diagonal, one off-diagonal pair
    frame = fl.build_frame(1, [(1,), (1,)])
    dual = [[0.7, 0.3]]
    profile = fl.weights_from_probabilities([0.25, 0.75], 1)
    pair = fl.DualPair(frame, dual)
    cert = fl.two_erasure_spectral_prediction(pair, profile)
    assert cert.details["tie_set"] == [2]
    enumerated = fl.spectral_measure(pair, profile, 2).value
    assert cert.conclusion == pytest.approx(enumerated, abs=1e-9)
    assert cert.details["prediction_residual"] <= 1e-9


def test_two_erasure_prediction_rejects_nonconstant_cross(tight_frame, tight_profile):
    pair = fl.canonical_dual(tight_frame)
    with pytest.raises(fl.HypothesisFailed) as excinfo:
        fl.two_erasure_spectral_prediction(pair, tight_profile)
    failed = [h for h in excinfo.value.hypotheses if not h.holds]
    assert failed and "constant" in failed[0].description


def test_norm_one_membership(tight_frame, tight_profile, plane_frame, plane_profile):
    member = fl.one_erasure_norm_optimal_pair(
        fl.canonical_dual(tight_frame), tight_profile
    )
    assert member.conclusion
    assert member.details["measure_value"] == pytest.approx(1.0, abs=1e-12)
    assert member.details["one_uniform_implied"]
    non_member = fl.one_erasure_norm_optimal_pair(
        fl.canonical_dual(plane_frame), plane_profile
    )
    assert not non_member.conclusion
    assert non_member.details["measure_value"] == pytest.approx(4 / 3, abs=1e-12)


def test_norm_one_lower_bound_random_pairs():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n, 9))
        frame = random_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        pair = random_dual_pair(rng, frame)
        assert fl.norm_measure(pair, profile, 1).value >= 1.0 - 1e-9


def test_uniform_parseval_certificate(scaled_tight_pair, plane_frame, plane_profile):
    frame, profile = scaled_tight_pair
    cert = fl.is_probabilistic_uniform_parseval(frame, profile)
    assert cert.conclusion
    assert_allclose(cert.details["squared_norms"], [1 / 3, 1 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert not fl.is_probabilistic_uniform_parseval(plane_frame, plane_profile).conclusion


def test_uniform_parseval_orthonormal_cases():
    frame = fl.build_frame(2, np.eye(2))
    # uniform square profile: q_i = 1 so the norms match exactly
    assert fl.is_probabilistic_uniform_parseval(frame, fl.uniform_profile(2, 2)).conclusion
    # skewed probabilities break the norm condition while staying Parseval
    skew = fl.weights_from_probabilities([0.7, 0.3], 2)
    cert = fl.is_probabilistic_uniform_parseval(frame, skew)
    assert cert.hypotheses[0].holds and not cert.hypotheses[1].holds
    assert not cert.conclusion


def test_one_uniform_trace_identity_forces_budget(tight_frame, tight_profile, mercedes_frame, mercedes_profile):
    # for one-erasure optimal pairs the off-diagonal cross products must sum
    # to the cross budget
    for frame, profile in ((tight_frame, tight_profile), (mercedes_frame, mercedes_profile)):
        pair = fl.canonical_dual(frame)
        assert fl.one_erasure_spectral_optimal_pair(pair, profile).conclusion
        alpha = pair.cross_gram
        total = complex(np.sum(alpha * alpha.T) - np.sum(np.diagonal(alpha) ** 2))
        budget = fl.optimal_values(profile).cross_budget
        assert total.real == pytest.approx(budget, abs=1e-9)
        assert abs(total.imag) <= 1e-9


def test_sufficiency_certificate_validated_by_search_oracle(tight_frame, tight_profile, mercedes_frame, mercedes_profile):
    # whenever the partition condition holds, the searched minimum must not
    # fall below the canonical value
    cases = [
        (tight_frame, tight_profile),
        (mercedes_frame, mercedes_profile),
        (fl.build_frame(2, np.eye(2)), fl.uniform_profile(2, 2)),
    ]
    for frame, profile in cases:
        cert, _ = fl.canonical_spectral_one_certificate(frame, profile)
        assert cert.conclusion
        result = fl.minimize_spectral_one(frame, profile)
        assert result.best_value >= result.canonical_value - 1e-6


def test_parseval_equivalence_on_examples(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    cert = fl.parseval_equivalence_report(frame, profile)
    assert cert.conclusion is True
    assert cert.details["canonical_spectral_optimal"] is True
    assert cert.details["canonical_norm_optimal"] is True
    assert cert.details["witness"] == (1, 2, 3, 4)


def test_parseval_equivalence_orthonormal():
    frame = fl.build_frame(2, np.eye(2))
    cert = fl.parseval_equivalence_report(frame, fl.weights_from_probabilities([0.4, 0.6], 2))
    assert cert.conclusion is True
    assert cert.details["canonical_spectral_optimal"] is True
    # both vectors are coloops; the likelier erasure attains the maximum
    assert cert.details["witness"] == (2,)


def test_parseval_equivalence_rejects_non_parseval(plane_frame, plane_profile):
    with pytest.raises(fl.NotParseval):
        fl.parseval_equivalence_report(plane_frame, plane_profile)


def test_parseval_equivalence_random_frames():
    rng = np.random.default_rng(43)
    for _ in range(3):
        frame = random_parseval_frame(rng, 2, 4)
        profile = random_profile(rng, 2, 4)
        cert = fl.parseval_equivalence_report(frame, profile)
        assert cert.conclusion is True
        for kind in ("spectral", "norm"):
            # the exact verdict is the converged search's, whose gap is recorded
            outcome = fl.certify_canonical_optimal(frame, profile, kind)
            assert outcome.optimal is not None
            assert (outcome.gap <= 1e-8) is cert.details[f"canonical_{kind}_optimal"]
            assert cert.details[f"{kind}_gap"] == outcome.gap


def test_parseval_equivalence_verdicts_do_not_rest_on_the_searches(monkeypatch, scaled_tight_pair):
    def far_off(frame, profile, measure_kind):
        return fl.CertificationOutcome(optimal=None, gap=1.0, result=None)

    monkeypatch.setattr(fl.search, "certify_canonical_optimal", far_off)
    frame, profile = scaled_tight_pair
    cert = fl.parseval_equivalence_report(frame, profile)
    assert cert.conclusion is True and cert.details["canonical_norm_optimal"] is True
    assert cert.details["spectral_gap"] == cert.details["norm_gap"] == 1.0


# The canonical one-erasure certificates are exact: their verdict is the one
# of a converged search, where the canonical dual is optimal when no dual
# beats it by more than 1e-8.

KINDS = ("spectral", "norm")
COUNTEREXAMPLE = ([(1, 0), (0, 1), (0, 0.5), (0, 0.5)], [0.34, 0.56, 0.05, 0.05])


def canonical_one_certificate(frame, profile, kind):
    if kind == "spectral":
        return fl.canonical_spectral_one_certificate(frame, profile)
    return fl.canonical_norm_one_certificate(frame, profile)


def searched_optimal(frame, profile, kind):
    """Is the canonical dual within 1e-8 of a converged search's optimum?"""
    result = fl.search._run_search(kind, frame, profile)
    assert result.converged
    return result.gap <= 1e-8


def assert_exact(frame, profile, kind):
    cert, partition = canonical_one_certificate(frame, profile, kind)
    assert cert.conclusion is searched_optimal(frame, profile, kind)
    witness = [i - 1 for i in partition.witness]
    # the witness is a component inside the attaining set: a union of
    # components of the vector matroid splits the frame's rank
    assert set(partition.witness) <= set(partition.attaining)
    assert bool(witness) is cert.conclusion
    if witness:
        rank = np.linalg.matrix_rank
        rest = np.delete(frame.matrix, witness, axis=1)
        assert rank(frame.matrix[:, witness]) + rank(rest) == frame.dim
    return cert.conclusion


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", KINDS)
def test_exact_certificate_matches_the_search_on_coloop_frames(kind, field):
    # coloops have the largest values q_i P_ii (P_ii = 1), so most verdicts
    # hold; the first 24 seeds give both in every case
    verdicts = []
    for seed in range(24):
        matrix, probabilities = coloop_case(seed, field)
        frame = fl.Frame(matrix)
        verdicts.append(assert_exact(frame, fl.weights_from_probabilities(probabilities, frame.dim), kind))
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_certificate_matches_the_search_on_random_and_parseval_frames(kind):
    rng = np.random.default_rng(97)
    for _ in range(4):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(n + 1, 2 * n + 2))
        for frame in (random_frame(rng, n, count), random_parseval_frame(rng, n, count)):
            assert not assert_exact(frame, random_profile(rng, n, count), kind)
    # equal-norm Parseval frames with equally likely erasures: every index
    # attains the maximum
    for n, count in ((2, 3), (2, 5), (3, 7)):
        assert assert_exact(fl.Frame(dft_rows(n, count)), fl.uniform_profile(count, n), kind)
    # the same 2 x 3 frame next to a random 1 x 3 block: the first component
    # attains the maximum, or a vector of the second does alone
    verdicts = []
    for _ in range(8):
        matrix = np.zeros((3, 6), dtype=complex)
        matrix[:2, :3] = dft_rows(2, 3)
        matrix[2, 3:] = rng.standard_normal(3)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        frame = fl.Frame((rotation @ matrix)[:, rng.permutation(6)])
        verdicts.append(assert_exact(frame, fl.uniform_profile(6, 3), kind))
    assert any(verdicts) and not all(verdicts)


def dft_rows(n, count):
    """The first ``n`` rows of the unitary ``count``-point DFT: an
    equal-norm Parseval frame that is one component."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(count)) / count) / np.sqrt(count)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_certificate_decides_the_counterexample(kind):
    # vector 1 is a coloop, {2, 3, 4} a component; {1, 2} attains the
    # maximum, so the spans of attaining and remaining vectors share e2
    vectors, probabilities = COUNTEREXAMPLE
    frame = fl.build_frame(2, vectors)
    profile = fl.weights_from_probabilities(probabilities, 2)
    cert, partition = canonical_one_certificate(frame, profile, kind)
    assert cert.conclusion is True
    assert partition.attaining == (1, 2)
    assert partition.witness == (1,)
    assert partition.crossing_components == 1
    assert assert_exact(frame, profile, kind)
    assert not fl.canonical_spectral_two_certificate(frame, profile).hypotheses[0].holds


@pytest.mark.parametrize("kind", KINDS)
def test_witness_is_the_smallest_component_inside_the_attaining_set(kind):
    # components {1} and {2, 3}; every value is 1, so both lie inside
    frame = fl.build_frame(2, [(1, 0), (0, 1), (0, 1)])
    profile = fl.weights_from_probabilities([0.0, 0.5, 0.5], 2)
    cert, partition = canonical_one_certificate(frame, profile, kind)
    assert partition.attaining == (1, 2, 3)
    assert partition.witness == (1,)
    assert cert.hypotheses[0].witness == 2.0  # components inside


@pytest.mark.parametrize("kind", KINDS)
def test_exact_certificate_with_a_zero_vector(kind):
    # a zero vector is a loop: never attaining, never a coloop, and its row
    # of the null vectors is not zero
    cases = [
        ([(1, 0), (0, 1), (1, 1), (0, 0)], [0.25, 0.25, 0.5, 0.0], False),
        ([(1, 0), (0, 1), (1, 1), (1, -1), (0, 0)], [0.5, 0.5, 0.0, 0.0, 0.0], True),
    ]
    for vectors, probabilities, optimal in cases:
        frame = fl.build_frame(2, vectors)
        profile = fl.weights_from_probabilities(probabilities, 2)
        assert assert_exact(frame, profile, kind) is optimal
        _, partition = canonical_one_certificate(frame, profile, kind)
        assert len(vectors) in partition.remaining
        assert not frame._coloops[-1]
        assert np.linalg.norm(fl.dual_perturbation_basis(frame)[-1]) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", KINDS)
def test_exact_certificate_at_the_tie_cut(kind):
    # moving mass eps from p_1 to p_3 in the counterexample lowers the coloop's
    # value below the maximum by about eps / 0.66 of it; the tie tolerance is
    # 1e-9 of the maximum
    vectors, probabilities = COUNTEREXAMPLE
    frame = fl.build_frame(2, vectors)
    for eps, attains in ((0.33e-9, True), (1.32e-9, False)):
        p = np.array(probabilities) + [-eps, 0.0, eps, 0.0]
        profile = fl.weights_from_probabilities(p, 2)
        cert, partition = canonical_one_certificate(frame, profile, kind)
        values = cert.details["per_index_values"]
        assert (values[1] - values[0]) / values[1] == pytest.approx(eps / 0.66, rel=1e-3)
        assert cert.conclusion is attains
        assert partition.witness == ((1,) if attains else ())
        assert partition.attaining == ((1, 2) if attains else (2,))
        # one tie rule: the attaining set is the m = 1 measure's argmax sets
        measure = fl.spectral_measure if kind == "spectral" else fl.norm_measure
        argmax = measure(fl.canonical_dual(frame), profile, 1).argmax_sets
        assert partition.attaining == tuple(s.indices[0] for s in argmax)
        # the optimum is the coloop's value, which no dual changes
        result = fl.search._run_search(kind, frame, profile)
        assert result.converged
        assert result.best_value == pytest.approx(values[0], rel=1e-10)


# Oracle: the per-pair Python loops the pairwise certificates used to run,
# kept to check that the vectorised cross products give the same bits.


def oracle_two_uniform(pair, profile, tol):
    alpha, q = pair.cross_gram, profile.weights
    hypotheses, worst = [], 0.0
    for i in range(pair.count):
        for j in range(i + 1, pair.count):
            product = alpha[i, j] * alpha[j, i]
            witness = float(abs(product - 1.0 / (q[i] * q[j])))
            worst = max(worst, witness)
            hypotheses.append(
                (f"pair ({i + 1},{j + 1}): cross products match", witness <= tol, witness)
            )
    return hypotheses, worst


def oracle_spectral_two_pair(pair, profile, tol):
    bounds = fl.optimal_values(profile)
    target = bounds.cross_budget / bounds.offdiag_weight_sum
    alpha, q = pair.cross_gram, profile.weights
    hypotheses = []
    for i in range(pair.count):
        for j in range(i + 1, pair.count):
            product = q[i] * q[j] * alpha[i, j] * alpha[j, i]
            witness = float(abs(product - target))
            hypotheses.append(
                (
                    f"pair ({i + 1},{j + 1}): weighted cross product equals the shared constant",
                    witness <= tol,
                    witness,
                )
            )
    return hypotheses


def oracle_prediction_cross(pair, profile, tol):
    alpha, q = pair.cross_gram, profile.weights
    products = [
        q[i] * q[j] * alpha[i, j] * alpha[j, i]
        for i in range(pair.count)
        for j in range(i + 1, pair.count)
    ]
    mean = complex(np.mean(products))
    deviation = float(max(abs(p - mean) for p in products))
    holds = deviation <= tol and abs(mean.imag) <= tol and mean.real > tol
    return (
        "weighted cross products share one positive constant",
        holds,
        max(deviation, abs(mean.imag)),
    )


def oracle_canonical_two_worst(frame, profile):
    bounds = fl.optimal_values(profile)
    target = bounds.cross_budget / bounds.offdiag_weight_sum
    gram = frame.matrix.conj().T @ fl.canonical_dual(frame).dual
    q = profile.weights
    worst = 0.0
    for i in range(frame.count):
        for j in range(i + 1, frame.count):
            worst = max(worst, abs(q[i] * q[j] * abs(gram[i, j]) ** 2 - target))
    return worst


def triples(hypotheses):
    return [(h.description, h.holds, h.witness) for h in hypotheses]


def one_uniform_dual(frame, profile):
    """A dual with ``<g_i, f_i> = 1/q_i`` for every i: the least-squares
    solution of these N linear equations in ``C``."""
    f, v = frame.matrix, fl.dual_perturbation_basis(frame)
    g0 = fl.canonical_dual(frame).dual
    a = np.einsum("ri,ik->irk", f.conj(), v.conj()).reshape(frame.count, -1)
    b = 1.0 / profile.weights - np.einsum("ri,ri->i", f.conj(), g0)
    c = np.linalg.lstsq(a, b, rcond=None)[0].reshape(frame.dim, -1)
    return fl.dual_from_coefficients(frame, c)


def oracle_cases():
    rng = np.random.default_rng(83)
    for n, count in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 6), (4, 9)):
        for field in ("real", "complex"):
            for zeros in sorted({0, count - 2}):
                m = rng.standard_normal((n, count))
                if field == "complex":
                    m = m + 1j * rng.standard_normal((n, count))
                frame = fl.Frame(m)
                p = rng.dirichlet(np.ones(count))
                p[rng.choice(count, size=zeros, replace=False)] = 0.0
                profile = fl.weights_from_probabilities(p / p.sum(), n)
                pairs = [fl.canonical_dual(frame), random_dual_pair(rng, frame)]
                if count > n:
                    pairs.append(one_uniform_dual(frame, profile))
                yield frame, profile, pairs


def test_pair_certificates_match_the_loop_oracle(mercedes_frame, mercedes_profile):
    tol = fl.optimality.DEFAULT_TOL
    cases = [(mercedes_frame, mercedes_profile, [fl.canonical_dual(mercedes_frame)])]
    pair_two_checked = 0
    for frame, profile, pairs in [*cases, *oracle_cases()]:
        for pair in pairs:
            cert = fl.is_two_uniform(pair, profile)
            hypotheses, worst = oracle_two_uniform(pair, profile, tol)
            assert triples(cert.hypotheses) == hypotheses
            assert cert.details["max_residual"] == worst

            try:
                prediction = fl.two_erasure_spectral_prediction(pair, profile).hypotheses
            except fl.HypothesisFailed as exc:
                prediction = exc.hypotheses
            assert triples(prediction)[1] == oracle_prediction_cross(pair, profile, tol)

            if fl.is_one_uniform(pair, profile).conclusion:
                cert = fl.two_erasure_spectral_optimal_pair(pair, profile)
                assert triples(cert.hypotheses) == oracle_spectral_two_pair(pair, profile, tol)
                pair_two_checked += 1
        # The canonical certificate now uses a_ij a_ji where the loop used
        # |<S^-1 f_j, f_i>|^2: equal up to rounding for the Hermitian Gram.
        cert = fl.canonical_spectral_two_certificate(frame, profile)
        if fl.optimal_values(profile).cross_budget >= 0:
            assert cert.hypotheses[2].witness == pytest.approx(
                oracle_canonical_two_worst(frame, profile), rel=1e-13, abs=1e-13
            )
    assert pair_two_checked >= 12


# Oracle: the per-index Python loops of the one-erasure membership tests.


def oracle_one_uniform(pair, profile, tol):
    products = profile.weights * np.conj(np.diagonal(pair.cross_gram))
    hypotheses = []
    for i, value in enumerate(products, start=1):
        witness = float(max(abs(value.real - 1.0), abs(value.imag)) / profile.weights[i - 1])
        hypotheses.append((f"vector {i}: <f,g> equals the reciprocal weight", witness <= tol, witness))
    return hypotheses


def oracle_norm_one_pair(pair, profile, tol):
    diag = np.conj(np.diagonal(pair.cross_gram))
    f_norms = np.linalg.norm(pair.frame.matrix, axis=0)
    g_norms = np.linalg.norm(pair.dual, axis=0)
    inv_q = 1.0 / profile.weights
    hypotheses = []
    for i in range(pair.count):
        inner_dev = max(abs(diag[i].real - inv_q[i]), abs(diag[i].imag))
        witness = float(max(inner_dev, abs(f_norms[i] * g_norms[i] - inv_q[i])))
        claim = "inner product and norm product equal the reciprocal weight"
        hypotheses.append((f"vector {i + 1}: {claim}", witness <= tol, witness))
    return hypotheses


def test_index_certificates_match_the_loop_oracle(tight_frame, tight_profile):
    tol = fl.optimality.DEFAULT_TOL
    cases = [(tight_frame, tight_profile, [fl.canonical_dual(tight_frame)])]
    held = {"one": 0, "norm": 0}
    for _, profile, pairs in [*cases, *oracle_cases()]:
        for pair in pairs:
            cert = fl.is_one_uniform(pair, profile)
            hypotheses = oracle_one_uniform(pair, profile, tol)
            assert triples(cert.hypotheses) == hypotheses
            assert cert.details["max_residual"] == max(h[2] for h in hypotheses)
            held["one"] += cert.conclusion
            cert = fl.one_erasure_norm_optimal_pair(pair, profile)
            assert triples(cert.hypotheses) == oracle_norm_one_pair(pair, profile, tol)
            held["norm"] += cert.conclusion
    assert held["one"] >= 12 and held["norm"] >= 1


def test_two_erasure_prediction_ties_are_relative():
    # Mercedes frame with the dual g_i = 2/3 f_i + c/sqrt(3): the weighted
    # diagonal is q_i (2/3 + s_i) with s_i = <f_i, c>/sqrt(3).  With
    # p = (0.45, 0.45, 0.1) the choice s_1 = s_2 = s below makes the weighted
    # cross products constant; s_2 is then lowered so the second weighted
    # diagonal value lies between the old absolute cut and the relative one.
    tol = fl.optimality.DEFAULT_TOL
    f = np.array(mercedes_vectors()).T
    profile = fl.weights_from_probabilities([0.45, 0.45, 0.1], 2)
    a, b = profile.weights[0], profile.weights[2]
    s = (a - b) / (3 * (a + 2 * b))
    r1 = a * (2 / 3 + s)
    gap = 1.15 * tol
    assert tol < gap < tol * r1
    c = np.linalg.solve(f[:, :2].T, np.sqrt(3) * np.array([s, s - gap / a]))
    dual = 2 / 3 * f + np.outer(c, np.ones(3)) / np.sqrt(3)
    cert = fl.two_erasure_spectral_prediction(fl.DualPair(fl.Frame(f), dual), profile)
    assert cert.details["one_erasure_value"] == pytest.approx(r1, abs=1e-12)
    assert cert.details["tie_set"] == [1, 2]
