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
    failed = cert.failed_hypotheses()
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
        fl.DualPair(basis, basis), fl.uniform_profile(2, 2)
    ).conclusion


def test_is_two_uniform_scalar_member():
    # scalar frame (1,1) with dual (1/2,1/2): cross products equal 1/(q_i q_j)
    frame = fl.build_frame(1, [(1,), (1,)])
    dual = fl.Frame([[0.5, 0.5]])
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
    cert = fl.two_erasure_spectral_optimal_pair(fl.DualPair(basis, basis), profile)
    # alpha off-diagonal is 0 and the budget is 0, so membership holds
    assert fl.optimal_values(profile).cross_budget == pytest.approx(0.0, abs=1e-14)
    assert cert.conclusion


def test_canonical_spectral_one_certificates(plane_frame, plane_profile, tight_frame, tight_profile):
    cert, partition = fl.canonical_spectral_one_certificate(plane_frame, plane_profile)
    assert not cert.conclusion
    assert partition.attaining == (3,)
    assert partition.subspace_dims == (1, 2, 1)
    cert, partition = fl.canonical_spectral_one_certificate(tight_frame, tight_profile)
    assert cert.conclusion
    assert partition.attaining == (1, 2, 3, 4)
    assert partition.subspace_dims == (2, 0, 0)


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
    assert partition.subspace_dims[2] >= 1


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
    assert not cert.hypotheses[0].holds  # intersection is nontrivial
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
    dual = fl.Frame([[0.7, 0.3]])
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
    options = fl.SearchOptions(restarts=2, seed=19)
    cases = [
        (tight_frame, tight_profile),
        (mercedes_frame, mercedes_profile),
        (fl.build_frame(2, np.eye(2)), fl.uniform_profile(2, 2)),
    ]
    for frame, profile in cases:
        cert, _ = fl.canonical_spectral_one_certificate(frame, profile)
        assert cert.conclusion
        result = fl.minimize_spectral_one(frame, profile, options)
        assert result.best_value >= result.canonical_value - 1e-6


def test_parseval_equivalence_on_examples(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    options = fl.SearchOptions(restarts=2, seed=5)
    cert = fl.parseval_equivalence_report(frame, profile, options=options)
    assert cert.conclusion is True
    assert cert.details["canonical_spectral_optimal"] is True
    assert cert.details["canonical_norm_optimal"] is True


def test_parseval_equivalence_orthonormal():
    frame = fl.build_frame(2, np.eye(2))
    cert = fl.parseval_equivalence_report(frame, fl.weights_from_probabilities([0.4, 0.6], 2))
    assert cert.conclusion is True
    assert cert.details["canonical_spectral_optimal"] is True


def test_parseval_equivalence_rejects_non_parseval(plane_frame, plane_profile):
    with pytest.raises(fl.NotParseval):
        fl.parseval_equivalence_report(plane_frame, plane_profile)


def test_parseval_equivalence_random_frames():
    rng = np.random.default_rng(43)
    options = fl.SearchOptions(restarts=2, seed=9)
    for _ in range(3):
        frame = random_parseval_frame(rng, 2, 4)
        profile = random_profile(rng, 2, 4)
        cert = fl.parseval_equivalence_report(frame, profile, options=options)
        assert cert.conclusion is True


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
    gram = frame.matrix.conj().T @ fl.canonical_dual(frame).dual.matrix
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
    basis = fl.dual_perturbation_basis(frame)
    f, v = frame.matrix, basis.null_vectors
    g0 = fl.canonical_dual(frame).dual.matrix
    a = np.einsum("ri,ik->irk", f.conj(), v.conj()).reshape(frame.count, -1)
    b = 1.0 / profile.weights - np.einsum("ri,ri->i", f.conj(), g0)
    return fl.dual_from_coefficients(basis, np.linalg.lstsq(a, b, rcond=None)[0])


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


def test_two_erasure_prediction_ties_are_relative():
    # Mercedes frame with the dual g_i = 2/3 f_i + c/sqrt(3): the weighted
    # diagonal is q_i (2/3 + s_i) with s_i = <f_i, c>/sqrt(3).  With
    # p = (0.45, 0.45, 0.1) the choice s_1 = s_2 = s below makes the weighted
    # cross products constant; s_2 is then lowered so the second weighted
    # diagonal value lies between the old absolute cut and the relative one.
    tol = 1e-6
    f = np.array(mercedes_vectors()).T
    profile = fl.weights_from_probabilities([0.45, 0.45, 0.1], 2)
    a, b = profile.weights[0], profile.weights[2]
    s = (a - b) / (3 * (a + 2 * b))
    r1 = a * (2 / 3 + s)
    gap = 1.15 * tol
    assert tol < gap < tol * r1
    c = np.linalg.solve(f[:, :2].T, np.sqrt(3) * np.array([s, s - gap / a]))
    dual = fl.Frame(2 / 3 * f + np.outer(c, np.ones(3)) / np.sqrt(3))
    cert = fl.two_erasure_spectral_prediction(fl.DualPair(fl.Frame(f), dual), profile, tol)
    assert cert.details["one_erasure_value"] == pytest.approx(r1, abs=1e-12)
    assert cert.details["tie_set"] == [1, 2]
