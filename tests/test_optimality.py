import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from conftest import (
    PLANE_PROBS,
    PLANE_VECTORS,
    TIGHT_PROBS,
    TIGHT_VECTORS,
    analyze_by_id,
    canonical_one,
    coloop_case,
    mercedes_vectors,
    plane_better_dual,
    random_dual_pair,
    random_frame,
    random_parseval_frame,
    random_profile,
    uniform_profile,
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
    # q_i <f_i, g_i> = 8/9, 8/9, 4/3 with q = 4/3, 4/3, 2: the residuals
    # |q_i <f_i, g_i> - 1| / q_i are 1/12, 1/12 and 1/6
    (hypothesis,) = cert.hypotheses
    assert hypothesis.description == "every vector: <f,g> equals the reciprocal weight"
    assert hypothesis.holds is False
    assert hypothesis.witness == pytest.approx(1 / 6, abs=1e-12)


def test_is_one_uniform_uniform_parseval(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    assert fl.is_one_uniform(fl.canonical_dual(frame), profile).conclusion


def two_uniform(pair, profile):
    """The two-uniform certificate of ``pair``, from its weighted cross
    products as ``analyze_certificates`` passes them."""
    return fl.optimality._two_uniform(weighted_products(pair, profile), profile.weights)


def test_is_two_uniform(mercedes_frame, mercedes_profile):
    assert not two_uniform(fl.canonical_dual(mercedes_frame), mercedes_profile).conclusion
    basis = fl.build_frame(2, np.eye(2))
    assert not two_uniform(fl.DualPair(basis, basis.matrix), uniform_profile(2, 2)).conclusion


def test_is_two_uniform_scalar_member():
    # scalar frame (1,1) with dual (1/2,1/2): cross products equal 1/(q_i q_j)
    frame = fl.build_frame(1, [(1,), (1,)])
    dual = [[0.5, 0.5]]
    profile = uniform_profile(2, 1)
    cert = two_uniform(fl.DualPair(frame, dual), profile)
    assert cert.conclusion


def test_spectral_one_membership(tight_frame, tight_profile, plane_frame, plane_profile):
    # a pair attains the one-erasure spectral optimum 1 exactly when it is
    # one-uniform
    member = fl.canonical_dual(tight_frame)
    assert fl.is_one_uniform(member, tight_profile).conclusion
    assert fl.spectral_measure(member, tight_profile, 1).value == pytest.approx(1.0, abs=1e-12)
    non_member = plane_better_dual(plane_frame)
    assert not fl.is_one_uniform(non_member, plane_profile).conclusion
    value = fl.spectral_measure(non_member, plane_profile, 1).value
    assert value == pytest.approx(10 / 9, abs=1e-12)


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
    assert bounds.cross_budget == pytest.approx(2 / 3, abs=1e-12)
    # the budget over sum_{i != j} 1/(q_i q_j) = 8/3
    assert bounds.cross_target == pytest.approx(0.25, abs=1e-12)
    assert bounds.spectral_two == 1.0 + np.sqrt(bounds.cross_target)
    assert bounds.spectral_two == pytest.approx(1.5, abs=1e-12)


def test_optimal_values_negative_budget():
    profile = fl.weights_from_probabilities([0.9, 0.1], 2)
    bounds = fl.optimal_values(profile)
    assert_allclose(profile.weights, [5.0, 5 / 9], atol=1e-12)
    assert bounds.cross_budget == pytest.approx(-1.28, abs=1e-12)
    assert bounds.spectral_two == pytest.approx(np.sqrt(2.0 / 0.72), abs=1e-9)
    assert bounds.spectral_two == pytest.approx(5 / 3, abs=1e-9)


def test_optimal_values_uniform_double_redundancy():
    profile = uniform_profile(4, 2)
    bounds = fl.optimal_values(profile)
    assert_allclose(profile.weights, np.full(4, 2.0), atol=1e-14)
    assert bounds.cross_budget == pytest.approx(1.0, abs=1e-12)
    assert bounds.spectral_two == pytest.approx(1 + np.sqrt(1 / 3), abs=1e-12)


def test_spectral_two_bound_is_not_the_optimum_over_all_duals():
    """``spectral_two`` bounds the one-uniform duals only: a dual of e1, e2,
    e1 + e2, e1 - e2 that is not one-uniform has a lower m = 2 value."""
    frame = fl.build_frame(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    profile = fl.weights_from_probabilities([0.85, 0.01, 0.06, 0.08], 2)
    pair = fl.DualPair(frame, [[0.06, -0.14, 0.54, 0.40], [0, 1, 0, 0]])
    q = profile.weights
    brute = max(
        np.max(np.abs(np.linalg.eigvals(q[list(s), None] * pair.cross_gram[np.ix_(s, s)])))
        for s in itertools.combinations(range(4), 2)
    )
    value = fl.spectral_measure(pair, profile, 2).value
    assert value == pytest.approx(brute, abs=1e-12)
    assert value == pytest.approx(1.5151515151515151, abs=1e-12)
    assert not fl.is_one_uniform(pair, profile).conclusion
    assert fl.optimal_values(profile).spectral_two == pytest.approx(1.5310357003258657, abs=1e-12)


def test_no_one_uniform_dual_falls_below_the_spectral_two_bound():
    """Over one-uniform duals, ``spectral_two`` is a lower bound on the m = 2
    spectral value: sampled ones (a particular solution plus null-space
    steps) of random real and complex frames with N > n never fall below.
    On the Mercedes frame and the regular simplex in R^3, with equal
    probabilities, the one-uniform dual is the canonical one, which attains
    the bound, so the bound is also reached."""
    rng = np.random.default_rng(111)
    simplex = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    cases = [
        (fl.build_frame(2, mercedes_vectors()), uniform_profile(3, 2)),
        (fl.build_frame(3, simplex), uniform_profile(4, 3)),
    ]
    for k in range(40):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n + 1, 9))
        matrix = rng.standard_normal((n, count))
        if k % 2:
            matrix = matrix + 1j * rng.standard_normal((n, count))
        cases.append((fl.Frame(matrix), random_profile(rng, n, count)))
    closest = np.inf
    for frame, profile in cases:
        bound = fl.optimal_values(profile).spectral_two
        for _ in range(5):
            pair = one_uniform_dual(frame, profile, step=rng)
            assert fl.is_one_uniform(pair, profile).conclusion
            value = fl.spectral_measure(pair, profile, 2).value
            assert value >= bound - 1e-9
            closest = min(closest, value / bound)
    assert closest <= 1.0 + 1e-9


def test_spectral_two_membership(mercedes_frame, mercedes_profile, tight_frame, tight_profile):
    certificates = analyze_by_id(mercedes_frame, mercedes_profile)
    mercedes = certificates["spectral_two_optimal_pair"]
    assert mercedes.conclusion
    # a member attains the lower bound, which canonical_spectral_two reports
    bound = certificates["canonical_spectral_two"].details["predicted_two_erasure_value"]
    assert bound == fl.optimal_values(mercedes_profile).spectral_two
    value = fl.spectral_measure(fl.canonical_dual(mercedes_frame), mercedes_profile, 2).value
    assert value == pytest.approx(bound, abs=1e-12)
    assert value == pytest.approx(1.5, abs=1e-12)
    assert mercedes.details["cross_target"] == pytest.approx(0.25, abs=1e-12)
    # the tight pair is one-erasure optimal but its cross products vary
    tight = analyze_by_id(tight_frame, tight_profile)["spectral_two_optimal_pair"]
    assert not tight.conclusion


def test_spectral_two_requires_one_erasure_optimality(plane_frame, plane_profile):
    cert = analyze_by_id(plane_frame, plane_profile)["spectral_two_optimal_pair"]
    # the plane's canonical one-erasure spectral value is 4/3
    (hypothesis,) = cert.hypotheses
    assert hypothesis.description == "pair attains the one-erasure spectral optimum"
    assert hypothesis.holds is False
    assert hypothesis.witness == pytest.approx(1 / 3, abs=1e-12)
    assert cert.conclusion is False
    assert cert.details == {}


def test_spectral_two_orthonormal_square_zero_budget():
    basis = fl.build_frame(2, np.eye(2))
    profile = uniform_profile(2, 2)
    cert = analyze_by_id(basis, profile)["spectral_two_optimal_pair"]
    # alpha off-diagonal is 0 and the budget is 0, so membership holds
    assert fl.optimal_values(profile).cross_budget == pytest.approx(0.0, abs=1e-14)
    assert cert.conclusion


def test_canonical_spectral_one_certificates(plane_frame, plane_profile, tight_frame, tight_profile):
    # each frame is one component of its vector matroid
    cert = canonical_one(plane_frame, plane_profile, "spectral")
    assert not cert.conclusion
    assert cert.partition.attaining == (3,)
    assert cert.partition.witness == ()
    assert cert.partition.crossing_components == 1  # the spans intersect
    cert = canonical_one(tight_frame, tight_profile, "spectral")
    assert cert.conclusion
    assert cert.partition.attaining == (1, 2, 3, 4)
    assert cert.partition.witness == (1, 2, 3, 4)
    assert cert.partition.crossing_components == 0


def test_canonical_spectral_one_orthonormal():
    frame = fl.build_frame(3, np.eye(3))
    cert = canonical_one(frame, uniform_profile(3, 3), "spectral")
    assert cert.conclusion
    assert cert.partition.attaining == (1, 2, 3)


def test_canonical_norm_one_certificates(plane_frame, plane_profile, tight_frame, tight_profile):
    cert = canonical_one(tight_frame, tight_profile, "norm")
    assert cert.conclusion
    assert cert.partition.attaining == (1, 2, 3, 4)
    assert cert.details["canonical_unique"]
    cert = canonical_one(plane_frame, plane_profile, "norm")
    assert not cert.conclusion
    assert cert.partition.crossing_components == 1
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
        cert = canonical_one(frame, profile, "norm")
        assert cert.conclusion and cert.partition.crossing_components == 0
        assert len(cert.partition.attaining) < frame.count
        assert cert.details["canonical_unique"] is unique


def test_canonical_norm_one_uniform_parseval(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    cert = canonical_one(frame, profile, "norm")
    assert cert.conclusion
    assert cert.partition.threshold == pytest.approx(1.0, abs=1e-12)
    assert cert.partition.attaining == (1, 2, 3, 4)
    assert cert.details["canonical_unique"]


def test_canonical_spectral_two_certificate(mercedes_frame, mercedes_profile, plane_frame, plane_profile, tight_frame, tight_profile):
    cert = analyze_by_id(mercedes_frame, mercedes_profile)["canonical_spectral_two"]
    assert cert.conclusion
    value = fl.spectral_measure(fl.canonical_dual(mercedes_frame), mercedes_profile, 2).value
    assert value == pytest.approx(cert.details["predicted_two_erasure_value"], abs=1e-12)
    assert value == pytest.approx(1.5, abs=1e-12)
    cert = analyze_by_id(plane_frame, plane_profile)["canonical_spectral_two"]
    assert not cert.conclusion
    assert not cert.hypotheses[0].holds  # the spans intersect
    cert = analyze_by_id(tight_frame, tight_profile)["canonical_spectral_two"]
    assert not cert.conclusion
    assert cert.hypotheses[0].holds and cert.hypotheses[1].holds
    assert not cert.hypotheses[2].holds  # cross products are not constant


def test_canonical_spectral_two_negative_budget_reported():
    frame = fl.build_frame(2, np.eye(2))
    profile = fl.weights_from_probabilities([0.9, 0.1], 2)
    cert = analyze_by_id(frame, profile)["canonical_spectral_two"]
    assert not cert.conclusion
    assert list(cert.details) == ["cross_budget", "predicted_two_erasure_value"]
    negative = [h for h in cert.hypotheses if "nonnegative" in h.description]
    assert len(negative) == 1 and not negative[0].holds
    assert negative[0].witness == pytest.approx(-1.28, abs=1e-12)


def test_two_erasure_prediction_tie_branch(mercedes_frame, mercedes_profile):
    # every index ties, so the second-largest one-erasure value is R1 and
    # the prediction is R1 + sqrt(c)
    certificates = analyze_by_id(mercedes_frame, mercedes_profile)
    cert = certificates["two_erasure_prediction"]
    partition = certificates["canonical_spectral_one"].partition
    assert cert.conclusion == pytest.approx(1.5, abs=1e-12)
    assert partition.attaining == (1, 2, 3)
    assert list(cert.details) == ["cross_constant", "second_level_value"]
    assert cert.details["cross_constant"] == pytest.approx(0.25, abs=1e-12)
    r1, c = partition.threshold, cert.details["cross_constant"]
    assert cert.details["second_level_value"] == pytest.approx(r1, rel=fl.erasures.TIE_TOL)
    assert cert.conclusion == pytest.approx(r1 + np.sqrt(c), abs=1e-12)
    enumerated = fl.spectral_measure(fl.canonical_dual(mercedes_frame), mercedes_profile, 2).value
    assert cert.conclusion == pytest.approx(enumerated, abs=1e-9)
    # R1 + 2 sqrt(c), without the final halving, would overshoot by sqrt(c)
    assert r1 + 2.0 * np.sqrt(c) == pytest.approx(2.0, abs=1e-12)
    assert r1 + 2.0 * np.sqrt(c) - cert.conclusion == pytest.approx(0.5, abs=1e-12)


def single_max_pair():
    """A scalar frame with a distinct weighted diagonal and one off-diagonal
    pair, and its probabilities."""
    frame = fl.build_frame(1, [(1,), (1,)])
    return fl.DualPair(frame, [[0.7, 0.3]]), fl.weights_from_probabilities([0.25, 0.75], 1)


def test_two_erasure_prediction_single_max_branch():
    pair, profile = single_max_pair()
    enumerated = fl.spectral_measure(pair, profile, 2).value
    one = fl.spectral_measure(pair, profile, 1)
    cert = fl.optimality._two_erasure_prediction(pair, weighted_products(pair, profile), one)
    assert one.argmax_sets == ((2,),)
    assert cert.details["second_level_value"] == one.per_set_values[0]
    assert cert.conclusion == pytest.approx(enumerated, abs=1e-9)


def test_two_erasure_prediction_rejects_nonconstant_cross(tight_frame, tight_profile):
    cert = analyze_by_id(tight_frame, tight_profile)["two_erasure_prediction"]
    assert [h.description for h in cert.hypotheses] == [
        "cross-Gram diagonal is real and nonnegative",
        "weighted cross products share one positive constant",
    ]
    assert [h.holds for h in cert.hypotheses] == [True, False]
    assert cert.hypotheses[1].witness > fl.optimality.DEFAULT_TOL
    # the conclusion of a prediction is a value: none is predicted
    assert cert.conclusion is None
    assert cert.details == {}


def test_norm_one_membership(tight_frame, tight_profile, plane_frame, plane_profile):
    certificates = analyze_by_id(tight_frame, tight_profile)
    member = certificates["norm_one_optimal_pair"]
    assert member.conclusion
    assert member.details == {}
    # a member attains the optimum 1, and is one-uniform
    assert certificates["canonical_norm_one"].partition.threshold == pytest.approx(1.0, abs=1e-12)
    assert certificates["one_uniform_pair"].conclusion
    certificates = analyze_by_id(plane_frame, plane_profile)
    assert not certificates["norm_one_optimal_pair"].conclusion
    assert certificates["canonical_norm_one"].partition.threshold == pytest.approx(4 / 3, abs=1e-12)


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
    # the squared norms, read off the frame, are the reciprocal weights
    squared_norms = np.linalg.norm(frame.matrix, axis=0) ** 2
    assert_allclose(squared_norms, [1 / 3, 1 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert cert.hypotheses[1].witness <= 1e-12
    assert not fl.is_probabilistic_uniform_parseval(plane_frame, plane_profile).conclusion


def test_uniform_parseval_orthonormal_cases():
    frame = fl.build_frame(2, np.eye(2))
    # uniform square profile: q_i = 1 so the norms match exactly
    assert fl.is_probabilistic_uniform_parseval(frame, uniform_profile(2, 2)).conclusion
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
        assert fl.is_one_uniform(pair, profile).conclusion
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
        (fl.build_frame(2, np.eye(2)), uniform_profile(2, 2)),
    ]
    for frame, profile in cases:
        assert canonical_one(frame, profile, "spectral").conclusion
        result = fl.minimize_spectral_one(frame, profile)
        assert result.best_value >= result.canonical_value - 1e-6


def test_parseval_equivalence_on_examples(scaled_tight_pair):
    frame, profile = scaled_tight_pair
    certificates = analyze_by_id(frame, profile)
    assert certificates["parseval_equivalence"].conclusion is True
    assert certificates["canonical_spectral_one"].conclusion is True
    assert certificates["canonical_norm_one"].conclusion is True
    assert certificates["canonical_spectral_one"].partition.witness == (1, 2, 3, 4)


def test_parseval_equivalence_orthonormal():
    frame = fl.build_frame(2, np.eye(2))
    profile = fl.weights_from_probabilities([0.4, 0.6], 2)
    certificates = analyze_by_id(frame, profile)
    assert certificates["parseval_equivalence"].conclusion is True
    assert certificates["canonical_spectral_one"].conclusion is True
    # both vectors are coloops; the likelier erasure attains the maximum
    assert certificates["canonical_spectral_one"].partition.witness == (2,)


def test_parseval_equivalence_rejects_non_parseval(plane_frame, plane_profile, monkeypatch):
    def no_search(*args):
        raise AssertionError("a search ran on a non-Parseval frame")

    monkeypatch.setattr(fl.search, "certify_canonical_optimal", no_search)
    cert = analyze_by_id(plane_frame, plane_profile)["parseval_equivalence"]
    # S = [[2, 1], [1, 2]]: the largest entry of |S - I| is 1
    (hypothesis,) = cert.hypotheses
    assert hypothesis.description == "frame operator equals the identity"
    assert hypothesis.holds is False
    assert hypothesis.witness == pytest.approx(1.0, abs=1e-12)
    assert cert.conclusion is False
    assert cert.details == {}


def test_parseval_equivalence_random_frames():
    rng = np.random.default_rng(43)
    for _ in range(3):
        frame = random_parseval_frame(rng, 2, 4)
        profile = random_profile(rng, 2, 4)
        certificates = analyze_by_id(frame, profile)
        cert = certificates["parseval_equivalence"]
        assert cert.conclusion is True
        for kind in ("spectral", "norm"):
            # the exact verdict is the converged search's, whose gap is recorded
            outcome = fl.certify_canonical_optimal(frame, profile, kind)
            assert outcome.optimal is not None
            assert (outcome.gap <= 1e-8) is certificates[f"canonical_{kind}_one"].conclusion
            assert cert.details[f"{kind}_gap"] == outcome.gap


def test_parseval_equivalence_verdicts_do_not_rest_on_the_searches(monkeypatch, scaled_tight_pair):
    def far_off(frame, profile, measure_kind):
        return fl.CertificationOutcome(optimal=None, gap=1.0, result=None)

    monkeypatch.setattr(fl.search, "certify_canonical_optimal", far_off)
    frame, profile = scaled_tight_pair
    certificates = analyze_by_id(frame, profile)
    cert = certificates["parseval_equivalence"]
    assert cert.conclusion is True and certificates["canonical_norm_one"].conclusion is True
    assert cert.details["spectral_gap"] == cert.details["norm_gap"] == 1.0


def test_analyze_certificates_evaluate_each_measure_once(
    monkeypatch, tmp_path, plane_frame, plane_profile, tight_frame, tight_profile
):
    # the measures are counted where erasures and optimality bind them, once
    # the search layer has bound its own, so the hidden searches' evaluations
    # are not
    import framelab.cli
    import framelab.search  # noqa: F401

    calls = []

    def counted(name, measure):
        def count(pair, profile, m):
            calls.append((name, m))
            return measure(pair, profile, m)

        return count

    for name in ("spectral_measure", "norm_measure"):
        count = counted(name, getattr(fl.erasures, name))
        for module in (fl.erasures, fl.optimality):
            monkeypatch.setattr(module, name, count)
    rng = np.random.default_rng(5)
    basis = fl.build_frame(2, np.eye(2))
    cases = [
        # Parseval: the equivalence report runs both searches
        (random_parseval_frame(rng, 3, 6), random_profile(rng, 3, 6)),
        # neither Parseval nor one-uniform, with a nonnegative cross budget
        (plane_frame, plane_profile),
        # one-uniform, with a positive cross constant
        (tight_frame, tight_profile),
        # a negative budget, no one-uniform pair and no positive cross constant
        (basis, fl.weights_from_probabilities([0.9, 0.1], 2)),
    ]
    path = tmp_path / "frame.json"
    for frame, profile in cases:
        # the certificates read the two m = 1 measures and nothing at m >= 2
        calls.clear()
        fl.analyze_certificates(frame, profile)
        assert sorted(calls) == [("norm_measure", 1), ("spectral_measure", 1)]
        # a whole analyze shares the certificates' evaluations with its
        # measures section: one evaluation per (kind, m)
        document = {
            "dim": frame.dim,
            "count": frame.count,
            "field": "complex",
            "vectors": [[[z.real, z.imag] for z in column] for column in frame.matrix.T],
            "probabilities": profile.probabilities.tolist(),
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        for extra, reported in (
            ([], {("spectral_measure", 1), ("norm_measure", 1), ("spectral_measure", 2), ("norm_measure", 2)}),
            (["--m", "2", "--measure", "norm"], {("norm_measure", 2)}),
        ):
            calls.clear()
            argv = ["analyze", str(path), "--out", str(tmp_path / "report.json"), *extra]
            assert framelab.cli.main(argv) == 0
            expected = reported | {("norm_measure", 1), ("spectral_measure", 1)}
            assert sorted(calls) == sorted(expected)
    # examples reads its per-index values from the memo its certificates
    # read: each example's canonical m = 1 measures once, and those of
    # example A's better dual
    calls.clear()
    framelab.cli.builtin_example_checks()
    assert sorted(calls) == [("norm_measure", 1)] * 3 + [("spectral_measure", 1)] * 3


# The canonical one-erasure certificates are exact: their verdict is the one
# of a converged search, where the canonical dual is optimal when no dual
# beats it by more than 1e-8.

KINDS = ("spectral", "norm")
COUNTEREXAMPLE = ([(1, 0), (0, 1), (0, 0.5), (0, 0.5)], [0.34, 0.56, 0.05, 0.05])


def searched_optimal(frame, profile, kind):
    """Is the canonical dual within 1e-8 of a converged search's optimum?"""
    result = fl.search._run_search(kind, frame, profile)
    assert result.converged
    return result.gap <= 1e-8


def assert_exact(frame, profile, kind):
    cert = canonical_one(frame, profile, kind)
    assert cert.conclusion is searched_optimal(frame, profile, kind)
    witness = [i - 1 for i in cert.partition.witness]
    # the witness is a component inside the attaining set: a union of
    # components of the vector matroid splits the frame's rank
    assert set(cert.partition.witness) <= set(cert.partition.attaining)
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
        assert assert_exact(fl.Frame(dft_rows(n, count)), uniform_profile(count, n), kind)
    # the same 2 x 3 frame next to a random 1 x 3 block: the first component
    # attains the maximum, or a vector of the second does alone
    verdicts = []
    for _ in range(8):
        matrix = np.zeros((3, 6), dtype=complex)
        matrix[:2, :3] = dft_rows(2, 3)
        matrix[2, 3:] = rng.standard_normal(3)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        frame = fl.Frame((rotation @ matrix)[:, rng.permutation(6)])
        verdicts.append(assert_exact(frame, uniform_profile(6, 3), kind))
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
    cert = canonical_one(frame, profile, kind)
    assert cert.conclusion is True
    assert cert.partition.attaining == (1, 2)
    assert cert.partition.witness == (1,)
    assert cert.partition.crossing_components == 1
    assert assert_exact(frame, profile, kind)
    assert not analyze_by_id(frame, profile)["canonical_spectral_two"].hypotheses[0].holds


@pytest.mark.parametrize("kind", KINDS)
def test_witness_is_the_smallest_component_inside_the_attaining_set(kind):
    # components {1} and {2, 3}; every value is 1, so both lie inside
    frame = fl.build_frame(2, [(1, 0), (0, 1), (0, 1)])
    profile = fl.weights_from_probabilities([0.0, 0.5, 0.5], 2)
    cert = canonical_one(frame, profile, kind)
    assert cert.partition.attaining == (1, 2, 3)
    assert cert.partition.witness == (1,)
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
        assert len(vectors) not in canonical_one(frame, profile, kind).partition.attaining
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
        cert = canonical_one(frame, profile, kind)
        measure = fl.spectral_measure if kind == "spectral" else fl.norm_measure
        one = measure(fl.canonical_dual(frame), profile, 1)
        values = one.per_set_values
        assert (values[1] - values[0]) / values[1] == pytest.approx(eps / 0.66, rel=1e-3)
        assert cert.conclusion is attains
        assert cert.partition.witness == ((1,) if attains else ())
        assert cert.partition.attaining == ((1, 2) if attains else (2,))
        # one tie rule: the attaining set is the m = 1 measure's argmax sets
        assert cert.partition.attaining == tuple(s[0] for s in one.argmax_sets)
        # the optimum is the coloop's value, which no dual changes
        result = fl.search._run_search(kind, frame, profile)
        assert result.converged
        assert result.best_value == pytest.approx(values[0], rel=1e-10)


# Oracle: the per-pair Python loops the pairwise certificates used to run,
# kept to check that the vectorised cross products give the same bits.


def one_hypothesis(claim, witnesses, tol):
    """The one hypothesis a certificate states for a condition on every
    index or pair, from the per-element ``witnesses`` of the loop."""
    return [(claim, all(w <= tol for w in witnesses), max(witnesses, default=0.0))]


def oracle_two_uniform(pair, profile, tol):
    alpha, q = pair.cross_gram, profile.weights
    witnesses = [
        float(abs(q[i] * q[j] * alpha[i, j] * alpha[j, i] - 1.0) / (q[i] * q[j]))
        for i in range(pair.count)
        for j in range(i + 1, pair.count)
    ]
    return one_hypothesis("every pair: cross products match", witnesses, tol)


def oracle_spectral_two_pair(pair, profile, tol):
    target = fl.optimal_values(profile).cross_target
    alpha, q = pair.cross_gram, profile.weights
    witnesses = [
        float(abs(q[i] * q[j] * alpha[i, j] * alpha[j, i] - target))
        for i in range(pair.count)
        for j in range(i + 1, pair.count)
    ]
    claim = "every pair: weighted cross product equals the shared constant"
    return one_hypothesis(claim, witnesses, tol)


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
    target = fl.optimal_values(profile).cross_target
    gram = frame.matrix.conj().T @ fl.canonical_dual(frame).dual
    q = profile.weights
    worst = 0.0
    for i in range(frame.count):
        for j in range(i + 1, frame.count):
            worst = max(worst, abs(q[i] * q[j] * abs(gram[i, j]) ** 2 - target))
    return worst


def triples(hypotheses):
    return [(h.description, h.holds, h.witness) for h in hypotheses]


def one_uniform_dual(frame, profile, step=None):
    """A dual with ``<g_i, f_i> = 1/q_i`` for every i: the least-squares
    solution of these N linear equations in ``C``, plus, when ``step`` is a
    generator, a random complex step in their null space."""
    f, v = frame.matrix, fl.dual_perturbation_basis(frame)
    g0 = fl.canonical_dual(frame).dual
    a = np.einsum("ri,ik->irk", f.conj(), v.conj()).reshape(frame.count, -1)
    b = 1.0 / profile.weights - np.einsum("ri,ri->i", f.conj(), g0)
    c = np.linalg.lstsq(a, b, rcond=None)[0]
    if step is not None:
        _, singular, vh = np.linalg.svd(a)
        null = vh[np.sum(singular > 1e-10 * singular[0]) :].conj().T
        shape = null.shape[1]
        scale = step.choice([1e-3, 0.1, 1.0, 3.0])
        c = c + scale * null @ (step.standard_normal(shape) + 1j * step.standard_normal(shape))
    return fl.dual_from_coefficients(frame, c.reshape(frame.dim, -1))


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


def weighted_products(pair, profile):
    """The pair's weighted cross products, as the private certificates take
    them."""
    return fl.erasures._cross_products(pair.cross_gram, profile.weights)


def test_pair_certificates_match_the_loop_oracle(mercedes_frame, mercedes_profile):
    tol = fl.optimality.DEFAULT_TOL
    cases = [(mercedes_frame, mercedes_profile, [fl.canonical_dual(mercedes_frame)])]
    pair_two_checked = 0
    for frame, profile, pairs in [*cases, *oracle_cases()]:
        for pair in pairs:
            cert = two_uniform(pair, profile)
            assert triples(cert.hypotheses) == oracle_two_uniform(pair, profile, tol)

            products = weighted_products(pair, profile)
            one = fl.spectral_measure(pair, profile, 1)
            prediction = fl.optimality._two_erasure_prediction(pair, products, one)
            assert triples(prediction.hypotheses)[1] == oracle_prediction_cross(pair, profile, tol)

            if fl.is_one_uniform(pair, profile).conclusion:
                # the residuals as analyze_certificates computes them
                bounds = fl.optimal_values(profile)
                residuals = fl.erasures._cabs(products - bounds.cross_target)
                cert = fl.optimality._spectral_two_pair(True, one.value, bounds, residuals)
                assert triples(cert.hypotheses) == oracle_spectral_two_pair(pair, profile, tol)
                pair_two_checked += 1
        # The canonical certificate now uses a_ij a_ji where the loop used
        # |<S^-1 f_j, f_i>|^2: equal up to rounding for the Hermitian Gram.
        certificates = analyze_by_id(frame, profile)
        cert = certificates["canonical_spectral_two"]
        if fl.optimal_values(profile).cross_budget >= 0:
            assert cert.hypotheses[2].witness == pytest.approx(
                oracle_canonical_two_worst(frame, profile), rel=1e-13, abs=1e-13
            )
        # analyze's pair certificate on the canonical dual reads the same bits
        canonical = fl.canonical_dual(frame)
        if fl.is_one_uniform(canonical, profile).conclusion:
            expected = oracle_spectral_two_pair(canonical, profile, tol)
            assert triples(certificates["spectral_two_optimal_pair"].hypotheses) == expected
    assert pair_two_checked >= 12


# Oracle: the per-index Python loops of the one-erasure membership tests.


def oracle_one_uniform(pair, profile, tol):
    products = profile.weights * np.conj(np.diagonal(pair.cross_gram))
    witnesses = [
        float(max(abs(value.real - 1.0), abs(value.imag)) / q)
        for value, q in zip(products, profile.weights)
    ]
    return one_hypothesis("every vector: <f,g> equals the reciprocal weight", witnesses, tol)


def oracle_norm_one_pair(pair, profile, tol):
    products = profile.weights * np.conj(np.diagonal(pair.cross_gram))
    f_norms = np.linalg.norm(pair.frame.matrix, axis=0)
    g_norms = np.linalg.norm(pair.dual, axis=0)
    witnesses = []
    for value, q, f_norm, g_norm in zip(products, profile.weights, f_norms, g_norms):
        inner_dev = max(abs(value.real - 1.0), abs(value.imag)) / q
        witnesses.append(float(max(inner_dev, abs(q * f_norm * g_norm - 1.0) / q)))
    claim = "every vector: inner product and norm product equal the reciprocal weight"
    return one_hypothesis(claim, witnesses, tol)


def test_index_certificates_match_the_loop_oracle(tight_frame, tight_profile):
    tol = fl.optimality.DEFAULT_TOL
    cases = [(tight_frame, tight_profile, [fl.canonical_dual(tight_frame)])]
    held = {"one": 0, "norm": 0}
    for _, profile, pairs in [*cases, *oracle_cases()]:
        for pair in pairs:
            cert = fl.is_one_uniform(pair, profile)
            assert triples(cert.hypotheses) == oracle_one_uniform(pair, profile, tol)
            held["one"] += cert.conclusion
            cert = fl.optimality._norm_one_pair(pair, profile, fl.norm_measure(pair, profile, 1))
            assert triples(cert.hypotheses) == oracle_norm_one_pair(pair, profile, tol)
            held["norm"] += cert.conclusion
    assert held["one"] >= 12 and held["norm"] >= 1


def ties_relative_pair():
    """The Mercedes frame with the dual ``g_i = 2/3 f_i + c/sqrt(3)``, whose
    first two weighted diagonal values differ by more than 1e-9 but less
    than 1e-9 of their size, its probabilities, and the value ``r1`` of the
    first.

    The weighted diagonal is ``q_i (2/3 + s_i)`` with ``s_i = <f_i,
    c>/sqrt(3)``.  With p = (0.45, 0.45, 0.1) the choice ``s_1 = s_2 = s``
    below makes the weighted cross products constant; ``s_2`` is then
    lowered so the second weighted diagonal value lies between an absolute
    cut and the relative one."""
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
    return fl.DualPair(fl.Frame(f), dual), profile, r1


def test_two_erasure_prediction_ties_are_relative():
    # both indices attain the one-erasure value, and the prediction reads
    # the two largest one-erasure values as they are
    pair, profile, r1 = ties_relative_pair()
    one = fl.spectral_measure(pair, profile, 1)
    assert one.value == pytest.approx(r1, abs=1e-12)
    assert one.argmax_sets == ((1,), (2,))
    cert = fl.optimality._two_erasure_prediction(pair, weighted_products(pair, profile), one)
    assert all(h.holds for h in cert.hypotheses)
    assert cert.details["second_level_value"] == one.per_set_values[1] < one.value


def regular_simplex(n):
    """The n + 1 unit vectors in R^n whose pairwise inner products are -1/n."""
    centred = np.eye(n + 1) - 1.0 / (n + 1)
    vectors = np.linalg.svd(centred)[0][:, :n].T @ centred
    return fl.Frame(vectors / np.linalg.norm(vectors, axis=0))


def harmonic_equiangular_frame():
    """The 7 equiangular unit vectors ``exp(2 pi i jk / 7) / sqrt(3)``,
    ``j`` in {1, 2, 4}, in C^3."""
    return fl.Frame(np.exp(2j * np.pi * np.outer([1, 2, 4], np.arange(7)) / 7) / np.sqrt(3))


def test_two_erasure_prediction_is_the_enumerated_value():
    """The one closed form, taken at the two largest one-erasure values,
    is the enumerated m = 2 spectral value: on the canonical duals of the
    Mercedes frame, the regular simplices in R^2 to R^5 and the harmonic
    equiangular frame with equal probabilities, and on the duals of the
    single-maximum and relative-tie tests.  It is exact when the weighted
    cross products are equal; when each lies within ``delta`` of ``c``, it
    is within ``delta / (2 sqrt(c - delta))``, which only the relative-tie
    dual needs: its products lie within 5e-10 of their mean."""
    frames = [
        fl.build_frame(2, mercedes_vectors()),
        *(regular_simplex(n) for n in range(2, 6)),
        harmonic_equiangular_frame(),
    ]
    cases = [(fl.canonical_dual(f), uniform_profile(f.count, f.dim)) for f in frames]
    cases += [single_max_pair(), ties_relative_pair()[:2]]
    predictions = []
    for pair, profile in cases:
        one = fl.spectral_measure(pair, profile, 1)
        products = weighted_products(pair, profile)
        cert = fl.optimality._two_erasure_prediction(pair, products, one)
        assert all(h.holds for h in cert.hypotheses)
        assert cert.details["second_level_value"] == np.sort(one.per_set_values)[-2]
        enumerated = fl.spectral_measure(pair, profile, 2).value
        c = cert.details["cross_constant"]
        delta = np.max(np.abs(products - c))
        slack = delta / (2.0 * np.sqrt(c - delta))
        assert abs(cert.conclusion - enumerated) <= 1e-12 * enumerated + slack
        predictions.append(cert.conclusion)
    # R1 = 1 on each frame: the simplex in R^n has c = 1/n^2, and the
    # equiangular frame c = 2/9, the squared modulus of its inner products
    expected = [1.5, 1.5, 4 / 3, 5 / 4, 6 / 5, 1 + np.sqrt(2 / 9)]
    assert_allclose(predictions[: len(frames)], expected, rtol=1e-12)


def metamorphic_cases():
    """Frames and probabilities on which each certificate holds on some and
    fails on others: Mercedes, the plane and tight examples, the
    counterexample with two components, a seeded coloop frame, the harmonic
    Parseval frame ``exp(2 pi i jk / 7) / sqrt(7)`` with uniform (so
    uniform Parseval) and random probabilities, the equiangular frame, and
    a two-uniform scalar frame."""
    rng = np.random.default_rng(2718)
    harmonic = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(7)) / 7) / np.sqrt(7)
    cases = [
        (fl.build_frame(2, mercedes_vectors()), np.full(3, 1 / 3)),
        (fl.build_frame(2, PLANE_VECTORS), PLANE_PROBS),
        (fl.build_frame(2, TIGHT_VECTORS), TIGHT_PROBS),
        (fl.build_frame(2, COUNTEREXAMPLE[0]), COUNTEREXAMPLE[1]),
        (fl.Frame(coloop_case(4, "real")[0]), coloop_case(4, "real")[1]),
        (fl.Frame(harmonic), np.full(7, 1 / 7)),
        (fl.Frame(harmonic), rng.dirichlet(np.ones(7))),
        (harmonic_equiangular_frame(), np.full(7, 1 / 7)),
        (fl.build_frame(1, [(1,), (1,)]), [0.5, 0.5]),
    ]
    return [(frame, fl.weights_from_probabilities(p, frame.dim)) for frame, p in cases]


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# F -> cF leaves the canonical pair's erasure operators as they are (the
# dual scales by 1/c), F -> UF turns them by U, and a joint permutation of
# the vectors and probabilities permutes the per-set tables.
METAMORPHIC_TRANSFORMS = ["scale-1e-6", "scale-1e-3", "scale-1e3", "scale-1e6", "unitary", "permute"]


@pytest.mark.parametrize("transform", METAMORPHIC_TRANSFORMS)
def test_certificates_and_measures_are_invariant(transform):
    """No verdict of the ten certificates changes, except the two Parseval
    ones under scaling; the m = 1 and m = 2 measures, and the prediction,
    agree to 1e-12 relative, with the per-set tables permuted along."""
    rng = np.random.default_rng(METAMORPHIC_TRANSFORMS.index(transform))
    parseval = {"uniform_parseval", "parseval_equivalence"}
    changed = 0
    for frame, profile in metamorphic_cases():
        order = np.arange(frame.count)
        if transform.startswith("scale"):
            moved = fl.Frame(float(transform[6:]) * frame.matrix)
        elif transform == "unitary":
            moved = fl.Frame(random_unitary(rng, frame.dim) @ frame.matrix)
        else:
            order = rng.permutation(frame.count)
            moved = fl.Frame(frame.matrix[:, order])
        moved_profile = fl.weights_from_probabilities(profile.probabilities[order], frame.dim)
        before, after = analyze_by_id(frame, profile), analyze_by_id(moved, moved_profile)
        for condition_id, cert in before.items():
            other = after[condition_id].conclusion
            if condition_id == "two_erasure_prediction":
                assert (cert.conclusion is None) == (other is None)
                if other is not None:
                    assert other == pytest.approx(cert.conclusion, rel=1e-12)
            elif transform.startswith("scale") and condition_id in parseval:
                changed += other != cert.conclusion
            else:
                assert other == cert.conclusion, condition_id
        # the new index k is the old order[k]: a set's value moves with it
        position = {s: k for k, s in enumerate(itertools.combinations(range(frame.count), 2))}
        moved_pairs = [
            position[tuple(sorted((order[k], order[l])))]
            for k, l in itertools.combinations(range(frame.count), 2)
        ]
        for kind, measure in (("spectral", fl.spectral_measure), ("norm", fl.norm_measure)):
            for m, table in ((1, order), (2, moved_pairs)):
                old = measure(fl.canonical_dual(frame), profile, m).per_set_values
                new = measure(fl.canonical_dual(moved), moved_profile, m).per_set_values
                assert_allclose(new, old[table], rtol=1e-12, atol=0, err_msg=f"{kind} m={m}")
    # under scaling the harmonic frame stops being Parseval: both verdicts
    # turn with uniform probabilities, the equivalence with random ones
    assert changed == (3 if transform.startswith("scale") else 0)
