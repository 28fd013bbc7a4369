import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import framelab as fl


def test_plane_weights(plane_profile):
    assert_allclose(plane_profile.weights, [4 / 3, 4 / 3, 2.0], atol=1e-12)


def test_tight_weights(tight_profile):
    assert_allclose(tight_profile.weights, [3.0, 3.0, 1.5, 1.5], atol=1e-12)


def test_uniform_weights_are_count_over_dim():
    profile = fl.uniform_profile(6, 3)
    assert_allclose(profile.weights, np.full(6, 2.0), atol=1e-12)


@pytest.mark.parametrize(
    "probs",
    [[0.5, 0.4], [0.5, 0.6], [-0.1, 1.1], [1.5, -0.5], [float("nan"), 0.5, 0.5]],
)
def test_invalid_probabilities_rejected(probs):
    with pytest.raises(fl.InvalidProbability):
        fl.weights_from_probabilities(probs, 2)


def test_certain_erasure_rejected():
    with pytest.raises(fl.DegenerateWeight):
        fl.weights_from_probabilities([1.0, 0.0], 2)


@pytest.mark.parametrize(
    "probs, dim", [([1 - 1e-13, 0.0, 0.0], 1), ([0.9999999999999999], 1), ([1 - 1e-13, 0.0], 2)]
)
def test_probability_within_rounding_of_one_rejected(probs, dim):
    # its remainder sum_j p_j - p_i is 0: the weight would be infinite, or
    # NaN for a single vector, where no weight identity check caught it
    with pytest.raises(fl.DegenerateWeight):
        fl.weights_from_probabilities(probs, dim)


@pytest.mark.parametrize(
    "probs, error",
    [([1.0], fl.DegenerateWeight), ([1 - 1e-13], fl.DegenerateWeight), ([0.5], fl.InvalidProbability)],
)
def test_single_probability_rejected(probs, error):
    # so every valid profile has at least two vectors, and every m = 2
    # measure and certificate applies to it
    with pytest.raises(error):
        fl.weights_from_probabilities(probs, 1)


def test_too_few_probabilities_rejected():
    with pytest.raises(fl.InvalidProbability):
        fl.weights_from_probabilities([0.5, 0.5], 3)


def test_properties_report_plane(plane_profile):
    report = fl.weight_properties_report(plane_profile)
    assert report.all_at_least_one
    assert report.partition_residual <= 1e-12
    assert report.monotone
    assert report.table[-1][0] == 3  # the most likely erasure has the top weight


def test_properties_report_uniform_min():
    report = fl.weight_properties_report(fl.uniform_profile(7, 3))
    assert_allclose(report.min_weight, 7 / 3, atol=1e-12)
    assert report.all_at_least_one


def test_square_profile_can_break_unit_lower_bound():
    # with as many vectors as dimensions, small probabilities give weights
    # below one; the property is reported, not raised
    profile = fl.weights_from_probabilities([0.9, 0.1], 2)
    assert_allclose(profile.weights, [5.0, 5 / 9], atol=1e-12)
    report = fl.weight_properties_report(profile)
    assert not report.all_at_least_one
    assert report.partition_residual <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=32),
    dim=st.integers(min_value=1, max_value=8),
)
def test_weight_identity_and_monotonicity(raw, dim):
    if len(raw) < dim:
        raw = raw + [0.5] * (dim - len(raw))
    p = np.asarray(raw) / np.sum(raw)
    profile = fl.weights_from_probabilities(p, dim)
    assert abs(np.sum(1.0 / profile.weights) - dim) <= 1e-10
    order = np.argsort(p)
    sorted_q = profile.weights[order]
    sorted_p = p[order]
    for a, b in zip(range(len(p) - 1), range(1, len(p))):
        if sorted_p[a] < sorted_p[b]:
            assert sorted_q[a] <= sorted_q[b]
            # strictness can only be observed once the gap survives rounding
            if sorted_p[b] - sorted_p[a] > 1e-12 * (1.0 + sorted_p[b]):
                assert sorted_q[a] < sorted_q[b]


def test_redundant_profiles_have_weights_at_least_one():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        count = int(rng.integers(n + 1, 4 * n + 1))
        p = rng.dirichlet(np.ones(count))
        profile = fl.weights_from_probabilities(p, n)
        assert np.all(profile.weights >= 1.0 - 1e-12)
