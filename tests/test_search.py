import math

import numpy as np
import pytest
from scipy.optimize import check_grad

import framelab as fl
from framelab.search import _Objective
from conftest import random_frame, random_profile


FAST = fl.SearchOptions(restarts=3, seed=2)


def coefficient_objective(frame, profile, kind):
    """Objective over real-parameterized coefficients, via the public API."""
    basis = fl.dual_perturbation_basis(frame)

    def value(x):
        coeffs = x[: basis.size] + 1j * x[basis.size :]
        pair = fl.dual_from_coefficients(basis, coeffs)
        report = (
            fl.spectral_measure(pair, profile, 1)
            if kind == "spectral"
            else fl.norm_measure(pair, profile, 1)
        )
        return report.value

    return basis, value


def test_spectral_search_beats_canonical_on_plane(plane_frame, plane_profile):
    result = fl.minimize_spectral_one(plane_frame, plane_profile, FAST)
    assert result.canonical_value == pytest.approx(4 / 3, abs=1e-12)
    # a dual attaining 10/9 exists, and the searched optimum is even lower
    assert result.best_value <= 10 / 9 + 1e-6
    assert result.best_value >= 1.0 - 1e-6
    assert result.gap > 0.1
    assert result.converged
    assert fl.verify_dual(plane_frame, result.best_dual.dual, 1e-9)


def test_norm_search_beats_canonical_on_plane(plane_frame, plane_profile):
    result = fl.minimize_norm_one(plane_frame, plane_profile, FAST)
    assert result.canonical_value == pytest.approx(4 / 3, abs=1e-12)
    assert result.best_value <= 2 * math.sqrt(26) / 9 + 1e-6
    assert result.best_value >= 1.0 - 1e-6
    assert result.gap > 0.0


def test_searches_confirm_tight_frame_optimal(tight_frame, tight_profile):
    spectral = fl.minimize_spectral_one(tight_frame, tight_profile, FAST)
    assert spectral.best_value == pytest.approx(1.0, abs=1e-6)
    assert spectral.gap <= 1e-6
    norm = fl.minimize_norm_one(tight_frame, tight_profile, FAST)
    assert norm.best_value == pytest.approx(1.0, abs=1e-6)
    assert norm.gap <= 1e-6


def test_search_with_unique_dual():
    frame = fl.build_frame(2, np.eye(2))
    profile = fl.weights_from_probabilities([0.4, 0.6], 2)
    result = fl.minimize_spectral_one(frame, profile)
    assert result.iterations == 0
    assert result.converged
    assert "unique" in result.note
    assert result.gap == 0.0


def test_subgradient_method_agrees(plane_frame, plane_profile):
    options = fl.SearchOptions(restarts=2, seed=3, method="subgradient", max_iterations=4000)
    result = fl.minimize_spectral_one(plane_frame, plane_profile, options)
    assert result.best_value <= result.canonical_value + 1e-12
    assert result.best_value >= 1.0 - 1e-6
    # subgradient progress is slower but must clearly improve on 4/3
    assert result.best_value <= 1.2
    smoothed = fl.minimize_spectral_one(plane_frame, plane_profile, FAST)
    assert abs(result.best_value - smoothed.best_value) <= 5e-2


def test_search_rejects_unknown_method(plane_frame, plane_profile):
    basis_frame = fl.build_frame(2, [(1, 0), (0, 1)])  # unique dual, empty search space
    basis_profile = fl.weights_from_probabilities([0.4, 0.6], 2)
    for frame, profile in ((plane_frame, plane_profile), (basis_frame, basis_profile)):
        with pytest.raises(ValueError):
            fl.minimize_spectral_one(frame, profile, fl.SearchOptions(method="annealing"))


def test_search_monotone_and_verified_on_random_frames():
    rng = np.random.default_rng(51)
    options = fl.SearchOptions(restarts=1, seed=4)
    for _ in range(3):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(n + 1, 7))
        frame = random_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        for minimize in (fl.minimize_spectral_one, fl.minimize_norm_one):
            result = minimize(frame, profile, options)
            assert result.best_value <= result.canonical_value + 1e-12
            assert result.best_value >= 1.0 - 1e-6
            assert fl.verify_dual(frame, result.best_dual.dual, 1e-9)


@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_objective_is_convex_in_coefficients(plane_frame, plane_profile, kind):
    basis, value = coefficient_objective(plane_frame, plane_profile, kind)
    rng = np.random.default_rng(61)
    dim = 2 * basis.size
    for _ in range(100):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lam = rng.uniform(0.0, 1.0)
        mixed = value(lam * x + (1 - lam) * y)
        assert mixed <= lam * value(x) + (1 - lam) * value(y) + 1e-9


def test_random_dual_sampler_lower_bound(tight_frame, tight_profile):
    samples = fl.random_dual_sampler(tight_frame, tight_profile, 500, seed=7, measure_kind="spectral")
    values = [v for _, v in samples]
    assert min(values) >= 1.0 - 1e-9
    # the tight canonical pair is optimal, so 1 is attained by the first sample
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_random_dual_sampler_first_sample_is_canonical(plane_frame, plane_profile):
    samples = fl.random_dual_sampler(plane_frame, plane_profile, 1, seed=11, measure_kind="spectral")
    assert len(samples) == 1
    assert samples[0][1] == pytest.approx(4 / 3, abs=1e-12)


def test_random_dual_sampler_finds_better_duals(plane_frame, plane_profile):
    samples = fl.random_dual_sampler(plane_frame, plane_profile, 500, seed=13, measure_kind="spectral")
    assert min(v for _, v in samples) < 4 / 3


def test_random_dual_sampler_determinism(plane_frame, plane_profile):
    a = fl.random_dual_sampler(plane_frame, plane_profile, 20, seed=17, measure_kind="norm")
    b = fl.random_dual_sampler(plane_frame, plane_profile, 20, seed=17, measure_kind="norm")
    assert [v for _, v in a] == [v for _, v in b]
    with pytest.raises(ValueError):
        fl.random_dual_sampler(plane_frame, plane_profile, 0, seed=1, measure_kind="norm")
    with pytest.raises(ValueError):
        fl.random_dual_sampler(plane_frame, plane_profile, 1, seed=1, measure_kind="trace")


def test_certify_canonical_optimal(tight_frame, tight_profile, plane_frame, plane_profile):
    good = fl.certify_canonical_optimal(tight_frame, tight_profile, "spectral", 1e-6, FAST)
    assert good.optimal is True
    bad = fl.certify_canonical_optimal(plane_frame, plane_profile, "spectral", 1e-6, FAST)
    assert bad.optimal is False
    assert bad.gap >= 4 / 3 - 10 / 9 - 1e-6
    bad_norm = fl.certify_canonical_optimal(plane_frame, plane_profile, "norm", 1e-6, FAST)
    assert bad_norm.optimal is False


@pytest.mark.parametrize("kind", ["spectral", "norm"])
@pytest.mark.parametrize("shape", [(2, 3), (4, 12)])
def test_smoothed_gradient_matches_finite_differences(kind, shape):
    rng = np.random.default_rng(71)
    frame = random_frame(rng, *shape)
    profile = random_profile(rng, *shape)
    basis = fl.dual_perturbation_basis(frame)
    objective = _Objective(kind, frame, profile, basis)
    mu = 0.1
    for _ in range(5):
        x = rng.standard_normal(2 * basis.size)
        error = check_grad(
            lambda v: objective.smoothed(v, mu)[0], lambda v: objective.smoothed(v, mu)[1], x
        )
        assert error <= 1e-5 * max(1.0, np.linalg.norm(objective.smoothed(x, mu)[1]))


@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_objective_value_matches_measure(kind):
    rng = np.random.default_rng(73)
    frame = random_frame(rng, 3, 7)
    profile = random_profile(rng, 3, 7)
    basis, measure = coefficient_objective(frame, profile, kind)
    objective = _Objective(kind, frame, profile, basis)
    for _ in range(10):
        x = rng.standard_normal(2 * basis.size)
        assert objective.value(x) == pytest.approx(measure(x), rel=1e-12)
