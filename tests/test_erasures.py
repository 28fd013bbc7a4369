import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import erasures
from framelab.erasures import _draw_erasures
from conftest import plane_better_dual, random_dual_pair, random_frame, random_profile


def enumerated_values(pair, profile, m, kind):
    """Independent oracle: the measure of the full error operator of every
    set, in the order of ``itertools.combinations``."""
    evaluate = fl.spectral_radius if kind == "spectral" else fl.operator_norm
    return np.array(
        [
            evaluate(fl.error_operator(pair, profile, fl.ErasureSet.of(combo, pair.count)))
            for combo in itertools.combinations(range(1, pair.count + 1), m)
        ]
    )


def enumerated_measure(pair, profile, m, kind):
    return enumerated_values(pair, profile, m, kind).max()


def test_error_operator_single_index(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    operator = fl.error_operator(pair, plane_profile, fl.ErasureSet.of([3], 3))
    assert_allclose(operator, np.full((2, 2), 2 / 3), atol=1e-12)
    assert_allclose(fl.spectral_radius(operator), 4 / 3, atol=1e-12)


def test_error_operator_empty_set(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    operator = fl.error_operator(pair, plane_profile, fl.ErasureSet(()))
    assert_allclose(operator, np.zeros((2, 2)), atol=0)


def test_error_operator_tight_first_index(tight_frame, tight_profile):
    pair = fl.canonical_dual(tight_frame)
    operator = fl.error_operator(pair, tight_profile, fl.ErasureSet.of([1], 4))
    assert_allclose(fl.spectral_radius(operator), 1.0, atol=1e-12)
    assert np.linalg.matrix_rank(operator) == 1


def test_error_operator_shape_mismatch(plane_frame, tight_profile):
    pair = fl.canonical_dual(plane_frame)
    with pytest.raises(fl.ShapeMismatch):
        fl.error_operator(pair, tight_profile, fl.ErasureSet.of([1], 4))


def test_spectral_radius_basics():
    assert fl.spectral_radius([[2, 0], [0, 1]]) == pytest.approx(2.0)
    assert fl.spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q = 1.7
    outer = q * np.outer(g, f.conj())
    assert fl.spectral_radius(outer) == pytest.approx(q * abs(f.conj() @ g), rel=1e-12)


def test_operator_norm_basics():
    assert fl.operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert fl.operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q = 0.9
    outer = q * np.outer(g, f.conj())
    assert fl.operator_norm(outer) == pytest.approx(
        q * np.linalg.norm(f) * np.linalg.norm(g), rel=1e-12
    )


def test_spectral_measure_plane_canonical(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    report = fl.spectral_measure(pair, plane_profile, 1)
    assert report.value == pytest.approx(4 / 3, abs=1e-12)
    per_index = [report.value_of([i]) for i in (1, 2, 3)]
    assert_allclose(per_index, [8 / 9, 8 / 9, 4 / 3], atol=1e-12)
    assert report.argmax_sets == (fl.ErasureSet((3,)),)


def test_spectral_measure_better_dual(plane_frame, plane_profile):
    report = fl.spectral_measure(plane_better_dual(plane_frame), plane_profile, 1)
    assert report.value == pytest.approx(10 / 9, abs=1e-12)


def test_spectral_measure_mercedes_two(mercedes_frame, mercedes_profile):
    pair = fl.canonical_dual(mercedes_frame)
    report = fl.spectral_measure(pair, mercedes_profile, 2)
    assert report.value == pytest.approx(1.5, abs=1e-12)
    # brute-force oracle over the full operators and the weight-only formula
    assert report.value == pytest.approx(
        enumerated_measure(pair, mercedes_profile, 2, "spectral"), abs=1e-12
    )
    assert fl.optimal_values(mercedes_profile).spectral_two == pytest.approx(1.5, abs=1e-12)


def test_norm_measure_values(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    assert fl.norm_measure(pair, plane_profile, 1).value == pytest.approx(4 / 3, abs=1e-12)
    better = plane_better_dual(plane_frame)
    assert fl.norm_measure(better, plane_profile, 1).value == pytest.approx(
        2 * math.sqrt(26) / 9, abs=1e-12
    )


def test_norm_measure_orthonormal_self_dual():
    frame = fl.build_frame(3, np.eye(3))
    profile = fl.uniform_profile(3, 3)
    pair = fl.DualPair(frame, frame)
    # a uniform square profile has q_i = N/n = 1 and every block has unit norm
    assert_allclose(profile.weights, np.ones(3), atol=1e-14)
    assert fl.norm_measure(pair, profile, 1).value == pytest.approx(1.0, abs=1e-12)


def test_measures_reject_bad_m(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    with pytest.raises(ValueError):
        fl.spectral_measure(pair, plane_profile, 0)
    with pytest.raises(ValueError):
        fl.norm_measure(pair, plane_profile, 4)


def test_combinatorial_cap(tight_frame, tight_profile):
    pair = fl.canonical_dual(tight_frame)
    with pytest.raises(fl.CombinatorialLimit):
        fl.spectral_measure(pair, tight_profile, 2, max_sets=3)
    # C(200, 3) = 1,313,400 sets exceed the default cap; their values alone
    # would take 10 MB and each Gram matrix 640 kB, so the cap must be checked
    # before anything of that size is allocated
    rng = np.random.default_rng(31)
    pair = fl.canonical_dual(random_frame(rng, 2, 200))
    profile = random_profile(rng, 2, 200)
    tracemalloc.start()
    try:
        for measure in (fl.spectral_measure, fl.norm_measure):
            with pytest.raises(fl.CombinatorialLimit):
                measure(pair, profile, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256_000


def test_two_erasure_eigenvalues_mercedes(mercedes_frame, mercedes_profile):
    pair = fl.canonical_dual(mercedes_frame)
    for i, j in itertools.combinations((1, 2, 3), 2):
        roots = fl.two_erasure_eigenvalues(pair, mercedes_profile, i, j)
        assert_allclose(sorted(r.real for r in roots), [0.5, 1.5], atol=1e-12)
        assert max(abs(r.imag) for r in roots) <= 1e-12


def test_two_erasure_eigenvalues_triangular_block():
    frame = fl.build_frame(2, [(1, 0), (0, 1)])
    profile = fl.weights_from_probabilities([0.3, 0.7], 2)
    pair = fl.DualPair(frame, frame)
    roots = fl.two_erasure_eigenvalues(pair, profile, 1, 2)
    assert_allclose(
        sorted(r.real for r in roots), sorted(profile.weights), atol=1e-12
    )


def test_two_erasure_eigenvalues_match_eigensolver():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n, 9))
        frame = random_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        pair = random_dual_pair(rng, frame)
        i, j = rng.choice(np.arange(1, count + 1), size=2, replace=False)
        roots = fl.two_erasure_eigenvalues(pair, profile, int(i), int(j))
        # the measure evaluates the same formula over all pairs i < j at once
        spectral = fl.spectral_measure(pair, profile, 2)
        ordered = fl.two_erasure_eigenvalues(pair, profile, *sorted((int(i), int(j))))
        assert spectral.value_of([i, j]) == max(abs(r) for r in ordered)
        lam = fl.ErasureSet.of([int(i), int(j)], count)
        direct = np.linalg.eigvals(fl.error_operator(pair, profile, lam))
        direct = direct[np.argsort(-np.abs(direct))][:2]
        assert_allclose(
            sorted(roots, key=lambda z: (z.real, z.imag)),
            sorted(direct, key=lambda z: (z.real, z.imag)),
            atol=1e-10,
        )
    with pytest.raises(ValueError):
        fl.two_erasure_eigenvalues(pair, profile, 1, 1)


def zero_mass_profile(rng, dim, count, zeros):
    p = rng.dirichlet(np.ones(count))
    p[rng.choice(count, size=zeros, replace=False)] = 0.0
    return fl.weights_from_probabilities(p / p.sum(), dim)


def assert_measures_match_enumeration(pair, profile, m):
    """Every per-set value, the maximum and the argmax sets of both measures
    agree with the full-operator oracle."""
    sets = list(itertools.combinations(range(1, pair.count + 1), m))
    spectral = fl.spectral_measure(pair, profile, m)
    norm = fl.norm_measure(pair, profile, m)
    for kind, report in (("spectral", spectral), ("norm", norm)):
        oracle = enumerated_values(pair, profile, m, kind)
        assert_allclose(report.per_set_values, oracle, rtol=1e-9, atol=1e-12)
        assert report.value == pytest.approx(oracle.max(), abs=1e-9)
        assert report.value == report.per_set_values.max()
        cut = report.value - fl.erasures.TIE_TOL * max(1.0, abs(report.value))
        ties = report.per_set_values >= cut
        assert [s.indices for s in report.argmax_sets] == [s for s, t in zip(sets, ties) if t]
        assert sets[int(np.argmax(oracle))] in [s.indices for s in report.argmax_sets]
        assert list(report.sets()) == sets
    assert np.all(spectral.per_set_values <= norm.per_set_values + 1e-9)


def test_block_measures_match_full_operator_enumeration():
    rng = np.random.default_rng(29)
    for trial in range(15):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(n, 11))
        frame = random_frame(rng, n, count)
        if trial % 3 == 2:
            profile = zero_mass_profile(rng, n, count, zeros=min(2, count - n))
        else:
            profile = random_profile(rng, n, count)
        pair = random_dual_pair(rng, frame)
        for m in (1, 2, 3, 4):
            if m <= count:
                assert_measures_match_enumeration(pair, profile, m)
    # C(31, 3) = 4,495 sets span two chunks of erasures.CHUNK_SETS
    assert math.comb(31, 3) > erasures.CHUNK_SETS
    real = fl.Frame(rng.standard_normal((4, 31)))
    complex_pair = random_dual_pair(rng, random_frame(rng, 4, 31))
    for pair in (fl.canonical_dual(real), complex_pair):
        assert_measures_match_enumeration(pair, zero_mass_profile(rng, 4, 31, zeros=3), 3)


def test_value_of_matches_lexicographic_position():
    rng = np.random.default_rng(37)
    pair = random_dual_pair(rng, random_frame(rng, 3, 9))
    profile = random_profile(rng, 3, 9)
    for measure in (fl.spectral_measure, fl.norm_measure):
        report = measure(pair, profile, 4)
        assert report.per_set_values.shape == (math.comb(9, 4),)
        for k, combo in enumerate(itertools.combinations(range(1, 10), 4)):
            assert report.value_of(combo[::-1]) == report.per_set_values[k]
    with pytest.raises(ValueError):
        report.value_of([1, 2, 3])
    with pytest.raises(ValueError):
        report.value_of([1, 2, 3, 10])


def test_per_index_closed_forms_match_operators(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    for i in (1, 2, 3):
        lam = fl.ErasureSet.of([i], 3)
        operator = fl.error_operator(pair, plane_profile, lam)
        spectral = fl.spectral_measure(pair, plane_profile, 1).value_of([i])
        norm = fl.norm_measure(pair, plane_profile, 1).value_of([i])
        assert spectral == pytest.approx(fl.spectral_radius(operator), abs=1e-10)
        assert norm == pytest.approx(fl.operator_norm(operator), abs=1e-10)


def test_simulation_respects_worst_case(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    stats = fl.simulate_erasure_channel(pair, plane_profile, m=1, trials=2000, seed=7)
    bound = fl.norm_measure(pair, plane_profile, 1).value
    assert stats.max_error <= bound + 1e-9
    assert stats.mean_error <= stats.max_error
    assert sum(stats.histogram_counts) == stats.trials


def test_simulation_zero_erasures(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    stats = fl.simulate_erasure_channel(pair, plane_profile, m=0, trials=50, seed=1)
    assert stats.max_error == 0.0


def test_simulation_zero_mass_indices_only_when_needed(tight_frame, tight_profile):
    pair = fl.canonical_dual(tight_frame)
    # support has two indices; m=2 must stay within it
    stats = fl.simulate_erasure_channel(pair, tight_profile, m=2, trials=500, seed=3)
    support_bound = fl.operator_norm(
        fl.error_operator(pair, tight_profile, fl.ErasureSet.of([1, 2], 4))
    )
    assert stats.max_error <= support_bound + 1e-9
    # m=3 exceeds the support and must draw a zero-mass index
    stats3 = fl.simulate_erasure_channel(pair, tight_profile, m=3, trials=200, seed=3)
    assert stats3.max_error <= fl.norm_measure(pair, tight_profile, 3).value + 1e-9


def test_simulation_is_deterministic(tight_frame, tight_profile):
    pair = fl.canonical_dual(tight_frame)
    a = fl.simulate_erasure_channel(pair, tight_profile, m=1, trials=300, seed=42)
    b = fl.simulate_erasure_channel(pair, tight_profile, m=1, trials=300, seed=42)
    assert a == b
    c = fl.simulate_erasure_channel(pair, tight_profile, m=1, trials=300, seed=43)
    assert c.max_error != a.max_error or c.mean_error != a.mean_error


def test_simulation_argument_errors(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    with pytest.raises(ValueError):
        fl.simulate_erasure_channel(pair, plane_profile, m=1, trials=0, seed=0)
    with pytest.raises(fl.InsufficientSupport):
        fl.simulate_erasure_channel(pair, plane_profile, m=4, trials=10, seed=0)
    with pytest.raises(ValueError, match="m=-1"):
        fl.simulate_erasure_channel(pair, plane_profile, m=-1, trials=10, seed=0)


def successive_sampling_probabilities(p, m):
    """Exact probability of each m-set under m successive draws proportional
    to p without replacement, keyed by the set's bitmask of 0-based indices."""
    exact = {}
    for order in itertools.permutations(np.flatnonzero(p > 0), m):
        prob, left = 1.0, 1.0
        for i in order:
            prob *= p[i] / left
            left -= p[i]
        key = sum(1 << int(i) for i in order)
        exact[key] = exact.get(key, 0.0) + prob
    return exact


def assert_set_frequencies(draws, exact):
    """Rows are sets of distinct indices, no set outside ``exact`` is drawn,
    and each set's frequency lies within 5 binomial sigmas of its probability."""
    assert np.all(np.diff(np.sort(draws, axis=1), axis=1) > 0)
    keys, counts = np.unique((1 << draws).sum(axis=1), return_counts=True)
    assert set(keys.tolist()) <= set(exact)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    observed = dict(zip(keys.tolist(), counts.tolist()))
    total = draws.shape[0]
    for key, prob in exact.items():
        sigma = math.sqrt(prob * (1.0 - prob) / total)
        assert abs(observed.get(key, 0) / total - prob) <= 5.0 * sigma, bin(key)


@pytest.mark.parametrize(
    "p, m",
    [
        ([0.1, 0.35, 0.0, 0.2, 0.35], 2),
        ([0.05, 0.3, 0.15, 0.0, 0.4, 0.1], 3),
    ],
)
def test_exponential_keys_match_successive_sampling(p, m):
    p = np.asarray(p)
    draws = _draw_erasures(np.random.default_rng(11), p, m, 200_000)
    assert draws.shape == (200_000, m)
    assert_set_frequencies(draws, successive_sampling_probabilities(p, m))


def test_exponential_keys_survive_subnormal_probabilities():
    # Exp(1) / 1e-310 overflows to inf, which would tie indices 2 and 3
    p = np.array([0.5, 0.5, 1e-310, 1e-310])
    draws = _draw_erasures(np.random.default_rng(13), p, 3, 100_000)
    assert_set_frequencies(draws, {0b0111: 0.5, 0b1011: 0.5})


@pytest.mark.parametrize("m", [3, 4])
def test_exponential_keys_fall_back_to_uniform_zero_mass(m):
    # support {1, 4} is smaller than m: both are always drawn, and the other
    # m - 2 indices are a uniform subset of the zero-mass ones
    p = np.array([0.0, 0.7, 0.0, 0.0, 0.3, 0.0])
    draws = _draw_erasures(np.random.default_rng(12), p, m, 100_000)
    zero_mass = [0, 2, 3, 5]
    exact = {
        (1 << 1) + (1 << 4) + sum(1 << i for i in extra): 1.0 / math.comb(4, m - 2)
        for extra in itertools.combinations(zero_mass, m - 2)
    }
    assert_set_frequencies(draws, exact)


def test_erasure_set_validation():
    with pytest.raises(ValueError):
        fl.ErasureSet.of([1, 1], 3)
    with pytest.raises(ValueError):
        fl.ErasureSet.of([0, 1], 3)
    with pytest.raises(ValueError):
        fl.ErasureSet.of([4], 3)
    assert fl.ErasureSet.of([3, 1], 3).indices == (1, 3)


def test_ties_are_relative_to_the_maximum():
    # n = 1, N = 2 with g = (1/2 + x, 1/2 - x): both m = 1 values are about
    # 2000 and differ by about 1e-7, between the absolute cut 1e-9 and the
    # relative cut 1e-9 * 2000, so both indices attain the maximum.
    frame = fl.build_frame(1, [(1,), (1,)])
    x = 5e-5 + 1000j
    pair = fl.DualPair(frame, fl.Frame([[0.5 + x, 0.5 - x]]))
    profile = fl.uniform_profile(2, 1)
    for measure in (fl.spectral_measure, fl.norm_measure):
        report = measure(pair, profile, 1)
        gap = report.value - report.value_of([2])
        assert fl.erasures.TIE_TOL < gap < fl.erasures.TIE_TOL * report.value
        assert report.argmax_sets == (fl.ErasureSet((1,)), fl.ErasureSet((2,)))
    # below 1 the relative cut is the absolute one
    values = np.array([0.5, 0.5 - 0.9e-9, 0.5 - 1.1e-9])
    best, attaining = erasures._ties(values)
    assert best == 0.5 and attaining.tolist() == [True, True, False]
