import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import erasures
from framelab.erasures import (
    _draw_erasures,
    _key_count,
    _splitmix64,
    _uniforms,
    _unit_interval,
    _unit_vectors,
)
from conftest import (
    coefficient_shape,
    plane_better_dual,
    random_dual_pair,
    random_frame,
    random_profile,
)


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


def test_erasure_indices_are_validated(plane_frame, plane_profile):
    # index 0 used to wrap to the last vector, and count + 1 raised IndexError
    pair = fl.canonical_dual(plane_frame)
    for i, j in ((0, 1), (1, 4), (2, 2)):
        with pytest.raises(ValueError):
            fl.two_erasure_eigenvalues(pair, plane_profile, i, j)
    for indices in ((0,), (4,), (1, 1), (0, 2)):
        with pytest.raises(ValueError):
            fl.error_operator(pair, plane_profile, fl.ErasureSet(indices))
    unsorted = fl.error_operator(pair, plane_profile, fl.ErasureSet((3, 1)))
    assert_allclose(unsorted, fl.error_operator(pair, plane_profile, fl.ErasureSet((1, 3))), atol=0)


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
    pair = fl.DualPair(frame, frame.matrix)
    # a uniform square profile has q_i = N/n = 1 and every block has unit norm
    assert_allclose(profile.weights, np.ones(3), atol=1e-14)
    assert fl.norm_measure(pair, profile, 1).value == pytest.approx(1.0, abs=1e-12)


def test_measures_reject_bad_m(plane_frame, plane_profile):
    pair = fl.canonical_dual(plane_frame)
    with pytest.raises(ValueError):
        fl.spectral_measure(pair, plane_profile, 0)
    with pytest.raises(ValueError):
        fl.norm_measure(pair, plane_profile, 4)


def test_combinatorial_cap():
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
    pair = fl.DualPair(frame, frame.matrix)
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


def two_orthonormal_bases():
    """The standard basis of C^3 and the columns of the unitary DFT matrix:
    a tight frame with S = 2 I, so that with equal weights each basis's
    three-erasure blocks are multiples of I (a triple root)."""
    dft = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    return fl.Frame(np.hstack([np.eye(3), dft]))


def three_erasure_cases():
    """Frames and duals whose three-erasure blocks stress the cubic: rank-
    deficient blocks, triple roots, near-repeated vectors, non-normal blocks
    and conjugate top roots."""
    rng = np.random.default_rng(41)
    line = random_frame(rng, 1, 6)
    yield "n = 1", fl.canonical_dual(line), random_profile(rng, 1, 6)
    yield "n = 1, other dual", random_dual_pair(rng, line), random_profile(rng, 1, 6)
    plane = random_frame(rng, 2, 7)
    yield "n = 2", random_dual_pair(rng, plane), random_profile(rng, 2, 7)
    identity = fl.Frame(np.eye(5))
    yield "orthonormal, equal weights", fl.DualPair(identity, identity.matrix), fl.uniform_profile(5, 5)
    bases = fl.canonical_dual(two_orthonormal_bases())
    yield "two orthonormal bases", bases, fl.uniform_profile(6, 3)
    near = random_frame(rng, 3, 7).matrix.copy()
    near[:, 1] = near[:, 0] + 1e-6 * rng.standard_normal(3)
    yield "near-repeated vectors", fl.canonical_dual(fl.Frame(near)), random_profile(rng, 3, 7)
    yield "other dual", random_dual_pair(rng, random_frame(rng, 3, 8)), random_profile(rng, 3, 8)
    real = fl.Frame(rng.standard_normal((3, 7)))
    # a real dual G = S^-1 F + C V^H with real C, whose blocks are real and
    # not similar to symmetric matrices
    coeffs = 0.8 * rng.standard_normal(coefficient_shape(real))
    real_dual = fl.dual_from_coefficients(real, coeffs)
    yield "real, conjugate top roots", real_dual, random_profile(rng, 3, 7)


def test_three_erasure_cubic_matches_full_operator():
    conjugate_tops = 0
    for label, pair, profile in three_erasure_cases():
        for kind, measure in (("spectral", fl.spectral_measure), ("norm", fl.norm_measure)):
            oracle = enumerated_values(pair, profile, 3, kind)
            got = measure(pair, profile, 3).per_set_values
            assert_allclose(got, oracle, rtol=1e-12, atol=0, err_msg=f"{label}, {kind}")
        if label.startswith("real"):
            assert not np.any(pair.dual.imag)
            for combo in itertools.combinations(range(1, pair.count + 1), 3):
                lam = fl.ErasureSet.of(combo, pair.count)
                roots = np.linalg.eigvals(fl.error_operator(pair, profile, lam))
                top = roots[np.argmax(np.abs(roots))]
                conjugate_tops += abs(top.imag) > 1e-6 * abs(top)
    assert conjugate_tops > 0


def test_three_erasure_cubic_rejects_triple_roots():
    # an error bound without the rounding scale and the Vieta check accepted
    # 1.9e11 for these blocks, whose true value is 1
    identity = fl.Frame(np.eye(5))
    pair, profile = fl.DualPair(identity, identity.matrix), fl.uniform_profile(5, 5)
    ix = np.array([[0, 1, 2], [1, 3, 4]])
    alpha, q = pair.cross_gram, profile.weights
    _, certified = erasures._cubic_top_moduli(*erasures._spectral_cubic(alpha, q, ix))
    assert not certified.any()
    weighted = q[:, None] * np.eye(5) * q
    _, certified = erasures._cubic_top_moduli(*erasures._norm_cubic(weighted, np.eye(5), ix))
    assert not certified.any()
    for measure in (fl.spectral_measure, fl.norm_measure):
        assert_allclose(measure(pair, profile, 3).per_set_values, 1.0, rtol=1e-15)


def test_three_erasure_values_do_not_depend_on_the_chunk():
    rng = np.random.default_rng(43)
    frame = fl.Frame(rng.standard_normal((4, 31)))
    pair, profile = random_dual_pair(rng, frame), random_profile(rng, 4, 31)
    combos = itertools.chain.from_iterable(itertools.combinations(range(31), 3))
    ix = np.fromiter(combos, dtype=np.intp).reshape(-1, 3)[: erasures.CHUNK_SETS]
    assert ix.shape[0] == erasures.CHUNK_SETS
    f, g, q = pair.frame.matrix, pair.dual, profile.weights
    weighted = q[:, None] * (g.conj().T @ g) * q
    kernels = (
        (fl.spectral_measure, erasures._spectral_three, (pair.cross_gram, q)),
        (fl.norm_measure, erasures._norm_three, (weighted, f.conj().T @ f)),
    )
    positions = np.unique(np.r_[0:17, rng.integers(0, ix.shape[0], 48), ix.shape[0] - 1])
    for measure, kernel, args in kernels:
        chunk = kernel(*args, ix)
        reported = measure(pair, profile, 3).per_set_values
        assert chunk.tobytes() == reported[: ix.shape[0]].tobytes()
        for k in positions:
            assert kernel(*args, ix[k : k + 1]).tobytes() == chunk[k : k + 1].tobytes()


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


def test_simulation_zero_erasures(plane_frame, plane_profile, monkeypatch):
    # with nothing erased every error is 0, so no trial draws a uniform
    def no_draws(*args):
        raise AssertionError("m = 0 drew uniforms")

    monkeypatch.setattr(erasures, "_uniforms", no_draws)
    pair = fl.canonical_dual(plane_frame)
    stats = fl.simulate_erasure_channel(pair, plane_profile, m=0, trials=50, seed=1)
    assert stats.max_error == 0.0 and stats.mean_error == 0.0
    assert stats.histogram_edges == tuple(np.linspace(0.0, 1.0, 21))
    assert stats.histogram_counts == (50,) + (0,) * 19


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


def key_uniforms(seed, p, m, trials):
    """The key uniforms of ``trials`` simulated trials, as the simulation
    draws them for a frame of dimension 0."""
    width = _key_count(p, m)
    return _uniforms(seed, 0, trials, width, range(width))


@pytest.mark.parametrize(
    "p, m",
    [
        ([0.1, 0.35, 0.0, 0.2, 0.35], 2),
        ([0.05, 0.3, 0.15, 0.0, 0.4, 0.1], 3),
    ],
)
def test_exponential_keys_match_successive_sampling(p, m):
    p = np.asarray(p)
    draws = _draw_erasures(key_uniforms(11, p, m, 200_000), p, m)
    assert draws.shape == (200_000, m)
    assert_set_frequencies(draws, successive_sampling_probabilities(p, m))


def test_exponential_keys_survive_subnormal_probabilities():
    # Exp(1) / 1e-310 overflows to inf, which would tie indices 2 and 3
    p = np.array([0.5, 0.5, 1e-310, 1e-310])
    draws = _draw_erasures(key_uniforms(13, p, 3, 100_000), p, 3)
    assert_set_frequencies(draws, {0b0111: 0.5, 0b1011: 0.5})


@pytest.mark.parametrize("m", [3, 4])
def test_exponential_keys_fall_back_to_uniform_zero_mass(m):
    # support {1, 4} is smaller than m: both are always drawn, and the other
    # m - 2 indices are a uniform subset of the zero-mass ones
    p = np.array([0.0, 0.7, 0.0, 0.0, 0.3, 0.0])
    draws = _draw_erasures(key_uniforms(12, p, m, 100_000), p, m)
    zero_mass = [0, 2, 3, 5]
    exact = {
        (1 << 1) + (1 << 4) + sum(1 << i for i in extra): 1.0 / math.comb(4, m - 2)
        for extra in itertools.combinations(zero_mass, m - 2)
    }
    assert_set_frequencies(draws, exact)


def splitmix64_reference(seed, count):
    """The first ``count`` outputs of SplitMix64, one Python integer at a time."""
    mask, state, out = 2**64 - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_the_scalar_generator():
    outputs = _splitmix64(0, np.arange(3, dtype=np.uint64)).tolist()
    assert outputs == splitmix64_reference(0, 3)
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed in (1, 2**63, 2**64 - 1):
        positions = np.arange(1000, dtype=np.uint64)
        assert _splitmix64(seed, positions).tolist() == splitmix64_reference(seed, 1000)


def test_largest_seed_raises_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _uniforms(2**64 - 1, 0, 3, 5, range(5))
    assert np.all((u > 0.0) & (u <= 1.0))


def test_top_bits_map_onto_the_half_open_unit_interval():
    bits = np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
    assert _unit_interval(bits).tolist() == [2.0**-53, 2.0**-53, 2.0**-52, 1.0]


def test_a_trials_draws_depend_on_the_seed_and_the_trial_only():
    width = 11
    ten = _uniforms(5, 0, 10, width, range(width))
    assert _uniforms(5, 3, 4, width, range(width)).tobytes() == ten[3:7].tobytes()
    assert _uniforms(5, 3, 4, width, range(2, 9)).tobytes() == ten[3:7, 2:9].tobytes()
    assert not np.array_equal(_uniforms(6, 0, 10, width, range(width)), ten)


def test_unit_vectors_are_uniform_on_the_sphere():
    n, trials = 3, 100_000
    v = _unit_vectors(
        _uniforms(21, 0, trials, 2 * n, range(n)), _uniforms(21, 0, trials, 2 * n, range(n, 2 * n))
    )
    assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-14)
    # |v_k|^2 is Beta(1, n - 1); Re v_k and Im v_k have variance 1 / (2 n)
    power = np.abs(v) ** 2
    sigma = math.sqrt((n - 1) / (n * n * (n + 1)) / trials)
    assert np.all(np.abs(power.mean(axis=0) - 1.0 / n) <= 5.0 * sigma)
    sigma = math.sqrt(1.0 / (2 * n) / trials)
    assert np.all(np.abs(v.real.mean(axis=0)) <= 5.0 * sigma)
    assert np.all(np.abs(v.imag.mean(axis=0)) <= 5.0 * sigma)


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
    pair = fl.DualPair(frame, [[0.5 + x, 0.5 - x]])
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
