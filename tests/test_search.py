import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

import framelab as fl
import framelab.cli as cli
from conftest import coefficient_shape, coloop_case, random_frame, random_profile


def coefficient_objective(frame, profile, kind):
    """Objective over real-parameterized coefficients, via the public API."""
    shape = coefficient_shape(frame)
    size = shape[0] * shape[1]

    def value(x):
        coeffs = (x[:size] + 1j * x[size:]).reshape(shape)
        pair = fl.dual_from_coefficients(frame, coeffs)
        report = (
            fl.spectral_measure(pair, profile, 1)
            if kind == "spectral"
            else fl.norm_measure(pair, profile, 1)
        )
        return report.value

    return size, value


def random_dual_sampler(frame, profile, count, seed, measure_kind):
    """``count`` duals of ``frame``, each with its worst one-erasure value of
    ``measure_kind``: the sampling oracle that no search result may beat.

    Radii cycle through ``(0, 0.1, 0.3, 1, 3)`` times the canonical dual's
    Frobenius norm, with directions uniform on the coefficient sphere; the
    first sample is always the canonical dual itself.
    """
    shape = coefficient_shape(frame)
    canonical = fl.canonical_dual(frame)
    measure = fl.spectral_measure if measure_kind == "spectral" else fl.norm_measure
    rng = np.random.default_rng(seed)
    base_radius = float(np.linalg.norm(canonical.dual))
    levels = (0.0, 0.1, 0.3, 1.0, 3.0)
    samples = []
    for j in range(count):
        radius = levels[j % len(levels)] * base_radius
        if frame.count == frame.dim or radius == 0.0:
            pair = canonical
        else:
            direction = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            direction /= np.linalg.norm(direction)
            pair = fl.dual_from_coefficients(frame, radius * direction)
        samples.append((pair, measure(pair, profile, 1).value))
    return samples


def test_spectral_search_beats_canonical_on_plane(plane_frame, plane_profile):
    result = fl.minimize_spectral_one(plane_frame, plane_profile)
    assert result.canonical_value == pytest.approx(4 / 3, abs=1e-12)
    # a one-uniform dual exists, so the optimum is the global lower bound 1
    assert result.best_value == pytest.approx(1.0, abs=1e-12)
    assert result.lower_bound == 1.0
    assert result.gap > 0.1
    assert result.converged
    assert fl.verify_dual(plane_frame, result.best_dual.dual)


def test_norm_search_beats_canonical_on_plane(plane_frame, plane_profile):
    result = fl.minimize_norm_one(plane_frame, plane_profile)
    assert result.canonical_value == pytest.approx(4 / 3, abs=1e-12)
    assert result.best_value <= 2 * math.sqrt(26) / 9 + 1e-6
    assert result.best_value >= 1.0 - 1e-6
    assert result.gap > 0.0


def test_searches_confirm_tight_frame_optimal(tight_frame, tight_profile):
    spectral = fl.minimize_spectral_one(tight_frame, tight_profile)
    assert spectral.best_value == pytest.approx(1.0, abs=1e-6)
    assert spectral.gap <= 1e-6
    norm = fl.minimize_norm_one(tight_frame, tight_profile)
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
    assert result.lower_bound == result.best_value


def test_search_monotone_and_verified_on_random_frames():
    rng = np.random.default_rng(51)
    for _ in range(3):
        n = int(rng.integers(2, 4))
        count = int(rng.integers(n + 1, 7))
        frame = random_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        for minimize in (fl.minimize_spectral_one, fl.minimize_norm_one):
            result = minimize(frame, profile)
            assert result.best_value <= result.canonical_value + 1e-12
            assert result.best_value >= 1.0 - 1e-6
            assert fl.verify_dual(frame, result.best_dual.dual)


@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_objective_is_convex_in_coefficients(plane_frame, plane_profile, kind):
    size, value = coefficient_objective(plane_frame, plane_profile, kind)
    rng = np.random.default_rng(61)
    dim = 2 * size
    for _ in range(100):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lam = rng.uniform(0.0, 1.0)
        mixed = value(lam * x + (1 - lam) * y)
        assert mixed <= lam * value(x) + (1 - lam) * value(y) + 1e-9


def test_random_dual_sampler_lower_bound(tight_frame, tight_profile):
    samples = random_dual_sampler(tight_frame, tight_profile, 500, seed=7, measure_kind="spectral")
    values = [v for _, v in samples]
    assert min(values) >= 1.0 - 1e-9
    # the tight canonical pair is optimal, so 1 is attained by the first sample
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_random_dual_sampler_first_sample_is_canonical(plane_frame, plane_profile):
    samples = random_dual_sampler(plane_frame, plane_profile, 1, seed=11, measure_kind="spectral")
    assert len(samples) == 1
    assert samples[0][1] == pytest.approx(4 / 3, abs=1e-12)


def test_random_dual_sampler_finds_better_duals(plane_frame, plane_profile):
    samples = random_dual_sampler(plane_frame, plane_profile, 500, seed=13, measure_kind="spectral")
    assert min(v for _, v in samples) < 4 / 3


def test_random_dual_sampler_determinism(plane_frame, plane_profile):
    a = random_dual_sampler(plane_frame, plane_profile, 20, seed=17, measure_kind="norm")
    b = random_dual_sampler(plane_frame, plane_profile, 20, seed=17, measure_kind="norm")
    assert [v for _, v in a] == [v for _, v in b]


def test_certify_canonical_optimal(tight_frame, tight_profile, plane_frame, plane_profile):
    good = fl.certify_canonical_optimal(tight_frame, tight_profile, "spectral")
    assert good.optimal is True
    bad = fl.certify_canonical_optimal(plane_frame, plane_profile, "spectral")
    assert bad.optimal is False
    assert bad.gap >= 4 / 3 - 10 / 9 - 1e-6
    bad_norm = fl.certify_canonical_optimal(plane_frame, plane_profile, "norm")
    assert bad_norm.optimal is False


@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_reported_values_are_the_one_erasure_measures(kind):
    rng = np.random.default_rng(79)
    frame = random_frame(rng, 3, 6)
    profile = random_profile(rng, 3, 6)
    measure = fl.spectral_measure if kind == "spectral" else fl.norm_measure
    minimize = fl.minimize_spectral_one if kind == "spectral" else fl.minimize_norm_one
    result = minimize(frame, profile)
    assert result.best_value == measure(result.best_dual, profile, 1).value
    assert result.canonical_value == measure(fl.canonical_dual(frame), profile, 1).value


def spectral_linear_program(vectors, probabilities):
    """The one-erasure spectral optimum of a real frame as a linear program.

    The duals are ``S^-1 F + C V^T`` with ``V`` from ``scipy.linalg.null_space``
    and ``C`` real, which loses nothing for real data: the objective is convex
    and ``C`` and its conjugate give the same value.  Minimize ``t`` subject
    to ``-t <= q_i <f_i, g_i> <= t``.
    """
    f = np.array(vectors, dtype=float).T
    n, count = f.shape
    q = fl.weights_from_probabilities(probabilities, n).weights
    v = null_space(f)
    g0 = np.linalg.solve(f @ f.T, f)
    rows = q[:, None] * np.einsum("ri,ij->irj", f, v).reshape(count, -1)
    offsets = q * np.einsum("ri,ri->i", f, g0)
    ones = np.ones((count, 1))
    a_ub = np.block([[rows, -ones], [-rows, -ones]])
    b_ub = np.concatenate([-offsets, offsets])
    cost = np.zeros(rows.shape[1] + 1)
    cost[-1] = 1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    assert result.status == 0
    return float(result.fun)


def spectral_lp_cases():
    rng = np.random.default_rng(83)
    cases = [
        ([(1, 0), (0, 1), (1, 1)], [0.25, 0.25, 0.5]),
        ([(1, 0), (0, 1), (0, 0.5), (0, 0.5)], [0.34, 0.56, 0.05, 0.05]),
    ]
    for n, count in ((2, 4), (3, 6), (4, 7), (3, 8)):
        # the first vector alone carries e1, so no one-uniform dual exists
        f = rng.standard_normal((n, count))
        f[0, 1:] = 0.0
        cases.append((f.T.tolist(), rng.dirichlet(np.ones(count)).tolist()))
    return cases


@pytest.mark.parametrize("vectors,probabilities", spectral_lp_cases())
def test_spectral_value_matches_the_linear_program(vectors, probabilities):
    frame = fl.build_frame(len(vectors[0]), vectors)
    profile = fl.weights_from_probabilities(probabilities, frame.dim)
    result = fl.minimize_spectral_one(frame, profile)
    assert result.converged
    optimum = spectral_linear_program(vectors, probabilities)
    assert abs(result.best_value - optimum) <= 1e-9
    cert, _ = fl.canonical_spectral_one_certificate(frame, profile)
    assert cert.conclusion is (result.canonical_value - optimum <= 1e-8)


def real_frame(rng, n, count):
    return fl.Frame(rng.standard_normal((n, count)))


@pytest.mark.parametrize("make_frame", [real_frame, random_frame], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_lower_bound_brackets_the_optimum(make_frame, kind):
    rng = np.random.default_rng(89)
    minimize = fl.minimize_spectral_one if kind == "spectral" else fl.minimize_norm_one
    evaluate = fl.spectral_radius if kind == "spectral" else fl.operator_norm
    for _ in range(8):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n + 1, 2 * n + 3))
        frame = make_frame(rng, n, count)
        profile = random_profile(rng, n, count)
        result = minimize(frame, profile)
        lower = result.lower_bound
        assert result.converged
        assert lower <= result.best_value <= lower * (1 + 1e-10)
        operators = [
            fl.error_operator(result.best_dual, profile, fl.ErasureSet.of([i], count))
            for i in range(1, count + 1)
        ]
        brute = max(evaluate(op) for op in operators)
        # eigvals and the SVD are backward stable: each value is exact only for
        # an operator within a few eps ||E_i||_F of E_i, and a bound of exactly
        # 1 (the trace identity) can sit that far above a rounded value
        slack = 4 * np.finfo(float).eps * max(np.linalg.norm(op) for op in operators)
        assert lower <= brute + slack
        samples = random_dual_sampler(frame, profile, 40, seed=3, measure_kind=kind)
        assert min(value for _, value in samples) >= lower


def test_search_stops_unconverged_at_the_solve_cap(monkeypatch, plane_frame, plane_profile):
    monkeypatch.setattr(fl.search, "_MAX_SOLVES", 2)
    result = fl.minimize_norm_one(plane_frame, plane_profile)
    assert result.iterations == 2
    assert not result.converged
    assert result.lower_bound < result.best_value <= result.canonical_value
    assert fl.certify_canonical_optimal(plane_frame, plane_profile, "norm").optimal is None


def test_spectral_search_holds_no_design_matrix():
    """The spectral step works in N dimensions: a 32x96 search peaks below
    the 96 x 2048 complex design matrix (3 MiB) it used to form."""
    rng = np.random.default_rng(64)
    frame = fl.Frame(rng.standard_normal((32, 96)) + 1j * rng.standard_normal((32, 96)))
    profile = fl.weights_from_probabilities(rng.dirichlet(np.ones(96)), 32)
    tracemalloc.start()
    try:
        result = fl.minimize_spectral_one(frame, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < 96 * 2048 * 16


def explicit_search(monkeypatch, kind, frame, profile):
    """The search with the explicit design matrix ``a`` and a least-squares
    step on it: the oracle for the N-dimensional step.  The Lawson and Newton
    iteration is the library's own."""
    search = fl.search

    def lstsq_fit(w, a, b, lam):
        root = (np.sqrt(lam) * w)[:, None]
        x = np.linalg.lstsq(root * a, -root * b, rcond=None)[0]
        r = b + a @ x
        _, s, vh = np.linalg.svd(root * a, full_matrices=False)
        rank = s > search._RANK_TOL * s[0]
        return x, r, w * np.linalg.norm(r, axis=1), (vh[rank], s[rank])

    canonical = fl.canonical_dual(frame)
    measure = fl.spectral_measure if kind == "spectral" else fl.norm_measure
    canonical_value = measure(canonical, profile, 1).value
    f, g0, q = frame.matrix, canonical.dual, profile.weights
    v = fl.dual_perturbation_basis(frame)
    if kind == "spectral":
        a = (f.conj().T[:, :, None] * v.conj()[:, None, :]).reshape(frame.count, -1)
        w, b = q, np.sum(f.conj() * g0, axis=0)[:, None]
    else:
        a, w, b = v.conj(), q * np.linalg.norm(f, axis=0), g0.T
    with monkeypatch.context() as patch:
        patch.setattr(search, "_fit", lstsq_fit)
        x, lower, _ = search._minimax(w, a, b, 1.0 / (frame.dim * q), canonical_value)
    value = canonical_value
    if x is not None:
        coeffs = x.reshape(frame.dim, -1) if kind == "spectral" else x.T
        value = min(value, measure(fl.dual_from_coefficients(frame, coeffs), profile, 1).value)
    lower = min(lower, value)
    return value, value - lower <= search._GAP_TOL * value


def conditioning_cases():
    """Seeded hard frames: two vectors 1e-6 apart, one direction of the
    space scaled by 1e-3 (cond(S) near 1e6), and Dirichlet(0.2)
    probabilities, which put weights near zero."""
    cases = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 6))
        count = int(rng.integers(n + 1, 2 * n + 4))

        def matrix():
            m = rng.standard_normal((n, count))
            return m + 1j * rng.standard_normal((n, count)) if seed % 2 == 0 else m

        m = matrix()
        m[:, 1] = m[:, 0] + 1e-6 * rng.standard_normal(n)
        cases.append((f"parallel-{seed}", m, rng.dirichlet(np.ones(count))))
        m = matrix()
        m[0] *= 1e-3
        cases.append((f"scaled-{seed}", m, rng.dirichlet(np.ones(count))))
        cases.append((f"dirichlet-{seed}", matrix(), rng.dirichlet(np.full(count, 0.2))))
    return cases


@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_ill_conditioned_searches_match_the_explicit_step(monkeypatch, kind):
    checked = 0
    for name, matrix, probabilities in conditioning_cases():
        frame = fl.Frame(matrix)
        profile = fl.weights_from_probabilities(probabilities, frame.dim)
        try:
            expected, certified = explicit_search(monkeypatch, kind, frame, profile)
        except fl.NotDual:
            # the oracle's best dual fails the reconstruction check at 1e-10
            continue
        result = fl.search._run_search(kind, frame, profile)
        assert result.lower_bound <= expected * (1 + 1e-12), name
        if certified:
            checked += 1
            assert result.converged, name
            assert abs(result.best_value - expected) <= 1e-9 * expected, name
    assert checked >= 50


def test_spectral_search_keeps_the_canonical_dual_when_its_fit_is_no_dual(tmp_path, capsys):
    """On these near-parallel frames the spectral fit's coefficients are of
    order 1e5, and its dual reconstructs only to about 1e-9: the search
    reports the canonical dual, unconverged, with its proven lower bound."""
    cases = {name: (matrix, probabilities) for name, matrix, probabilities in conditioning_cases()}
    for name in ("parallel-4", "parallel-5", "parallel-9", "parallel-10"):
        matrix, probabilities = cases[name]
        frame = fl.Frame(matrix)
        result = fl.minimize_spectral_one(frame, fl.weights_from_probabilities(probabilities, frame.dim))
        assert not result.converged, name
        assert 1.0 <= result.lower_bound <= result.best_value == result.canonical_value, name
        assert "reconstruction identity" in result.note, name
    # the 4x5 complex frame of np.random.default_rng(1004)
    matrix, probabilities = cases["parallel-4"]
    path = tmp_path / "parallel.json"
    document = {
        "dim": matrix.shape[0],
        "count": matrix.shape[1],
        "field": "complex",
        "vectors": [[[z.real, z.imag] for z in column] for column in matrix.T],
        "probabilities": probabilities.tolist(),
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    assert cli.main(["search", str(path), "--measure", "spectral"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["searches"]
    assert entry["converged"] is False and entry["lower_bound"] <= entry["best_value"]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["spectral", "norm"])
def test_searches_on_frames_with_coloops(kind, field):
    """The null vectors' coloop rows are zero but for rounding; a spectral fit
    that read them as directions called for coefficients of order 1e16,
    whose dual failed to span."""
    for seed in range(12):
        matrix, probabilities = coloop_case(seed, field)
        frame = fl.Frame(matrix)
        profile = fl.weights_from_probabilities(probabilities, frame.dim)
        result = fl.search._run_search(kind, frame, profile)
        assert result.converged, seed
        assert 1.0 <= result.lower_bound <= result.best_value <= result.canonical_value, seed
        assert fl.verify_dual(frame, result.best_dual.dual), seed


def test_spectral_search_on_a_frame_with_coloops_exits_zero(tmp_path, capsys):
    matrix, probabilities = coloop_case(4, "real")
    path = tmp_path / "coloops.json"
    document = {
        "dim": matrix.shape[0],
        "count": matrix.shape[1],
        "field": "real",
        "vectors": [[[float(x), 0.0] for x in column] for column in matrix.T],
        "probabilities": probabilities.tolist(),
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    assert cli.main(["search", str(path), "--measure", "spectral"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["searches"]
    assert entry["converged"] is True and entry["lower_bound"] <= entry["best_value"]


def test_search_keeps_the_canonical_dual_when_its_fit_does_not_span(monkeypatch):
    # with the coloop rows of V left at their rounding, the spectral fit of
    # this frame calls for coefficients whose dual does not span, and so fails
    # the reconstruction identity
    monkeypatch.setattr(fl.frames.Frame, "_coloops", property(lambda self: np.zeros(self.count, bool)))
    matrix, probabilities = coloop_case(4, "real")
    frame = fl.Frame(matrix)
    result = fl.minimize_spectral_one(frame, fl.weights_from_probabilities(probabilities, frame.dim))
    assert "candidate dual fails the reconstruction identity" in result.note
    assert not result.converged
    assert result.lower_bound <= result.best_value == result.canonical_value
