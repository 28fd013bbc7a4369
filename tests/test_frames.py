import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space

import framelab as fl
from conftest import coefficient_shape, coloop_case, conditioned_matrix, random_frame


def test_build_frame_shapes(plane_frame):
    assert plane_frame.dim == 2
    assert plane_frame.count == 3


def test_orthonormal_basis_bounds():
    frame = fl.build_frame(2, [(1, 0), (0, 1)])
    assert_allclose([frame.lower_bound, frame.upper_bound], [1.0, 1.0], atol=1e-14)


def test_build_frame_rejects_bad_lengths():
    with pytest.raises(fl.DimensionMismatch):
        fl.build_frame(2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(fl.DimensionMismatch):
        fl.build_frame(2, [])


def test_build_frame_rejects_rank_deficient():
    with pytest.raises(fl.NotSpanning):
        fl.build_frame(2, [(1, 0), (2, 0)])
    with pytest.raises(fl.NotSpanning):
        fl.build_frame(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_frame_operator_plane(plane_frame):
    op = fl.frame_operator(plane_frame)
    assert_allclose(op, [[2, 1], [1, 2]], atol=1e-14)


def test_frame_operator_tight_is_scaled_identity(tight_frame):
    op = fl.frame_operator(tight_frame)
    assert_allclose(op, 3 * np.eye(2), atol=1e-14)
    assert_allclose([tight_frame.lower_bound, tight_frame.upper_bound], [3, 3], atol=1e-12)


def test_frame_operator_orthonormal_identity():
    frame = fl.build_frame(3, np.eye(3))
    assert_allclose(fl.frame_operator(frame), np.eye(3), atol=1e-14)


def test_canonical_dual_plane(plane_frame):
    pair = fl.canonical_dual(plane_frame)
    expected = np.array([[2 / 3, -1 / 3, 1 / 3], [-1 / 3, 2 / 3, 1 / 3]])
    assert_allclose(pair.dual, expected, atol=1e-12)


def test_canonical_dual_tight(tight_frame):
    pair = fl.canonical_dual(tight_frame)
    assert_allclose(pair.dual, tight_frame.matrix / 3.0, atol=1e-12)


def test_canonical_dual_orthonormal_is_self():
    frame = fl.build_frame(2, [(1, 0), (0, 1)])
    pair = fl.canonical_dual(frame)
    assert_allclose(pair.dual, frame.matrix, atol=1e-14)


def test_canonical_dual_is_computed_once(plane_frame):
    assert fl.canonical_dual(plane_frame) is fl.canonical_dual(plane_frame)
    assert not fl.canonical_dual(plane_frame).dual.flags.writeable
    assert fl.frame_operator(plane_frame) is fl.frame_operator(plane_frame)


def test_canonical_dual_ill_conditioned():
    frame = fl.build_frame(2, [(1, 0), (0, 1e-7)])
    with pytest.raises(fl.IllConditioned):
        fl.canonical_dual(frame)


@pytest.mark.parametrize("condition", [1e6, 1e8, 1e10, 1e11], ids=["1e6", "1e8", "1e10", "1e11"])
def test_canonical_dual_up_to_the_condition_limit(condition):
    # S^-1 F = U diag(1/s) W^H reconstructs to about eps (s_1 / s_n); solving
    # with S itself loses eps cond(S) and fails the identity from 1e6 on
    rng = np.random.default_rng(int(np.log10(condition)))
    for _ in range(20):
        frame = fl.Frame(conditioned_matrix(rng, 4, 9, condition**-0.5))
        assert frame.upper_bound / frame.lower_bound == pytest.approx(condition, rel=1e-6)
        dual = fl.canonical_dual(frame).dual
        residual = np.max(np.abs(dual @ frame.matrix.conj().T - np.eye(4)))
        assert residual <= fl.frames.DUAL_TOL


def test_verify_dual(plane_frame):
    pair = fl.canonical_dual(plane_frame)
    assert fl.verify_dual(plane_frame, pair.dual)
    assert not fl.verify_dual(plane_frame, plane_frame.matrix)
    basis_frame = fl.build_frame(2, [(1, 0), (0, 1)])
    assert fl.verify_dual(basis_frame, basis_frame.matrix)
    with pytest.raises(fl.ShapeMismatch):
        fl.verify_dual(plane_frame, basis_frame.matrix)


def test_cross_gram_values(plane_frame, tight_frame):
    plane_pair = fl.canonical_dual(plane_frame)
    assert_allclose(np.diagonal(plane_pair.cross_gram), [2 / 3, 2 / 3, 2 / 3], atol=1e-12)
    assert_allclose(np.trace(plane_pair.cross_gram), 2.0, atol=1e-12)
    tight_pair = fl.canonical_dual(tight_frame)
    assert_allclose(
        np.diagonal(tight_pair.cross_gram), [1 / 3, 1 / 3, 2 / 3, 2 / 3], atol=1e-12
    )
    basis = fl.build_frame(2, [(1, 0), (0, 1)])
    assert_allclose(fl.DualPair(basis, basis.matrix).cross_gram, np.eye(2), atol=1e-14)


@pytest.mark.parametrize(
    "vectors,expected_size",
    [([(1, 0), (0, 1), (1, 1)], 2), ([(1, 0), (0, 1)], 0), ([(1, 0), (0, 1), (1, 1), (1, -1)], 4)],
)
def test_perturbation_basis_size(vectors, expected_size):
    frame = fl.build_frame(2, vectors)
    v = fl.dual_perturbation_basis(frame)
    assert v.shape == (frame.count, frame.count - frame.dim)
    assert frame.dim * v.shape[1] == expected_size


def test_null_vectors_are_computed_once_and_read_only(plane_frame):
    v = fl.dual_perturbation_basis(plane_frame)
    assert fl.dual_perturbation_basis(plane_frame) is v
    with pytest.raises(ValueError):
        v[0, 0] = 1.0


def null_vector_frames():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        yield random_frame(rng, n, int(rng.integers(n, 2 * n + 3))), None
    for seed in range(12):
        for field in ("real", "complex"):
            matrix, _ = coloop_case(seed, field)
            # the square 2 x 2 block's two vectors are the coloops
            yield fl.Frame(matrix), seed


def test_null_vectors_span_the_null_space_orthonormally():
    for frame, seed in null_vector_frames():
        v = fl.dual_perturbation_basis(frame)
        assert np.max(np.abs(frame.matrix @ v), initial=0.0) <= 1e-10
        assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10)
        if seed is not None:
            # removing a coloop lowers the rank; its row of V is exactly 0
            coloops = [
                i for i in range(frame.count)
                if np.linalg.matrix_rank(np.delete(frame.matrix, i, axis=1)) < frame.dim
            ]
            assert len(coloops) >= 2, seed
            assert not np.any(v[coloops]), seed
            assert np.all(np.linalg.norm(np.delete(v, coloops, axis=0), axis=1) > 1e-6), seed


def test_components_survive_conditioning_near_the_limit():
    # F and U diag(sigma) W^H share W, so they share the row-space projector
    # P, the matroid and the spectral per-index values q_i P_ii; at
    # cond(S) = 10^11.8 the rounding of P across components exceeds RANK_TOL
    # for some frames (seed 35, real), so the cut grows with cond(F)
    for seed in range(40):
        for field in ("real", "complex"):
            matrix, probabilities = coloop_case(seed, field)
            frame = fl.Frame(matrix)
            u, _, wh = np.linalg.svd(matrix, full_matrices=False)
            scaled = fl.Frame((u * np.geomspace(1.0, 10**-5.9, frame.dim)) @ wh)
            assert scaled.upper_bound / scaled.lower_bound == pytest.approx(10**11.8)
            assert [c.tolist() for c in scaled._components] == [
                c.tolist() for c in frame._components
            ], (seed, field)
            assert np.array_equal(scaled._coloops, frame._coloops), (seed, field)
            profile = fl.weights_from_probabilities(probabilities, frame.dim)
            cert, partition = fl.canonical_spectral_one_certificate(frame, profile)
            scaled_cert, scaled_partition = fl.canonical_spectral_one_certificate(scaled, profile)
            assert scaled_cert.conclusion == cert.conclusion, (seed, field)
            assert scaled_partition.witness == partition.witness, (seed, field)


def test_frame_and_canonical_dual_take_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(23)
    pair = fl.canonical_dual(fl.Frame(rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))))
    assert len(calls) == 1
    assert fl.verify_dual(pair.frame, pair.dual)
    # the dual's singular values are the reciprocals of the frame's
    s = svd(pair.dual, compute_uv=False)
    assert_allclose(s[0] ** 2, 1.0 / pair.frame.lower_bound, rtol=1e-12)
    assert_allclose(s[-1] ** 2, 1.0 / pair.frame.upper_bound, rtol=1e-12)


def basis_perturbations(frame):
    """The perturbations ``dual_from_coefficients(frame, E) - canonical`` for
    the matrix units ``E`` in row-major order."""
    shape = coefficient_shape(frame)
    canonical = fl.canonical_dual(frame).dual
    units = np.eye(shape[0] * shape[1]).reshape(-1, *shape)
    return np.array([fl.dual_from_coefficients(frame, e).dual - canonical for e in units])


def test_perturbation_basis_annihilates_analysis(plane_frame):
    perturbations = basis_perturbations(plane_frame)
    assert len(perturbations) == 2
    for u in perturbations:
        residual = u @ plane_frame.matrix.conj().T
        assert np.max(np.abs(residual)) <= 1e-12


def test_perturbation_basis_orthonormal(tight_frame):
    flat = basis_perturbations(tight_frame).reshape(4, -1)
    assert_allclose(flat @ flat.conj().T, np.eye(4), atol=1e-12)


def test_dual_from_zero_coefficients_is_canonical(plane_frame):
    pair = fl.dual_from_coefficients(plane_frame, np.zeros((2, 1)))
    assert_allclose(pair.dual, fl.canonical_dual(plane_frame).dual, atol=1e-14)


def test_square_frame_has_an_empty_coefficient_matrix():
    frame = fl.build_frame(2, [(1, 0), (1, 1)])
    assert fl.dual_perturbation_basis(frame).shape == (2, 0)
    c, residual = fl.coefficients_for_perturbation(frame, np.zeros((2, 2)))
    assert c.shape == (2, 0) and residual == 0.0
    assert fl.dual_from_coefficients(frame, c) is fl.canonical_dual(frame)


def test_dual_from_coefficients_constant_column_perturbation(plane_frame):
    # adding (1/6, 1/6) to the first two dual vectors forces subtracting it
    # from the third; the result is a valid dual with the expected vectors
    pert = np.array([[1 / 6, 1 / 6, -1 / 6], [1 / 6, 1 / 6, -1 / 6]], dtype=complex)
    coeffs, residual = fl.coefficients_for_perturbation(plane_frame, pert)
    assert coeffs.shape == (2, 1)
    assert residual <= 1e-12
    pair = fl.dual_from_coefficients(plane_frame, coeffs)
    expected = np.array([[5 / 6, -1 / 6, 1 / 6], [-1 / 6, 5 / 6, 1 / 6]])
    assert_allclose(pair.dual, expected, atol=1e-12)
    assert fl.verify_dual(plane_frame, pair.dual)


def test_dual_from_coefficients_shape_mismatch(plane_frame):
    for shape in [(2,), (3,), (1, 2), (2, 2), (2, 1, 1)]:
        with pytest.raises(fl.ShapeMismatch):
            fl.dual_from_coefficients(plane_frame, np.zeros(shape))
    with pytest.raises(fl.ShapeMismatch):
        fl.coefficients_for_perturbation(plane_frame, np.zeros((3, 2)))


def test_random_coefficients_always_give_duals(plane_frame):
    rng = np.random.default_rng(7)
    shape = coefficient_shape(plane_frame)
    for _ in range(25):
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pair = fl.dual_from_coefficients(plane_frame, coeffs)
        assert fl.verify_dual(plane_frame, pair.dual)
        assert abs(np.trace(pair.cross_gram) - 2.0) <= 1e-10


def test_frame_bounds_sandwich_random_frames():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(n, 2 * n + 1))
        frame = random_frame(rng, n, count)
        for _ in range(10):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            energy = float(np.sum(np.abs(frame.matrix.conj().T @ v) ** 2))
            norm_sq = float(np.linalg.norm(v) ** 2)
            assert frame.lower_bound * norm_sq <= energy + 1e-9
            assert energy <= frame.upper_bound * norm_sq + 1e-9


def test_independent_dual_construction_lies_in_affine_span():
    # duals built from scipy's null space plus the pseudo-inverse must land
    # in canonical + span(basis)
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        count = int(rng.integers(n, 13))
        frame = random_frame(rng, n, count)
        canonical = fl.canonical_dual(frame).dual
        kernel = null_space(frame.matrix)  # columns v with F v = 0
        mix = rng.standard_normal((kernel.shape[1], n)) + 1j * rng.standard_normal(
            (kernel.shape[1], n)
        )
        dual_matrix = canonical + (kernel @ mix).conj().T if kernel.size else canonical
        assert fl.verify_dual(frame, dual_matrix)
        _, residual = fl.coefficients_for_perturbation(frame, dual_matrix - canonical)
        assert residual <= 1e-9


def test_parseval_squared_norms_sum_to_dim():
    rng = np.random.default_rng(5)
    from conftest import random_parseval_frame

    for _ in range(5):
        frame = random_parseval_frame(rng, 3, 7)
        assert frame.parseval_residual <= 1e-9
        assert abs(np.sum(np.abs(frame.matrix) ** 2) - 3.0) <= 1e-10
