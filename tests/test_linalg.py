"""Factorization wrappers validated against reconstruction identities."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopmetrics.conjugacy import solve_permutation
from koopmetrics.linalg import (
    COMPLEX_BASIS,
    SQRT_HALF,
    DiagonalizabilityError,
    EigResult,
    as_matrix,
    conjugate_basis,
    eig,
    numerical_rank,
    pinv,
    svd,
    unitarity_defect,
)

from conftest import random_unitary


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        np.testing.assert_allclose(res.S, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(res.U @ res.Vh, np.eye(3), atol=1e-14)

    def test_diagonal_complex_sorted(self):
        res = svd(np.diag([3.0, 4.0j]))
        np.testing.assert_allclose(res.S, [4.0, 3.0], atol=1e-14)
        # phases absorbed into the singular vectors: both are diagonal-modulus
        np.testing.assert_allclose(np.abs(res.U), np.eye(2)[:, ::-1], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.Vh), np.eye(2)[:, ::-1], atol=1e-14)

    def test_random_reconstruction(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        res = svd(m)
        rebuilt = (res.U * res.S) @ res.Vh
        assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-10

    def test_orthonormal_factors(self, rng):
        m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        res = svd(m)
        assert unitarity_defect(res.U) < 1e-10
        assert unitarity_defect(res.Vh) < 1e-10
        assert np.all(np.diff(res.S) <= 0)

    def test_unitary_input_unit_singular_values(self, rng):
        q = random_unitary(rng, 7)
        res = svd(q)
        np.testing.assert_allclose(res.S, np.ones(7), atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_deterministic(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = svd(m), svd(m)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.S, b.S)


class TestEig:
    def test_diagonal(self):
        res = eig(np.diag([2.0, 3.0]))
        assert sorted(res.lambdas.real) == [2.0, 3.0]
        np.testing.assert_allclose(np.abs(res.R), np.eye(2), atol=1e-14)

    def test_rotation_generator_spectrum(self):
        res = eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = sorted(res.lambdas, key=lambda z: z.imag)
        np.testing.assert_allclose(got, [-1j, 1j], atol=1e-14)

    def test_random_residual(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        res = eig(m)
        residual = np.linalg.norm(m @ res.R - res.R * res.lambdas) / np.linalg.norm(m)
        assert residual < 1e-8

    def test_unit_norm_columns(self, rng):
        m = rng.standard_normal((5, 5))
        res = eig(m)
        np.testing.assert_allclose(np.linalg.norm(res.R, axis=0), np.ones(5), atol=1e-12)

    def test_defective_matrix_rejected(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DiagonalizabilityError):
            eig(jordan)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig(np.ones((2, 3)))


# Checks below allow 10 n eps cond_F(R): the rounding a backward-stable
# decomposition may commit, with a factor 10 of headroom.
EPS = np.finfo(float).eps
ROUNDING = 10 * EPS


def real_diagonalizable(seed, n_real, n_pairs):
    """Real K = S D S^-1: D holds n_real real eigenvalues and n_pairs 2x2
    rotation-scaling blocks (one conjugate pair each); S is real with
    singular values in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    n = n_real + 2 * n_pairs
    d = np.zeros((n, n))
    d[:n_real, :n_real] = np.diag(rng.uniform(-1.0, 1.0, n_real))
    for j in range(n_real, n, 2):
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0)
        d[j : j + 2, j : j + 2] = [[a, b], [-b, a]]
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q1 * rng.uniform(0.1, 10.0, n)) @ q2.T
    return s @ d @ np.linalg.inv(s)


real_systems = st.builds(
    real_diagonalizable,
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.integers(0, 4),
).filter(lambda k: k.shape[0] > 0)


class TestEigRealPath:
    """float64 input is decomposed by the real LAPACK routine."""

    def test_validator_keeps_float64_and_complexifies_the_rest(self):
        assert as_matrix(np.eye(2)).dtype == np.float64
        assert as_matrix([[1.0, 2.0]]).dtype == np.float64
        assert as_matrix(np.eye(2, dtype=int)).dtype == np.complex128
        assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.complex128
        assert as_matrix(np.eye(2, dtype=complex)).dtype == np.complex128

    def test_outputs_are_complex(self):
        res = eig(np.diag([2.0, 3.0]))
        for arr in (res.lambdas, res.R, res.W):
            assert arr.dtype == np.complex128

    @settings(max_examples=60, deadline=None)
    @given(real_systems)
    def test_spectrum_matches_complex_path(self, k):
        n = k.shape[0]
        real, cplx = eig(k), eig(k.astype(complex))
        tol = n * ROUNDING * max(real.condition_number, cplx.condition_number) * np.linalg.norm(k)
        pi = solve_permutation(real.lambdas, cplx.lambdas)
        assert np.abs(real.lambdas - cplx.lambdas[pi]).max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(real_systems)
    def test_w_is_a_left_eigenvector_matrix(self, k):
        n = k.shape[0]
        res = eig(k)
        residual = np.linalg.norm(res.W @ k - res.lambdas[:, None] * res.W)
        assert residual <= n * ROUNDING * res.condition_number * np.linalg.norm(k)
        identity_defect = np.linalg.norm(res.W @ res.R - np.eye(n))
        assert identity_defect <= n * ROUNDING * res.condition_number

    @settings(max_examples=60, deadline=None)
    @given(real_systems)
    def test_spectrum_closed_under_conjugation(self, k):
        res = eig(k)
        lam = res.lambdas
        np.testing.assert_array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))
        for j in np.flatnonzero(lam.imag > 0):
            partner = np.flatnonzero(lam == lam[j].conj())
            assert partner.size == 1
            np.testing.assert_array_equal(res.R[:, partner[0]], res.R[:, j].conj())

    @settings(max_examples=60, deadline=None)
    @given(real_systems)
    def test_frobenius_condition_brackets_two_norm_condition(self, k):
        n = k.shape[0]
        res = eig(k)
        cond2 = np.linalg.cond(res.R)
        slack = n * ROUNDING * res.condition_number
        assert cond2 * (1.0 - slack) <= res.condition_number
        assert res.condition_number <= n * cond2 * (1.0 + slack)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_singular_eigenvectors_are_a_diagonalizability_error(self, dtype):
        # LAPACK returns the eigenvectors [1, 0] and [-1, 0] for this
        # nilpotent block, so inverting R fails outright.
        nilpotent = np.array([[0.0, 1e50], [0.0, 0.0]], dtype=dtype)
        assert np.linalg.matrix_rank(np.linalg.eig(nilpotent)[1]) < 2
        with pytest.raises(DiagonalizabilityError, match="singular"):
            eig(nilpotent)


class TestPinv:
    def test_matches_inverse(self, rng):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(pinv(m), np.linalg.inv(m), atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_rank_one_penrose_identities(self):
        v = np.array([1.0, 2.0 + 1j, -0.5])
        m = np.outer(v, v.conj())
        dag = pinv(m)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ dag @ m - m) / scale < 1e-8
        assert np.linalg.norm(dag @ m @ dag - dag) / np.linalg.norm(dag) < 1e-8
        assert np.linalg.norm((m @ dag).conj().T - m @ dag) / 1.0 < 1e-8
        assert np.linalg.norm((dag @ m).conj().T - dag @ m) / 1.0 < 1e-8

    def test_diagonal_reciprocal_with_cutoff(self):
        m = np.diag([2.0, 1e-14, 0.0])
        dag = pinv(m)
        np.testing.assert_allclose(np.diag(dag), [0.5, 0.0, 0.0], atol=1e-15)


larger_real_systems = st.builds(
    real_diagonalizable,
    st.integers(0, 2**32 - 1),
    st.integers(0, 10),
    st.integers(2, 10),
)


class TestEigResultBasis:
    """EigResult works out its basis from lambdas and the dtype of W_b."""

    def test_real_w_over_a_closed_spectrum_gives_the_real_basis(self, rng):
        lam = np.array([0.5, 0.3 + 0.4j, 0.3 - 0.4j, -0.2])
        res = EigResult(lambdas=lam, W_b=rng.standard_normal((4, 4)) + 4 * np.eye(4),
                        condition_number=1.0)
        assert res.basis.is_real
        assert res.basis.pairs.tolist() == [1] and res.basis.lone.tolist() == [0, 3]

    def test_real_w_over_an_open_spectrum_is_rejected(self):
        with pytest.raises(ValueError, match="not closed under conjugation"):
            EigResult(lambdas=np.array([0.5, 0.3 + 0.4j]), W_b=np.eye(2), condition_number=1.0)

    def test_complex_w_gives_the_complex_basis(self):
        # The spectrum is closed, but a complex W_b is W itself.
        lam = np.array([0.3 + 0.4j, 0.3 - 0.4j])
        res = EigResult(lambdas=lam, W_b=np.eye(2, dtype=complex), condition_number=1.0)
        assert res.basis is COMPLEX_BASIS
        # Nothing passes a basis in: it is no argument of the constructor.
        assert [f.name for f in dataclasses.fields(EigResult) if not f.init] == ["basis"]

    def test_lambdas_are_held_complex(self):
        res = EigResult(lambdas=np.array([0.5, 2.0]), W_b=np.eye(2), condition_number=1.0)
        assert res.lambdas.dtype == np.complex128 and not res.lambdas.flags.writeable
        np.testing.assert_array_equal(res.lambdas, [0.5, 2.0])
        assert res.basis.is_real and res.basis.lone.tolist() == [0, 1]


def dense_q(basis, n):
    """The unitary Q of a real canonical basis as a dense matrix."""
    q = np.zeros((n, n), dtype=complex)
    q[basis.lone, basis.lone] = 1.0
    j, k = basis.pairs, basis.pairs + 1
    q[j, j] = q[j, k] = SQRT_HALF
    q[k, j], q[k, k] = 1j * SQRT_HALF, -1j * SQRT_HALF
    return q


class TestRealCanonicalBasis:
    """Real spectra: eig inverts in the real canonical basis, whose maps are Q."""

    @settings(max_examples=60, deadline=None)
    @given(larger_real_systems)
    def test_eig_gives_conjugate_rows_within_the_gates(self, k):
        n = k.shape[0]
        res = eig(k)
        basis = conjugate_basis(res.lambdas, res.W, res.R.T)
        assert basis.is_real
        j = basis.pairs
        np.testing.assert_array_equal(res.W[j + 1], res.W[j].conj())
        assert not np.any(res.W[basis.lone].imag)
        residual = np.linalg.norm(res.W @ k - res.lambdas[:, None] * res.W)
        assert residual <= n * ROUNDING * res.condition_number * np.linalg.norm(k)
        identity_defect = np.linalg.norm(res.W @ res.R - np.eye(n))
        assert identity_defect <= n * ROUNDING * res.condition_number

    @settings(max_examples=60, deadline=None)
    @given(larger_real_systems, st.integers(0, 2**32 - 1))
    def test_maps_are_q_and_round_trip(self, k, seed):
        n = k.shape[0]
        res = eig(k)
        basis = conjugate_basis(res.lambdas, res.W, res.R.T)
        q = dense_q(basis, n)
        w_b, r_b = basis.rows_in(res.W), basis.cols_in(res.R)
        assert w_b.dtype == r_b.dtype == np.float64
        for got, want in ((w_b, q @ res.W), (r_b, res.R @ q.conj().T)):
            assert np.linalg.norm(got - want) <= ROUNDING * np.linalg.norm(want)
        for got, want in ((basis.rows_out(w_b), res.W), (basis.cols_out(r_b), res.R)):
            assert np.linalg.norm(got - want) <= ROUNDING * np.linalg.norm(want)
        # Unstructured complex arrays and diagonals go through the same Q.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3 * n)) + 1j * rng.standard_normal((n, 3 * n))
        y = rng.standard_normal((n, n))
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cols = rng.permutation(n)
        block = q @ np.diag(d) @ q.conj().T
        for got, want in (
            (basis.rows_in(x), q @ x),
            (basis.rows_out(y), q.conj().T @ y),
            (basis.cols_in(x.T), x.T @ q.conj().T),
            (basis.cols_out(y), y @ q),
            (basis.cols_out_at(y, cols), (y @ q)[np.arange(n), cols]),
            (basis.scale_rows(d, y), block @ y),
            (basis.scale_cols(y, d), y @ block),
            (basis.diag(d), block),
        ):
            assert np.linalg.norm(got - want) <= n * ROUNDING * np.linalg.norm(want)
        # A spectrum closed under conjugation gives real blocks [[a, b], [-b, a]].
        lam_block = basis.diag(res.lambdas)
        assert lam_block.dtype == np.float64
        a, b = res.lambdas[basis.pairs].real, res.lambdas[basis.pairs].imag
        np.testing.assert_array_equal(lam_block[basis.pairs, basis.pairs], a)
        np.testing.assert_array_equal(lam_block[basis.pairs, basis.pairs + 1], b)
        np.testing.assert_array_equal(lam_block[basis.pairs + 1, basis.pairs], -b)

    def test_complex_and_broken_structure_keep_the_identity(self, rng):
        k = real_diagonalizable(3, 2, 3)
        res = eig(k)
        assert conjugate_basis(res.lambdas, res.W).is_real
        assert conjugate_basis(res.lambdas.astype(complex) * 1j) is COMPLEX_BASIS
        j = conjugate_basis(res.lambdas).pairs[0]
        # A pair whose partner is not its neighbour.
        apart = np.r_[j, np.delete(np.arange(k.shape[0]), [j, j + 1]), j + 1]
        assert conjugate_basis(res.lambdas[apart], res.W[apart]) is COMPLEX_BASIS
        w = res.W.copy()
        w[j + 1, 0] = complex(np.nextafter(w[j + 1, 0].real, np.inf), w[j + 1, 0].imag)
        assert conjugate_basis(res.lambdas, w) is COMPLEX_BASIS
        x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        for mapped in (COMPLEX_BASIS.rows_in(x), COMPLEX_BASIS.cols_out(x)):
            assert mapped is x

    def test_numerical_rank_matches_pinv(self):
        s = np.array([2.0, 1.0, 1e-11, 0.0])
        assert numerical_rank(s) == 2
        assert numerical_rank(np.zeros(3)) == 0
        assert pinv(np.diag(s), return_rank=True)[1] == 2
