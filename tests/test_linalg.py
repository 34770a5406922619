"""Factorization wrappers validated against reconstruction identities."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopmetrics.conjugacy import solve_permutation
from koopmetrics.linalg import (
    DiagonalizabilityError,
    as_matrix,
    eig,
    pinv,
    svd,
    unitarity_defect,
)

from conftest import random_unitary


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        np.testing.assert_allclose(res.S, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(res.U @ res.V.conj().T, np.eye(3), atol=1e-14)

    def test_diagonal_complex_sorted(self):
        res = svd(np.diag([3.0, 4.0j]))
        np.testing.assert_allclose(res.S, [4.0, 3.0], atol=1e-14)
        # phases absorbed into the singular vectors: both are diagonal-modulus
        np.testing.assert_allclose(np.abs(res.U), np.eye(2)[:, ::-1], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.V), np.eye(2)[:, ::-1], atol=1e-14)

    def test_random_reconstruction(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        res = svd(m)
        rebuilt = (res.U * res.S) @ res.V.conj().T
        assert np.linalg.norm(rebuilt - m) / np.linalg.norm(m) < 1e-10

    def test_orthonormal_factors(self, rng):
        m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        res = svd(m)
        assert unitarity_defect(res.U) < 1e-10
        assert unitarity_defect(res.V) < 1e-10
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
        dag = pinv(m, rtol=1e-10)
        np.testing.assert_allclose(np.diag(dag), [0.5, 0.0, 0.0], atol=1e-15)

    def test_rejects_nonpositive_rtol(self):
        with pytest.raises(ValueError, match="rtol"):
            pinv(np.eye(2), rtol=0.0)
