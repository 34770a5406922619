"""Residuals, corner solvers, rectangle geometry, and the full comparison."""
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koopmetrics import conjugacy
from koopmetrics.benchmark import BenchmarkParams, benchmark_system
from koopmetrics.conjugacy import (
    ContractViolationError,
    ParetoCorners,
    _assignment,
    compare,
    compare_prepared,
    lsq_transform,
    mean_corner_distance,
    pareto_deviations,
    permutation_matrix,
    prepare,
    recover_t,
    residual_r1,
    residual_r2,
    solve_c_r1,
    solve_c_r2,
    solve_gamma,
    solve_permutation,
    solve_prepared,
)
from koopmetrics.koopman import eigenfunction_trajectories, reconstruct_observables
from koopmetrics.linalg import conjugate_basis, numerical_rank, pinv, svd, unitarity_defect

from conftest import (
    lifted_system,
    model_of,
    random_diagonalizable,
    random_system,
    random_unitary,
    random_well_conditioned,
    raw_observables,
    real_system,
)


def dense_t(c, model_f, model_g, t_lsq):
    """Reference T_C = R_g Omega^-1 C W_f, Omega^-1 = Diag(M C*) with M = W_g T_LSQ R_f
    formed densely in complex arithmetic, entries below OMEGA_ZERO_TOL set to 1."""
    omega_inv = np.einsum("ij,ij->i", model_g.W @ t_lsq @ model_f.R, np.conj(c))
    omega_inv[np.abs(omega_inv) < conjugacy.OMEGA_ZERO_TOL] = 1.0
    return recover_t(c, model_f, model_g, omega_inv)


def random_phi(rng, n, m):
    phi = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return phi / np.max(np.abs(phi), axis=1, keepdims=True)


class TestResiduals:
    def test_r1_zero_cases(self, rng):
        phi = random_phi(rng, 4, 9)
        assert residual_r1(phi, phi, np.eye(4)) == 0.0
        q = random_unitary(rng, 4)
        assert residual_r1(phi, q @ phi, q) < 1e-12

    def test_r1_matches_elementwise_sum(self, rng):
        pf, pg = random_phi(rng, 3, 7), random_phi(rng, 3, 7)
        c = random_unitary(rng, 3)
        direct = np.sqrt(np.sum(np.abs(pg - c @ pf) ** 2))
        assert residual_r1(pf, pg, c) == pytest.approx(direct, rel=1e-13)

    def test_r2_zero_cases(self):
        lam = np.array([1.0, 2.0])
        assert residual_r2(lam, lam, np.eye(2)) < 1e-14
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert residual_r2([1.0, 2.0], [2.0, 1.0], swap) < 1e-14

    def test_r2_matches_direct_evaluation(self, rng):
        lf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lg = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = random_unitary(rng, 4)
        direct = np.linalg.norm(np.diag(lf) - c.conj().T @ np.diag(lg) @ c)
        assert residual_r2(lf, lg, c) == pytest.approx(direct, rel=1e-13)

    def test_r2_rejects_nonunitary(self):
        with pytest.raises(ContractViolationError, match="unitary"):
            residual_r2([1.0], [1.0], np.array([[2.0]]))


class TestSolveCr1:
    def test_identity_for_identical_full_rank(self, rng):
        phi = random_phi(rng, 4, 10)
        np.testing.assert_allclose(solve_c_r1(phi, phi), np.eye(4), atol=1e-10)

    def test_exact_alignment_recovered(self, rng):
        phi = random_phi(rng, 5, 12)
        q = random_unitary(rng, 5)
        c = solve_c_r1(phi, q @ phi)
        assert residual_r1(phi, q @ phi, c) < 1e-9
        assert unitarity_defect(c) < 1e-10

    def test_beats_random_unitaries(self, rng):
        pf, pg = random_phi(rng, 4, 8), random_phi(rng, 4, 8)
        best = residual_r1(pf, pg, solve_c_r1(pf, pg))
        for _ in range(200):
            assert best <= residual_r1(pf, pg, random_unitary(rng, 4)) + 1e-12


class TestSolvePermutation:
    def test_swap(self):
        pi = solve_permutation([1.0, 2.0j], [2.0j, 1.0])
        np.testing.assert_array_equal(pi, [1, 0])

    def test_identity_on_equal_spectra(self, rng):
        lam = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        np.testing.assert_array_equal(solve_permutation(lam, lam), np.arange(6))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_brute_force(self, rng, n):
        for _ in range(5):
            lf = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lg = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pi = solve_permutation(lf, lg)
            best = min(
                matching_cost(lf, lg, list(p))
                for p in itertools.permutations(range(n))
            )
            assert matching_cost(lf, lg, pi) == pytest.approx(best, abs=1e-12)


def matching_cost(lambdas_f, lambdas_g, permutation) -> float:
    """sum |lambda_f[i] - lambda_g[pi[i]]|^2, the cost that solve_permutation minimizes."""
    lf, lg = (np.asarray(lam, dtype=complex) for lam in (lambdas_f, lambdas_g))
    return float(np.sum(np.abs(lf - lg[np.asarray(permutation)]) ** 2))


def reference_assignment(cost):
    """The eager-dual assignment solver this package shipped first, kept verbatim."""
    n = cost.shape[0]
    # 1-based columns; column 0 is the virtual root of each augmenting path.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    assigned_row = np.zeros(n + 1, dtype=int)
    parent = np.zeros(n + 1, dtype=int)
    padded = np.empty((n + 1, n + 1))
    padded[1:, 1:] = cost
    for i in range(1, n + 1):
        assigned_row[0] = i
        j0 = 0
        min_reduced = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = assigned_row[j0]
            free = ~used
            free[0] = False
            reduced = padded[i0, free] - u[i0] - v[free]
            idx = np.flatnonzero(free)
            better = reduced < min_reduced[idx]
            if np.any(better):
                upd = idx[better]
                min_reduced[upd] = reduced[better]
                parent[upd] = j0
            pos = int(np.argmin(min_reduced[idx]))
            delta = min_reduced[idx][pos]
            j1 = int(idx[pos])
            u[assigned_row[used]] += delta
            v[used] -= delta
            min_reduced[~used] -= delta
            j0 = j1
            if assigned_row[j0] == 0:
                break
        while j0 != 0:
            j1 = parent[j0]
            assigned_row[j0] = assigned_row[j1]
            j0 = j1
    match = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        match[assigned_row[j] - 1] = j - 1
    return match


def random_spectrum(rng, n):
    return rng.uniform(0.3, 0.98, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def squared_distances(lf, lg):
    return np.abs(lf[:, None] - lg[None, :]) ** 2


class TestAssignmentMatchesReference:
    """Same permutation as the reference, ties included, not just the same cost."""

    @pytest.mark.parametrize("n", [50, 300])
    def test_random_spectra(self, rng, n):
        cost = squared_distances(random_spectrum(rng, n), random_spectrum(rng, n))
        np.testing.assert_array_equal(_assignment(cost), reference_assignment(cost))

    def test_integer_tie_heavy_costs(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 10))
            cost = rng.integers(0, 4, (n, n)).astype(float)
            np.testing.assert_array_equal(_assignment(cost), reference_assignment(cost))

    def test_conjugate_pair_and_repeated_spectra(self, rng):
        for trial in range(300):
            half = random_spectrum(rng, int(rng.integers(1, 6)))
            if trial % 3 == 0:  # dyadic grid: every sum in the solver is exact
                half = np.round(8 * half.real) / 8 + 1j * np.round(8 * half.imag) / 8
            lf = np.concatenate([half, half.conj(), half[:1], half[:1]])
            lg = rng.permutation(lf)
            if trial % 3 == 1:
                lg = lg + 1e-3 * rng.standard_normal(lg.shape)
            cost = squared_distances(lf, lg)
            np.testing.assert_array_equal(_assignment(cost), reference_assignment(cost))

    def test_optimal_cost_against_scipy(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        costs = [squared_distances(random_spectrum(rng, 300), random_spectrum(rng, 300))]
        costs += [rng.integers(0, 4, (9, 9)).astype(float) for _ in range(50)]
        for cost in costs:
            rows, cols = optimize.linear_sum_assignment(cost)
            ours = cost[np.arange(cost.shape[0]), _assignment(cost)].sum()
            assert ours == pytest.approx(cost[rows, cols].sum(), rel=1e-12, abs=1e-12)


class TestSolveGamma:
    def test_identity_when_rows_match(self, rng):
        phi = random_phi(rng, 4, 9)
        pi = np.array([2, 0, 3, 1])
        pg = permutation_matrix(pi) @ phi
        np.testing.assert_allclose(solve_gamma(phi, pg, pi), np.ones(4), atol=1e-10)

    def test_uniform_phase(self, rng):
        phi = random_phi(rng, 3, 8)
        pi = np.array([1, 2, 0])
        pg = np.exp(1j * np.pi / 3) * (permutation_matrix(pi) @ phi)
        np.testing.assert_allclose(
            solve_gamma(phi, pg, pi), np.exp(1j * np.pi / 3) * np.ones(3), atol=1e-10
        )

    def test_is_phase_of_matched_row_inner_products(self, rng):
        pf, pg = random_phi(rng, 4, 9), random_phi(rng, 4, 9)
        pi = np.array([2, 0, 3, 1])
        gamma = solve_gamma(pf, pg, pi)
        inner = np.array([np.vdot(pf[i], pg[pi[i]]) for i in range(4)])
        np.testing.assert_allclose(gamma[pi], inner / np.abs(inner), atol=1e-14)
        # Each gamma_k minimizes its row of ||Phi_g - Gamma P Phi_f||: no
        # other phase on the unit circle does better.
        aligned = permutation_matrix(pi) @ pf
        for k in range(4):
            best = np.linalg.norm(pg[k] - gamma[k] * aligned[k])
            for phase in np.exp(2j * np.pi * np.linspace(0, 1, 64)):
                assert best <= np.linalg.norm(pg[k] - phase * aligned[k]) + 1e-12

    def test_row_orthogonal_to_rounding_gets_unit_phase(self, rng):
        # Row 1 pairs a with b, whose products cancel in pairs, plus a tenth of
        # the inner product's rounding bound T eps ||a|| ||b|| along a. At
        # norms near 1e4 that is far above any fixed 1e-14, and still no phase.
        pf, pg = 1e3 * random_phi(rng, 3, 40), 1e3 * random_phi(rng, 3, 40)
        a = 1e3 * rng.standard_normal(40)
        b = np.empty(40)
        b[0::2], b[1::2] = a[1::2], -a[0::2]
        bound = 40 * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)
        pf[1], pg[1] = a, b + 0.1 * bound / (a @ a) * a
        assert 1e-14 < abs(np.vdot(pf[1], pg[1])) <= 0.2 * bound
        gamma = solve_gamma(pf, pg, np.arange(3))
        assert gamma[1] == 1.0
        assert gamma[0] != 1.0 and gamma[2] != 1.0


class TestSolveCr2:
    def test_identical_systems(self, rng):
        phi = random_phi(rng, 4, 9)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c, pi, gamma = solve_c_r2(phi, phi, lam, lam)
        assert residual_r1(phi, phi, c) < 1e-9
        assert residual_r2(lam, lam, c) < 1e-9

    def test_conjugate_benchmark_pair(self):
        from koopmetrics.benchmark import BenchmarkParams, benchmark_system

        p = BenchmarkParams(steps=300)
        model_f, phi_f = benchmark_system(p, "f")
        model_g, phi_g = benchmark_system(p, "g")
        c, _, _ = solve_c_r2(phi_f.phi, phi_g.phi, model_f.lambdas, model_g.lambdas)
        assert residual_r2(model_f.lambdas, model_g.lambdas, c) < 1e-9
        assert residual_r1(phi_f.phi, phi_g.phi, c) < 1e-8

    def test_r2_equals_sqrt_assignment_cost(self, rng):
        phi_f, phi_g = random_phi(rng, 5, 11), random_phi(rng, 5, 11)
        lf = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lg = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c, pi, _ = solve_c_r2(phi_f, phi_g, lf, lg)
        assert residual_r2(lf, lg, c) == pytest.approx(
            np.sqrt(matching_cost(lf, lg, pi)), abs=1e-10
        )

    def test_r2_invariant_to_any_unit_diagonal(self, rng):
        phi_f, phi_g = random_phi(rng, 4, 9), random_phi(rng, 4, 9)
        lf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lg = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c, pi, gamma = solve_c_r2(phi_f, phi_g, lf, lg)
        base = residual_r2(lf, lg, c)
        for _ in range(20):
            other = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            c_other = other[:, None] * permutation_matrix(pi)
            assert residual_r2(lf, lg, c_other) == pytest.approx(base, abs=1e-10)

    def test_gamma_never_hurts_r1(self, rng):
        phi_f, phi_g = random_phi(rng, 4, 9), random_phi(rng, 4, 9)
        lf = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lg = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c, pi, _ = solve_c_r2(phi_f, phi_g, lf, lg)
        plain = permutation_matrix(pi).astype(complex)
        assert residual_r1(phi_f, phi_g, c) <= residual_r1(phi_f, phi_g, plain) + 1e-9


class TestMeanCornerDistance:
    def test_zero(self):
        assert mean_corner_distance(0.0, 0.0) == 0.0

    def test_unit_square_value(self):
        # frozen from a 1e7-sample Monte Carlo of the corner rectangle mean
        assert mean_corner_distance(2.0, 2.0) == pytest.approx(0.7652, abs=1e-4)

    def test_asymmetric_value_vs_frozen_monte_carlo(self):
        # 1e7 uniform samples on [0, 0.5] x [0, 1.5] gave 0.82313 (3 sigma ~ 3e-4)
        assert mean_corner_distance(1.0, 3.0) == pytest.approx(0.82313, abs=3e-4)

    def test_segment_limits(self):
        assert mean_corner_distance(4.0, 0.0) == pytest.approx(1.0)
        assert mean_corner_distance(0.0, 4.0) == pytest.approx(1.0)
        assert mean_corner_distance(4.0, 1e-15) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mean_corner_distance(-1.0, 1.0)


def corners_from(r1c1, r2c1, r1c2, r2c2):
    eye = np.eye(2)
    return ParetoCorners(
        c_r1=eye, permutation=np.arange(2), gamma=np.ones(2),
        r1_at_cr1=r1c1, r2_at_cr1=r2c1, r1_at_cr2=r1c2, r2_at_cr2=r2c2,
    )


class TestParetoDeviations:
    def test_degenerate_point(self):
        devs = pareto_deviations(corners_from(0.55, 0.20, 0.55, 0.20))
        expected = np.hypot(0.55, 0.20)
        assert devs.d_min == pytest.approx(expected, abs=1e-12)
        assert devs.d_avg == pytest.approx(expected, abs=1e-12)
        assert devs.d_max == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.585, abs=5e-4)

    def test_published_style_rectangle(self):
        r2_c1 = np.sqrt(1.31**2 - 1.28**2)
        devs = pareto_deviations(corners_from(1.03, r2_c1, 1.28, 0.20))
        assert devs.d_min == pytest.approx(1.05, abs=5e-3)
        assert devs.d_max == pytest.approx(1.31, abs=5e-3)
        assert devs.d_min <= devs.d_avg <= devs.d_max

    def test_monte_carlo_oracle(self, rng):
        for _ in range(5):
            a_lo = rng.uniform(0.1, 1.0)
            a_hi = a_lo + rng.uniform(0.05, 1.0)
            b_lo = rng.uniform(0.1, 1.0)
            b_hi = b_lo + rng.uniform(0.05, 1.0)
            devs = pareto_deviations(corners_from(a_lo, b_hi, a_hi, b_lo))
            xs = rng.uniform(a_lo, a_hi, 10**6)
            ys = rng.uniform(b_lo, b_hi, 10**6)
            mc = np.hypot(xs, ys).mean()
            assert abs(devs.d_avg - mc) / mc < 5e-3

    def test_segment_degenerate_width(self, rng):
        devs = pareto_deviations(corners_from(0.8, 0.9, 0.8, 0.3))
        ys = rng.uniform(0.3, 0.9, 10**6)
        assert devs.d_avg == pytest.approx(np.hypot(0.8, ys).mean(), rel=1e-3)

    def test_dominance_violation_rejected(self):
        with pytest.raises(ContractViolationError, match="dominance"):
            pareto_deviations(corners_from(1.0, 0.2, 0.5, 0.1))

    def test_order_exact_when_rounding_inverts_corners(self):
        # r1(C_r1) a hair above r1(C_r2): the clamp must also reach d_max.
        devs = pareto_deviations(corners_from(0.5 + 1e-13, 0.3, 0.5, 0.3))
        assert devs.d_min <= devs.d_avg <= devs.d_max

    @pytest.mark.parametrize(
        "a_lo, a_hi, b_lo, b_hi, exact",
        [
            # analytic sweep corners at (alpha, beta) = (0.85, 1.65), x0 = (1.1, 0.4)
            (0.7982100141574158, 0.7982781627579584, 0.6351804284607934,
             0.6355231777135698, 1.020228182607661065011),
            # thin and far from the origin
            (3.0, 3.0 + 3e-6, 4.0, 4.0 + 2e-5, 5.000008900003552035658),
            # thin and near the origin
            (0.001, 0.001 + 1e-6, 0.002, 0.7, 0.3510041792685038417463),
            # touching the origin
            (0.0, 0.3, 0.0, 0.7, 0.4011527217581680774491),
        ],
    )
    def test_d_avg_matches_mpmath(self, a_lo, a_hi, b_lo, b_hi, exact):
        # exact: mpmath 1.3.0 at 50 digits, where the four-corner closed form
        # and mp.quad over the rectangle agree to every digit shown.
        devs = pareto_deviations(corners_from(a_lo, b_hi, a_hi, b_lo))
        assert devs.d_avg == pytest.approx(exact, rel=1e-15)

    def test_ordering_always_holds(self, rng):
        for _ in range(50):
            a_lo, b_lo = rng.uniform(0.0, 1.0, 2)
            a_hi = a_lo + rng.uniform(0.0, 1.0)
            b_hi = b_lo + rng.uniform(0.0, 1.0)
            devs = pareto_deviations(corners_from(a_lo, b_hi, a_hi, b_lo))
            assert devs.d_min <= devs.d_avg + 1e-9
            assert devs.d_avg <= devs.d_max + 1e-9


class TestCompare:
    def test_self_comparison_is_zero(self, rng):
        model, phi = random_system(rng, 4, 20)
        report = compare(model, phi, model, phi)
        assert report.deviations.d_max < 1e-9

    def test_self_comparison_t_c_r2_operator_residual_is_exactly_zero(self, rng):
        # C_r2 matches every eigenvalue with itself: the bracket
        # diag(lambda_f - lambda_g[pi]) is exactly zero.
        model, phi = random_system(rng, 6, 20)
        report = compare(model, phi, model, phi)
        assert report.psi_residuals["T_C_r2"][0] == 0.0

    def test_zero_at_conjugacy_random_similarity(self, rng):
        for _ in range(3):
            n = int(rng.integers(3, 7))
            k = random_diagonalizable(rng, n)
            psi = rng.standard_normal((n, 30)) + 1j * rng.standard_normal((n, 30))
            s = random_well_conditioned(rng, n)
            model_f, phi_f = lifted_system(k, psi)
            model_g, phi_g = lifted_system(s @ k @ np.linalg.inv(s), s @ psi)
            report = compare(model_f, phi_f, model_g, phi_g)
            assert report.deviations.d_max < 1e-8

    def test_dmin_symmetric_under_swap(self, rng):
        model_a, phi_a = random_system(rng, 5, 25)
        model_b, phi_b = random_system(rng, 5, 25)
        fwd = compare(model_a, phi_a, model_b, phi_b)
        rev = compare(model_b, phi_b, model_a, phi_a)
        assert fwd.deviations.d_min == pytest.approx(rev.deviations.d_min, abs=1e-8)
        assert fwd.corners.r1_at_cr1 == pytest.approx(rev.corners.r1_at_cr1, abs=1e-8)
        assert fwd.corners.r2_at_cr2 == pytest.approx(rev.corners.r2_at_cr2, abs=1e-8)

    @pytest.mark.parametrize("make", [random_system, real_system])
    def test_self_comparison_gamma_is_exactly_one(self, rng, make):
        # Each matched row pairs with itself: <Phi[k], Phi[k]> is real and
        # positive, so its phase is exactly 1.
        model, phi = make(rng, 8, 30)
        report = compare(model, phi, model, phi)
        np.testing.assert_array_equal(report.corners.permutation, np.arange(8))
        np.testing.assert_array_equal(report.corners.gamma, np.ones(8))
        assert report.diagnostics.unitarity_defects["C_r2"] == 0.0

    def test_permutation_invariance(self, rng):
        model_a, phi_a = random_system(rng, 4, 18)
        model_b, phi_b = random_system(rng, 4, 18)
        base = compare(model_a, phi_a, model_b, phi_b).deviations

        perm = rng.permutation(4)
        shuffled = model_of(model_b.lambdas[perm], model_b.W[perm])
        phi_shuffled = type(phi_b)(
            phi=phi_b.phi[perm], scales=phi_b.scales[perm], psi=phi_b.psi, degenerate_rows=()
        )
        out = compare(model_a, phi_a, shuffled, phi_shuffled).deviations
        assert out.d_min == pytest.approx(base.d_min, abs=1e-9)
        assert out.d_avg == pytest.approx(base.d_avg, abs=1e-9)
        assert out.d_max == pytest.approx(base.d_max, abs=1e-9)

    def test_normalization_scales_residuals(self, rng):
        model_a, phi_a = random_system(rng, 4, 16)
        model_b, phi_b = random_system(rng, 4, 16)
        raw = compare(model_a, phi_a, model_b, phi_b, "none")
        scaled = compare(model_a, phi_a, model_b, phi_b, "f")
        phi_norm, lam_norm = scaled.ref_norms
        assert phi_norm == pytest.approx(np.linalg.norm(phi_a.phi))
        assert lam_norm == pytest.approx(np.linalg.norm(model_a.lambdas))
        assert scaled.corners.r1_at_cr1 == pytest.approx(
            raw.corners.r1_at_cr1 / phi_norm, rel=1e-12
        )
        assert scaled.corners.r2_at_cr2 == pytest.approx(
            raw.corners.r2_at_cr2 / lam_norm, rel=1e-12
        )

    def test_deviations_reproduce_from_raw_corners(self, rng):
        model_a, phi_a = random_system(rng, 5, 22)
        model_b, phi_b = random_system(rng, 5, 22)
        report = compare(model_a, phi_a, model_b, phi_b, "none")
        assert unitarity_defect(report.corners.c_r1) < 1e-10
        assert unitarity_defect(report.corners.c_r2) < 1e-10
        rebuilt = pareto_deviations(report.corners)
        assert rebuilt.d_min == pytest.approx(report.deviations.d_min, abs=1e-12)
        assert rebuilt.d_avg == pytest.approx(report.deviations.d_avg, abs=1e-12)
        assert rebuilt.d_max == pytest.approx(report.deviations.d_max, abs=1e-12)

    def test_triangle_inequality_sampled(self, rng):
        for _ in range(5):
            systems = [random_system(rng, 4, 20) for _ in range(3)]
            d = {}
            for i, j in ((0, 1), (0, 2), (2, 1)):
                rep = compare(*systems[i], *systems[j])
                d[i, j] = rep.deviations
            for attr in ("d_min", "d_avg", "d_max"):
                ab = getattr(d[0, 1], attr)
                ac = getattr(d[0, 2], attr)
                cb = getattr(d[2, 1], attr)
                assert ab <= ac + cb + 1e-8

    @pytest.mark.parametrize("n_steps", [4, 20])
    def test_procrustes_rank_and_smallest_kept_singular_value(self, rng, n_steps):
        model_a, phi_a = random_system(rng, 8, n_steps)
        model_b, phi_b = random_system(rng, 8, n_steps)
        diag = compare(model_a, phi_a, model_b, phi_b).diagnostics
        s = svd(phi_b.phi @ phi_a.phi.conj().T).S
        rank = numerical_rank(s)
        assert diag.procrustes_rank == rank == min(8, n_steps)
        assert diag.procrustes_sigma_min == s[rank - 1]

    def test_bare_phi_arrays_rejected(self, rng):
        # A bare array does not carry the Psi it was mapped from.
        model_a, phi_a = random_system(rng, 4, 20)
        model_b, phi_b = random_system(rng, 4, 20)
        with pytest.raises(TypeError, match="EigenfunctionTrajectory"):
            compare(model_a, phi_a.phi, model_b, phi_b)
        with pytest.raises(TypeError, match="EigenfunctionTrajectory"):
            compare(model_a, phi_a, model_b, phi_b.phi)

    @pytest.mark.parametrize("make", [random_system, real_system])
    def test_t_lsq_fits_the_carried_psi(self, rng, make):
        # The T_LSQ fit is that of Psi_g pinv(Psi_f) on the observables that
        # were mapped, bit for bit: no Psi is rebuilt from Phi.
        (model_f, phi_f), (model_g, phi_g) = make(rng, 6, 20), make(rng, 6, 20)
        report = compare(model_f, phi_f, model_g, phi_g)
        t_lsq = lsq_transform(phi_f.psi, phi_g.psi)
        assert report.psi_residuals["T_LSQ"][1] == np.linalg.norm(phi_g.psi - t_lsq @ phi_f.psi)

    def test_report_holds_no_observable_space_transform(self, rng):
        # Of the n x n arrays compare forms, the report keeps only C_r1;
        # T_C and T_LSQ are built on request (lsq_transform, recover_t).
        (model_f, phi_f), (model_g, phi_g) = random_system(rng, 200, 250), random_system(rng, 200, 250)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = compare(model_f, phi_f, model_g, phi_g)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= report.corners.c_r1.nbytes + 256 * 1024

    def test_dimension_mismatch_rejected(self, rng):
        model_a, phi_a = random_system(rng, 4, 20)
        model_b, phi_b = random_system(rng, 5, 20)
        with pytest.raises(ValueError, match="dimensions"):
            compare(model_a, phi_a, model_b, phi_b)
        # A trajectory of another model's size is rejected when it is prepared.
        with pytest.raises(ValueError, match="5 rows for 4 eigenvalues"):
            compare(model_a, phi_b, model_b, phi_b)


class TestRowWisePhaseCorner:
    """C_r2 = Gamma P with Gamma the exact row-wise phase."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 14),
        n_steps=st.integers(1, 40),
        make=st.sampled_from([random_system, real_system]),
    )
    def test_r1_never_above_pinv_diagonal_phase(self, seed, n, n_steps, make):
        rng = np.random.default_rng(seed)
        (model_f, phi_f), (model_g, phi_g) = make(rng, n, n_steps), make(rng, n, n_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            corners = compare(model_f, phi_f, model_g, phi_g, "none").corners
        # The former gamma: the unit-modulus part of diag(Phi_g pinv(P Phi_f)).
        pf, pg = phi_f.phi, phi_g.phi
        aligned = pf[np.argsort(corners.permutation)]
        old = np.exp(1j * np.angle(np.einsum("ij,ji->i", pg, pinv(aligned))))
        r1_old = np.linalg.norm(pg - old[:, None] * aligned)
        rounding = n_steps * np.finfo(float).eps * (np.linalg.norm(pf) + np.linalg.norm(pg))
        assert corners.r1_at_cr2 <= r1_old + rounding

    # Random Phi at T >= n give Phi_g Phi_f* full rank, so every corner is
    # unique and each deviation symmetric: g against f reads as f against g.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 14),
        extra_steps=st.integers(0, 30),
        make=st.sampled_from([random_system, real_system]),
    )
    def test_deviations_equal_their_swap(self, seed, n, extra_steps, make):
        rng = np.random.default_rng(seed)
        n_steps = n + extra_steps
        a, b = make(rng, n, n_steps), make(rng, n, n_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fwd = compare(*a, *b, "none").deviations
            rev = compare(*b, *a, "none").deviations
        for name in ("d_min", "d_avg", "d_max"):
            assert getattr(rev, name) == pytest.approx(getattr(fwd, name), rel=1e-12, abs=0)


def assert_reports_identical(got, want):
    """Every field of two reports, bit for bit."""
    for name in ("c_r1", "permutation", "gamma"):
        np.testing.assert_array_equal(getattr(got.corners, name), getattr(want.corners, name))
    for name in ("r1_at_cr1", "r2_at_cr1", "r1_at_cr2", "r2_at_cr2"):
        assert getattr(got.corners, name) == getattr(want.corners, name)
    assert got.deviations == want.deviations
    assert (got.normalization, got.ref_norms) == (want.normalization, want.ref_norms)
    assert got.diagnostics == want.diagnostics
    assert got.psi_residuals == want.psi_residuals


class TestPrepared:
    @pytest.mark.parametrize("make", [random_system, real_system])
    def test_one_prepared_f_matches_fresh_compares(self, rng, make):
        # One f, prepared once, against a complex, a real and a like g: each
        # report equals a fresh compare of the pair, and f is left as it was.
        model_f, phi_f = make(rng, 10, 24)
        before = [a.copy() for a in (model_f.W_b, model_f.R_b, phi_f.phi, phi_f.psi)]
        f = prepare(model_f, phi_f)
        assert f.model is model_f and f.trajectory is phi_f
        assert (f.phi_b is phi_f.phi) == (not model_f.basis.is_real)
        for model_g, phi_g in (g_make(rng, 10, 24) for g_make in (random_system, real_system, make)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = compare_prepared(f, prepare(model_g, phi_g), "f")
                want = compare(model_f, phi_f, model_g, phi_g, "f")
            assert_reports_identical(got, want)
        after = (model_f.W_b, model_f.R_b, phi_f.phi, phi_f.psi)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("make, n_steps", [(random_system, 24), (real_system, 24),
                                               (random_system, 6)])
    def test_compare_continues_from_the_solve(self, rng, make, n_steps):
        # compare_prepared is solve_prepared followed by the observable-space
        # part: its corners and deviations are the solve's, bit for bit.
        f, g = (prepare(*make(rng, 10, n_steps)) for _ in range(2))
        solved = solve_prepared(f, g, "f")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = compare_prepared(f, g, "f")
        for name in ("c_r1", "permutation", "gamma"):
            np.testing.assert_array_equal(getattr(report.corners, name),
                                          getattr(solved.corners, name))
        for name in ("r1_at_cr1", "r2_at_cr1", "r1_at_cr2", "r2_at_cr2"):
            assert getattr(report.corners, name) == getattr(solved.corners, name)
        assert report.deviations == solved.deviations
        assert report.ref_norms == solved.ref_norms
        assert report.diagnostics.unitarity_defects == solved.unitarity_defects

    def test_system_used_only_as_g_computes_no_pseudoinverse(self, rng, monkeypatch):
        (model_f, phi_f), (model_g, phi_g) = random_system(rng, 8, 20), random_system(rng, 8, 20)
        f, g = prepare(model_f, phi_f), prepare(model_g, phi_g)
        calls, real_pinv = [], conjugacy.pinv

        def counted(m, **kwargs):
            calls.append(m.shape)
            return real_pinv(m, **kwargs)

        monkeypatch.setattr(conjugacy, "pinv", counted)
        compare_prepared(f, g)
        compare_prepared(f, g)
        # pinv(Psi_f) alone, on f's first comparison only: gamma needs no
        # factorization.
        assert calls == [phi_f.psi.shape]
        assert "pinv_psi" in vars(f) and "pinv_psi" not in vars(g)


class TestPsiSpace:
    def test_lsq_identity_and_recovery(self, rng):
        psi = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
        np.testing.assert_allclose(lsq_transform(psi, psi), np.eye(4), atol=1e-10)
        a = random_well_conditioned(rng, 4)
        np.testing.assert_allclose(lsq_transform(psi, a @ psi), a, atol=1e-10)

    def test_lsq_beats_perturbations(self, rng):
        psi_f = rng.standard_normal((3, 15)) + 1j * rng.standard_normal((3, 15))
        psi_g = rng.standard_normal((3, 15)) + 1j * rng.standard_normal((3, 15))
        t = lsq_transform(psi_f, psi_g)
        base = np.linalg.norm(psi_g - t @ psi_f)
        for _ in range(300):
            bump = 1e-3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            assert base <= np.linalg.norm(psi_g - (t + bump) @ psi_f) + 1e-12

    def test_recover_t_identity_for_identical_systems(self, rng):
        k = random_diagonalizable(rng, 4)
        psi = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
        model, phi = lifted_system(k, psi)
        report = compare(model, phi, model, phi)
        for name, c in (("T_C_r1", report.corners.c_r1), ("T_C_r2", report.corners.c_r2)):
            t = recover_t(c, model, model, report.omega_inv[name])
            np.testing.assert_allclose(t, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("make", [random_system, real_system, "replacing"])
    def test_omega_inv_is_the_dense_diagonal(self, rng, make):
        # Omega^-1 = Diag(W_g T_LSQ R_f C*), formed here in complex arithmetic
        # from lsq_transform and the models' complex W and R. "replacing" is
        # a sweep point where an entry of T_C_r2's Omega^-1 is replaced by 1.
        if make == "replacing":
            p = BenchmarkParams(alpha=2.0, beta=1.55, x0=(1.1, 0.4))
            (model_f, phi_f), (model_g, phi_g) = benchmark_system(p, "f"), benchmark_system(p, "g")
        else:
            (model_f, phi_f), (model_g, phi_g) = make(rng, 12, 30), make(rng, 12, 30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = compare(model_f, phi_f, model_g, phi_g, "f")
        replaced = report.diagnostics.omega_replaced
        assert len(caught) == sum(map(bool, replaced.values()))
        assert (replaced["T_C_r2"] > 0) == (make == "replacing")
        n = model_f.n_psi
        m = model_g.W @ lsq_transform(phi_f.psi, phi_g.psi) @ model_f.R
        tol = n * np.finfo(float).eps * np.linalg.cond(model_f.W) * np.linalg.cond(model_g.W)
        for name, c in (("T_C_r1", report.corners.c_r1), ("T_C_r2", report.corners.c_r2)):
            got, want = report.omega_inv[name], np.einsum("ij,ij->i", m, c.conj())
            tiny = np.abs(want) < conjugacy.OMEGA_ZERO_TOL
            assert tiny.sum() == replaced[name]
            assert np.all(got[tiny] == 1.0)
            assert np.linalg.norm((got - want)[~tiny]) <= tol * np.linalg.norm(want)

    def test_recover_t_replaces_nothing_and_warns_nothing(self):
        # At this sweep point compare replaces an entry of T_C_r2's Omega^-1
        # and warns once; recover_t takes that Omega^-1 as it is.
        p = BenchmarkParams(alpha=2.0, beta=1.55, x0=(1.1, 0.4))
        (model_f, phi_f), (model_g, phi_g) = benchmark_system(p, "f"), benchmark_system(p, "g")
        with pytest.warns(RuntimeWarning, match="T_C_r2: 1 scale entries"):
            report = compare(model_f, phi_f, model_g, phi_g, "f")
        assert report.diagnostics.omega_replaced == {"T_C_r1": 0, "T_C_r2": 1}
        omega_inv = report.omega_inv["T_C_r2"]
        held = omega_inv.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = recover_t(report.corners.c_r2, model_f, model_g, omega_inv)
        np.testing.assert_array_equal(omega_inv, held)
        want = (model_g.R * omega_inv) @ report.corners.c_r2 @ model_f.W
        assert np.linalg.norm(t - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("make", [random_system, real_system])
    def test_recover_t_gathers_c_r2_rows(self, rng, make):
        # C_r2 given as (permutation, gamma) is pulled back through the row
        # gather gamma_k W_f[pi^-1[k]]; the dense product C_r2 W_f agrees to
        # n eps ||C_r2 W_f||_F, carried through R_g Omega^-1.
        (model_f, phi_f), (model_g, phi_g) = make(rng, 12, 30), make(rng, 12, 30)
        report = compare(model_f, phi_f, model_g, phi_g, "f")
        c = report.corners
        omega_inv = report.omega_inv["T_C_r2"]
        got = recover_t((c.permutation, c.gamma), model_f, model_g, omega_inv)
        c_w_f = c.c_r2 @ model_f.W
        want = model_g.R @ (omega_inv[:, None] * c_w_f)
        n = model_f.n_psi
        tol = (n * np.finfo(float).eps * np.linalg.norm(c_w_f)
               * np.linalg.norm(model_g.R * omega_inv))
        assert np.linalg.norm(got - want) <= tol

    @pytest.mark.parametrize("n_steps", [6, 30])
    def test_lsq_trajectory_residual(self, rng, n_steps):
        # n = 12: at rank T (T < n) pinv(Psi_f) Psi_f = I_T and the residual
        # is exactly 0; at rank n < T it is the least squares misfit.
        n = 12
        model_f, phi_f = random_system(rng, n, n_steps)
        model_g, phi_g = random_system(rng, n, n_steps)
        report = compare(model_f, phi_f, model_g, phi_g)
        got = report.psi_residuals["T_LSQ"][1]
        assert report.diagnostics.lsq_rank == min(n, n_steps)
        if n_steps < n:
            assert got == 0.0
            return
        psi_f = reconstruct_observables(model_f, phi_f)
        psi_g = reconstruct_observables(model_g, phi_g)
        want = np.linalg.norm(psi_g - psi_g @ pinv(psi_f) @ psi_f)
        assert want > 0.1 * np.linalg.norm(psi_g)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n_steps", [25, 80])
    def test_transforms_match_pseudoinverse_formula(self, rng, n_steps):
        # n = 40 observables: T < n makes T_LSQ rank-deficient, T > n does not.
        n = 40
        model_f, phi_f = random_system(rng, n, n_steps, radius=0.98)
        model_g, phi_g = random_system(rng, n, n_steps, radius=0.98)
        report = compare(model_f, phi_f, model_g, phi_g, "f")

        # T_C = (Omega W_g)^-1 C W_f with Omega^-1 = Diag(W_g T_LSQ pinv(C W_f)).
        psi_f = np.linalg.solve(model_f.W, phi_f.phi / phi_f.scales[:, None])
        psi_g = np.linalg.solve(model_g.W, phi_g.phi / phi_g.scales[:, None])
        t_lsq = psi_g @ pinv(psi_f)

        def pull_back(c):
            cwf = c @ model_f.W
            omega_inv = np.diag(model_g.W @ t_lsq @ pinv(cwf))
            return np.linalg.solve(model_g.W, omega_inv[:, None] * cwf)

        cond = np.linalg.cond(model_f.W) * np.linalg.cond(model_g.W)
        tol = n * np.finfo(float).eps * cond
        corners = report.corners
        # The transforms as ``--emit-matrices`` builds them: T_LSQ from the
        # carried Psi, each T_C from the Omega^-1 that compare fitted with.
        transforms = {"T_LSQ": lsq_transform(phi_f.psi, phi_g.psi)}
        for name, c in (("T_C_r1", corners.c_r1), ("T_C_r2", corners.c_r2)):
            transforms[name] = recover_t(c, model_f, model_g, report.omega_inv[name])
        for got, want in (
            (transforms["T_LSQ"], t_lsq),
            (transforms["T_C_r1"], pull_back(corners.c_r1)),
            (transforms["T_C_r2"], pull_back(corners.c_r2)),
        ):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

        # Operator residuals come from the eigenbasis, never from K; a solve
        # with each T in observable space must give the same numbers, up to
        # the cond(T) that the solve itself loses. K = R Lambda W to rounding.
        k_f, k_g = ((m.R * m.lambdas) @ m.W for m in (model_f, model_g))
        for name, t in transforms.items():
            got = report.psi_residuals[name][0]
            if name == "T_LSQ" and n_steps < n:
                assert got is None
                continue
            want = np.linalg.norm(k_f - np.linalg.solve(t, k_g @ t))
            assert abs(got - want) <= tol * np.linalg.cond(t) * want

        # Corners and deviations come before any pull-back. C_r1 goes through
        # the dense public functions; C_r2 as (permutation, gamma), so r2(C_r2)
        # is the closed form exactly and both of its residuals match the dense
        # functions to rounding.
        lf, lg = model_f.lambdas, model_g.lambdas
        pf, pg = phi_f.phi, phi_g.phi
        c2, pi, _ = solve_c_r2(pf, pg, lf, lg)
        np.testing.assert_array_equal(corners.permutation, pi)
        np.testing.assert_array_equal(corners.c_r2, c2)
        phi_norm, lam_norm = np.linalg.norm(pf), np.linalg.norm(lf)
        c1 = solve_c_r1(pf, pg)
        assert corners.r1_at_cr1 == residual_r1(pf, pg, c1) / phi_norm
        assert corners.r2_at_cr1 == residual_r2(lf, lg, c1) / lam_norm
        assert corners.r2_at_cr2 == np.linalg.norm(lf - lg[pi]) / lam_norm
        rel = n * np.finfo(float).eps * np.sqrt(n)
        assert corners.r1_at_cr2 == pytest.approx(residual_r1(pf, pg, c2) / phi_norm, rel=rel)
        assert corners.r2_at_cr2 == pytest.approx(residual_r2(lf, lg, c2) / lam_norm, rel=rel)
        assert report.deviations == pareto_deviations(corners)


def spectrum(rng, n, kind):
    """n eigenvalues in the unit disc: spread, with ties, or in conjugate pairs."""
    if kind == "tied":
        distinct = random_spectrum(rng, max(1, n // 3))
        return distinct[rng.integers(0, distinct.size, n)]
    lam = random_spectrum(rng, n)
    if kind == "conjugate":
        lam[1::2] = lam[0:n - 1:2].conj()
        if n % 2:
            lam[-1] = lam[-1].real
    return lam


def system_with_spectrum(rng, lambdas, n_steps, real, order):
    """Model with eigenvalues lambdas[order] (R well conditioned) and its trajectory.

    With ``real``, ``lambdas`` holds conjugate pairs at (0, 1), (2, 3), ...
    and the eigenvector columns and observables follow: K and Psi are real,
    and eigenfunction rows come in conjugate pairs as well.
    """
    n = lambdas.size
    r = random_well_conditioned(rng, n)
    psi = rng.standard_normal((n, n_steps)) + 1j * rng.standard_normal((n, n_steps))
    if real:
        r[:, 1::2] = r[:, 0:n - 1:2].conj()
        if n % 2:
            r[:, -1] = r[:, -1].real
        psi = psi.real.copy()
    r, lambdas = r[:, order], lambdas[order]
    w = np.linalg.inv(r)
    model = model_of(lambdas, w, r, condition_number=float(np.linalg.norm(r) * np.linalg.norm(w)))
    return model, eigenfunction_trajectories(model, raw_observables(psi))


class TestStructuredCr2MatchesDense:
    """``compare`` evaluates C_r2 as (permutation, gamma); the dense public
    functions applied to the dense C_r2 must give the same numbers."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 14),
        kind=st.sampled_from(["spread", "tied", "conjugate"]),
        g_permutes_f=st.booleans(),
        fewer_steps=st.booleans(),
    )
    def test_residuals_diagnostics_and_transforms(self, seed, n, kind, g_permutes_f, fewer_steps):
        rng = np.random.default_rng(seed)
        n_steps = n // 2 + 1 if fewer_steps else 2 * n
        lf = spectrum(rng, n, kind)
        lg = lf if g_permutes_f else spectrum(rng, n, kind)
        real = kind == "conjugate"
        model_f, phi_f = system_with_spectrum(rng, lf, n_steps, real, np.arange(n))
        model_g, phi_g = system_with_spectrum(rng, lg, n_steps, real, rng.permutation(n))
        lf, lg = model_f.lambdas, model_g.lambdas
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = compare(model_f, phi_f, model_g, phi_g, "none")
        corners, diag = report.corners, report.diagnostics

        c2, pi, gamma = solve_c_r2(phi_f.phi, phi_g.phi, lf, lg)
        np.testing.assert_array_equal(corners.permutation, pi)
        np.testing.assert_array_equal(corners.gamma, gamma)
        np.testing.assert_array_equal(corners.c_r2, c2)

        eps = np.finfo(float).eps
        tol = n * eps * np.sqrt(n)
        phi_scale = np.linalg.norm(phi_f.phi) + np.linalg.norm(phi_g.phi)
        lam_scale = np.linalg.norm(lf) + np.linalg.norm(lg)
        assert abs(corners.r1_at_cr2 - residual_r1(phi_f.phi, phi_g.phi, c2)) <= tol * phi_scale
        assert abs(corners.r2_at_cr2 - residual_r2(lf, lg, c2)) <= tol * lam_scale
        assert corners.r2_at_cr2 == np.linalg.norm(lf - lg[pi])

        assert diag.unitarity_defects["C_r1"] == unitarity_defect(corners.c_r1)
        assert abs(diag.unitarity_defects["C_r2"] - unitarity_defect(c2)) <= tol
        assert diag.assignment_cost == matching_cost(lf, lg, pi)
        assert (diag.lsq_rank < n) if fewer_steps else (diag.lsq_rank == n)

        # compare fits T_C Psi_f = R_g Omega^-1 C (W_f Psi_f) without forming
        # T_C; the fit of the dense T_C built from a dense M is the reference.
        psi_f, psi_g = phi_f.psi, phi_g.psi
        t_lsq = lsq_transform(psi_f, psi_g)
        cond = np.linalg.cond(model_f.W) * np.linalg.cond(model_g.W)
        t_c1 = dense_t(corners.c_r1, model_f, model_g, t_lsq)
        t_c2 = dense_t(c2, model_f, model_g, t_lsq)
        for name, t in (("T_C_r1", t_c1), ("T_C_r2", t_c2)):
            want = np.linalg.norm(psi_g - t @ psi_f)
            got = report.psi_residuals[name][1]
            assert abs(got - want) <= n * eps * cond * np.linalg.norm(t) * np.linalg.norm(psi_f)


class TestRealBasis:
    """Real systems run in their real canonical bases; the public complex
    helpers, applied to the complex arrays, are the reference.

    f is a real model. Its trajectory is real ("real"), or mapped from
    complex Psi, so that Phi_f is not closed under conjugation and enters
    the basis complex ("complex psi"); g is a real model with real data, or
    a complex model ("mixed").
    """

    @settings(max_examples=90, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 16),
        fewer_steps=st.booleans(),
        kind=st.sampled_from(["real", "mixed", "complex psi"]),
    )
    @example(seed=1, n=7, fewer_steps=False, kind="mixed")
    @example(seed=1, n=7, fewer_steps=False, kind="complex psi")
    def test_matches_complex_helpers(self, seed, n, fewer_steps, kind):
        rng = np.random.default_rng(seed)
        n_steps = n // 2 + 1 if fewer_steps else 2 * n
        model_f, phi_f = real_system(rng, n, n_steps)
        if kind == "complex psi":
            psi = rng.standard_normal((n, n_steps)) + 1j * rng.standard_normal((n, n_steps))
            phi_f = eigenfunction_trajectories(model_f, raw_observables(psi))
        model_g, phi_g = (random_system if kind == "mixed" else real_system)(rng, n, n_steps)
        assert model_f.basis.is_real and model_g.basis.is_real == (kind != "mixed")
        closed = conjugate_basis(model_f.lambdas, phi_f.phi).is_real
        assert closed == (kind != "complex psi")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = compare(model_f, phi_f, model_g, phi_g, "none")
        corners = report.corners

        pf, pg = phi_f.phi, phi_g.phi
        lf, lg = model_f.lambdas, model_g.lambdas
        c1 = solve_c_r1(pf, pg)
        pi = solve_permutation(lf, lg)
        gamma = solve_gamma(pf, pg, pi)
        c2 = gamma[:, None] * permutation_matrix(pi)
        want = ParetoCorners(
            c1, pi, gamma, residual_r1(pf, pg, c1), residual_r2(lf, lg, c1),
            residual_r1(pf, pg, c2), residual_r2(lf, lg, c2),
        )
        want_devs = pareto_deviations(want)
        psi_f = reconstruct_observables(model_f, phi_f)
        psi_g = reconstruct_observables(model_g, phi_g)
        t_lsq = lsq_transform(psi_f, psi_g)
        # The fits' reference: ||Psi_g - T Psi_f|| of the carried Psi, with
        # the dense T that dense_t builds from the complex helpers' C.
        carried_f, carried_g = phi_f.psi, phi_g.psi
        psi_scale = np.linalg.norm(carried_f)

        def fit(t):
            return np.linalg.norm(carried_g - t @ carried_f)

        m = model_g.W @ t_lsq @ model_f.R
        t_c1 = dense_t(c1, model_f, model_g, t_lsq)
        t_c2 = dense_t(c2, model_f, model_g, t_lsq)

        np.testing.assert_array_equal(corners.permutation, pi)
        eps = np.finfo(float).eps
        tol = n * eps * np.sqrt(n)
        phi_scale = np.linalg.norm(pf) + np.linalg.norm(pg)
        lam_scale = np.linalg.norm(lf) + np.linalg.norm(lg)
        assert abs(corners.r1_at_cr1 - want.r1_at_cr1) <= tol * phi_scale
        assert abs(corners.r2_at_cr2 - want.r2_at_cr2) <= tol * lam_scale
        assert abs(report.deviations.d_min - want_devs.d_min) <= tol * (phi_scale + lam_scale)
        # compare takes gamma from the same complex Phi as solve_gamma, in any basis.
        np.testing.assert_array_equal(corners.gamma, gamma)
        assert abs(corners.r1_at_cr2 - want.r1_at_cr2) <= tol * phi_scale
        # T_LSQ = Psi_g pinv(Psi_f) adds the least squares problem's
        # cond(Psi_f) to the n eps cond(W_f) cond(W_g) of the transforms, and
        # T_C = R_g Omega^-1 C W_f takes Omega^-1 from diagonal entries of
        # M C*, M = W_g T_LSQ R_f, which carry rounding of order eps ||M||.
        cond = np.linalg.cond(model_f.W) * np.linalg.cond(model_g.W) * np.linalg.cond(psi_f)
        omega = np.abs(np.diag(m @ c2.conj().T))
        t_tol = n * eps * cond * np.linalg.norm(m, 2) / omega.min()
        assert abs(report.psi_residuals["T_C_r2"][1] - fit(t_c2)) <= t_tol * np.linalg.norm(t_c2) * psi_scale
        if fewer_steps:
            # Phi_g Phi_f* is rank-deficient: C_r1, and with it r2(C_r1),
            # d_avg, d_max, T_C_r1 and T_LSQ's residuals, depend on its null block.
            assert report.diagnostics.procrustes_rank < n
            return
        # The unitary polar factor C_r1 moves by up to ||dA|| / sigma_min of
        # A = Phi_g Phi_f*; r1(C_r1), at its minimum, does not to first order.
        assert report.diagnostics.procrustes_rank == n
        cond_c1 = svd(pg @ pf.conj().T).S[0] / report.diagnostics.procrustes_sigma_min
        assert abs(corners.r2_at_cr1 - want.r2_at_cr1) <= tol * cond_c1 * lam_scale
        for got, exact in ((report.deviations.d_avg, want_devs.d_avg), (report.deviations.d_max, want_devs.d_max)):
            assert abs(got - exact) <= tol * cond_c1 * (phi_scale + lam_scale)
        omega = np.abs(np.diag(m @ c1.conj().T))
        t_tol = n * eps * cond * np.linalg.norm(m, 2) / omega.min()
        t_c1_tol = t_tol * cond_c1 * np.linalg.norm(t_c1) * psi_scale
        assert abs(report.psi_residuals["T_C_r1"][1] - fit(t_c1)) <= t_c1_tol
        t_lsq_tol = n * eps * cond * np.linalg.norm(t_lsq) * psi_scale
        assert abs(report.psi_residuals["T_LSQ"][1] - fit(t_lsq)) <= t_lsq_tol
