"""Analytic benchmark pair: generators, trajectories, sweep, published values."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from koopmetrics import benchmark, conjugacy, linalg
from koopmetrics.benchmark import (
    BenchmarkParams,
    analytic_generators,
    benchmark_system,
    compare_pair,
    conjugate_h,
    grid_values,
    simulate_observables,
    sweep,
)
from koopmetrics.conjugacy import compare, lsq_transform, recover_t
from koopmetrics.linalg import FactorizationError, eig

# Transform recovered at exact conjugacy with the default start (g launched
# from h(x0)): the conjugating map itself, extended to the squared observable.
T_CONJUGATE = np.array(
    [[2.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
)

# Published reference transform; reproduced by starting f at (2, 1) and g at
# (0, -1), which pins the mode amplitude ratios to (-1/2, (q-2)/(1+4q), 1/4).
T_REFERENCE = np.array(
    [
        [-1.0, -(0.813 + 0.002j), 0.703 + 0.004j],
        [0.5, 0.813 + 0.002j, -(0.703 + 0.004j)],
        [0.0, 0.0, 0.25],
    ]
)


class TestGenerators:
    def test_g_corner_entry_at_reference_parameters(self):
        p = BenchmarkParams()
        _, k_g = analytic_generators(p)
        assert k_g[0, 0] == pytest.approx(2 * p.mu - p.lam)
        assert k_g[0, 0] == pytest.approx(0.098 - 8.0j)

    def test_f_fixed_entries_for_any_scaling(self):
        for alpha, beta in ((0.3, 1.7), (1.0, 1.0), (2.0, 0.1)):
            p = BenchmarkParams(alpha=alpha, beta=beta)
            k_f, _ = analytic_generators(p)
            assert k_f[1, 2] == -p.lam
            assert k_f[0, 0] == p.mu and k_f[2, 2] == 2 * p.mu

    def test_alpha_zero_matches_symbolic_substitution(self):
        p = BenchmarkParams(alpha=0.0, beta=0.7)
        _, k_g = analytic_generators(p)
        bl = 0.7 * p.lam
        expected = np.array(
            [[-bl, -2 * bl, bl], [bl, 2 * bl, -bl], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_allclose(k_g, expected, atol=1e-15)


class TestSimulate:
    def test_zero_generator_constant_columns(self):
        p = BenchmarkParams(steps=2)
        # a zero generator is defective-free but eig of 0 has repeated
        # eigenvalues with identity eigenvectors, which is fine
        obs = simulate_observables(eig(np.zeros((3, 3), dtype=complex)), p, "f")
        np.testing.assert_array_equal(obs.psi[:, 0], obs.psi[:, 1])

    def test_first_row_is_exponential_mode(self):
        p = BenchmarkParams(steps=200)
        k_f, _ = analytic_generators(p)
        obs = simulate_observables(eig(k_f), p, "f")
        t = np.arange(200) * p.dt
        expected = p.x0[0] * np.exp(p.mu * t)
        np.testing.assert_allclose(obs.psi[0], expected, atol=1e-12)

    def test_square_row_consistency(self):
        p = BenchmarkParams(steps=150)
        k_f, _ = analytic_generators(p)
        obs = simulate_observables(eig(k_f), p, "f")
        np.testing.assert_allclose(obs.psi[2], obs.psi[0] ** 2, atol=1e-10)

    def test_dictionary_is_bare(self):
        p = BenchmarkParams(steps=5)
        k_f, _ = analytic_generators(p)
        obs = simulate_observables(eig(k_f), p, "f")
        assert obs.n_psi == 3 and not obs.has_constant and obs.aux is None


def rk4(f, x0, dt, steps):
    out = np.empty((len(x0), steps), dtype=complex)
    x = np.asarray(x0, dtype=complex)
    for n in range(steps):
        out[:, n] = x
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


class TestConjugateMap:
    def test_involution_product(self):
        h = conjugate_h()
        np.testing.assert_allclose(h @ np.linalg.inv(h), np.eye(2), atol=1e-14)

    def test_exact_entries(self):
        np.testing.assert_array_equal(conjugate_h(), [[2.0, -1.0], [-1.0, 1.0]])

    def test_g_trajectory_matches_rk4_of_conjugated_states(self):
        p = BenchmarkParams(steps=120)
        mu, lam = p.mu, p.lam

        def g_field(y):
            s2 = (y[0] + y[1]) ** 2
            return np.array(
                [
                    (2 * mu - lam) * y[0] + 2 * (mu - lam) * y[1] + lam * s2,
                    (lam - mu) * y[0] + (2 * lam - mu) * y[1] - lam * s2,
                ]
            )

        y0 = conjugate_h() @ np.asarray(p.x0, dtype=complex)
        states = rk4(g_field, y0, p.dt, p.steps)
        _, k_g = analytic_generators(p)
        obs = simulate_observables(eig(k_g), p, "g")
        # tolerance is the RK4 truncation error of the |lambda * dt| = 0.1 mode
        np.testing.assert_allclose(obs.psi[0], states[0], atol=1e-5)
        np.testing.assert_allclose(obs.psi[1], states[1], atol=1e-5)


class TestPublishedValues:
    def test_conjugate_point_is_zero(self):
        report = compare_pair(BenchmarkParams())
        assert report.deviations.d_max < 1e-9

    def test_near_conjugate_case(self):
        report = compare_pair(BenchmarkParams(beta=1.2))
        devs = report.deviations
        assert devs.d_min == pytest.approx(0.58, abs=0.02)
        assert devs.d_avg == pytest.approx(0.58, abs=0.02)
        assert devs.d_max == pytest.approx(0.58, abs=0.02)
        assert report.corners.r2_at_cr2 == pytest.approx(0.20, abs=0.02)

    def test_asymmetric_case(self):
        report = compare_pair(BenchmarkParams(alpha=1.85, beta=0.94))
        c = report.corners
        assert c.r1_at_cr1 == pytest.approx(1.03, abs=0.05)
        assert c.r1_at_cr2 == pytest.approx(1.28, abs=0.05)
        assert report.deviations.d_min == pytest.approx(1.05, abs=0.05)
        assert report.deviations.d_max == pytest.approx(1.31, abs=0.05)

    @staticmethod
    def transforms(p):
        """(T_C_r1, T_LSQ) of the f-g pair at p, T_C_r1 from compare's C_r1 and Omega^-1."""
        (model_f, phi_f), (model_g, phi_g) = benchmark_system(p, "f"), benchmark_system(p, "g")
        report = compare(model_f, phi_f, model_g, phi_g, "f")
        t_lsq = lsq_transform(phi_f.psi, phi_g.psi)
        t_c_r1 = recover_t(report.corners.c_r1, model_f, model_g, report.omega_inv["T_C_r1"])
        return t_c_r1, t_lsq

    def test_transform_recovery_at_conjugacy_default_start(self):
        t_c_r1, t_lsq = self.transforms(BenchmarkParams())
        rel = np.linalg.norm(t_c_r1 - t_lsq) / np.linalg.norm(t_lsq)
        assert rel < 1e-6
        np.testing.assert_allclose(t_c_r1, T_CONJUGATE, atol=1e-8)
        np.testing.assert_allclose(t_lsq, T_CONJUGATE, atol=1e-8)

    def test_transform_recovery_reference_start(self):
        t_c_r1, t_lsq = self.transforms(BenchmarkParams(x0=(2.0, 1.0), y0=(0.0, -1.0)))
        assert np.max(np.abs(t_c_r1 - T_REFERENCE)) < 1e-2
        rel = np.linalg.norm(t_c_r1 - t_lsq) / np.linalg.norm(t_lsq)
        assert rel < 1e-6

    def test_asymmetric_psi_space_tradeoff(self):
        report = compare_pair(
            BenchmarkParams(alpha=1.85, beta=0.94, x0=(2.0, 1.0), y0=(0.0, -1.0))
        )
        op_c1, traj_c1 = report.psi_residuals["T_C_r1"]
        op_lsq, traj_lsq = report.psi_residuals["T_LSQ"]
        # trajectory fit of the pulled-back unitary is within a fraction of a
        # percent of the unconstrained least squares optimum
        assert traj_c1 <= traj_lsq * (1.0 + 2e-3)
        # while least squares pays for it with a much larger operator error
        assert op_lsq >= 1.2 * op_c1


class TestSweep:
    def test_grid_values_inclusive(self):
        vals = grid_values(0.1, 2.0, 0.05)
        assert len(vals) == 39
        assert vals[0] == pytest.approx(0.1) and vals[-1] == pytest.approx(2.0)
        assert 1.0 in vals

    def test_single_point_grid(self):
        rows = sweep([1.0], [1.0], BenchmarkParams(steps=300))
        assert len(rows) == 1
        assert rows[0][2] < 1e-9 and rows[0][4] < 1e-9 and rows[0][-1] == ""

    def test_near_conjugacy_row_values(self):
        rows = sweep([1.0], [1.2], BenchmarkParams())
        _, _, d_min, d_avg, d_max, *_ = rows[0]
        assert d_min == pytest.approx(0.58, abs=0.02)
        assert d_max == pytest.approx(0.58, abs=0.02)

    def test_rows_sorted_and_complete(self):
        rows = sweep([1.0, 0.9], [1.1, 0.95], BenchmarkParams(steps=200))
        assert [(r[0], r[1]) for r in rows] == [
            (0.9, 0.95), (0.9, 1.1), (1.0, 0.95), (1.0, 1.1)
        ]

    def test_parallel_must_be_one(self):
        p = BenchmarkParams(steps=200)
        alphas, betas = [0.9, 1.0], [0.95, 1.1]
        with pytest.raises(ValueError, match="parallel must be 1"):
            sweep(alphas, betas, p, parallel=2)
        assert sweep(alphas, betas, p, parallel=1) == sweep(alphas, betas, p)

    def test_point_failure_recorded_not_fatal(self, monkeypatch):
        real = benchmark.benchmark_system

        def flaky(params, system):
            if system == "g" and params.alpha == 0.9:
                raise RuntimeError("synthetic failure")
            return real(params, system)

        monkeypatch.setattr(benchmark, "benchmark_system", flaky)
        rows = sweep([0.9, 1.0], [1.0], BenchmarkParams(steps=200))
        failed = [r for r in rows if r[-1]]
        assert len(failed) == 1 and "synthetic failure" in failed[0][-1]
        assert np.isnan(failed[0][2])
        clean = [r for r in rows if not r[-1]]
        assert len(clean) == 1 and clean[0][2] < 1e-9

    def test_f_built_once_and_rows_match_compare_pair(self, monkeypatch):
        real, calls = benchmark.benchmark_system, []
        real_svd, svds = linalg.svd, []

        def counted(params, system):
            calls.append(system)
            return real(params, system)

        def counted_svd(m):
            svds.append(np.shape(m))
            return real_svd(m)

        p = BenchmarkParams(steps=200)
        monkeypatch.setattr(benchmark, "benchmark_system", counted)
        # svd is bound in linalg (pinv calls it there) and in conjugacy.
        for module in (linalg, conjugacy):
            monkeypatch.setattr(module, "svd", counted_svd)
        rows = sweep([0.9, 1.0], [0.95, 1.1], p)
        monkeypatch.undo()
        assert calls.count("f") == 1 and calls.count("g") == 4
        # One Procrustes SVD per point and no pinv(Psi_f): the sweep stays in
        # eigenfunction space.
        assert svds == [(3, 3)] * 4
        for alpha, beta, *values in rows:
            report = compare_pair(replace(p, alpha=alpha, beta=beta))
            devs, c = report.deviations, report.corners
            assert tuple(values[:7]) == (devs.d_min, devs.d_avg, devs.d_max, c.r1_at_cr1,
                                         c.r2_at_cr1, c.r1_at_cr2, c.r2_at_cr2)

    def test_f_build_failure_raises(self, monkeypatch):
        # f is built before the loop, so its failure is the sweep's, not every row's.
        def failing(*args, **kwargs):
            raise FactorizationError("synthetic decompose failure")

        monkeypatch.setattr(benchmark, "decompose", failing)
        with pytest.raises(FactorizationError, match="synthetic decompose failure"):
            sweep([0.9, 1.0], [1.0], BenchmarkParams(steps=200))

    def test_rows_need_no_pseudoinverse(self, monkeypatch):
        def failing(*args, **kwargs):
            raise FactorizationError("synthetic pinv failure")

        monkeypatch.setattr(conjugacy, "pinv", failing)
        rows = sweep([0.9, 1.0], [0.95, 1.1], BenchmarkParams(steps=200))
        assert len(rows) == 4 and all(row[-1] == "" for row in rows)
        assert not np.isnan(np.array([row[2:-1] for row in rows])).any()

    def test_no_observable_space_warning_fails_a_row(self):
        # compare replaces an entry of T_C_r2's Omega^-1 at this point and
        # warns; the sweep reports no T_C and forms no Omega^-1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep([2.0], [1.55], BenchmarkParams(x0=(1.1, 0.4)))
        assert rows[0][-1] == ""
        assert rows[0][2] <= rows[0][3] <= rows[0][4]

    def test_smooth_near_conjugacy(self):
        alphas = [0.99, 1.0, 1.01]
        betas = [0.99, 1.0, 1.01]
        rows = sweep(alphas, betas, BenchmarkParams(steps=500))
        davg = {(r[0], r[1]): r[3] for r in rows}
        for (a, b), v in davg.items():
            for (a2, b2), v2 in davg.items():
                if abs(a - a2) <= 0.011 and abs(b - b2) <= 0.011:
                    assert abs(v - v2) < 0.2
