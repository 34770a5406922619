"""Identification pipeline: observables, least squares, eigenfunctions."""
import dataclasses
import warnings

import numpy as np
import pytest

from koopmetrics.benchmark import BenchmarkParams, analytic_generators, benchmark_system
from koopmetrics.conjugacy import solve_permutation
from koopmetrics.koopman import (
    AuxiliaryConfig,
    IdentificationError,
    PrimarySeries,
    build_observables,
    decompose,
    default_ridge,
    eigenfunction_trajectories,
    fit_theta,
    free_run,
    holdout_error,
    identify_operator,
    lift_columns,
    normalized_trajectory,
    reconstruct_observables,
)
from koopmetrics.linalg import COMPLEX_BASIS, DiagonalizabilityError, conjugate_basis, eig

from conftest import (
    lifted_system,
    model_of,
    random_diagonalizable,
    random_well_conditioned,
    raw_observables,
)


def propagator(k_cont, dt):
    """exp(K dt) through the eigendecomposition (exact for diagonalizable K)."""
    res = eig(k_cont)
    return (res.R * np.exp(res.lambdas * dt)) @ res.W


def series(values, dt=0.1):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return PrimarySeries(
        names=tuple(f"p{i}" for i in range(values.shape[0])), values=values, dt=dt
    )


class TestBuildObservables:
    def test_constant_primary_gives_unit_aux(self):
        prim = series(np.zeros((1, 5)))
        obs = build_observables(prim, AuxiliaryConfig((3.7,)))
        aux = obs.psi[obs.aux_start :].real
        np.testing.assert_array_equal(aux, np.ones((5, 5)))

    def test_two_step_binary_aux(self):
        prim = series([[0.0, 1.0]])
        obs = build_observables(prim, AuxiliaryConfig((1.0,)))
        aux = obs.psi[obs.aux_start :].real
        np.testing.assert_allclose(aux, np.eye(2), atol=1e-15)

    def test_matches_scalar_reimplementation(self, rng):
        vals = rng.standard_normal((4, 7))
        theta = (0.7, 1.3, 0.2, 2.0)
        obs = build_observables(series(vals), AuxiliaryConfig(theta))
        aux = obs.psi[obs.aux_start :].real
        for j in range(7):      # stored snapshot
            for n in range(7):  # current step
                expected = 1.0
                for k in range(4):
                    expected *= max(0.0, 1.0 - theta[k] * abs(vals[k, n] - vals[k, j]))
                assert abs(aux[j, n] - expected) < 1e-14

    def test_layout_and_bounds(self, rng):
        vals = rng.standard_normal((3, 6))
        obs = build_observables(series(vals), AuxiliaryConfig((1.0, 1.0, 1.0)))
        assert obs.n_psi == 1 + 3 + 6
        assert np.all(obs.psi[0] == 1.0)
        aux = obs.psi[obs.aux_start :].real
        assert aux.min() >= 0.0 and aux.max() <= 1.0

    def test_theta_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^1 theta values for 2 primary observables$"):
            build_observables(series(np.zeros((2, 4))), AuxiliaryConfig((1.0,)))

    def test_lift_columns_reproduces_training(self, rng):
        # One routine lays out both: the training columns lift bit for bit.
        vals = rng.standard_normal((2, 5))
        for aux in (AuxiliaryConfig((0.8, 1.1)), None):
            obs = build_observables(series(vals), aux)
            lifted = lift_columns(obs, vals)
            assert lifted.dtype == obs.psi.dtype and lifted.tobytes() == obs.psi.tobytes()

    def test_real_data_stays_real_through_decompose(self, rng):
        vals = rng.standard_normal((2, 30))
        obs = build_observables(series(vals), AuxiliaryConfig((0.8, 1.1)))
        assert obs.psi.dtype == np.float64
        assert lift_columns(obs, vals[:, :3]).dtype == np.float64
        k = identify_operator(obs, ridge=default_ridge(obs))
        assert k.dtype == np.float64
        model = decompose(k, dt=obs.dt)
        assert model.basis.is_real and model.W_b.dtype == model.R_b.dtype == np.float64
        assert model.W.dtype == model.lambdas.dtype == np.complex128


class TestIdentify:
    def test_single_geometric_row(self):
        obs = raw_observables([[1.0, 0.5, 0.25]])
        k = identify_operator(obs, ridge=0.0)
        np.testing.assert_allclose(k, [[0.5]], atol=1e-12)

    def test_recovers_generating_operator(self, rng):
        a = rng.standard_normal((2, 2)) * 0.6
        psi = np.empty((2, 12))
        psi[:, 0] = rng.standard_normal(2)
        for n in range(11):
            psi[:, n + 1] = a @ psi[:, n]
        k = identify_operator(raw_observables(psi), ridge=0.0)
        np.testing.assert_allclose(k.real, a, atol=1e-10)
        assert np.abs(k.imag).max() < 1e-12

    def test_ridge_on_rank_deficient_close_to_min_norm(self, rng):
        base = rng.standard_normal((2, 9))
        psi = np.vstack([base, base[0] + base[1]])  # rank-deficient rows
        obs = raw_observables(psi)
        x, y = psi[:, :-1], psi[:, 1:]
        k_ridge = identify_operator(obs, ridge=1e-6)
        assert np.all(np.isfinite(k_ridge))
        k_min = y @ np.linalg.pinv(x)
        res_ridge = np.linalg.norm(y - k_ridge @ x)
        res_min = np.linalg.norm(y - k_min @ x)
        assert res_ridge <= res_min + 1e-6 * np.linalg.norm(y)

    def test_singular_without_ridge_raises(self, rng):
        base = rng.standard_normal((1, 6))
        psi = np.vstack([base, 2.0 * base])
        with pytest.raises(IdentificationError, match="ridge"):
            identify_operator(raw_observables(psi), ridge=0.0)

    def test_default_ridge_scale(self, rng):
        obs = raw_observables(rng.standard_normal((3, 8)))
        x = obs.psi[:, :-1]
        expected = 1e-10 * np.sum(np.abs(x) ** 2) / 3
        assert default_ridge(obs) == pytest.approx(expected)


class TestDecompose:
    def test_diagonal_operator(self):
        model = decompose(np.diag([0.9, 0.8]), dt=0.1)
        assert sorted(np.round(model.lambdas.real, 12)) == [0.8, 0.9]
        np.testing.assert_allclose(np.abs(model.W), np.eye(2), atol=1e-12)

    def test_benchmark_propagator_spectrum(self):
        p = BenchmarkParams()
        k_f, _ = analytic_generators(p)
        model = decompose(propagator(k_f, p.dt), dt=p.dt)
        expected = np.exp(np.array([p.mu, p.lam, 2 * p.mu]) * p.dt)
        pi = solve_permutation(expected, model.lambdas)
        np.testing.assert_allclose(model.lambdas[pi], expected, atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_keeps_eig_right_eigenvectors(self, rng, dtype):
        k = random_diagonalizable(rng, 6)
        k = (k.real if dtype is float else k).astype(dtype)
        res = eig(k)
        model = decompose(k, dt=0.1)
        for got, want in ((model.R, res.R), (model.W, res.W), (model.lambdas, res.lambdas)):
            assert got.tobytes() == want.tobytes()

    def test_right_eigenvectors_default_to_inverse_of_w(self, rng):
        w = random_well_conditioned(rng, 4)
        model = model_of(np.ones(4, dtype=complex), w)
        assert model.basis is COMPLEX_BASIS
        np.testing.assert_array_equal(model.R, np.linalg.inv(w))
        with pytest.raises(ValueError, match="singular"):
            dataclasses.replace(model, W_b=np.zeros((4, 4), dtype=complex), R_b=None)
        # A real W_b over a closed spectrum is a real-basis model; over an
        # open one there is no real basis.
        with pytest.raises(ValueError, match="not closed under conjugation"):
            dataclasses.replace(model, lambdas=np.array([1j, 1, 1, 1]), W_b=w.real, R_b=None)

    def test_right_eigenvectors_of_a_real_structured_w_from_the_real_inverse(self, rng):
        # W closed under conjugation: R = inv(W_re) Q, whose columns at each
        # pair are exact conjugates; equal to inv(W) up to rounding only.
        model = decompose(rng.standard_normal((12, 12)), dt=0.1)
        basis = model.basis
        assert basis.is_real and basis.pairs.size
        rebuilt = dataclasses.replace(model, R_b=None)
        np.testing.assert_array_equal(rebuilt.R_b, np.linalg.inv(model.W_b))
        r = rebuilt.R
        np.testing.assert_array_equal(r[:, basis.pairs + 1], r[:, basis.pairs].conj())
        assert not np.any(r[:, basis.lone].imag)
        n = model.n_psi
        tol = 10 * n * np.finfo(float).eps * model.condition_number
        assert np.linalg.norm(model.W @ r - np.eye(n)) <= tol
        assert np.linalg.norm(r - np.linalg.inv(model.W)) <= tol * np.linalg.norm(r)

    def test_left_eigenvector_residual(self, rng):
        k = random_diagonalizable(rng, 5)
        model = decompose(k, dt=0.2)
        residual = np.linalg.norm(model.W @ k - model.lambdas[:, None] * model.W)
        assert residual / np.linalg.norm(k) < 1e-8

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_left_residual_gate_scales_with_conditioning(self, dtype):
        # Eigenvectors with 2-norm condition ~1e8: forming W = R^-1 leaves a
        # left-eigenvector residual near 1e-8 (1.2e-8 on the complex path),
        # which a fixed 1e-8 cut-off rejected although it sits far below
        # n * eps * cond(R) ~ 1e-6.
        rng = np.random.default_rng(5)
        n = 60
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = q1 @ np.diag(np.geomspace(1e-4, 1e4, n)) @ q2.T
        d = rng.uniform(0.3, 0.98, n)
        k = s @ np.diag(d) @ np.linalg.inv(s)
        model = decompose(k.astype(dtype), dt=0.1)
        assert model.condition_number > 1e7
        residual = np.linalg.norm(model.W @ k - model.lambdas[:, None] * model.W)
        assert 1e-9 < residual / np.linalg.norm(k) < 1e-6

    def test_jordan_block_still_rejected(self):
        with pytest.raises(DiagonalizabilityError):
            decompose(np.array([[0.9, 1.0], [0.0, 0.9]]), dt=0.1)

    def test_spectrum_invariant_under_similarity(self, rng):
        k = random_diagonalizable(rng, 4)
        q = random_well_conditioned(rng, 4)
        a = decompose(k, dt=0.1).lambdas
        b = decompose(q @ k @ np.linalg.inv(q), dt=0.1).lambdas
        pi = solve_permutation(a, b)
        assert np.abs(a - b[pi]).max() < 1e-8


class TestEigenfunctions:
    def test_identity_w_halves_row(self):
        psi = np.array([[2.0, 1.0, 0.4]], dtype=complex)
        model = model_of(np.ones(1, dtype=complex), np.eye(1, dtype=complex))
        traj = eigenfunction_trajectories(model, raw_observables(psi))
        np.testing.assert_allclose(traj.phi, psi / 2.0, atol=1e-15)
        assert traj.scales[0] == pytest.approx(0.5)

    def test_rows_normalized_to_unit_max(self, rng):
        psi = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        model, traj = lifted_system(random_diagonalizable(rng, 4), psi)
        assert not traj.degenerate_rows
        np.testing.assert_allclose(
            np.max(np.abs(traj.phi), axis=1), np.ones(4), atol=1e-12
        )
        # The scales travel with the trajectory.
        np.testing.assert_array_equal(
            traj.scales, 1.0 / np.max(np.abs(model.W @ psi), axis=1)
        )

    def test_real_data_gives_conjugate_rows(self, rng):
        vals = rng.standard_normal((2, 40))
        obs = build_observables(series(vals), AuxiliaryConfig((0.8, 1.1)))
        model = decompose(identify_operator(obs, default_ridge(obs)), dt=obs.dt)
        traj = eigenfunction_trajectories(model, obs)
        basis = model.basis
        assert basis.is_real and basis.pairs.size
        assert conjugate_basis(model.lambdas, traj.phi, traj.scales).is_real
        np.testing.assert_array_equal(traj.phi[basis.pairs + 1], traj.phi[basis.pairs].conj())
        reference = model.W @ obs.psi
        scale = np.linalg.norm(model.W) * np.linalg.norm(obs.psi)
        tol = 10 * model.n_psi * np.finfo(float).eps * scale
        assert np.linalg.norm(traj.phi / traj.scales[:, None] - reference) <= tol

    def test_model_unchanged_by_trajectories(self, rng):
        model = decompose(random_diagonalizable(rng, 5), dt=0.1)
        before = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        snapshot = {k: np.array(v, copy=True) for k, v in before.items()}
        psi = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        eigenfunction_trajectories(model, raw_observables(psi))
        for name, value in before.items():
            assert getattr(model, name) is value
            np.testing.assert_array_equal(np.asarray(value), snapshot[name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.W_b = np.eye(5)
        # Under the complex basis W and R are the model's own arrays.
        assert model.basis is COMPLEX_BASIS
        real = decompose(rng.standard_normal((5, 5)), dt=0.1)
        for arr in (model.W, model.R, model.lambdas, real.W_b, real.R_b, real.lambdas):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_trajectory_is_read_only_and_holds_psi_uncopied(self, rng):
        obs = raw_observables(rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12)))
        traj = eigenfunction_trajectories(decompose(random_diagonalizable(rng, 5), dt=0.1), obs)
        assert np.shares_memory(traj.psi, obs.psi)
        np.testing.assert_array_equal(traj.psi, obs.psi)
        for arr in (traj.phi, traj.scales, traj.psi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # The trajectory's view leaves the caller's array as it was.
        assert obs.psi.flags.writeable

    def test_degenerate_row_flagged(self):
        psi = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        model = model_of(np.ones(2, dtype=complex), np.eye(2, dtype=complex))
        traj = eigenfunction_trajectories(model, raw_observables(psi))
        assert traj.degenerate_rows == (1,)
        assert traj.scales[1] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_sample_raises(self, bad):
        raw = np.array([[1.0, 2.0], [0.5, bad]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^eigenfunction samples contain non-finite entries$"):
                normalized_trajectory(raw, raw)

    def test_benchmark_rows_are_geometric(self):
        p = BenchmarkParams(steps=400)
        model, phi = benchmark_system(p, "f")
        growth = np.exp(model.lambdas * p.dt)
        predicted = phi.phi[:, :1] * growth[:, None] ** np.arange(400)[None, :]
        assert np.linalg.norm(predicted - phi.phi) / np.linalg.norm(phi.phi) < 1e-9

    def test_roundtrip_reconstruction(self, rng):
        psi = rng.standard_normal((5, 11)) + 1j * rng.standard_normal((5, 11))
        model, traj = lifted_system(random_diagonalizable(rng, 5), psi)
        rebuilt = reconstruct_observables(model, traj)
        assert np.linalg.norm(rebuilt - psi) / np.linalg.norm(psi) < 1e-8


class TestPredict:
    def test_zero_steps(self, rng):
        out = free_run(np.diag([0.5, 0.25]), [1.0, 2.0], steps=0)
        assert out.shape == (2, 1)
        np.testing.assert_array_equal(out[:, 0], [1.0, 2.0])

    def test_doubling_operator(self):
        out = free_run(2.0 * np.eye(2, dtype=complex), [1.0, 0.0], steps=3)
        np.testing.assert_array_equal(out[0], [1.0, 2.0, 4.0, 8.0])
        np.testing.assert_array_equal(out[1], np.zeros(4))

    @pytest.mark.parametrize(
        "k_dtype, psi_dtype, out_dtype",
        [(float, float, np.float64), (float, complex, np.complex128), (complex, float, np.complex128)],
    )
    def test_output_dtype_follows_inputs(self, k_dtype, psi_dtype, out_dtype):
        k = np.array([[0.5, 0.1], [0.0, 0.25]], dtype=k_dtype)
        out = free_run(k, np.array([1.0, 2.0], dtype=psi_dtype), steps=4)
        assert out.dtype == out_dtype
        np.testing.assert_allclose(out[:, 4], np.linalg.matrix_power(k, 4) @ [1.0, 2.0])

    def test_one_step_matches_identification_residual(self, rng):
        psi = rng.standard_normal((3, 20))
        obs = raw_observables(psi)
        k = identify_operator(obs, ridge=0.0)
        x, y = obs.psi[:, :-1], obs.psi[:, 1:]
        fit_res = np.linalg.norm(y - k @ x)
        for col in range(0, 19, 6):
            pred = free_run(k, obs.psi[:, col], steps=1)[:, 1]
            assert np.linalg.norm(pred - obs.psi[:, col + 1]) <= fit_res + 1e-12


class TestFitTheta:
    def test_single_candidate(self):
        vals = np.sin(np.arange(12))[None, :]
        train, hold = series(vals[:, :8]), series(vals[:, 8:])
        aux = fit_theta(train, hold, grid=[1.0])
        assert aux.theta == (1.0,)

    def test_selects_exhaustive_minimum_single_component(self, rng):
        # mildly nonlinear scalar dynamics so theta actually matters
        x = np.empty(40)
        x[0] = 0.9
        for n in range(39):
            x[n + 1] = 0.95 * x[n] - 0.2 * x[n] ** 3
        train, hold = series(x[None, :28]), series(x[None, 28:])
        grid = [0.1, 1.0, 10.0]
        aux = fit_theta(train, hold, grid)
        errs = {g: holdout_error(train, hold, AuxiliaryConfig((g,))) for g in grid}
        assert errs[aux.theta[0]] == pytest.approx(min(errs.values()))

    def test_beats_disabled_aux_on_nonlinear_data(self):
        from koopmetrics import hopper

        cfg = hopper.HopperConfig(steps=1501)
        trace = hopper.simulate_hopping(cfg)
        mc = hopper.morphological_computation(trace, bins=20)
        full = hopper.export_primary(trace, mc)
        train, hold = full.window(0, 1100), full.window(1100, 1300)
        fitted = fit_theta(train, hold, grid=[0.05, 0.5, 5.0])
        err_fitted = holdout_error(train, hold, fitted)
        err_plain = holdout_error(train, hold, None)
        assert err_fitted < err_plain

    def test_rejects_empty_grid(self):
        vals = np.ones((1, 6))
        with pytest.raises(ValueError, match="grid"):
            fit_theta(series(vals[:, :4]), series(vals[:, 4:]), grid=[])
