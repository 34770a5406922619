"""Hopping simulation, world-state binning, and information measures."""
import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from koopmetrics import koopman
from koopmetrics.hopper import (
    Actuator,
    HopperConfig,
    HopperTrace,
    IntegrationError,
    actuator_force,
    apex_heights,
    export_primary,
    morphological_computation,
    mutual_information,
    reference_from_trace,
    simulate_hopping,
    split_series,
    world_states,
)


@pytest.fixture(scope="module")
def nlm_trace():
    return simulate_hopping(HopperConfig())


@pytest.fixture(scope="module")
def lm_trace():
    return simulate_hopping(HopperConfig(actuator=Actuator.LINEARIZED_MUSCLE))


@pytest.fixture(scope="module")
def dc_trace(nlm_trace):
    cfg = HopperConfig(
        actuator=Actuator.DC_MOTOR, reference=reference_from_trace(nlm_trace)
    )
    return simulate_hopping(cfg)


def synthetic_trace(y, ydot, yddot, u=None, sensor=None, actuator=Actuator.NONLINEAR_MUSCLE):
    n = len(y)
    zeros = np.zeros(n)
    return HopperTrace(
        t=np.arange(n) * 0.01,
        y=np.asarray(y, dtype=float),
        ydot=np.asarray(ydot, dtype=float),
        yddot=np.asarray(yddot, dtype=float),
        u=zeros if u is None else np.asarray(u, dtype=float),
        force=zeros,
        sensor=zeros if sensor is None else np.asarray(sensor, dtype=float),
        contact=np.zeros(n, dtype=bool),
        actuator=actuator,
        dt=0.01,
    )


class TestActuatorForce:
    def test_zero_stimulation_zero_force(self):
        cfg = HopperConfig()
        assert actuator_force(cfg, 0.9, -0.5, 0.0) == 0.0
        cfg_lm = HopperConfig(actuator=Actuator.LINEARIZED_MUSCLE)
        assert actuator_force(cfg_lm, 0.9, -0.5, 0.0) == 0.0

    def test_tangent_matches_hyperbola_at_rest(self):
        cfg_n = HopperConfig()
        cfg_l = HopperConfig(
            actuator=Actuator.LINEARIZED_MUSCLE,
            params={"v_max": cfg_n.actuator_params()["v_max"], "gain_f": 0.03},
        )
        for y, u in ((0.95, 0.4), (0.88, 1.0), (0.99, 0.1)):
            f_n = actuator_force(cfg_n, y, 0.0, u)
            f_l = actuator_force(cfg_l, y, 0.0, u)
            assert abs(f_n - f_l) < 1e-12

    def test_hill_curve_monotone_in_shortening_velocity(self):
        cfg = HopperConfig()
        p = cfg.actuator_params()
        velocities = np.linspace(-0.2, p["v_max"], 400)
        forces = [actuator_force(cfg, 0.9, v, 1.0) for v in velocities]
        assert all(a >= b - 1e-12 for a, b in zip(forces, forces[1:]))
        assert forces[-1] == 0.0

    def test_unknown_actuator_rejected(self):
        with pytest.raises(ValueError):
            HopperConfig(actuator="hydraulic")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown actuator parameters"):
            HopperConfig(params={"warp": 1.0}).actuator_params()

    def test_replace_merges_the_new_actuator_defaults(self):
        cfg = replace(HopperConfig(params={"f_max": 70.0}), actuator="lm")
        assert cfg.actuator_params() == HopperConfig(
            actuator="lm", params={"f_max": 70.0}
        ).actuator_params()


# sha256 over the bytes of t, y, ydot, yddot, u, force, sensor and contact,
# in that order, of the three default traces.
TRACE_SHA256 = {
    "nlm": "77964bb9f99958308f80ca09eacda31f74d64e4f88b562955a2bbfcf226788f7",
    "lm": "3eafe816b09e4d2b82f9b4af57af3a895d55b0a9d008458cda3965d921c6046e",
    "dc": "d7ccf8e4236aa9de7ae1acb85f9a3f485fa4b1a8943fd022a455d24ba5160df1",
}


class TestSimulate:
    @pytest.mark.parametrize("name", sorted(TRACE_SHA256))
    def test_default_traces_bit_for_bit(self, request, name):
        trace = request.getfixturevalue(f"{name}_trace")
        digest = hashlib.sha256()
        for arr in (trace.t, trace.y, trace.ydot, trace.yddot, trace.u,
                    trace.force, trace.sensor, trace.contact):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == TRACE_SHA256[name]

    def test_state_blow_up_raises(self):
        # F / m overflows to inf on the first contact step.
        with pytest.raises(IntegrationError, match="state blew up at step 78"):
            simulate_hopping(HopperConfig(m=1e-308))

    def test_ballistic_when_force_disabled(self):
        cfg = HopperConfig(params={"f_max": 0.0}, steps=60, y_init=1.5)
        trace = simulate_hopping(cfg)
        t = trace.t
        expected = 1.5 - 0.5 * cfg.g * t**2
        # semi-implicit Euler drifts by g*dt*t/2 against the closed form
        assert np.max(np.abs(trace.y - expected)) <= 0.5 * cfg.g * cfg.dt * t[-1] + 1e-12
        assert np.all(trace.force[trace.y > cfg.l0] == 0.0)

    def test_steady_hopping_default_muscle(self, nlm_trace):
        apex = apex_heights(nlm_trace)
        assert len(apex) >= 8
        last = apex[-5:]
        assert (last.max() - last.min()) / last.mean() < 0.02

    def test_flight_force_is_zero(self, nlm_trace):
        assert np.all(nlm_trace.force[~nlm_trace.contact] == 0.0)

    def test_acceleration_consistent_with_force(self, nlm_trace):
        cfg = HopperConfig()
        np.testing.assert_allclose(
            nlm_trace.yddot, -cfg.g + nlm_trace.force / cfg.m, atol=1e-12
        )

    def test_flight_energy_conserved_per_step(self, nlm_trace):
        cfg = HopperConfig()
        e = cfg.m * cfg.g * nlm_trace.y + 0.5 * cfg.m * nlm_trace.ydot**2
        in_flight = ~nlm_trace.contact
        both = in_flight[:-1] & in_flight[1:]
        drift = np.abs(np.diff(e))[both]
        assert drift.max() <= cfg.m * cfg.g**2 * cfg.dt**2

    def test_dc_tracks_muscle_reference(self, nlm_trace, dc_trace):
        amplitude = nlm_trace.y.max() - nlm_trace.y.min()
        assert np.max(np.abs(dc_trace.y - nlm_trace.y)) < 0.05 * amplitude

    def test_dc_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            simulate_hopping(HopperConfig(actuator=Actuator.DC_MOTOR))

    def test_initial_height_validated(self):
        with pytest.raises(ValueError, match="exceed"):
            HopperConfig(y_init=0.9)

    @pytest.mark.parametrize(
        "field, value",
        [("g", math.nan), ("v_init", math.inf), ("y_init", math.nan), ("y_init", math.inf),
         ("m", math.inf), ("l0", math.inf)],
    )
    def test_non_finite_field_rejected(self, field, value):
        # Each of these once built a config that failed at step 0, or (m = inf)
        # simulated a trace on which the leg force had no effect.
        with pytest.raises(ValueError, match="must be finite"):
            HopperConfig(**{field: value})


class TestWorldStates:
    def test_lower_half_maps_to_zero(self):
        trace = synthetic_trace(
            y=[0.0, 0.1, 0.2], ydot=[0.0, 0.3, 0.1], yddot=[0.0, 0.2, 0.4]
        )
        # ranges are per-signal, so scale samples to sit in the lower bin
        trace2 = synthetic_trace(
            y=[0.0, 0.1, 1.0], ydot=[0.0, 0.3, 1.0], yddot=[0.0, 0.2, 1.0]
        )
        w = world_states(trace2, 2)
        assert w[0] == 0 and w[1] == 0

    def test_top_bin_sample(self):
        trace = synthetic_trace(y=[0.0, 1.0], ydot=[0.0, 1.0], yddot=[0.0, 1.0])
        w = world_states(trace, 3)
        assert w[1] == 3**3 - 1

    def test_matches_scalar_reimplementation(self, rng):
        y = rng.standard_normal(50)
        v = rng.standard_normal(50)
        a = rng.standard_normal(50)
        trace = synthetic_trace(y, v, a)
        bins = 7
        w = world_states(trace, bins)

        def bin_of(x, arr):
            lo, hi = arr.min(), arr.max()
            return min(int((x - lo) / (hi - lo) * bins), bins - 1)

        for n in range(50):
            expected = (
                bin_of(y[n], y) + bins * bin_of(v[n], v) + bins**2 * bin_of(a[n], a)
            )
            assert w[n] == expected

    def test_constant_signal_warns(self):
        trace = synthetic_trace(y=[1.0, 1.0, 1.0], ydot=[0, 1, 2], yddot=[0, 1, 2])
        with pytest.warns(RuntimeWarning, match="constant"):
            w = world_states(trace, 4)
        assert np.all(w % 4 == 0)

    def test_rejects_single_bin(self, nlm_trace):
        with pytest.raises(ValueError, match="bins"):
            world_states(nlm_trace, 1)


class TestMutualInformation:
    def test_identical_balanced_binary_is_one_bit(self):
        x = np.array([0, 1] * 500)
        assert mutual_information(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_partner_is_zero(self, rng):
        x = rng.integers(0, 4, 300)
        y = np.zeros(300, dtype=int)
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_joint_within_hundredth_bit(self, rng):
        # p(x, y) on {0,1}^2: [[0.4, 0.1], [0.1, 0.4]]
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        marg = joint.sum(axis=1)
        analytic = sum(
            joint[i, j] * np.log2(joint[i, j] / (marg[i] * marg[j]))
            for i in range(2)
            for j in range(2)
        )
        flat = rng.choice(4, size=10**5, p=joint.reshape(-1))
        x, y = flat // 2, flat % 2
        assert mutual_information(x, y) == pytest.approx(analytic, abs=0.01)

    def test_symmetry(self, rng):
        x = rng.integers(0, 5, 400)
        y = rng.integers(0, 3, 400)
        assert mutual_information(x, y) == pytest.approx(
            mutual_information(y, x), abs=1e-12
        )


class TestMorphologicalComputation:
    def test_deterministic_cycle_constant_control(self):
        reps = 60
        # one extra sample so every transition type occurs exactly reps times
        y = np.append(np.tile([0.0, 1.0, 2.0, 3.0], reps), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = synthetic_trace(
                y=y, ydot=np.zeros_like(y), yddot=np.zeros_like(y),
                u=np.ones_like(y), sensor=np.ones_like(y),
            )
            mc = morphological_computation(trace, bins=4)
        np.testing.assert_allclose(mc.i_control, 0.0, atol=1e-12)
        np.testing.assert_array_equal(mc.mc, mc.i_world)
        # uniform 4-cycle: every transition carries 2 bits
        assert mc.i_world.mean() == pytest.approx(2.0, abs=1e-9)

    def test_mean_pointwise_equals_plugin_mi(self, nlm_trace):
        mc = morphological_computation(nlm_trace, bins=30)
        w = mc.w
        assert mc.i_world.mean() == pytest.approx(
            mutual_information(w[1:], w[:-1]), abs=1e-9
        )

    def test_mc_identity_exact(self, nlm_trace):
        mc = morphological_computation(nlm_trace, bins=25)
        np.testing.assert_array_equal(mc.mc, mc.i_world - mc.i_control)

    def test_nonlinear_muscle_highest_mc(self, nlm_trace, lm_trace, dc_trace):
        means = {
            trace.actuator: morphological_computation(trace, bins=30).mc.mean()
            for trace in (nlm_trace, lm_trace, dc_trace)
        }
        assert means[Actuator.NONLINEAR_MUSCLE] > means[Actuator.LINEARIZED_MUSCLE]
        assert means[Actuator.NONLINEAR_MUSCLE] > means[Actuator.DC_MOTOR]

    def test_affine_rescale_of_y_invariant(self, nlm_trace):
        scaled = synthetic_trace(
            y=3.2 * nlm_trace.y - 1.7,
            ydot=nlm_trace.ydot,
            yddot=nlm_trace.yddot,
            u=nlm_trace.u,
            sensor=nlm_trace.sensor,
        )
        np.testing.assert_array_equal(
            world_states(nlm_trace, 30), world_states(scaled, 30)
        )
        base = morphological_computation(nlm_trace, bins=30)
        moved = morphological_computation(scaled, bins=30)
        np.testing.assert_allclose(base.mc, moved.mc, atol=1e-12)


class TestExport:
    def test_four_rows_and_default_split(self, nlm_trace):
        mc = morphological_computation(nlm_trace, bins=30)
        series = export_primary(nlm_trace, mc)
        assert series.values.shape == (4, 3500)
        assert series.names == ("y", "ydot", "u", "mc")
        train, test = split_series(series, 2500)
        assert train.n_steps == 2500 and test.n_steps == 1000

    def test_reduced_scale_model_free_runs_test_segment(self):
        trace = simulate_hopping(HopperConfig(steps=1801))
        mc = morphological_computation(trace, bins=30)
        series = export_primary(trace, mc)
        train, test = split_series(series, 1300)
        obs = koopman.build_observables(train, koopman.default_theta(train))
        # short training windows need a stiffer ridge than the default to
        # keep the free-running model inside the unit circle
        k = koopman.identify_operator(obs, 100.0 * koopman.default_ridge(obs))
        psi0 = koopman.lift_columns(obs, test.values[:, :1])[:, 0]
        pred = koopman.free_run(k, psi0, test.n_steps - 1)
        primary = pred[obs.primary_start : obs.aux_start].real
        for row, name in enumerate(("y", "ydot")):
            err = np.linalg.norm(primary[row] - test.values[row]) / np.linalg.norm(
                test.values[row]
            )
            assert err < 0.15, f"{name} free-run error {err:.3f}"
