"""One-dimensional hopping with swappable actuators, plus the information
measures used to compare them.

The body is a point mass on a massless leg: in flight it is ballistic, in
ground contact (y <= l0) the actuator supplies a leg force

    m y'' = -m g + F_L(y, y', u)   (contact),   m y'' = -m g   (flight).

Three actuator models are provided. The muscle uses a force-length parabola
and a force-velocity hyperbola gated by a stimulation signal u in [0, 1]
driven by force feedback; the linearized muscle replaces the force-velocity
curve with its tangent at zero velocity; the DC motor produces force from a
first-order electrical circuit whose voltage command comes from PD tracking
of a recorded reference trajectory. Default parameter values are tuned for
steady hopping at the shipped time step and are documented constants, not
measurements.

Morphological computation treats the body as an information channel: per
step, mc_n = i(w_{n+1}; w_n) - i(u_n; s_n), where w is a binned composite
world state of (y, y', y''), s is the actuator's sensor, and i(a; b) =
log2(p(a|b)/p(a)) is the pointwise information whose average over the trace
is exactly the plug-in mutual information.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .koopman import PrimarySeries


class Actuator(str, Enum):
    NONLINEAR_MUSCLE = "nlm"
    LINEARIZED_MUSCLE = "lm"
    DC_MOTOR = "dc"


MUSCLE_DEFAULTS: dict[str, float] = {
    "f_max": 80.0,      # peak isometric force, N
    "dl_opt": 0.12,     # contraction at peak force-length, m
    "dl_width": 0.18,   # force-length parabola half width, m
    "v_max": 3.0,       # max shortening velocity, m/s
    "curvature": 1.5,   # force-velocity hyperbola shape factor
    "ecc_max": 1.4,     # eccentric force plateau (times isometric)
    "gain_f": 0.030,    # excitation per newton of leg force
    "bias": 0.05,       # baseline excitation
    "tau_act": 0.08,    # activation time constant, s (dt recovers the
                        # undelayed one-step feedback law)
}

# The linearized muscle keeps the muscle's geometry but is retuned (wider
# velocity range, its own feedback gain) so it hops at the same height as
# the nonlinear muscle despite the tangent force-velocity line.
LINEARIZED_DEFAULTS: dict[str, float] = dict(
    MUSCLE_DEFAULTS, v_max=5.0, gain_f=0.027
)

DC_DEFAULTS: dict[str, float] = {
    "v_supply": 24.0,   # supply voltage, V
    "resistance": 1.2,  # armature resistance, ohm
    "tau_elec": 0.003,  # electrical time constant L/R, s
    "k_torque": 6.0,    # force per ampere through the transmission, N/A
    "k_emf": 0.05,      # back-EMF per unit leg speed, V s/m
    "kp": 240.0,        # proportional tracking gain, 1/m
    "kd": 12.0,         # derivative tracking gain, s/m
}


class IntegrationError(RuntimeError):
    """State became non-finite during simulation."""


@dataclass(frozen=True)
class HopperConfig:
    """Mass, leg geometry, time grid, and actuator selection.

    ``params`` overrides individual entries of the per-actuator defaults. The
    merge is resolved and checked once, here, so no parameter of a config
    that exists fails later: ValueError unless m, g, l0, dt, y_init and
    v_init are finite, m, l0 and dt positive, y_init above l0, each override
    a known key with a finite value, and the divisors dl_width, v_max and
    tau_act (muscles) or resistance and tau_elec (DC motor) positive. The DC
    motor needs ``reference``: the (y, ydot) arrays it should track,
    normally recorded from a nonlinear-muscle run.
    """

    m: float = 1.0
    g: float = 9.81
    l0: float = 1.0
    dt: float = 0.002
    steps: int = 3501
    actuator: Actuator = Actuator.NONLINEAR_MUSCLE
    params: dict[str, float] = field(default_factory=dict)
    y_init: float = 1.12
    v_init: float = 0.0
    reference: tuple[np.ndarray, np.ndarray] | None = None
    _merged: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "actuator", Actuator(self.actuator))
        if not all(map(math.isfinite, (self.m, self.g, self.l0, self.dt, self.y_init, self.v_init))):
            raise ValueError("m, g, l0, dt, y_init and v_init must be finite")
        if not (self.m > 0 and self.l0 > 0 and self.dt > 0):
            raise ValueError("m, l0 and dt must be positive")
        if self.steps < 3:
            raise ValueError("steps must be at least 3")
        if self.y_init <= self.l0:
            raise ValueError(
                f"initial height {self.y_init} must exceed leg length {self.l0}"
            )
        base = {
            Actuator.NONLINEAR_MUSCLE: MUSCLE_DEFAULTS,
            Actuator.LINEARIZED_MUSCLE: LINEARIZED_DEFAULTS,
            Actuator.DC_MOTOR: DC_DEFAULTS,
        }[self.actuator]
        unknown = set(self.params) - set(base)
        if unknown:
            raise ValueError(f"unknown actuator parameters: {sorted(unknown)}")
        merged = {**base, **self.params}
        divisors = ("resistance", "tau_elec") if base is DC_DEFAULTS else ("dl_width", "v_max", "tau_act")
        for key, value in merged.items():
            if not math.isfinite(value) or (key in divisors and value <= 0):
                positive = " and positive" if key in divisors else ""
                raise ValueError(f"actuator parameter {key} must be finite{positive}, got {value:g}")
        object.__setattr__(self, "_merged", merged)

    def actuator_params(self) -> dict[str, float]:
        """The actuator's defaults with ``params`` applied (a copy)."""
        return dict(self._merged)


@dataclass(frozen=True)
class HopperTrace:
    """Simulated time series; flight steps always carry zero leg force."""

    t: np.ndarray
    y: np.ndarray
    ydot: np.ndarray
    yddot: np.ndarray
    u: np.ndarray
    force: np.ndarray
    sensor: np.ndarray
    contact: np.ndarray
    actuator: Actuator
    dt: float

    @property
    def steps(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class McSeries:
    """Pointwise information bookkeeping for one trace.

    ``mc = i_world - i_control`` holds exactly, elementwise, and each series
    has one entry per consecutive step pair.
    """

    bins: int
    w: np.ndarray
    i_world: np.ndarray
    i_control: np.ndarray
    mc: np.ndarray


def _leg_force(cfg: HopperConfig):
    """``actuator_force`` as a float function of (y, ydot, u, current)."""
    p = cfg._merged
    if cfg.actuator is Actuator.DC_MOTOR:
        return lambda y, ydot, u, current: p["k_torque"] * current
    l0, f_max, dl_opt, dl_width = cfg.l0, p["f_max"], p["dl_opt"], p["dl_width"]
    v_max, curvature, ecc_max = p["v_max"], p["curvature"], p["ecc_max"]
    nonlinear = cfg.actuator is Actuator.NONLINEAR_MUSCLE
    # Tangent of the hyperbola at v = 0: slope -(1 + curvature)/v_max.
    slope = (1.0 + curvature) / v_max

    def force(y, ydot, u, current):
        rel = (l0 - y - dl_opt) / dl_width
        f_l = max(0.0, 1.0 - rel * rel)
        if nonlinear:
            denom = v_max + curvature * ydot
            f_v = (v_max - ydot) / denom if denom > 1e-12 else ecc_max
        else:
            f_v = 1.0 - slope * ydot
        return max(0.0, u * f_max * f_l * min(max(f_v, 0.0), ecc_max))

    return force


def actuator_force(cfg: HopperConfig, y: float, ydot: float, u: float, current: float = 0.0) -> float:
    """Leg force in ground contact for the configured actuator.

    Muscle variants: F = u * f_max * f_l(l0 - y) * f_v(ydot), clamped
    nonnegative, with f_v either the full hyperbola (1 at rest, 0 at v_max,
    ecc_max where it would blow up) or its zero-velocity tangent, clamped to
    [0, ecc_max]. DC motor: F = k_torque * current (the caller integrates
    the electrical state). ``simulate_hopping`` applies this same force.
    """
    return float(_leg_force(cfg)(y, ydot, u, current))


def simulate_hopping(cfg: HopperConfig) -> HopperTrace:
    """Semi-implicit Euler integration of the hopping dynamics.

    Contact switching is evaluated once per step from the current height.
    Muscle excitation follows one-step force feedback
    stim_n = clip(gain_f * F_n + bias, 0, 1); activation u lags it through a
    first-order filter with time constant tau_act (tau_act = dt makes
    u_{n+1} = stim_n exactly). The lag is what lets the muscle do net
    positive work over a stance: without it, force peaks at maximum
    compression and every cycle loses energy to the force-velocity curve.
    The DC motor runs PD tracking of the configured reference through its
    electrical dynamics; a missing or short reference is a ValueError. The
    steps run in plain floats; a non-finite state raises IntegrationError.
    """
    p = cfg._merged
    n = cfg.steps
    is_dc = cfg.actuator is Actuator.DC_MOTOR
    if is_dc:
        if cfg.reference is None:
            raise ValueError(
                "DC motor needs a (y, ydot) reference trajectory to track"
            )
        y_ref, v_ref = cfg.reference
        if len(y_ref) < n or len(v_ref) < n:
            raise ValueError(
                f"reference length {len(y_ref)} shorter than {n} steps"
            )
        y_ref, v_ref = (np.asarray(r, dtype=float).tolist() for r in (y_ref, v_ref))

    leg_force = _leg_force(cfg)
    dt, g, m, l0 = float(cfg.dt), float(cfg.g), float(cfg.m), float(cfg.l0)
    y_cur, v_cur = float(cfg.y_init), float(cfg.v_init)
    u_cur = 0.0 if is_dc else p["bias"]
    current = 0.0
    rows = []  # (y, ydot, yddot, u, force, sensor, contact) per step

    for i in range(n):
        in_contact = y_cur <= l0
        if is_dc:
            raw = p["kp"] * (y_ref[i] - y_cur) + p["kd"] * (v_ref[i] - v_cur)
            u_cur = min(max(raw, -1.0), 1.0)
            # First-order armature: tau di/dt = (u V - k_emf*(-ydot) - R i)/R
            emf = p["k_emf"] * (-v_cur)
            di = (u_cur * p["v_supply"] - emf - p["resistance"] * current) / (
                p["resistance"] * p["tau_elec"]
            )
            current += dt * di
        f_cur = leg_force(y_cur, v_cur, u_cur, current) if in_contact else 0.0
        a_cur = -g + f_cur / m

        rows.append((y_cur, v_cur, a_cur, u_cur, f_cur, raw if is_dc else f_cur, in_contact))
        if not is_dc:
            stim = min(max(p["gain_f"] * f_cur + p["bias"], 0.0), 1.0)
            u_cur = u_cur + (dt / p["tau_act"]) * (stim - u_cur)
            u_cur = min(max(u_cur, 0.0), 1.0)

        v_cur = v_cur + dt * a_cur
        y_cur = y_cur + dt * v_cur
        if not (math.isfinite(y_cur) and math.isfinite(v_cur)):
            raise IntegrationError(f"state blew up at step {i}")

    y, v, acc, u, force, sensor, contact = np.array(rows, dtype=float).T.copy()
    return HopperTrace(
        t=np.arange(n) * cfg.dt, y=y, ydot=v, yddot=acc, u=u, force=force,
        sensor=sensor, contact=contact.astype(bool), actuator=cfg.actuator, dt=cfg.dt,
    )


def reference_from_trace(trace: HopperTrace) -> tuple[np.ndarray, np.ndarray]:
    """(y, ydot) arrays for DC motor tracking."""
    return trace.y.copy(), trace.ydot.copy()


def apex_heights(trace: HopperTrace) -> np.ndarray:
    """Heights of flight-phase apices (local maxima outside ground contact)."""
    y = trace.y
    inner = (y[1:-1] >= y[:-2]) & (y[1:-1] > y[2:]) & ~trace.contact[1:-1]
    idx = np.flatnonzero(inner) + 1
    return y[idx]


def _bin_indices(x: np.ndarray, bins: int, name: str = "signal") -> np.ndarray:
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi <= lo:
        warnings.warn(f"{name} is constant; all samples map to bin 0", RuntimeWarning)
        return np.zeros(x.shape[0], dtype=int)
    scaled = (x - lo) / (hi - lo) * bins
    return np.clip(scaled.astype(int), 0, bins - 1)


def world_states(trace: HopperTrace, bins: int) -> np.ndarray:
    """Composite world-state symbols w = bin(y) + bins*bin(y') + bins^2*bin(y'').

    Each coordinate is binned independently into equal-width bins over its
    own observed range, so the symbols are invariant to affine rescaling of
    any coordinate.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    by = _bin_indices(trace.y, bins, "y")
    bv = _bin_indices(trace.ydot, bins, "ydot")
    ba = _bin_indices(trace.yddot, bins, "yddot")
    return by + bins * bv + bins * bins * ba


def _compact(x: np.ndarray) -> np.ndarray:
    """Relabel symbols onto 0..k-1 (information measures are label-free)."""
    _, inv = np.unique(x, return_inverse=True)
    return inv


def _joint_counts(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint counts over the observed alphabets, plus compacted streams."""
    xc, yc = _compact(x), _compact(y)
    sx, sy = int(xc.max()) + 1, int(yc.max()) + 1
    flat = np.bincount(xc * sy + yc, minlength=sx * sy)
    return flat.reshape(sx, sy), xc, yc


def mutual_information(x_sym, y_sym) -> float:
    """Plug-in mutual information of two symbol streams, in bits.

    Estimated from the empirical joint distribution; empty cells contribute
    zero. Marginals are taken from the joint, so the value matches the
    average of the pointwise information over the same samples exactly.
    """
    x = np.asarray(x_sym, dtype=int)
    y = np.asarray(y_sym, dtype=int)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("symbol streams must be equal-length 1-D arrays")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    counts, _, _ = _joint_counts(x, y)
    total = counts.sum()
    px = counts.sum(axis=1) / total
    py = counts.sum(axis=0) / total
    pxy = counts / total
    mask = counts > 0
    ratio = pxy[mask] / (np.outer(px, py)[mask])
    return float(np.sum(pxy[mask] * np.log2(ratio)))


def _pointwise_information(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """i(a_n; b_n) = log2(p(a|b)/p(a)) per sample, from plug-in estimates."""
    counts, ac, bc = _joint_counts(a, b)
    total = counts.sum()
    ca = counts.sum(axis=1)
    cb = counts.sum(axis=0)
    return np.log2(counts[ac, bc] * total / (ca[ac] * cb[bc]))


def morphological_computation(trace: HopperTrace, bins: int = 30) -> McSeries:
    """State-dependent morphological computation series of a trace.

    For every consecutive step pair: mc_n = i(w_{n+1}; w_n) - i(u_n; s_n).
    The world channel uses the composite world-state symbols; the control
    channel bins stimulation u against the actuator's sensor (leg force for
    muscles, a composite of binned y and ydot for the DC motor). Averaging
    i_world recovers the plug-in mutual information of the world channel
    exactly.
    """
    if trace.steps < 3:
        raise ValueError("trace too short for information estimates")
    w = world_states(trace, bins)
    w_next, w_prev = w[1:], w[:-1]
    i_world = _pointwise_information(w_next, w_prev)

    u_sym = _bin_indices(trace.u, bins, "u")[:-1]
    if trace.actuator is Actuator.DC_MOTOR:
        s_sym = (
            _bin_indices(trace.y, bins, "y")
            + bins * _bin_indices(trace.ydot, bins, "ydot")
        )[:-1]
    else:
        s_sym = _bin_indices(trace.sensor, bins, "force")[:-1]
    i_control = _pointwise_information(u_sym, s_sym)

    return McSeries(
        bins=bins,
        w=w,
        i_world=i_world,
        i_control=i_control,
        mc=i_world - i_control,
    )


def export_primary(trace: HopperTrace, mc: McSeries) -> PrimarySeries:
    """Bundle (y, ydot, u, mc) into a PrimarySeries for identification.

    The series is one step shorter than the trace because mc needs the next
    world state. With the default 3501-step trace this yields the standard
    2500-step training / 1000-step test split.
    """
    n = mc.mc.shape[0]
    values = np.vstack([trace.y[:n], trace.ydot[:n], trace.u[:n], mc.mc])
    return PrimarySeries(names=("y", "ydot", "u", "mc"), values=values, dt=trace.dt)


def split_series(series: PrimarySeries, n_train: int) -> tuple[PrimarySeries, PrimarySeries]:
    """(training, holdout) split at column n_train."""
    if not 2 <= n_train <= series.n_steps - 2:
        raise ValueError(
            f"n_train {n_train} incompatible with {series.n_steps} steps"
        )
    return series.window(0, n_train), series.window(n_train, series.n_steps)
