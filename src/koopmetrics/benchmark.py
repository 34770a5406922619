"""Analytic two-parameter benchmark pair for exercising the pseudometrics.

System f is the canonical slow-manifold pair (mu x1, lambda (x2 - x1^2));
system g is its image under the linear change of coordinates h, with scale
knobs alpha (on mu) and beta (on lambda) that pull it off conjugacy. Both
systems have exact finite Koopman generators on the dictionaries
[x1, x2, x1^2] and [y1, y2, (y1+y2)^2], so trajectories are synthesized by
exact matrix exponentials: no integration error enters the comparison.

The spectral side of the comparison uses the generator eigenvalues directly
(mu, lambda, 2 mu and their alpha/beta-scaled counterparts). Sampling-time
exponentials e^(lambda dt) compress every spectral gap by roughly dt and
would make the operator residual meaningless next to the trajectory
residual at any realistic sampling rate.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import conjugacy
from .koopman import (
    EigenfunctionTrajectory,
    KoopmanModel,
    ObservableMatrix,
    decompose,
    eigenfunction_trajectories,
)
from .linalg import EigResult

SWEEP_COLUMNS = (
    "alpha",
    "beta",
    "d_min",
    "d_avg",
    "d_max",
    "r1_cr1",
    "r2_cr1",
    "r1_cr2",
    "r2_cr2",
    "c_gap",
    "error",
)

SWEEP_CHUNK = 32


@dataclass(frozen=True)
class BenchmarkParams:
    """Continuous-time rates, scale factors, and sampling settings.

    ``y0`` overrides the starting point of system g; by default g starts at
    h(x0), the conjugate image of the f start.
    """

    mu: complex = -0.001 + 1.0j
    lam: complex = -0.1 + 10.0j
    alpha: float = 1.0
    beta: float = 1.0
    dt: float = 0.01
    steps: int = 1000
    x0: tuple[float, float] = (1.0, 0.5)
    y0: tuple[float, float] | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")


def analytic_generators(p: BenchmarkParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact continuous-time Koopman generators of the two systems."""
    mu, lam = p.mu, p.lam
    am, bl = p.alpha * mu, p.beta * lam
    k_f = np.array(
        [
            [mu, 0.0, 0.0],
            [0.0, lam, -lam],
            [0.0, 0.0, 2.0 * mu],
        ],
        dtype=complex,
    )
    k_g = np.array(
        [
            [2.0 * am - bl, 2.0 * am - 2.0 * bl, bl],
            [bl - am, 2.0 * bl - am, -bl],
            [0.0, 0.0, 2.0 * am],
        ],
        dtype=complex,
    )
    return k_f, k_g


def conjugate_h() -> np.ndarray:
    """The linear homeomorphism mapping f states to g states at alpha=beta=1."""
    return np.array([[2.0, -1.0], [-1.0, 1.0]])


def _initial_observables(p: BenchmarkParams, system: str) -> np.ndarray:
    x0 = np.asarray(p.x0, dtype=complex)
    if system == "f":
        return np.array([x0[0], x0[1], x0[0] ** 2])
    if system == "g":
        y0 = np.asarray(p.y0, dtype=complex) if p.y0 is not None else conjugate_h() @ x0
        return np.array([y0[0], y0[1], (y0[0] + y0[1]) ** 2])
    raise ValueError(f"system must be 'f' or 'g', got {system!r}")


def simulate_observables(
    gen: EigResult, p: BenchmarkParams, system: str = "f"
) -> ObservableMatrix:
    """Sample the observable trajectory under a generator, given as eig(K).

    Column n holds the observables at time n*dt, evolved through the
    eigendecomposition of the generator so the sequence is exact to rounding.
    The three-observable dictionary is used as is: no constant row and no
    auxiliary features.
    """
    coeffs = gen.W @ _initial_observables(p, system)
    times = np.arange(p.steps) * p.dt
    modes = np.exp(np.outer(gen.lambdas, times)) * coeffs[:, None]
    psi = gen.R @ modes
    names = ("x1", "x2", "x1^2") if system == "f" else ("y1", "y2", "(y1+y2)^2")
    return ObservableMatrix(
        psi=psi,
        names=names,
        has_constant=False,
        n_primary=3,
        aux=None,
        train_snapshots=None,
        dt=p.dt,
    )


def benchmark_system(
    p: BenchmarkParams, system: str
) -> tuple[KoopmanModel, EigenfunctionTrajectory]:
    """Generator-spectrum model plus sampled eigenfunction trajectory, which carries Psi."""
    k_f, k_g = analytic_generators(p)
    model = decompose(k_f if system == "f" else k_g, p.dt)
    return model, eigenfunction_trajectories(model, simulate_observables(model, p, system))


def compare_pair(p: BenchmarkParams, normalization: str = "f") -> conjugacy.ConjugacyReport:
    """Compare system f against system g at the params' alpha, beta."""
    model_f, phi_f = benchmark_system(p, "f")
    model_g, phi_g = benchmark_system(p, "g")
    return conjugacy.compare(model_f, phi_f, model_g, phi_g, normalization)


def grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive uniform grid lo, lo+step, ..., hi (hi kept within half a step)."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"empty grid for range [{lo}, {hi}] at step {step}")
    return np.round(lo + step * np.arange(count), 12)


def _sweep_point(args) -> tuple:
    alpha, beta, p, f = args
    point = replace(p, alpha=float(alpha), beta=float(beta))
    try:
        g = conjugacy.prepare(*benchmark_system(point, "g"))
        report = conjugacy.compare_prepared(f, g, "f")
        c = report.corners
        c_r2 = c.c_r2
        c_gap = float(np.linalg.norm(c.c_r1 - c_r2) / np.linalg.norm(c_r2))
        return (
            float(alpha),
            float(beta),
            report.deviations.d_min,
            report.deviations.d_avg,
            report.deviations.d_max,
            c.r1_at_cr1,
            c.r2_at_cr1,
            c.r1_at_cr2,
            c.r2_at_cr2,
            c_gap,
            "",
        )
    except Exception as exc:  # per-point failures become rows, not aborts
        nan = float("nan")
        return (float(alpha), float(beta)) + (nan,) * 8 + (f"{type(exc).__name__}: {exc}",)


def sweep(
    alpha_values,
    beta_values,
    p: BenchmarkParams,
    parallel: int = 1,
) -> list[tuple]:
    """Deviation table over an (alpha, beta) grid, one row per point.

    System f depends on neither alpha nor beta, so it is built, prepared and
    factorized once (a failure there raises), and every point, in any
    worker, compares against that one prepared f. Each point builds only g,
    and a failure there becomes its row. At most ``parallel`` workers run,
    and no more than the CPUs or the chunks of SWEEP_CHUNK points. Rows are
    sorted by (alpha, beta), so any worker count yields identical output.
    """
    alphas = np.asarray(alpha_values, dtype=float)
    betas = np.asarray(beta_values, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("sweep ranges must be nonempty")
    f = conjugacy.prepare(*benchmark_system(p, "f"))
    # Factorize f now, before any worker receives a pickled copy of it.
    f.pinv_psi
    points = [(a, b, p, f) for a in alphas for b in betas]
    workers = min(parallel, os.cpu_count() or 1, -(-len(points) // SWEEP_CHUNK))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points, chunksize=SWEEP_CHUNK))
    else:
        rows = [_sweep_point(pt) for pt in points]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
