"""Koopman operator identification from time-series observables.

The pipeline is: raw primary series (states, controls, handpicked nonlinear
observables) -> observable matrix with a constant row and kernel-correlation
auxiliary rows -> operator K from ridge-regularized least squares on the
one-step shift -> eigenfunction trajectories Phi = diag(scales) @ W @ Psi,
where W holds the left eigenvectors of K and each Phi row is rescaled so its
largest modulus over the trajectory is exactly one. Phi is always taken
from data: ``build_observables`` is deterministic, so a saved model, which
keeps its training series and theta, re-lifts the Psi it was fitted on bit
for bit (``io.ModelRecord.implied_trajectory``).

Auxiliary observables are correlation features against the stored training
snapshots: feature j of column n is

    prod_k max(0, 1 - theta_k * |primary[k, n] - train[k, j]|)

so a lifted state outside the training window is still well defined (the
features act like a kernel regressor centered on the training data).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DiagonalizabilityError, EigResult, as_matrix, eig

DEGENERATE_ROW_TOL = 1e-14

# decompose() gates ||W K - diag(lambdas) W||_F / ||K||_F below this multiple
# of n * eps * cond_F(R), a backward-error bound: forming W = R^-1 alone leaves
# about eps * cond(R), while a W that is no left-eigenvector matrix is off by
# order one.
LEFT_RESIDUAL_FACTOR = 10.0


class IdentificationError(Exception):
    """Least-squares identification could not produce an operator."""


class FitError(Exception):
    """No candidate in a hyperparameter search produced a usable model."""


@dataclass(frozen=True)
class PrimarySeries:
    """Named real-valued observables sampled on a uniform time grid.

    ``values`` has one row per observable and one column per time step.
    """

    names: tuple[str, ...]
    values: np.ndarray
    dt: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", tuple(self.names))
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {vals.shape}")
        if len(self.names) != vals.shape[0]:
            raise ValueError(
                f"{len(self.names)} names for {vals.shape[0]} observable rows"
            )
        if vals.shape[1] < 2:
            raise ValueError("need at least 2 time steps")
        if not np.all(np.isfinite(vals)):
            raise ValueError("primary series contains non-finite entries")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def n_primary(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "PrimarySeries":
        """Contiguous sub-series over columns [start, stop)."""
        return PrimarySeries(self.names, self.values[:, start:stop], self.dt)


@dataclass(frozen=True)
class AuxiliaryConfig:
    """Correlation-feature settings: one positive width theta_k per primary row.
    Where an ``AuxiliaryConfig | None`` is taken, None means no auxiliary rows."""

    theta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if any(t <= 0 for t in self.theta):
            raise ValueError(f"theta entries must be positive, got {self.theta}")


@dataclass
class ObservableMatrix:
    """Lifted observables, one column per time step.

    Layout (row blocks, in order): optional constant row of ones, primary
    rows, then one auxiliary row per stored training snapshot. Real data is
    stored as float64, anything else as complex128.
    """

    psi: np.ndarray
    names: tuple[str, ...]
    has_constant: bool
    n_primary: int
    aux: AuxiliaryConfig | None
    train_snapshots: np.ndarray | None
    dt: float

    def __post_init__(self):
        self.psi = as_matrix(self.psi, "psi")
        self.names = tuple(self.names)
        if self.has_constant and not np.all(self.psi[0] == 1.0):
            raise ValueError("constant row (index 0) must be exactly ones")
        if self.aux is not None:
            aux_block = self.psi[self.aux_start :]
            if aux_block.size and (
                np.min(aux_block.real) < 0.0 or np.max(aux_block.real) > 1.0
            ):
                raise ValueError("auxiliary entries must lie in [0, 1]")

    @property
    def n_psi(self) -> int:
        return self.psi.shape[0]

    @property
    def n_steps(self) -> int:
        return self.psi.shape[1]

    @property
    def primary_start(self) -> int:
        return 1 if self.has_constant else 0

    @property
    def aux_start(self) -> int:
        return self.primary_start + self.n_primary


@dataclass(frozen=True, kw_only=True)
class KoopmanModel(EigResult):
    """Spectral decomposition of an identified operator K, with its ridge and dt.

    The factors are held as ``eig`` made them (``EigResult``), real for a real
    K. K is not kept: ``decompose`` gates it and ``free_run`` takes it. The
    model is immutable; an eigenfunction trajectory carries its ``scales`` and ``psi``.
    """

    ridge: float
    dt: float

    @property
    def n_psi(self) -> int:
        return self.lambdas.shape[0]


@dataclass(frozen=True)
class EigenfunctionTrajectory:
    """Row-normalized eigenfunction samples Phi = diag(scales) @ W @ Psi, and their Psi.

    ``phi``, ``scales`` and ``psi`` are read-only views of the arrays given.
    Rows whose raw maximum modulus fell below DEGENERATE_ROW_TOL are kept
    unscaled and listed in ``degenerate_rows``.
    """

    phi: np.ndarray
    scales: np.ndarray
    psi: np.ndarray
    degenerate_rows: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for name in ("phi", "scales", "psi"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_psi(self) -> int:
        return self.phi.shape[0]

    @property
    def n_steps(self) -> int:
        return self.phi.shape[1]


def correlation_features(
    columns: np.ndarray, snapshots: np.ndarray, theta
) -> np.ndarray:
    """Auxiliary feature block for the given primary columns.

    Entry (j, n) is the product over primary components k of
    max(0, 1 - theta_k * |columns[k, n] - snapshots[k, j]|); values always
    land in [0, 1] and hit 1 exactly when a column equals snapshot j.
    """
    cols = np.asarray(columns, dtype=float)
    snaps = np.asarray(snapshots, dtype=float)
    th = np.asarray(theta, dtype=float)
    if cols.shape[0] != snaps.shape[0]:
        raise ValueError("columns and snapshots disagree on primary dimension")
    if th.shape[0] != cols.shape[0]:
        raise ValueError(
            f"{th.shape[0]} theta values for {cols.shape[0]} primary observables"
        )
    out = np.ones((snaps.shape[1], cols.shape[1]))
    for k in range(cols.shape[0]):
        dist = np.abs(snaps[k][:, None] - cols[k][None, :])
        out *= np.maximum(0.0, 1.0 - th[k] * dist)
    return out


def _lift(cols, has_constant: bool, aux: AuxiliaryConfig | None, snapshots) -> np.ndarray:
    """The observable layout: [constant row; primary rows ``cols``; correlation features]."""
    blocks = [np.ones((1, cols.shape[1]))] if has_constant else []
    blocks.append(cols)
    if aux is not None:
        blocks.append(correlation_features(cols, snapshots, aux.theta))
    return np.vstack(blocks)


def build_observables(primary: PrimarySeries, aux: AuxiliaryConfig | None) -> ObservableMatrix:
    """Assemble the observable matrix: constant row, primary rows, aux rows.

    With auxiliaries (``aux`` not None) the lifted dimension is
    1 + n_primary + n_steps (one aux row per training time step).
    """
    snapshots = None
    if aux is not None:
        if len(aux.theta) != primary.n_primary:
            raise ValueError(
                f"{len(aux.theta)} theta values for {primary.n_primary} primary observables"
            )
        snapshots = primary.values.copy()
    return ObservableMatrix(
        psi=_lift(primary.values, True, aux, snapshots),
        names=primary.names,
        has_constant=True,
        n_primary=primary.n_primary,
        aux=aux,
        train_snapshots=snapshots,
        dt=primary.dt,
    )


def lift_columns(obs: ObservableMatrix, primary_columns: np.ndarray) -> np.ndarray:
    """Lift new primary columns into the observable space of ``obs``.

    Auxiliary rows are evaluated against the stored training snapshots, so
    this works for states outside the training window.
    """
    cols = np.atleast_2d(np.asarray(primary_columns, dtype=float))
    if cols.shape[0] != obs.n_primary:
        raise ValueError(
            f"expected {obs.n_primary} primary rows, got {cols.shape[0]}"
        )
    return _lift(cols, obs.has_constant, obs.aux, obs.train_snapshots)


def default_ridge(obs: ObservableMatrix) -> float:
    """Default ridge: 1e-10 * trace(X X*) / n_psi on the shifted data."""
    x = obs.psi[:, :-1]
    return float(1e-10 * np.sum(np.abs(x) ** 2) / obs.n_psi)


def identify_operator(obs: ObservableMatrix, ridge: float = 0.0) -> np.ndarray:
    """One-step least squares fit K = Y X* (X X* + ridge I)^-1.

    X and Y are the observable matrix without its last / first column; K is
    float64 when the observables are. With ridge = 0 the solution is the
    exact least squares operator and requires X X* to be well conditioned.
    """
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    if obs.n_steps < 2:
        raise ValueError("need at least 2 time steps to identify an operator")
    x = obs.psi[:, :-1]
    y = obs.psi[:, 1:]
    gram = x @ x.conj().T
    cross = y @ x.conj().T
    if ridge > 0.0:
        gram = gram + ridge * np.eye(obs.n_psi)
    else:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e14:
            raise IdentificationError(
                f"X X* is singular (condition {cond:.3e}); pass ridge > 0"
            )
    try:
        k = np.linalg.solve(gram.T, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise IdentificationError(
            "normal equations are singular; pass ridge > 0"
        ) from exc
    return k


def decompose(K, dt: float, ridge: float = 0.0) -> KoopmanModel:
    """Spectral decomposition of an identified operator: the model holds eig(K).

    The model is an ``EigResult``, so it serves wherever eig(K) would. The
    left-eigenvector residual of W @ K = diag(lambdas) @ W is gated in eig's
    basis, where for a real K W_re K is a real product.
    """
    arr = as_matrix(K, "K")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"K must be square, got shape {arr.shape}")
    res = eig(arr)
    k_norm = np.linalg.norm(arr)
    if k_norm > 0:
        # ||W K - Lambda W|| is the same in the real canonical basis, if any.
        residual = np.linalg.norm(res.W_b @ arr - res.basis.scale_rows(res.lambdas, res.W_b)) / k_norm
        bound = LEFT_RESIDUAL_FACTOR * arr.shape[0] * np.finfo(float).eps * res.condition_number
        if not residual < bound:
            raise DiagonalizabilityError(
                f"left-eigenvector residual {residual:.3e} exceeds "
                f"{bound:.3e} ({LEFT_RESIDUAL_FACTOR:g} n eps cond(R))"
            )
    return KoopmanModel(lambdas=res.lambdas, W_b=res.W_b, R_b=res.R_b,
                        condition_number=res.condition_number, ridge=float(ridge), dt=float(dt))


def eigenfunction_trajectories(
    model: KoopmanModel, obs: ObservableMatrix
) -> EigenfunctionTrajectory:
    """Map observables to row-normalized eigenfunction trajectories.

    Each row of W @ Psi is divided by its maximum modulus over the observed
    steps; rows that never rise above DEGENERATE_ROW_TOL are left unscaled
    and flagged rather than amplified. The factors used are returned in the
    trajectory's ``scales`` and ``obs.psi`` in its ``psi``, a read-only view,
    not a copy; the model is not changed. The product is taken in the
    model's basis, Q* (W_b @ Psi): for a real model and real observables a
    real product, whose rows of a conjugate pair come out exact conjugates.
    """
    if model.n_psi != obs.n_psi:
        raise ValueError(
            f"model dimension {model.n_psi} != observable dimension {obs.n_psi}"
        )
    raw = model.basis.rows_out(model.W_b @ obs.psi)
    max_mod = np.max(np.abs(raw), axis=1)
    degenerate = np.flatnonzero(max_mod < DEGENERATE_ROW_TOL)
    scales = np.where(max_mod < DEGENERATE_ROW_TOL, 1.0, 1.0 / np.where(max_mod == 0, 1.0, max_mod))
    phi = raw * scales[:, None]
    return EigenfunctionTrajectory(
        phi=phi, scales=scales, psi=obs.psi, degenerate_rows=tuple(int(i) for i in degenerate)
    )


def reconstruct_observables(
    model: KoopmanModel, traj: EigenfunctionTrajectory
) -> np.ndarray:
    """Psi = R @ diag(1/scales) @ Phi, R = W^-1: the reference formula for ``traj.psi``."""
    return model.R @ (traj.phi / traj.scales[:, None])


def free_run(K, psi0, steps: int) -> np.ndarray:
    """Free-run the operator: column n is K^n @ psi0, for n = 0..steps.

    The output dtype is that of K @ psi0 (at least float64), so real input
    is stepped in real arithmetic.
    """
    k = np.asarray(K)
    vec = np.asarray(psi0).reshape(-1)
    if vec.shape[0] != k.shape[1]:
        raise ValueError(f"psi0 length {vec.shape[0]} != n_psi {k.shape[1]}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = np.empty((vec.shape[0], steps + 1), dtype=np.result_type(k, vec, float))
    out[:, 0] = vec
    for n in range(steps):
        out[:, n + 1] = k @ out[:, n]
    return out


def holdout_error(
    train: PrimarySeries,
    holdout: PrimarySeries,
    aux: AuxiliaryConfig | None,
    ridge: float | None = None,
) -> float:
    """Free-running relative prediction error on a holdout segment.

    Identifies an operator on the training segment, lifts the first holdout
    column, runs the model forward for the remaining steps and compares the
    primary rows only. Returns a relative Frobenius error.
    """
    obs = build_observables(train, aux)
    rid = default_ridge(obs) if ridge is None else ridge
    k = identify_operator(obs, rid)
    psi0 = lift_columns(obs, holdout.values[:, :1])[:, 0]
    pred = free_run(k, psi0, holdout.n_steps - 1)
    pred_primary = pred[obs.primary_start : obs.aux_start].real
    ref_norm = np.linalg.norm(holdout.values)
    if ref_norm == 0.0:
        ref_norm = 1.0
    return float(np.linalg.norm(pred_primary - holdout.values) / ref_norm)


def fit_theta(
    train: PrimarySeries,
    holdout: PrimarySeries,
    grid,
    ridge: float | None = None,
) -> AuxiliaryConfig:
    """One-pass coordinate search for the correlation widths theta.

    The holdout segment is expected to follow the training segment in time.
    Components are optimized in order, each swept over the full grid with
    the others held at their current values, minimizing the free-running
    holdout error of the identified model (primary rows only). Candidates
    whose identification fails are skipped; if every candidate fails, a
    FitError is raised.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(g <= 0 for g in grid):
        raise ValueError("grid values must be positive")
    if train.n_primary != holdout.n_primary:
        raise ValueError("train and holdout disagree on primary dimension")

    theta = [grid[0]] * train.n_primary
    any_ok = False
    for k in range(train.n_primary):
        sweep_best = np.inf
        sweep_val = theta[k]
        for cand in grid:
            trial = list(theta)
            trial[k] = cand
            try:
                err = holdout_error(train, holdout, AuxiliaryConfig(tuple(trial)), ridge)
            except (IdentificationError, DiagonalizabilityError):
                continue
            any_ok = True
            if err < sweep_best:
                sweep_best = err
                sweep_val = cand
        theta[k] = sweep_val
    if not any_ok:
        raise FitError("every theta candidate failed identification")
    return AuxiliaryConfig(tuple(theta))


def default_theta(primary: PrimarySeries) -> AuxiliaryConfig:
    """Scale-adaptive default widths: theta_k = 1 / range of observable k.

    A feature then decays to zero exactly when two samples are a full
    observed range apart. Constant rows fall back to theta = 1.
    """
    span = primary.values.max(axis=1) - primary.values.min(axis=1)
    theta = tuple(1.0 / s if s > 0 else 1.0 for s in span)
    return AuxiliaryConfig(theta)
