"""Shared helpers for building random test systems."""
import numpy as np
import pytest

from koopmetrics.koopman import (
    KoopmanModel,
    ObservableMatrix,
    decompose,
    eigenfunction_trajectories,
)
from koopmetrics.linalg import conjugate_basis


def random_unitary(rng, n):
    """Haar-ish unitary via QR with phase normalization."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_well_conditioned(rng, n, smin=0.5, smax=2.0):
    """Random invertible matrix with singular values in [smin, smax]."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    s = rng.uniform(smin, smax, size=n)
    return (u * s) @ v.conj().T


def random_diagonalizable(rng, n, radius=1.0):
    """K = S D S^-1 with well separated eigenvalues and tame S."""
    mods = rng.uniform(0.3, radius, size=n)
    phases = rng.uniform(0, 2 * np.pi, size=n)
    d = mods * np.exp(1j * phases)
    s = random_well_conditioned(rng, n)
    return s @ np.diag(d) @ np.linalg.inv(s)


def model_of(lambdas, w, r=None, condition_number=1.0, dt=0.1):
    """KoopmanModel of eigenvalues and complex left eigenvectors W, R = W^-1 if not given.

    W and R enter the real canonical basis when lambdas, W and R are closed
    under conjugation, as ``eig`` does for a real K; the model then works
    out that basis from the real W_b.
    """
    arrays = (w,) if r is None else (w, r.T)
    basis = conjugate_basis(lambdas, *arrays)
    return KoopmanModel(
        lambdas=lambdas,
        W_b=basis.rows_in(w),
        R_b=None if r is None else basis.cols_in(r),
        condition_number=condition_number,
        ridge=0.0,
        dt=dt,
    )


def raw_observables(psi, dt=0.1):
    """Wrap a bare complex matrix as an observable matrix (no constant row)."""
    psi = np.asarray(psi, dtype=complex)
    return ObservableMatrix(
        psi=psi,
        names=tuple(f"g{i}" for i in range(psi.shape[0])),
        has_constant=False,
        n_primary=psi.shape[0],
        aux=None,
        train_snapshots=None,
        dt=dt,
    )


def lifted_system(k, psi, dt=0.1):
    """(model, trajectory) for an operator K and observable samples Psi."""
    model = decompose(k, dt)
    phi = eigenfunction_trajectories(model, raw_observables(psi, dt))
    return model, phi


def random_system(rng, n, n_steps, radius=1.0):
    """Random diagonalizable operator plus a random observable trajectory."""
    k = random_diagonalizable(rng, n, radius)
    psi = rng.standard_normal((n, n_steps)) + 1j * rng.standard_normal((n, n_steps))
    return lifted_system(k, psi)


def real_system(rng, n, n_steps, radius=0.95):
    """Real K with real eigenvalues and conjugate pairs, and real observables.

    Both the model and its trajectory are closed under conjugation, so
    ``compare`` takes them in the real canonical basis.
    """
    n_pairs = int(rng.integers(1, n // 2 + 1))
    d = np.diag(rng.uniform(-radius, radius, n))
    for j in range(n - 2 * n_pairs, n, 2):
        mod, angle = rng.uniform(0.3, radius), rng.uniform(0.1, np.pi - 0.1)
        a, b = mod * np.cos(angle), mod * np.sin(angle)
        d[j : j + 2, j : j + 2] = [[a, b], [-b, a]]
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q1 * rng.uniform(0.5, 2.0, n)) @ q2.T
    model = decompose(s @ d @ np.linalg.inv(s), 0.1)
    obs = ObservableMatrix(
        psi=rng.standard_normal((n, n_steps)),
        names=tuple(f"g{i}" for i in range(n)),
        has_constant=False,
        n_primary=n,
        aux=None,
        train_snapshots=None,
        dt=0.1,
    )
    return model, eigenfunction_trajectories(model, obs)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
