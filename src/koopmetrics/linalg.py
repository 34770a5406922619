"""Dense matrix factorizations with explicit numerical contracts.

Thin wrappers around LAPACK (through numpy) that validate inputs, normalize
conventions (descending singular values, unit-norm eigenvector columns) and
raise typed exceptions instead of leaking library-specific errors. float64
input takes the real LAPACK routines and everything else the complex ones;
no other structure is exploited: the operators handled upstream are
generically non-normal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvector matrices with condition number at or above this are treated as
# numerically defective.
EIG_CONDITION_LIMIT = 1e12

DEFAULT_PINV_RTOL = 1e-10


class LinalgError(Exception):
    """Base class for factorization failures."""


class FactorizationError(LinalgError):
    """The underlying factorization did not converge."""


class DiagonalizabilityError(LinalgError):
    """Matrix is defective, or close enough that eigenvectors are unusable."""


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a dense 2-D array (no NaN/Inf).

    float64 input stays float64; anything else becomes complex128.
    """
    arr = np.asarray(m)
    if arr.dtype != np.float64:
        arr = np.asarray(arr, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition M = U @ diag(S) @ V.conj().T.

    U and V hold left/right singular vectors in columns; S is real,
    nonnegative and sorted descending.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition M @ R = R @ diag(lambdas), with W = R^-1.

    Columns of R are right eigenvectors normalized to unit Euclidean norm, so
    the rows of W are left eigenvectors: W @ M = diag(lambdas) @ W.
    ``condition_number`` is the Frobenius condition number ||R||_F ||W||_F,
    which bounds the 2-norm one from above: cond_2 <= cond_F <= n cond_2.
    """

    lambdas: np.ndarray
    R: np.ndarray
    W: np.ndarray
    condition_number: float


def svd(m) -> SvdResult:
    """Economy-size SVD; the factors are real for float64 input.

    Raises FactorizationError if the underlying solver fails to converge.
    Rank deficiency shows up as (near-)zero singular values, not an error.
    """
    arr = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"SVD did not converge for {arr.shape[0]}x{arr.shape[1]} matrix"
        ) from exc
    return SvdResult(U=u, S=s, V=vh.conj().T)


def eig(m) -> EigResult:
    """Eigendecomposition of a square matrix.

    lambdas, R and W are complex128; float64 input is decomposed in real
    arithmetic, so its conjugate eigenvalue pairs and eigenvector columns
    come out exactly conjugate. Eigenvector columns have unit norm; order
    and phase are implementation defined but deterministic for fixed input.

    Raises DiagonalizabilityError when R is singular or its condition number
    reaches EIG_CONDITION_LIMIT (defective or nearly so).
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"eig needs a square matrix, got shape {arr.shape}")
    try:
        lambdas, r = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"eigendecomposition did not converge for {arr.shape[0]}x{arr.shape[1]} matrix"
        ) from exc
    norms = np.linalg.norm(r, axis=0)
    norms[norms == 0.0] = 1.0
    r = (r / norms).astype(complex, copy=False)
    try:
        w = np.linalg.inv(r)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizabilityError("eigenvector matrix is singular; matrix is defective") from exc
    cond = float(np.linalg.norm(r) * np.linalg.norm(w))
    if not np.isfinite(cond) or cond >= EIG_CONDITION_LIMIT:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{EIG_CONDITION_LIMIT:.0e}; matrix is numerically defective"
        )
    return EigResult(lambdas=lambdas.astype(complex, copy=False), R=r, W=w, condition_number=cond)


def pinv(m, rtol: float = DEFAULT_PINV_RTOL, return_rank: bool = False):
    """Moore-Penrose pseudoinverse with relative singular value cutoff.

    Singular values at or below rtol * sigma_max are treated as exactly zero,
    which makes rank decisions reproducible across platforms. With
    ``return_rank`` the result is (pseudoinverse, numerical rank), the rank
    being the number of singular values kept.
    """
    if rtol <= 0:
        raise ValueError(f"rtol must be positive, got {rtol}")
    res = svd(m)
    if res.S.size == 0 or res.S[0] == 0.0:
        zero = np.zeros((res.V.shape[0], res.U.shape[0]), dtype=res.U.dtype)
        return (zero, 0) if return_rank else zero
    kept = res.S > rtol * res.S[0]
    inv_s = np.where(kept, 1.0 / np.where(kept, res.S, 1.0), 0.0)
    inverse = (res.V * inv_s) @ res.U.conj().T
    return (inverse, int(kept.sum())) if return_rank else inverse


def unitarity_defect(c) -> float:
    """Frobenius distance of C*C from the identity, scaled by sqrt(n)."""
    arr = as_matrix(c)
    n = arr.shape[1]
    gram = arr.conj().T @ arr
    return float(np.linalg.norm(gram - np.eye(n)) / max(np.sqrt(n), 1.0))
