"""Dense matrix factorizations with explicit numerical contracts.

Thin wrappers around LAPACK (through numpy) that validate inputs, normalize
conventions (descending singular values, unit-norm eigenvector columns) and
raise typed exceptions instead of leaking library-specific errors. float64
input takes the real LAPACK routines and everything else the complex ones.

One structure is exploited: a spectrum closed under conjugation, as every
real operator has. ``conjugate_basis`` decides from the eigenvalues and the
eigen-indexed arrays alone whether they are closed under conjugation, and
its ``EigenBasis`` maps rows and columns between the complex eigenbasis and
the real canonical basis in O(n m), so that the O(n^3) work on such arrays
runs in real arithmetic. Everything else about the operators handled
upstream is generic: they are non-normal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvector matrices with condition number at or above this are treated as
# numerically defective.
EIG_CONDITION_LIMIT = 1e12

DEFAULT_PINV_RTOL = 1e-10

SQRT_HALF = float(np.sqrt(0.5))
SQRT_TWO = 2 * SQRT_HALF


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


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a itself, or its real part when every imaginary part is exactly zero."""
    return np.ascontiguousarray(a.real) if not np.any(a.imag) else a


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Coordinates for arrays indexed by eigenvalue: complex or real canonical.

    With ``pairs`` None this is the complex eigenbasis itself and every map
    is the identity. Otherwise it is the real canonical basis of a spectrum
    closed under conjugation: ``pairs`` holds the first index j of each
    conjugate pair (j, j + 1) and ``lone`` the indices of real eigenvalues.
    The unitary Q acts on each pair as sqrt(1/2) [[1, 1], [i, -i]] and as 1
    on lone indices. Rows enter the basis as Q X and columns as X Q*, so
    W = Q* W_re and R = R_re Q, where R_re holds sqrt(2) Re v and
    sqrt(2) Im v for the eigenvector v of a pair's first eigenvalue. Rows
    that are exact conjugates at each pair and real elsewhere enter as real
    arrays, with no rounding beyond the sqrt(2) scaling. A diagonal D
    becomes Q D Q*, whose block at a pair d = (a + ib, a - ib) is
    [[a, b], [-b, a]]: real exactly when D is closed under conjugation.
    """

    pairs: np.ndarray | None = None
    lone: np.ndarray | None = None

    @property
    def is_real(self) -> bool:
        return self.pairs is not None

    def _place(self, head, tail, rest) -> np.ndarray:
        """Rows head at the pairs' first indices, tail at their second, rest at lone ones."""
        out = np.empty((self.pairs.size * 2 + self.lone.size,) + rest.shape[1:],
                       dtype=np.result_type(head, tail, rest))
        out[self.pairs], out[self.pairs + 1], out[self.lone] = head, tail, rest
        return out

    def _into(self, x, sign: int) -> np.ndarray:
        """Rows of x into the basis: Q X (sign 1), or conj(Q) X (sign -1)."""
        head, tail, rest = x[self.pairs], x[self.pairs + 1], x[self.lone]
        if np.array_equal(tail, head.conj()) and not np.any(rest.imag):
            return self._place(SQRT_TWO * head.real, -sign * SQRT_TWO * head.imag, rest.real)
        head, tail = head + tail, head - tail
        head *= SQRT_HALF
        tail *= sign * 1j * SQRT_HALF
        return self._place(head, tail, rest)

    def _out(self, x, sign: int) -> np.ndarray:
        """Rows of x out of the basis: Q* X (sign 1), or Q^T X (sign -1); complex."""
        a, b, rest = x[self.pairs], x[self.pairs + 1], x[self.lone]
        if np.iscomplexobj(x):
            a *= SQRT_HALF
            b *= sign * 1j * SQRT_HALF
            return self._place(a - b, a + b, rest)
        head = np.empty(a.shape, dtype=complex)
        head.real, head.imag = SQRT_HALF * a, -sign * SQRT_HALF * b
        return self._place(head, head.conj(), rest)

    def rows_in(self, x) -> np.ndarray:
        """Q X: real when the rows of X are closed under conjugation."""
        return x if self.pairs is None else self._into(x, 1)

    def rows_out(self, x) -> np.ndarray:
        """Q* X, complex: the rows of X back in the complex eigenbasis."""
        return x if self.pairs is None else self._out(x, 1)

    def cols_in(self, x) -> np.ndarray:
        """X Q*: real when the columns of X are closed under conjugation."""
        return x if self.pairs is None else self._into(x.T, -1).T

    def cols_out(self, x) -> np.ndarray:
        """X Q, complex: the columns of X back in the complex eigenbasis."""
        return x if self.pairs is None else self._out(x.T, -1).T

    def cols_out_at(self, x, cols) -> np.ndarray:
        """(X Q)[k, cols[k]] for every row k, in O(n): one entry per row of ``cols_out``."""
        rows = np.arange(x.shape[0])
        if self.pairs is None:
            return x[rows, cols]
        j, k = self.pairs, self.pairs + 1
        partner, own = np.arange(x.shape[1]), np.ones(x.shape[1], dtype=complex)
        other = np.zeros(x.shape[1], dtype=complex)
        partner[j], partner[k] = k, j
        own[j], own[k] = SQRT_HALF, -1j * SQRT_HALF
        other[j], other[k] = 1j * SQRT_HALF, SQRT_HALF
        return own[cols] * x[rows, cols] + other[cols] * x[rows, partner[cols]]

    def _blocks(self, d):
        """(a, b, lone entries) of Q diag(d) Q*, each real where exactly so."""
        p, q = d[self.pairs], d[self.pairs + 1]
        a, b = (p + q) / 2, (q - p) * 0.5j
        return (_real_if_exact(v)[:, None] for v in (a, b, d[self.lone]))

    def _scale(self, d, x, sign: int) -> np.ndarray:
        """(Q diag(d) Q*) X (sign 1) or its transpose applied to X (sign -1)."""
        a, b, lone = self._blocks(d)
        head, tail = x[self.pairs], x[self.pairs + 1]
        rest = lone * x[self.lone]
        return self._place(a * head + sign * b * tail, a * tail - sign * b * head, rest)

    def scale_rows(self, d, x) -> np.ndarray:
        """(Q diag(d) Q*) X for a 2-D X, in O(n m)."""
        return d[:, None] * x if self.pairs is None else self._scale(d, x, 1)

    def scale_cols(self, x, d) -> np.ndarray:
        """X (Q diag(d) Q*) for a 2-D X, in O(n m)."""
        return x * d if self.pairs is None else self._scale(d, x.T, -1).T

    def diag(self, d) -> np.ndarray:
        """Q diag(d) Q* as a dense matrix."""
        if self.pairs is None:
            return np.diag(d)
        return self.scale_rows(d, np.eye(d.shape[0]))


COMPLEX_BASIS = EigenBasis()


def conjugate_basis(lambdas, *arrays) -> EigenBasis:
    """The real canonical basis if the spectrum and arrays are closed under conjugation.

    Closed means: each non-real eigenvalue sits next to its exact conjugate
    (as LAPACK's real eigensolver orders them), each array's rows (axis 0)
    at such a pair are exact conjugates, and its rows at a real eigenvalue
    are real. Pass column-indexed arrays transposed. Only ``lambdas`` and
    ``arrays`` are read, in O(n m); otherwise the result is COMPLEX_BASIS,
    whose maps are the identity.
    """
    lam = np.ravel(lambdas)
    nonreal = np.flatnonzero(lam.imag)
    pairs = nonreal[::2]
    if (
        nonreal.size % 2
        or np.any(nonreal[1::2] - pairs != 1)
        or np.any(lam[pairs + 1] != lam[pairs].conj())
    ):
        return COMPLEX_BASIS
    lone = np.flatnonzero(lam.imag == 0)
    for arr in arrays:
        arr = np.asarray(arr)
        if (
            arr.shape[:1] != lam.shape
            or np.any(arr[lone].imag)
            or not np.array_equal(arr[pairs + 1], arr[pairs].conj())
        ):
            return COMPLEX_BASIS
    return EigenBasis(pairs=pairs, lone=lone)


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
    come out exactly conjugate. Their real canonical basis
    (``conjugate_basis``) is used: W is inverted from R_re in real arithmetic
    and returned as Q* R_re^-1, so its paired rows are exact conjugates too.
    Eigenvector columns have unit norm; order and phase are implementation
    defined but deterministic for fixed input.

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
    lambdas = lambdas.astype(complex, copy=False)
    basis = conjugate_basis(lambdas, r.T) if arr.dtype == np.float64 else COMPLEX_BASIS
    r_b = basis.cols_in(r)
    try:
        w_b = np.linalg.inv(r_b)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizabilityError("eigenvector matrix is singular; matrix is defective") from exc
    cond = float(np.linalg.norm(r_b) * np.linalg.norm(w_b))
    if not np.isfinite(cond) or cond >= EIG_CONDITION_LIMIT:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{EIG_CONDITION_LIMIT:.0e}; matrix is numerically defective"
        )
    return EigResult(lambdas=lambdas, R=r, W=basis.rows_out(w_b), condition_number=cond)


def numerical_rank(s: np.ndarray, rtol: float = DEFAULT_PINV_RTOL) -> int:
    """How many of the descending singular values s exceed rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


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
    rank = numerical_rank(res.S, rtol)
    if rank == 0:
        zero = np.zeros((res.V.shape[0], res.U.shape[0]), dtype=res.U.dtype)
        return (zero, 0) if return_rank else zero
    kept = res.S > rtol * res.S[0]
    inv_s = np.where(kept, 1.0 / np.where(kept, res.S, 1.0), 0.0)
    inverse = (res.V * inv_s) @ res.U.conj().T
    return (inverse, rank) if return_rank else inverse


def unitarity_defect(c) -> float:
    """Frobenius distance of C*C from the identity, scaled by sqrt(n)."""
    arr = as_matrix(c)
    n = arr.shape[1]
    gram = arr.conj().T @ arr
    return float(np.linalg.norm(gram - np.eye(n)) / max(np.sqrt(n), 1.0))
