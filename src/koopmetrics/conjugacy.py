"""Deviation-from-conjugacy pseudometrics between identified systems.

Two systems are compared in eigenfunction space through a pair of conjugacy
residuals over unitary transformations C:

    r1(C) = || Phi_g - C Phi_f ||_F          (trajectory geometry)
    r2(C) = || Lambda_f - C* Lambda_g C ||_F (operator spectrum)

Minimizing each residual on its own has a closed form: r1 by the orthogonal
Procrustes solution (SVD of Phi_g Phi_f*), r2 by an exact linear assignment
on the squared eigenvalue distances followed by a unit-modulus diagonal that
re-phases the matched rows. The two solutions bound a rectangle of possible
Pareto-optimal residual pairs; its near corner, far corner, and exact mean
distance from the origin give the d_min / d_avg / d_max deviations.

The same unitary solutions pull back to observable space as the non-unitary
transform T_C = (Omega W_g)^-1 C W_f, with Omega the diagonal that brings
T_C as close as possible to the plain least squares map T_LSQ = Psi_g Psi_f+.
W is invertible and C unitary, so (C W_f)^-1 = R_f C* with R = W^-1, the
right eigenvectors each model keeps from its eigendecomposition: nothing
here inverts or solves with W.

Their operator residuals ||K_f - T^-1 K_g T||_F need neither K nor a solve
with T: K = R Lambda W (gated by ``decompose``) and T_C^-1 = R_f C* Omega W_g
give ||R_f (Lambda_f - C* Lambda_g C) W_f||_F whatever Omega and cond(T_C) are;
T_LSQ = R_g M W_f, M = W_g T_LSQ R_f, gives the bracket Lambda_f - M^-1 Lambda_g M.

C_r2 = Gamma P is a permutation with unit phases, and ``compare`` works with
it in that form, (permutation, gamma), never as a dense operand: row k of
C_r2 X is gamma_k X[pi^-1[k]], r2(C_r2) = ||lambda_f - lambda_g[pi]|| in
closed form (its bracket is that diagonal), and its unitarity defect is
||(|gamma|^2 - 1)|| / sqrt(n). ``ParetoCorners.c_r2`` builds it densely on demand.

Real systems run in real arithmetic. When both systems are closed under
conjugation (``linalg.conjugate_basis``: real-data models and their
trajectories), ``compare`` moves Phi, W and R into each system's real
canonical basis, Phi_re = Q Phi, W_re = Q W, R_re = R Q*, in O(n T). Every
residual above is invariant under these unitary changes of basis, and C
becomes C_re = Q_g C Q_f*, so the Procrustes SVD, both pseudoinverses, the
rebuilt Psi, T_LSQ, M, both pull-backs and all operator and trajectory
residuals are real products. The spectrum side stays complex: the
assignment, gamma, C_r2 and Omega^-1 link to the real basis through the
2x2 blocks of Q D Q*. The reported C's, T's and gamma are complex as ever.
Otherwise the maps are the identity, and the arithmetic is the complex one
throughout.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .koopman import EigenfunctionTrajectory, KoopmanModel
from .linalg import (
    COMPLEX_BASIS,
    EigenBasis,
    conjugate_basis,
    numerical_rank,
    pinv,
    svd,
    unitarity_defect,
)

UNITARY_TOL = 1e-8
DOMINANCE_TOL = 1e-9
GAMMA_ZERO_TOL = 1e-14
OMEGA_ZERO_TOL = 1e-14
# d_avg: 16-point Gauss-Legendre along rectangle sides FAR_SIDES lengths from the origin.
FAR_SIDES = 2.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_MEAN = _GL_WEIGHTS / 2


class ContractViolationError(ValueError):
    """An input violated a documented precondition (non-unitary C, bad corners)."""


@dataclass(frozen=True)
class ParetoCorners:
    """The two closed-form corner solutions and their residual pairs.

    ``permutation`` maps row i of system f to its matched row in system g;
    ``gamma`` holds the unit-modulus diagonal entries of C_r2 = Gamma P.
    Together they are C_r2, which is stored only in that form; ``c_r2``
    builds the dense matrix on each access, for callers that want it
    (``--emit-matrices`` reports). Corner dominance (r1_at_cr1 <= r1_at_cr2
    and r2_at_cr2 <= r2_at_cr1, up to DOMINANCE_TOL) is what makes the
    rectangle construction meaningful.
    """

    c_r1: np.ndarray
    permutation: np.ndarray
    gamma: np.ndarray
    r1_at_cr1: float
    r2_at_cr1: float
    r1_at_cr2: float
    r2_at_cr2: float

    @property
    def c_r2(self) -> np.ndarray:
        """C_r2 = Gamma P as a dense matrix, built on each access."""
        return self.gamma[:, None] * permutation_matrix(self.permutation)


@dataclass(frozen=True)
class DeviationTriple:
    """Deviation-from-conjugacy summary: d_min <= d_avg <= d_max."""

    d_min: float
    d_avg: float
    d_max: float


@dataclass(frozen=True)
class CompareDiagnostics:
    """Numerical health of one comparison.

    ``unitarity_defects`` holds ||C*C - I||_F / sqrt(n) of C_r1 and C_r2, the
    values their unitarity checks computed. ``assignment_cost`` is the
    matched spectra's total squared distance sum |lambda_f[i] -
    lambda_g[pi[i]]|^2. ``lsq_rank`` is the numerical rank of Psi_f at
    pinv's relative cut-off. ``omega_replaced`` counts, per T_C, the
    entries of Omega^-1 below OMEGA_ZERO_TOL that were replaced by 1; when
    it nears n, that T_C is not a fitted transform. ``procrustes_rank`` and
    ``procrustes_sigma_min`` are the numerical rank of Phi_g Phi_f* at the
    same cut-off and its smallest kept singular value (0 at rank 0), from
    the SVD that gives C_r1. Below rank n, C_r1 is not unique on the null
    block, and neither are r2(C_r1), d_avg and d_max.
    """

    unitarity_defects: dict[str, float]
    assignment_cost: float
    lsq_rank: int
    omega_replaced: dict[str, int]
    procrustes_rank: int
    procrustes_sigma_min: float


@dataclass(frozen=True)
class ConjugacyReport:
    """Full comparison output.

    ``normalization`` records which system's Frobenius norms divided the
    residuals ("none", "f", or "g"); ``ref_norms`` stores the divisors
    (1, 1) when no reference was chosen. ``psi_residuals`` maps transform
    name -> (operator residual, trajectory residual) in observable space.
    The operator residual ||K_f - T^-1 K_g T||_F, taken in the eigenbasis
    (module docstring), is None where undefined: for T_LSQ when Psi_f has
    numerical rank below n at pinv's relative cut-off (always so with fewer
    snapshots than observables), since T_LSQ = Psi_g Psi_f+ is then singular.
    The T_LSQ trajectory residual is exactly 0.0 when that rank equals the
    snapshot count T, where T_LSQ Psi_f = Psi_g holds in exact arithmetic.
    """

    corners: ParetoCorners
    deviations: DeviationTriple
    normalization: str
    ref_norms: tuple[float, float]
    t_c_r1: np.ndarray
    t_c_r2: np.ndarray
    t_lsq: np.ndarray
    diagnostics: CompareDiagnostics
    psi_residuals: dict[str, tuple[float | None, float]] = field(default_factory=dict)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays, float64 if both are and complex otherwise, checked to share one shape."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.float64 if a.dtype == b.dtype == np.float64 else complex
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _matmul(a, b) -> np.ndarray:
    """a @ b; a complex operand against a real one is split into two real products."""
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):
        return _matmul(b.T, a.T).T
    out = np.empty((a.shape[0], b.shape[1]), dtype=complex)
    out.real = a @ np.ascontiguousarray(b.real)
    out.imag = a @ np.ascontiguousarray(b.imag)
    return out


def residual_r1(phi_f, phi_g, c) -> float:
    """Trajectory residual || Phi_g - C Phi_f ||_F; real input stays real."""
    pf, pg = _pair(phi_f, phi_g)
    c = np.asarray(c)
    if c.shape != (pf.shape[0], pf.shape[0]):
        raise ValueError(f"C shape {c.shape} does not match Phi rows {pf.shape[0]}")
    return float(np.linalg.norm(pg - c @ pf))


def _spectra(lambdas_f, lambdas_g) -> tuple[np.ndarray, np.ndarray]:
    """Two spectra as complex vectors of one length."""
    return _pair(*(np.ravel(lam).astype(complex, copy=False) for lam in (lambdas_f, lambdas_g)))


def _checked_unitary(defect: float) -> float:
    """The unitarity defect of a C, if C passes as unitary."""
    if defect > UNITARY_TOL:
        raise ContractViolationError(
            f"C is not unitary (defect {defect:.3e} > {UNITARY_TOL:.0e})"
        )
    return defect


def _spectral_bracket(
    lf, lg, c, basis_f: EigenBasis = COMPLEX_BASIS, basis_g: EigenBasis = COMPLEX_BASIS
) -> tuple[np.ndarray, float]:
    """(C* Lambda_g C - Lambda_f, unitarity defect of C) for a C that passes as unitary.

    C is given in the bases (C_re = Q_g C Q_f*), and so is the bracket.
    """
    defect = _checked_unitary(unitarity_defect(c))
    bracket = c.conj().T @ basis_g.scale_rows(lg, c)
    bracket -= basis_f.diag(lf)
    return bracket, defect


def residual_r2(lambdas_f, lambdas_g, c) -> float:
    """Spectral residual || Lambda_f - C* Lambda_g C ||_F for unitary C."""
    lf, lg = _spectra(lambdas_f, lambdas_g)
    return float(np.linalg.norm(_spectral_bracket(lf, lg, np.asarray(c, dtype=complex))[0]))


def solve_c_r1(phi_f, phi_g, return_singular_values: bool = False):
    """Unitary minimizer of r1: U V* from the SVD of Phi_g Phi_f*; real input stays real.

    With ``return_singular_values`` the result is (C, singular values of
    Phi_g Phi_f*), descending.
    """
    pf, pg = _pair(phi_f, phi_g)
    res = svd(pg @ pf.conj().T)
    c = res.U @ res.V.conj().T
    return (c, res.S) if return_singular_values else c


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment on a square cost matrix, O(n^3).

    Shortest augmenting path formulation with dual potentials, updated once
    per augmentation from the length at which each column was settled
    (Crouse 2016, "On implementing 2D rectangular assignment algorithms").
    Strict less-than comparisons make the scan order (hence tie-breaking)
    fixed: among equal-cost alternatives the lowest column index encountered
    first wins, so results are deterministic.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    row_of_col = np.full(n, -1)
    col_of_row = np.full(n, -1)
    parent = np.empty(n, dtype=int)
    settled = np.empty(n)
    # Reduced path lengths relative to the last settled one; inf once settled.
    min_reduced = np.empty(n)
    remaining = np.empty(n, dtype=bool)
    # Work buffers: the inner loop allocates nothing.
    reduced = np.empty(n)
    better = np.empty(n, dtype=bool)
    for start in range(n):
        min_reduced.fill(np.inf)
        remaining.fill(True)
        i, total = start, 0.0
        while i >= 0:
            np.subtract(cost[i], u[i], out=reduced)
            reduced -= v
            np.less(reduced, min_reduced, out=better)
            better &= remaining
            np.copyto(min_reduced, reduced, where=better)
            np.copyto(parent, i, where=better)
            j = int(min_reduced.argmin())
            delta = min_reduced[j]
            total += delta
            min_reduced -= delta
            min_reduced[j] = np.inf
            remaining[j] = False
            settled[j] = total
            i = row_of_col[j]
        done = ~remaining
        scanned = np.flatnonzero(done & (row_of_col >= 0))
        u[start] += total
        u[row_of_col[scanned]] += total - settled[scanned]
        v[done] -= total - settled[done]
        while i != start:
            i = parent[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
    return col_of_row


def solve_permutation(lambdas_f, lambdas_g) -> np.ndarray:
    """Match spectra: permutation pi minimizing sum |lambda_f[i] - lambda_g[pi[i]]|^2."""
    lf, lg = _spectra(lambdas_f, lambdas_g)
    cost = np.abs(lf[:, None] - lg[None, :]) ** 2
    return _assignment(cost)


def assignment_cost(lambdas_f, lambdas_g, permutation) -> float:
    """Total squared matching cost of a given permutation."""
    lf, lg = _spectra(lambdas_f, lambdas_g)
    return float(np.sum(np.abs(lf - lg[np.asarray(permutation)]) ** 2))


def permutation_matrix(permutation) -> np.ndarray:
    """Matrix P with P[pi[i], i] = 1: row i of (P @ Phi_f) at slot pi[i]."""
    pi = np.asarray(permutation, dtype=int)
    n = pi.shape[0]
    p = np.zeros((n, n))
    p[pi, np.arange(n)] = 1.0
    return p


def solve_gamma(phi_f, phi_g, permutation) -> np.ndarray:
    """Unit-modulus diagonal re-phasing the permuted rows onto Phi_g.

    The unconstrained least squares factor is Phi_g (P Phi_f)+; keeping only
    its diagonal and projecting each entry to the unit circle is the unitary
    polar factor of that diagonal. P Phi_f is the row gather Phi_f[pi^-1],
    and only the diagonal of the product is formed. Entries with modulus
    below GAMMA_ZERO_TOL carry no phase information and default to 1.
    """
    pf, pg = _pair(phi_f, phi_g)
    return _phases(pg, pinv(pf[np.argsort(permutation)]))


def _phases(pg, pinv_aligned) -> np.ndarray:
    """``solve_gamma`` from pinv(P Phi_f): unit-modulus diagonal of Phi_g pinv(P Phi_f)."""
    raw = np.einsum("ij,ji->i", pg, pinv_aligned)
    mod = np.abs(raw)
    safe = np.where(mod < GAMMA_ZERO_TOL, 1.0, raw)
    return np.where(mod < GAMMA_ZERO_TOL, 1.0 + 0.0j, safe / np.abs(safe))


def solve_c_r2(phi_f, phi_g, lambdas_f, lambdas_g):
    """Unitary minimizer of r2, phased to also help r1: C_r2 = Gamma P.

    Returns (C_r2, permutation, gamma). Any unit-modulus diagonal leaves r2
    at the assignment optimum, so gamma is free to chase the trajectory fit.
    """
    pi = solve_permutation(lambdas_f, lambdas_g)
    gamma = solve_gamma(phi_f, phi_g, pi)
    return gamma[:, None] * permutation_matrix(pi), pi, gamma


def mean_corner_distance(d1: float, d2: float) -> float:
    """Mean distance from the center of a d1 x d2 rectangle to its points.

    Closed form of the uniform average of sqrt(x^2 + y^2) over the rectangle
    [-d1/2, d1/2] x [-d2/2, d2/2]. Equivalently, the mean distance from the
    origin over a corner rectangle of half the side lengths. Degenerates to
    the segment mean max(d1, d2)/4 when one side collapses, and to 0 at a
    point.
    """
    if d1 < 0 or d2 < 0:
        raise ValueError(f"sides must be nonnegative, got ({d1}, {d2})")
    big, small = (d1, d2) if d1 >= d2 else (d2, d1)
    if big == 0.0:
        return 0.0
    if small < 1e-12 * big:
        return big / 4.0
    diag = np.hypot(d1, d2)
    num = d2**3 * np.arcsinh(d1 / d2) + d1**3 * np.arcsinh(d2 / d1) + 2 * d1 * d2 * diag
    return float(num / (12.0 * d1 * d2))


def _segment_mean(a: float, b_lo: float, b_hi: float) -> float:
    """Mean of sqrt(a^2 + y^2) for y uniform on [b_lo, b_hi], b_lo < b_hi."""
    if a == 0.0:
        return 0.5 * (b_lo + b_hi)

    def antiderivative(y: float) -> float:
        return 0.5 * (y * np.hypot(a, y) + a * a * np.arcsinh(y / a))

    return float((antiderivative(b_hi) - antiderivative(b_lo)) / (b_hi - b_lo))


def _rectangle_mean(a_lo, a_hi, b_lo, b_hi) -> float:
    """Mean distance from the origin over [a_lo, a_hi] x [b_lo, b_hi], a_lo, b_lo >= 0.

    The closed form over four corner rectangles loses about eps d^2 / (w h)
    to cancellation at distance d, so it is kept only within FAR_SIDES short
    sides of the origin, where no side is zero. Farther out, Gauss-Legendre
    averages along the short side, and along the long side too once that is
    FAR_SIDES lengths away; a collapsed side gives its segment or point.
    """
    w, h = a_hi - a_lo, b_hi - b_lo
    near = np.hypot(a_lo, b_lo)
    if near < FAR_SIDES * min(w, h):
        num = (
            a_hi * b_hi * mean_corner_distance(2 * a_hi, 2 * b_hi)
            - a_lo * b_hi * mean_corner_distance(2 * a_lo, 2 * b_hi)
            - a_hi * b_lo * mean_corner_distance(2 * a_hi, 2 * b_lo)
            + a_lo * b_lo * mean_corner_distance(2 * a_lo, 2 * b_lo)
        )
        return float(num / (w * h))
    if w > h:  # x runs along the short side
        a_lo, a_hi, b_lo, b_hi, w, h = b_lo, b_hi, a_lo, a_hi, h, w
    x = 0.5 * (a_lo + a_hi) + 0.5 * w * _GL_NODES
    if near < FAR_SIDES * h:
        return float(_GL_MEAN @ [_segment_mean(xi, b_lo, b_hi) for xi in x])
    y = 0.5 * (b_lo + b_hi) + 0.5 * h * _GL_NODES
    return float(_GL_MEAN @ np.hypot(x[:, None], y) @ _GL_MEAN)


def pareto_deviations(corners: ParetoCorners) -> DeviationTriple:
    """d_min / d_avg / d_max from the two corner residual pairs.

    The rectangle [r1(C_r1), r1(C_r2)] x [r2(C_r2), r2(C_r1)] bounds every
    Pareto-optimal residual pair; d_min and d_max are the distances to its
    near and far corners and d_avg is the exact mean distance over it, also
    when a side has collapsed to a segment or a point.
    """
    a_lo, a_hi = corners.r1_at_cr1, corners.r1_at_cr2
    b_lo, b_hi = corners.r2_at_cr2, corners.r2_at_cr1
    tol = DOMINANCE_TOL * max(1.0, float(np.hypot(a_hi, b_hi)))
    if a_lo > a_hi + tol or b_lo > b_hi + tol:
        raise ContractViolationError(
            "corner dominance violated: "
            f"r1 {a_lo:.6e} vs {a_hi:.6e}, r2 {b_lo:.6e} vs {b_hi:.6e}"
        )
    # Rounding can leave the optimal corner a hair above the other one.
    a_hi = max(a_hi, a_lo)
    b_hi = max(b_hi, b_lo)
    d_min = float(np.hypot(a_lo, b_lo))
    d_max = float(np.hypot(a_hi, b_hi))
    d_avg = min(max(_rectangle_mean(a_lo, a_hi, b_lo, b_hi), d_min), d_max)
    return DeviationTriple(d_min=d_min, d_avg=d_avg, d_max=d_max)


def lsq_transform(psi_f, psi_g, return_rank: bool = False):
    """Plain least squares observable-space map T_LSQ = Psi_g Psi_f+.

    Real input stays real. With ``return_rank`` the result is (T_LSQ,
    numerical rank of Psi_f), the rank taken from the pseudoinverse's own
    singular values; below n it makes T_LSQ singular.
    """
    pf, pg = _pair(psi_f, psi_g)
    pinv_f, rank = pinv(pf, return_rank=True)
    t = pg @ pinv_f
    return (t, rank) if return_rank else t


def recover_t(
    c,
    model_f: KoopmanModel,
    model_g: KoopmanModel,
    psi_f,
    psi_g,
    t_lsq: np.ndarray | None = None,
) -> np.ndarray:
    """Pull a unitary eigenfunction-space C back to observable space.

    T_C = (Omega W_g)^-1 C W_f with Omega^-1 = Diag(W_g T_LSQ R_f C*), whose
    near-zero entries carry no information and are replaced by 1 (with a
    warning); see the module docstring.
    """
    if t_lsq is None:
        t_lsq = lsq_transform(psi_f, psi_g)
    c = np.asarray(c, dtype=complex)
    m = model_g.W @ t_lsq @ model_f.R
    omega_inv = np.einsum("ij,ij->i", m, c.conj())
    return _pull_back(omega_inv, c @ model_f.W, model_g.R, COMPLEX_BASIS)[0]


def _pull_back(omega_inv, c_w_f, r_g, basis_g: EigenBasis) -> tuple[np.ndarray, int]:
    """(T_C = R_g Omega^-1 C W_f, number of Omega^-1 entries replaced by 1).

    ``omega_inv`` = Diag(M C*) with M = W_g T_LSQ R_f, and ``c_w_f`` = C W_f,
    both with the rows of g's complex eigenbasis; ``r_g`` is R_g in
    ``basis_g``, so that T_C = r_g Q_g Omega^-1 C W_f. ``c_w_f`` is scaled
    in place.
    """
    tiny = np.abs(omega_inv) < OMEGA_ZERO_TOL
    replaced = int(tiny.sum())
    if replaced:
        warnings.warn(
            f"{replaced} scale entries below {OMEGA_ZERO_TOL:.0e} replaced by 1",
            RuntimeWarning,
            stacklevel=3,
        )
        omega_inv[tiny] = 1.0
    # Omega^-1 as the left operand, as ever: numpy's complex product need
    # not be bitwise commutative.
    np.multiply(omega_inv[:, None], c_w_f, out=c_w_f)
    return _matmul(r_g, basis_g.rows_in(c_w_f)), replaced


def _operator_residual(r_f, w_f, bracket: np.ndarray, basis_f: EigenBasis) -> float:
    """||K_f - T^-1 K_g T||_F = ||R_f B W_f||_F for T's bracket B (1-D: its diagonal).

    R_f, W_f and a 2-D B are given in ``basis_f``; a diagonal B is given in
    the complex eigenbasis.
    """
    left = basis_f.scale_cols(r_f, bracket) if bracket.ndim == 1 else r_f @ bracket
    return float(np.linalg.norm(_matmul(left, w_f)))


def _bases(model_f, phi_f, model_g, phi_g) -> tuple[EigenBasis, EigenBasis]:
    """The real canonical bases of f and g when both systems are closed under
    conjugation, read from lambdas, W, R, Phi and scales; else the complex ones."""
    bases = tuple(
        conjugate_basis(m.lambdas, m.W, m.R.T, p.phi, p.scales)
        for m, p in ((model_f, phi_f), (model_g, phi_g))
    )
    return bases if all(b.is_real for b in bases) else (COMPLEX_BASIS, COMPLEX_BASIS)


def compare(
    model_f: KoopmanModel,
    phi_f: EigenfunctionTrajectory,
    model_g: KoopmanModel,
    phi_g: EigenfunctionTrajectory,
    normalization: str = "none",
) -> ConjugacyReport:
    """Full deviation-from-conjugacy comparison of two identified systems.

    Solves both corner transformations, evaluates the four residuals
    (optionally divided by the reference system's ||Phi||_F and ||Lambda||_F
    when ``normalization`` is "f" or "g"), forms the deviation triple, and
    recovers the observable-space transforms T_C and T_LSQ together with
    their residuals. Both corners are always computed; coincidence is
    reported through the numbers rather than assumed. C_r2 enters every
    step as (permutation, gamma), and the operator residuals come from the
    eigenbasis, so K is never read; real systems run in their real canonical
    bases. See the module docstring. The trajectories must be
    EigenfunctionTrajectory objects: Psi is rebuilt with the scales they carry.
    """
    if normalization not in ("none", "f", "g"):
        raise ValueError(f"normalization must be 'none', 'f' or 'g', got {normalization!r}")
    if not all(isinstance(p, EigenfunctionTrajectory) for p in (phi_f, phi_g)):
        raise TypeError("compare needs EigenfunctionTrajectory inputs, which carry their scales")
    pf, pg = phi_f.phi, phi_g.phi
    if pf.shape != pg.shape:
        raise ValueError(
            f"systems must share dimensions, got {pf.shape} vs {pg.shape}"
        )
    n = pf.shape[0]
    lf, lg = _spectra(model_f.lambdas, model_g.lambdas)
    # Arrays with a _b suffix are in the bases: real canonical or complex.
    bf, bg = _bases(model_f, phi_f, model_g, phi_g)
    pf_b, pg_b = bf.rows_in(pf), bg.rows_in(pg)
    c1_b, sigma = solve_c_r1(pf_b, pg_b, return_singular_values=True)
    c1 = bf.cols_out(bg.rows_out(c1_b))
    pi = solve_permutation(lf, lg)
    # Row k of C_r2 X is gamma_k X[inv_pi[k]].
    inv_pi = np.argsort(pi)
    # pinv(P Phi_f) = pinv(Phi_f)[:, inv_pi], and pinv(Phi_f) = pinv(Phi_f_re) Q_f.
    # Gathering the basis rows by inv_pi first keeps the complex basis's
    # arithmetic that of solve_gamma.
    gamma = _phases(pg, bf.cols_out(pinv(pf_b[inv_pi])[:, pi])[:, inv_pi])

    if normalization == "f":
        phi_norm = float(np.linalg.norm(pf))
        lam_norm = float(np.linalg.norm(lf))
    elif normalization == "g":
        phi_norm = float(np.linalg.norm(pg))
        lam_norm = float(np.linalg.norm(lg))
    else:
        phi_norm = lam_norm = 1.0
    if phi_norm == 0.0 or lam_norm == 0.0:
        raise ValueError("reference system has zero norm; cannot normalize")

    r_f_b, w_f_b, r_g_b = bf.cols_in(model_f.R), bf.rows_in(model_f.W), bg.cols_in(model_g.R)
    bracket_c1, defect_c1 = _spectral_bracket(lf, lg, c1_b, bf, bg)
    operator_c1 = _operator_residual(r_f_b, w_f_b, bracket_c1, bf)
    # C_r2* C_r2 = diag(|gamma[pi]|^2): unitarity_defect(C_r2) in O(n). With
    # unit-modulus gamma, C_r2* Lambda_g C_r2 = diag(lambda_g[pi]).
    defect_c2 = _checked_unitary(
        float(np.linalg.norm(np.abs(gamma) ** 2 - 1.0) / max(np.sqrt(n), 1.0))
    )
    bracket_c2 = lf - lg[pi]
    corners = ParetoCorners(
        c_r1=c1,
        permutation=pi,
        gamma=gamma,
        r1_at_cr1=residual_r1(pf_b, pg_b, c1_b) / phi_norm,
        r2_at_cr1=float(np.linalg.norm(bracket_c1)) / lam_norm,
        r1_at_cr2=float(np.linalg.norm(pg - gamma[:, None] * pf[inv_pi])) / phi_norm,
        r2_at_cr2=float(np.linalg.norm(bracket_c2)) / lam_norm,
    )
    deviations = pareto_deviations(corners)

    # Psi = R diag(1/scales) Phi; paired rows share their scale, so it
    # commutes with Q.
    psi_f = r_f_b @ (pf_b / phi_f.scales[:, None])
    psi_g = r_g_b @ (pg_b / phi_g.scales[:, None])
    t_lsq, lsq_rank = lsq_transform(psi_f, psi_g, return_rank=True)
    # M = W_g T_LSQ R_f, so that T_LSQ = R_g M W_f. Omega^-1 = Diag(M C*)
    # takes M and C with the rows of g's complex eigenbasis.
    m_b = bg.rows_in(model_g.W) @ t_lsq @ r_f_b
    m_rows = bg.rows_out(m_b)
    omega_c1 = np.einsum("ij,ij->i", m_rows, bg.rows_out(c1_b).conj())
    omega_c2 = bf.cols_out_at(m_rows, inv_pi) * gamma.conj()
    # Peak memory: no n x n temporary outlives its use in the pull-backs.
    del pf_b, pg_b, m_rows
    t_c1, replaced_c1 = _pull_back(omega_c1, bg.rows_out(c1_b @ w_f_b), r_g_b, bg)
    t_c2, replaced_c2 = _pull_back(omega_c2, gamma[:, None] * model_f.W[inv_pi], r_g_b, bg)
    operator_lsq = None  # T_LSQ is singular below full rank
    if lsq_rank == n:
        bracket_lsq = np.linalg.solve(m_b, bg.scale_rows(lg, m_b)) - bf.diag(lf)
        operator_lsq = _operator_residual(r_f_b, w_f_b, bracket_lsq, bf)
    procrustes_rank = numerical_rank(sigma)
    diagnostics = CompareDiagnostics(
        unitarity_defects={"C_r1": defect_c1, "C_r2": defect_c2},
        assignment_cost=assignment_cost(lf, lg, pi),
        lsq_rank=lsq_rank,
        omega_replaced={"T_C_r1": replaced_c1, "T_C_r2": replaced_c2},
        procrustes_rank=procrustes_rank,
        procrustes_sigma_min=float(sigma[procrustes_rank - 1]) if procrustes_rank else 0.0,
    )

    def fit(t) -> float:
        return float(np.linalg.norm(psi_g - _matmul(t, psi_f)))

    residuals = {
        "T_C_r1": (operator_c1, fit(t_c1)),
        "T_C_r2": (_operator_residual(r_f_b, w_f_b, bracket_c2, bf), fit(t_c2)),
        # At rank T, pinv(Psi_f) Psi_f = I_T: T_LSQ fits Psi_g exactly.
        "T_LSQ": (operator_lsq, 0.0 if lsq_rank == pf.shape[1] else fit(t_lsq)),
    }
    return ConjugacyReport(
        corners=corners,
        deviations=deviations,
        normalization=normalization,
        ref_norms=(phi_norm, lam_norm),
        t_c_r1=t_c1.astype(complex, copy=False),
        t_c_r2=t_c2.astype(complex, copy=False),
        t_lsq=t_lsq.astype(complex, copy=False),
        diagnostics=diagnostics,
        psi_residuals=residuals,
    )
