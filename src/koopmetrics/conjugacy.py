"""Deviation-from-conjugacy pseudometrics between identified systems.

Two systems are compared in eigenfunction space through a pair of conjugacy
residuals over unitary transformations C:

    r1(C) = || Phi_g - C Phi_f ||_F          (trajectory geometry)
    r2(C) = || Lambda_f - C* Lambda_g C ||_F (operator spectrum)

Minimizing each residual on its own has a closed form: r1 by the orthogonal
Procrustes solution (SVD of Phi_g Phi_f*), r2 by an exact linear assignment
on the squared eigenvalue distances followed by the unit-modulus diagonal
that best re-phases the matched rows, one row inner product each. The two
solutions bound a rectangle of possible Pareto-optimal residual pairs; its
near corner, far corner, and exact mean distance from the origin give the
d_min / d_avg / d_max deviations.

The same unitary solutions pull back to observable space as the non-unitary
transform T_C = (Omega W_g)^-1 C W_f, with Omega the diagonal that brings
T_C as close as possible to the plain least squares map T_LSQ = Psi_g Psi_f+.
W is invertible and C unitary, so (C W_f)^-1 = R_f C* with R = W^-1, the
right eigenvectors each model holds with W: nothing here inverts or solves
with W. ``compare`` fits T_C Psi_f = R_g Omega^-1 C (W_f Psi_f) in O(n^2 T)
and keeps no T, only each Omega^-1; ``recover_t`` builds T_C from it and
``lsq_transform`` builds T_LSQ, on request.

Their operator residuals ||K_f - T^-1 K_g T||_F need neither K nor a solve
with T: K = R Lambda W (gated by ``decompose``) and T_C^-1 = R_f C* Omega W_g
give ||R_f (Lambda_f - C* Lambda_g C) W_f||_F whatever Omega and cond(T_C) are;
T_LSQ = R_g M W_f, M = W_g T_LSQ R_f, gives the bracket Lambda_f - M^-1 Lambda_g M.

C_r2 = Gamma P is a permutation with unit phases, and ``compare`` works with
it in that form, (permutation, gamma), never as a dense operand: row k of
C_r2 X is gamma_k X[pi^-1[k]], r2(C_r2) = ||lambda_f - lambda_g[pi]|| in
closed form (its bracket is that diagonal), and its unitarity defect is
||(|gamma|^2 - 1)|| / sqrt(n). ``recover_t`` takes it in that form too;
``ParetoCorners.c_r2`` builds it densely on demand.

Real systems run in real arithmetic. Each model holds W_b = Q W and
R_b = R Q* in its own basis (``linalg.EigenBasis``; Q = I for a complex
model), and ``prepare`` takes them as they are and moves Phi in as
Phi_b = Q Phi in O(n T): rows that are exact conjugates come out real, any
others go through Q in complex arithmetic. Every residual above is
invariant under these unitary changes of basis, C becomes C_b = Q_g C Q_f*,
and Psi is the trajectory's own, so for real systems with real data the
Procrustes SVD, pinv(Psi_f), T_LSQ, M, both fits' pull-backs and
all operator and trajectory residuals are real products. The spectrum side
stays complex: the assignment, gamma, C_r2 and Omega^-1 link to a real
basis through the 2x2 blocks of Q D Q*; reported C's and gamma are complex.

The work splits into per-system and per-pair parts. ``prepare`` does the
per-system part once: Phi_b, in O(n T); the complex spectrum is the
model's own. The per-pair part splits where the pull-back to observable
space begins. ``solve_prepared`` stays in eigenfunction space: the
Procrustes SVD, the assignment, gamma as an O(n T) diagonal, both
unitarity checks, the four residuals and the deviations; it factorizes
nothing but Phi_g Phi_f*. ``compare_prepared`` is that solve followed by
the observable-space part, which continues from the solve's C_r1 and
singular values: pinv(Psi_f), M, Omega^-1, the fits and the operator
residuals. pinv(Psi_f) depends on the reference system f alone; a
``PreparedSystem`` computes it on first use and keeps it, so a system that
only plays g factorizes nothing. ``compare`` is ``prepare`` and
``compare_prepared`` together, for a single pair.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .koopman import EigenfunctionTrajectory, KoopmanModel
from .linalg import (
    COMPLEX_BASIS,
    EigenBasis,
    numerical_rank,
    pinv,
    svd,
    unitarity_defect,
)

UNITARY_TOL = 1e-8
DOMINANCE_TOL = 1e-9
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
    ``omega_inv`` maps "T_C_r1" and "T_C_r2" to the Omega^-1 that the fit
    used, after replacement, in g's complex eigenbasis: ``recover_t``'s input.
    """

    corners: ParetoCorners
    deviations: DeviationTriple
    normalization: str
    ref_norms: tuple[float, float]
    diagnostics: CompareDiagnostics
    psi_residuals: dict[str, tuple[float | None, float]] = field(default_factory=dict)
    omega_inv: dict[str, np.ndarray] = field(default_factory=dict)


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
    lf, lg, c, basis_f: EigenBasis, basis_g: EigenBasis
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
    c = np.asarray(c, dtype=complex)
    return float(np.linalg.norm(_spectral_bracket(lf, lg, c, COMPLEX_BASIS, COMPLEX_BASIS)[0]))


def solve_c_r1(phi_f, phi_g, return_singular_values: bool = False):
    """Unitary minimizer of r1: U V* from the SVD of Phi_g Phi_f*; real input stays real.

    With ``return_singular_values`` the result is (C, singular values of
    Phi_g Phi_f*), descending.
    """
    pf, pg = _pair(phi_f, phi_g)
    res = svd(pg @ pf.conj().T)
    c = res.U @ res.Vh
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


def permutation_matrix(permutation) -> np.ndarray:
    """Matrix P with P[pi[i], i] = 1: row i of (P @ Phi_f) at slot pi[i]."""
    pi = np.asarray(permutation, dtype=int)
    n = pi.shape[0]
    p = np.zeros((n, n))
    p[pi, np.arange(n)] = 1.0
    return p


def solve_gamma(phi_f, phi_g, permutation) -> np.ndarray:
    """Unit-modulus diagonal Gamma minimizing || Phi_g - Gamma P Phi_f ||_F, in O(n T).

    Row k of P Phi_f is Phi_f[pi^-1[k]], and row k of the residual depends
    on gamma_k alone, so gamma_k is the phase of the row inner product
    <Phi_g[k], Phi_f[pi^-1[k]]> = sum_t Phi_g[k, t] conj(Phi_f[pi^-1[k], t]).
    An inner product no larger than its own rounding bound,
    T eps ||Phi_g[k]|| ||Phi_f[pi^-1[k]]||, carries no phase, and gamma_k
    is then 1. The minimum is symmetric: swapping f and g (pi for pi^-1)
    conjugates Gamma and leaves r1 unchanged.
    """
    pf, pg = _pair(phi_f, phi_g)
    aligned = pf[np.argsort(permutation)]
    raw = np.einsum("ij,ij->i", pg, aligned.conj())
    norms = np.linalg.norm(pg, axis=1) * np.linalg.norm(aligned, axis=1)
    gamma = np.exp(1j * np.angle(raw))
    gamma[np.abs(raw) <= pf.shape[1] * np.finfo(float).eps * norms] = 1.0
    return gamma


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


def lsq_transform(psi_f, psi_g) -> np.ndarray:
    """Plain least squares observable-space map T_LSQ = Psi_g Psi_f+; real input stays real."""
    pf, pg = _pair(psi_f, psi_g)
    return pg @ pinv(pf)


def recover_t(c, model_f: KoopmanModel, model_g: KoopmanModel, omega_inv) -> np.ndarray:
    """Pull a unitary eigenfunction-space C back to observable space.

    T_C = R_g Omega^-1 C W_f = (Omega W_g)^-1 C W_f, for the Omega^-1 that
    ``compare`` fitted with: ``report.omega_inv["T_C_r1"]`` for C_r1,
    ``["T_C_r2"]`` for C_r2. ``c`` is a dense C, or C_r2 as its
    (permutation, gamma): C_r2 W_f is then the row gather
    gamma_k W_f[pi^-1[k]], in O(n^2) instead of an n^3 product. Built in
    complex arithmetic, forming no M.
    """
    if isinstance(c, tuple):
        permutation, gamma = c
        c_w_f = model_f.W[np.argsort(permutation)]
        c_w_f *= np.asarray(gamma)[:, None]
    else:
        c_w_f = np.asarray(c) @ model_f.W
    return _pull_back(np.asarray(omega_inv), c_w_f, model_g.R, COMPLEX_BASIS)


def _pull_back(omega_inv, c_x, r_g, basis_g: EigenBasis) -> np.ndarray:
    """R_g Omega^-1 C X.

    ``omega_inv`` = Diag(M C*) with M = W_g T_LSQ R_f, and ``c_x`` = C X,
    both with the rows of g's complex eigenbasis; ``r_g`` is R_g in
    ``basis_g``. X = W_f gives T_C; X = W_f Psi_f gives T_C Psi_f, in
    O(n^2 T). ``c_x`` is scaled in place.
    """
    # Omega^-1 as the left operand, as ever: numpy's complex product need
    # not be bitwise commutative.
    np.multiply(omega_inv[:, None], c_x, out=c_x)
    return _matmul(r_g, basis_g.rows_in(c_x))


def _operator_residual(r_f, w_f, bracket: np.ndarray, basis_f: EigenBasis) -> float:
    """||K_f - T^-1 K_g T||_F = ||R_f B W_f||_F for T's bracket B (1-D: its diagonal).

    R_f, W_f and a 2-D B are given in ``basis_f``; a diagonal B is given in
    the complex eigenbasis.
    """
    left = basis_f.scale_cols(r_f, bracket) if bracket.ndim == 1 else r_f @ bracket
    return float(np.linalg.norm(_matmul(left, w_f)))


@dataclass(frozen=True, eq=False)
class PreparedSystem:
    """One system with the work ``compare`` does on it alone; see ``prepare``.

    ``phi_b`` = Q Phi in the model's basis (Phi itself, not a copy, for a
    complex model); the spectrum is the model's. ``pinv_psi``, needed only
    of the reference system f, is computed on first use and kept.
    """

    model: KoopmanModel
    trajectory: EigenfunctionTrajectory
    phi_b: np.ndarray

    @cached_property
    def pinv_psi(self) -> tuple[np.ndarray, int]:
        """(pinv(Psi), numerical rank of Psi), for T_LSQ = Psi_g pinv(Psi_f)."""
        return pinv(self.trajectory.psi, return_rank=True)


def prepare(model: KoopmanModel, trajectory: EigenfunctionTrajectory) -> PreparedSystem:
    """The system, shared and not copied, ready for ``compare_prepared``, in O(n T).

    The trajectory must be an EigenfunctionTrajectory of the model: T_LSQ
    and the fits use the Psi it carries.
    """
    if not isinstance(trajectory, EigenfunctionTrajectory):
        raise TypeError("compare needs EigenfunctionTrajectory inputs, which carry their Psi")
    if trajectory.phi.shape[0] != model.n_psi:
        raise ValueError(
            f"trajectory has {trajectory.phi.shape[0]} rows for {model.n_psi} eigenvalues"
        )
    return PreparedSystem(model, trajectory, model.basis.rows_in(trajectory.phi))


def compare(
    model_f: KoopmanModel,
    phi_f: EigenfunctionTrajectory,
    model_g: KoopmanModel,
    phi_g: EigenfunctionTrajectory,
    normalization: str = "none",
) -> ConjugacyReport:
    """Full deviation-from-conjugacy comparison of two identified systems.

    ``compare_prepared`` of the two prepared systems; see there. To compare
    one system f against several g's, prepare f once and call
    ``compare_prepared`` directly, or ``solve_prepared`` for the deviations
    alone.
    """
    return compare_prepared(prepare(model_f, phi_f), prepare(model_g, phi_g), normalization)


class PairSolve(NamedTuple):
    """The eigenfunction-space solve of one pair; see ``solve_prepared``.

    ``ref_norms`` and ``unitarity_defects`` are as in ``ConjugacyReport``
    and ``CompareDiagnostics``. The rest is what ``compare_prepared``
    continues from, unpacking the tuple so that nothing else holds its
    n x n arrays: ``c1_b``, C_r1 in the models' bases (Q_g C_r1 Q_f*),
    and ``c1_rows``, C_r1 with the rows of g's complex eigenbasis and the
    columns of f's basis; ``sigma``, the descending singular values of
    Phi_g Phi_f* from the SVD that gave C_r1; the brackets
    C* Lambda_g C - Lambda_f of C_r1 (n x n, in the bases) and of C_r2 (its
    diagonal, lambda_f - lambda_g[pi]); and ``inv_pi``, the inverse
    permutation: row k of C_r2 X is gamma_k X[inv_pi[k]].
    """

    corners: ParetoCorners
    deviations: DeviationTriple
    ref_norms: tuple[float, float]
    unitarity_defects: dict[str, float]
    c1_b: np.ndarray
    c1_rows: np.ndarray
    sigma: np.ndarray
    bracket_c1: np.ndarray
    bracket_c2: np.ndarray
    inv_pi: np.ndarray


def solve_prepared(
    f: PreparedSystem, g: PreparedSystem, normalization: str = "none"
) -> PairSolve:
    """Both corner transformations of a pair and their deviations, in eigenfunction space.

    Solves C_r1 by one Procrustes SVD and C_r2 as (permutation, gamma),
    checks both for unitarity, evaluates the four residuals (optionally
    divided by the reference system's ||Phi||_F and ||Lambda||_F when
    ``normalization`` is "f" or "g") and forms the deviation triple. Both
    corners are always computed; coincidence is reported through the
    numbers rather than assumed. Nothing here reads Psi, W or R: no
    observable-space step runs, so none can fail or warn.
    """
    if normalization not in ("none", "f", "g"):
        raise ValueError(f"normalization must be 'none', 'f' or 'g', got {normalization!r}")
    pf, pg = f.trajectory.phi, g.trajectory.phi
    if pf.shape != pg.shape:
        raise ValueError(
            f"systems must share dimensions, got {pf.shape} vs {pg.shape}"
        )
    n = pf.shape[0]
    lf, lg = f.model.lambdas, g.model.lambdas
    bf, bg = f.model.basis, g.model.basis
    c1_b, sigma = solve_c_r1(f.phi_b, g.phi_b, return_singular_values=True)
    c1_rows = bg.rows_out(c1_b)
    pi = solve_permutation(lf, lg)
    inv_pi = np.argsort(pi)
    gamma = solve_gamma(pf, pg, pi)

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

    bracket_c1, defect_c1 = _spectral_bracket(lf, lg, c1_b, bf, bg)
    # C_r2* C_r2 = diag(|gamma[pi]|^2): unitarity_defect(C_r2) in O(n). With
    # unit-modulus gamma, C_r2* Lambda_g C_r2 = diag(lambda_g[pi]).
    defect_c2 = _checked_unitary(
        float(np.linalg.norm(np.abs(gamma) ** 2 - 1.0) / max(np.sqrt(n), 1.0))
    )
    bracket_c2 = lf - lg[pi]
    corners = ParetoCorners(
        c_r1=bf.cols_out(c1_rows),
        permutation=pi,
        gamma=gamma,
        r1_at_cr1=residual_r1(f.phi_b, g.phi_b, c1_b) / phi_norm,
        r2_at_cr1=float(np.linalg.norm(bracket_c1)) / lam_norm,
        r1_at_cr2=float(np.linalg.norm(pg - gamma[:, None] * pf[inv_pi])) / phi_norm,
        r2_at_cr2=float(np.linalg.norm(bracket_c2)) / lam_norm,
    )
    return PairSolve(
        corners, pareto_deviations(corners), (phi_norm, lam_norm),
        {"C_r1": defect_c1, "C_r2": defect_c2},
        c1_b, c1_rows, sigma, bracket_c1, bracket_c2, inv_pi,
    )


def compare_prepared(
    f: PreparedSystem, g: PreparedSystem, normalization: str = "none"
) -> ConjugacyReport:
    """Deviation-from-conjugacy comparison of two prepared systems.

    ``solve_prepared``, then the observable-space part: the residuals of
    the transforms T_C and T_LSQ, without forming T_C, and the diagnostics.
    That part continues from the solve's C_r1, brackets and singular
    values, and computes nothing the solve did. C_r2 enters every step as
    (permutation, gamma), and the operator residuals come from the
    eigenbasis, which needs no K; each system runs in its model's own
    basis. See the module docstring. Only f's factorization, pinv(Psi_f),
    is used, and it is computed on f's first comparison; everything else
    is per pair.
    """
    # Peak memory: the solve's n x n arrays live on in locals alone, each
    # deleted after its last use.
    (corners, deviations, ref_norms, defects, c1_b, c1_rows, sigma,
     bracket_c1, bracket_c2, inv_pi) = solve_prepared(f, g, normalization)
    phi_f, phi_g = f.trajectory, g.trajectory
    pf = phi_f.phi
    n = pf.shape[0]
    gamma, lf, lg = corners.gamma, f.model.lambdas, g.model.lambdas
    # Arrays with a _b suffix are in the models' bases: real canonical or complex.
    bf, w_f_b, r_f_b = f.model.basis, f.model.W_b, f.model.R_b
    bg, w_g_b, r_g_b = g.model.basis, g.model.W_b, g.model.R_b
    operator_c1 = _operator_residual(r_f_b, w_f_b, bracket_c1, bf)
    del bracket_c1

    def fit(t_psi_f) -> float:
        return float(np.linalg.norm(phi_g.psi - t_psi_f))

    pinv_psi_f, lsq_rank = f.pinv_psi
    t_lsq = _matmul(phi_g.psi, pinv_psi_f)
    # At rank T, pinv(Psi_f) Psi_f = I_T: T_LSQ fits Psi_g exactly.
    fit_lsq = 0.0 if lsq_rank == pf.shape[1] else fit(_matmul(t_lsq, phi_f.psi))
    # M = W_g T_LSQ R_f, so that T_LSQ = R_g M W_f. Omega^-1 = Diag(M C*)
    # takes M and C with the rows of g's complex eigenbasis.
    m_b = w_g_b @ t_lsq @ r_f_b
    del t_lsq
    m_rows = bg.rows_out(m_b)
    omega_inv = {
        "T_C_r1": np.einsum("ij,ij->i", m_rows, c1_rows.conj()),
        "T_C_r2": bf.cols_out_at(m_rows, inv_pi) * gamma.conj(),
    }
    replaced = {}
    for name, scales in omega_inv.items():
        # An entry near 0 carries no information: it becomes 1.
        tiny = np.abs(scales) < OMEGA_ZERO_TOL
        scales[tiny] = 1.0
        replaced[name] = int(tiny.sum())
        if replaced[name]:
            warnings.warn(f"{name}: {replaced[name]} scale entries below "
                          f"{OMEGA_ZERO_TOL:.0e} replaced by 1", RuntimeWarning, stacklevel=2)
    # Peak memory: no n x n or n x T temporary outlives its use.
    del m_rows, c1_rows
    operator_lsq = None  # T_LSQ is singular below full rank
    if lsq_rank == n:
        bracket_lsq = np.linalg.solve(m_b, bg.scale_rows(lg, m_b)) - bf.diag(lf)
        operator_lsq = _operator_residual(r_f_b, w_f_b, bracket_lsq, bf)
        del bracket_lsq
    del m_b
    # T_C Psi_f = R_g Omega^-1 C (W_f Psi_f), and W_f Psi_f = Phi_f / scales.
    c_w_psi_f = bg.rows_out(c1_b @ bf.rows_in(pf / phi_f.scales[:, None]))
    t_psi_f = _pull_back(omega_inv["T_C_r1"], c_w_psi_f, r_g_b, bg)
    fit_c1 = fit(t_psi_f)
    del t_psi_f, c_w_psi_f, c1_b
    c_w_psi_f = pf[inv_pi]
    c_w_psi_f *= (gamma / phi_f.scales[inv_pi])[:, None]
    t_psi_f = _pull_back(omega_inv["T_C_r2"], c_w_psi_f, r_g_b, bg)
    fit_c2 = fit(t_psi_f)
    del t_psi_f, c_w_psi_f
    procrustes_rank = numerical_rank(sigma)
    diagnostics = CompareDiagnostics(
        unitarity_defects=defects,
        assignment_cost=float(np.sum(np.abs(bracket_c2) ** 2)),
        lsq_rank=lsq_rank,
        omega_replaced=replaced,
        procrustes_rank=procrustes_rank,
        procrustes_sigma_min=float(sigma[procrustes_rank - 1]) if procrustes_rank else 0.0,
    )
    residuals = {
        "T_C_r1": (operator_c1, fit_c1),
        "T_C_r2": (_operator_residual(r_f_b, w_f_b, bracket_c2, bf), fit_c2),
        "T_LSQ": (operator_lsq, fit_lsq),
    }
    return ConjugacyReport(
        corners=corners,
        deviations=deviations,
        normalization=normalization,
        ref_norms=ref_norms,
        diagnostics=diagnostics,
        psi_residuals=residuals,
        omega_inv=omega_inv,
    )
