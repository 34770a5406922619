"""Output checks. Each returns a list of failure messages (empty = pass).

All comparisons run on residuals normalised by the reference system's norms,
so a tolerance is a relative one. It is fixed from the problem size alone:
``tolerance(n) = n * eps * sqrt(n)`` is the first-order rounding bound
gamma_n * ||C||_F of a residual such as ||Phi_g - C Phi_f||_F with a unitary
n x n C (||C||_F = sqrt(n)), relative to ||Phi_f||_F. It is not fitted to
any measured value and there is no absolute cut-off.
"""
from __future__ import annotations

import math

EPS = 2.0**-52


def tolerance(n: int) -> float:
    return n * EPS * math.sqrt(n)


def deviation_checks(n, d_min, d_avg, d_max, r1_cr1, r2_cr1, r1_cr2, r2_cr2) -> list[str]:
    """d_min <= d_avg <= d_max and corner dominance of one comparison."""
    tol = tolerance(n) * max(1.0, d_max)
    failures = []
    if not (d_min <= d_avg + tol and d_avg <= d_max + tol):
        failures.append(
            f"unordered deviations d_min={d_min:.6g} d_avg={d_avg:.6g} "
            f"d_max={d_max:.6g} (tol {tol:.3g})"
        )
    if r1_cr1 > r1_cr2 + tol or r2_cr2 > r2_cr1 + tol:
        failures.append(
            f"corner dominance violated: r1 {r1_cr1:.6g} vs {r1_cr2:.6g}, "
            f"r2 {r2_cr2:.6g} vs {r2_cr1:.6g} (tol {tol:.3g})"
        )
    return failures


def self_checks(n, d_max) -> list[str]:
    """A system compared with itself must sit at distance zero."""
    tol = tolerance(n)
    if d_max <= tol:
        return []
    return [f"self-comparison d_max={d_max:.6g} exceeds {tol:.3g}"]


def report_doc_checks(doc: dict, self_compare: bool) -> list[str]:
    """Checks on a report file written by ``koopmetrics compare``."""
    n = len(doc["permutation"])
    dev, res = doc["deviations"], doc["residuals"]
    failures = deviation_checks(
        n, dev["dMin"], dev["dAvg"], dev["dMax"],
        res["r1_cr1"], res["r2_cr1"], res["r1_cr2"], res["r2_cr2"],
    )
    if self_compare:
        failures += self_checks(n, dev["dMax"])
    return failures


def report_checks(report, n: int, self_compare: bool) -> list[str]:
    """Checks on an in-memory ``conjugacy.ConjugacyReport``."""
    dev, c = report.deviations, report.corners
    failures = deviation_checks(
        n, dev.d_min, dev.d_avg, dev.d_max,
        c.r1_at_cr1, c.r2_at_cr1, c.r1_at_cr2, c.r2_at_cr2,
    )
    if self_compare:
        failures += self_checks(n, dev.d_max)
    return failures


def sweep_row_checks(row: tuple) -> list[str]:
    """A ``benchmark.sweep`` row: no error, ordered deviations, dominance."""
    alpha, beta, d_min, d_avg, d_max, r1_cr1, r2_cr1, r1_cr2, r2_cr2, _, error = row
    if error:
        return [f"({alpha:g}, {beta:g}): {error}"]
    return [
        f"({alpha:g}, {beta:g}): {msg}"
        for msg in deviation_checks(3, d_min, d_avg, d_max, r1_cr1, r2_cr1, r1_cr2, r2_cr2)
    ]


def sweep_minimum_checks(rows: list[tuple]) -> list[str]:
    """The conjugate point (1, 1) must hold the smallest d_avg."""
    clean = [r for r in rows if not r[-1]]
    if not clean:
        return ["no sweep row without error"]
    best = min(clean, key=lambda r: r[3])
    if (best[0], best[1]) == (1.0, 1.0):
        return []
    return [f"d_avg minimum {best[3]:.6g} at ({best[0]:g}, {best[1]:g}), not (1, 1)"]
