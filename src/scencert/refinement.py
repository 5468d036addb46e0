"""Coefficient refinement by iterated linear programming.

A certificate grid is determined by its weight vector; a different vector
dominates the current one (no root moves down, some move up) exactly when
it satisfies one linear inequality per grid cell, evaluated at the current
roots.  Maximizing the summed left-hand sides of those inequalities over
the admissible weight simplex is a linear program, and alternating
"recompute roots / re-optimize weights" drives every cell monotonically
toward the Pareto boundary of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binom_tail import _BATCH_ELEMENTS
from .classic_bounds import DEFAULT_TOL, check_tol
from .posterior_bounds import (
    BoundTable,
    CertificateProblem,
    CoefficientVector,
    _SignEvaluator,
    bound_table,
)
from .simplex import _MAX_HIGHS_INDEX, LinearProgram, LPError, lp_solve

__all__ = [
    "dominance_check",
    "build_refinement_lp",
    "RefinementIteration",
    "RefinementTrace",
    "refine",
]

DEFAULT_TAU = 1e-9
DEFAULT_TOL_CONVERGE = 1e-9
DEFAULT_MAX_ITER = 50


def dominance_check(candidate: CoefficientVector, table: BoundTable) -> tuple[np.ndarray, bool]:
    """Cellwise test that the candidate weights dominate the table, for
    the table's problem.

    Cell (k, l) holds when the candidate's polynomial side is at least
    the tail side at the table's root, i.e. when the candidate's own root
    at that cell is no lower.  Verdicts are resolution-aware: the margin
    is taken in logs at the stored root and may dip as far as the margin
    a root shift of four tolerances would produce (the log-margin slope
    is of order (n + m) / t, so that allowance is 4 (n + m) tol / t per
    cell).  Every cell is evaluated in one ``margin`` call.  The
    aggregate is true only if every cell holds, certifying that no root
    moves down by more than a few root tolerances.
    """
    problem = table.problem
    ev = _SignEvaluator(problem, candidate)
    # A root stored as 0 (below the root tolerance) cannot move down; its
    # cell holds, and it is evaluated at a placeholder inside (0, 1).
    zero = table.t <= 0.0
    t = np.where(zero, 0.5, table.t)
    allowed = 4.0 * (problem.n + problem.m) * table.tol / t + 1e-10
    k, l = np.indices(t.shape).reshape(2, -1)
    cells = zero | (ev.margin(t.ravel(), k, l).reshape(t.shape) >= -allowed)
    return cells, bool(cells.all())


def _check_tau(tau: float) -> None:
    check_tol(tau, "tau")
    if tau > 1.0:
        raise ValueError(f"require tau <= 1, the total mass, got {tau}")


def _check_size(problem: CertificateProblem) -> None:
    # One row per cell, counting cells whose root is 0, and two mass rows.
    entries = ((problem.zeta + 1) * (problem.m + 1) + 2) * (problem.n + 1)
    if entries > _MAX_HIGHS_INDEX:
        raise ValueError(
            f"the refinement LP's {entries} matrix entries overflow HiGHS's "
            f"32-bit indices (> {_MAX_HIGHS_INDEX})"
        )


def build_refinement_lp(table: BoundTable, tau: float = DEFAULT_TAU) -> LinearProgram:
    """The weight-improvement LP at the table's current roots, for the
    table's problem and coefficients.

    Its rows come in this order: one per grid cell, then the mass floor,
    then the total mass.  A cell's row is the certificate equation at
    the cell's stored root t, linear in the weights,
    sum_j a_j beta C(j, k) t^(j-k) >= C(n, k) t^(n-k) B_m(1-t; l), taken
    for batches of max(1, _BATCH_ELEMENTS // (n + 1)) cells in grid order,
    one ``_SignEvaluator.log_sides`` call each, and scaled so that its
    largest coefficient is 1; its upper bound is +inf.  A cell whose stored root
    is 0 (below the root tolerance) gets no row: its eps is already 1 and
    cannot rise.  A table whose roots are all 0 raises ``ValueError``.
    The mass floor keeps mass >= tau (0 < tau <= 1) on indices
    zeta..n-1, and the total mass row has lower = upper = 1.  The
    objective sums C(j, k) t^(j-n) over the cells, divided by its largest
    entry; it is taken once from the scaled rows, each weighted by its
    scale.
    """
    problem = table.problem
    _check_tau(tau)
    _check_size(problem)
    k, l = np.nonzero(table.t > 0.0)
    if not k.size:
        raise ValueError("every root is 0, so no cell has an LP row")
    n = problem.n
    ev = _SignEvaluator(problem, table.coefficients)
    t = table.t[k, l]
    a = np.empty((k.size + 2, n + 1))
    lower = np.empty(k.size + 2)
    top = np.empty(k.size)
    step = max(1, _BATCH_ELEMENTS // (n + 1))
    for start in range(0, k.size, step):
        rows = slice(start, min(start + step, k.size))
        first = int(k[start])  # the batch's smallest k, as k is sorted
        terms, tail = ev.log_sides(t[rows], k[rows], l[rows])
        top[rows] = row_top = terms.max(axis=1)
        lower[rows] = np.exp(tail - row_top)
        a[rows, :first] = 0.0
        np.exp(np.subtract(terms, row_top[:, None], out=terms), out=a[rows, first:])
    # Mass floor on indices zeta..n-1 keeps every refined vector valid.
    a[-2] = 0.0
    a[-2, problem.zeta : n] = 1.0
    a[-1] = 1.0
    lower[-2:] = tau, 1.0
    upper = np.append(np.full(k.size + 1, np.inf), 1.0)

    # Row i times exp(top_i) / (beta t_i^(n-k_i)) holds C(j, k_i) t_i^(j-n);
    # beta cancels in the division by the largest entry, and with weights
    # and entries at most 1 no term overflows.  einsum sums without BLAS.
    weight = top - (n - k) * np.log(t)
    objective = np.einsum("i,ij->j", np.exp(weight - weight.max()), a[:-2])
    objective /= objective.max()
    return LinearProgram(objective, a, lower, upper)


@dataclass(frozen=True, eq=False)
class RefinementIteration:
    table: BoundTable
    max_t_increase: float | None  # None on the initial iterate

    @property
    def coefficients(self) -> CoefficientVector:
        return self.table.coefficients


@dataclass(frozen=True, eq=False)
class RefinementTrace:
    """Per-iteration record of a refinement run.

    The root grids are cellwise nondecreasing across iterations (up to
    twice the root tolerance, which ``refine`` enforces); termination is
    one of ``converged``, ``max_iter`` or ``lp_failure``, and the last
    iterate is always valid.
    """

    iterations: list[RefinementIteration]
    termination: str

    @property
    def final(self) -> RefinementIteration:
        return self.iterations[-1]


def refine(
    problem: CertificateProblem,
    initial: CoefficientVector,
    tol_root: float = DEFAULT_TOL,
    tol_converge: float = DEFAULT_TOL_CONVERGE,
    max_iter: int = DEFAULT_MAX_ITER,
    tau: float = DEFAULT_TAU,
) -> RefinementTrace:
    """Alternate root computation and weight re-optimization until the
    largest cellwise root increase falls below ``tol_converge``.

    A step is accepted only if the solver's weights form a valid
    coefficient vector and no root of their table is more than
    ``2 * tol_root`` below the current one.  An LP error or a rejected
    step ends the run with ``lp_failure`` and the last valid iterate in
    the trace rather than raising, so the final grid is cellwise at
    least as tight as the initial one.
    """
    if max_iter < 1:
        raise ValueError(f"require max_iter >= 1, got {max_iter}")
    check_tol(tol_converge, "tol_converge")
    _check_tau(tau)
    _check_size(problem)
    table = bound_table(problem, initial, tol_root)
    iterations = [RefinementIteration(table, None)]
    if not (table.t > 0.0).any():
        # Every eps is already 1: no cell has an LP row, nothing can rise.
        return RefinementTrace(iterations, "converged")
    termination = "max_iter"
    for _ in range(max_iter):
        lp = build_refinement_lp(table, tau)
        try:
            x = lp_solve(lp)
            coeffs = CoefficientVector(x / x.sum(), problem, scheme="refined")
        except (LPError, ValueError):
            termination = "lp_failure"
            break
        new_table = bound_table(problem, coeffs, tol_root, _guess=table.t)
        if np.any(new_table.t < table.t - 2.0 * tol_root):
            termination = "lp_failure"
            break
        increase = float(np.max(new_table.t - table.t))
        iterations.append(RefinementIteration(new_table, increase))
        table = new_table
        if increase < tol_converge:
            termination = "converged"
            break
    return RefinementTrace(iterations, termination)
