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

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .binom_tail import log_binom_cdf
from .classic_bounds import DEFAULT_TOL, check_tol
from .posterior_bounds import (
    BoundTable,
    CertificateProblem,
    CoefficientVector,
    _SignEvaluator,
    bound_table,
)
from .simplex import LinearProgram, LPError, lp_solve

__all__ = [
    "RefinementError",
    "dominance_check",
    "build_refinement_lp",
    "lp_solve",
    "RefinementIteration",
    "RefinementTrace",
    "refine",
    "DEFAULT_TAU",
    "DEFAULT_TOL_CONVERGE",
    "DEFAULT_MAX_ITER",
]

DEFAULT_TAU = 1e-9
DEFAULT_TOL_CONVERGE = 1e-9
DEFAULT_MAX_ITER = 50

# Rows contain t^(j - n); above this n they are hopeless even after
# scaling, and past the hard cap we refuse instead of emitting garbage.
_CONDITION_WARN_N = 500
_CONDITION_REFUSE_N = 5000


class RefinementError(RuntimeError):
    """Non-finite LP data; carries the offending grid cell."""

    def __init__(self, k: int, l: int, detail: str):
        super().__init__(f"refinement LP breaks down at cell (k={k}, l={l}): {detail}")
        self.k = k
        self.l = l


def dominance_check(
    candidate: CoefficientVector,
    table: BoundTable,
    problem: CertificateProblem,
    log_slack: float | None = None,
) -> tuple[np.ndarray, bool]:
    """Cellwise test that the candidate weights dominate the table.

    Cell (k, l) holds when the candidate's polynomial side is at least
    the tail side at the table's root, i.e. when the candidate's own root
    at that cell is no lower.  Verdicts are resolution-aware: the margin
    is taken in logs at the stored root and may dip as far as the margin
    a root shift of four tolerances would produce (the log-margin slope
    is of order (n + m) / t, so that allowance is 4 (n + m) tol / t per
    cell unless an explicit ``log_slack`` overrides it).  The aggregate
    is true only if every cell holds, certifying that no root moves down
    by more than a few root tolerances.
    """
    if problem != table.problem:
        raise ValueError("table was built for a different problem")
    candidate.validate_for(problem)
    ev = _SignEvaluator(problem, candidate)
    # A root stored as 0 (below the root tolerance) cannot move down; its
    # cell holds, and it is evaluated at a placeholder inside (0, 1).
    zero = table.t <= 0.0
    t = np.where(zero, 0.5, table.t)
    if log_slack is None:
        allowed = 4.0 * (problem.n + problem.m) * table.tol / t + 1e-10
    else:
        allowed = np.full(t.shape, log_slack)
    l = np.arange(problem.m + 1)
    cells = zero | np.array([
        ev.margin(t[k], k, l) >= -allowed[k] for k in range(problem.zeta + 1)
    ])
    return cells, bool(cells.all())


def build_refinement_lp(
    table: BoundTable,
    problem: CertificateProblem,
    tau: float = DEFAULT_TAU,
) -> LinearProgram:
    """The weight-improvement LP at the table's current roots.

    One inequality row per grid cell, one row keeping mass >= tau on
    indices zeta..n-1, one equality normalizing the total mass, plus
    nonnegativity.  Every inequality row is scaled by its largest
    coefficient so the tableau starts with unit row norms.  A cell whose
    stored root is 0 (a root below the root tolerance) has no row and
    raises ``RefinementError``.
    """
    if problem != table.problem:
        raise ValueError("table was built for a different problem")
    check_tol(tau, "tau")
    if problem.n > _CONDITION_REFUSE_N:
        raise ValueError(
            f"refinement rows are numerically meaningless for n={problem.n} "
            f"(> {_CONDITION_REFUSE_N})"
        )
    if problem.n > _CONDITION_WARN_N:
        warnings.warn(
            f"refinement LP rows are ill-conditioned for n={problem.n} "
            f"(> {_CONDITION_WARN_N}); results may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    n, m_val, zeta = problem.n, problem.m, problem.zeta
    log_beta = math.log(problem.beta)
    lg = gammaln(np.arange(max(n, m_val) + 2, dtype=float))
    js = np.arange(n + 1)

    n_cells = (zeta + 1) * (m_val + 1)
    a_ge = np.zeros((n_cells + 1, n + 1))
    b_ge = np.zeros(n_cells + 1)
    objective = np.zeros(n + 1)
    row_idx = 0
    for k in range(zeta + 1):
        jk = js[k:]
        log_comb_jk = lg[jk + 1] - lg[k + 1] - lg[jk - k + 1]
        log_comb_nk = lg[n + 1] - lg[k + 1] - lg[n - k + 1]
        for l in range(m_val + 1):
            t = float(table.t[k, l])
            if t <= 0.0:
                raise RefinementError(k, l, f"root below the root tolerance {table.tol!r}")
            log_t = math.log(t)
            log_coeffs = log_comb_jk + (jk - n) * log_t
            coeffs_row = np.exp(log_coeffs)
            objective[k:] += coeffs_row
            row = np.zeros(n + 1)
            row[k:] = math.exp(log_beta) * coeffs_row
            log_tail = 0.0 if l >= m_val else log_binom_cdf(m_val, l, 1.0 - t)
            rhs = math.exp(log_comb_nk + log_tail)
            scale = float(np.abs(row).max())
            if not (np.isfinite(scale) and scale > 0.0 and np.isfinite(rhs)):
                raise RefinementError(k, l, f"scale={scale!r}, rhs={rhs!r}")
            row /= scale
            rhs /= scale
            if not (np.all(np.isfinite(row)) and np.isfinite(rhs)):
                raise RefinementError(k, l, "non-finite row after scaling")
            a_ge[row_idx] = row
            b_ge[row_idx] = rhs
            row_idx += 1
    # Mass floor on indices zeta..n-1 keeps every refined vector valid.
    a_ge[n_cells, zeta:n] = 1.0
    b_ge[n_cells] = tau

    obj_scale = float(np.abs(objective).max())
    if not (np.isfinite(obj_scale) and obj_scale > 0.0):
        raise RefinementError(-1, -1, f"objective scale {obj_scale!r}")
    objective /= obj_scale

    a_eq = np.ones((1, n + 1))
    b_eq = np.array([1.0])
    return LinearProgram(objective, a_ge, b_ge, a_eq, b_eq)


@dataclass(frozen=True, eq=False)
class RefinementIteration:
    index: int
    coefficients: CoefficientVector
    table: BoundTable
    max_t_increase: float | None  # None on the initial iterate


@dataclass(frozen=True, eq=False)
class RefinementTrace:
    """Per-iteration record of a refinement run.

    The root grids are cellwise nondecreasing across iterations (up to
    twice the root tolerance); termination is one of ``converged``,
    ``max_iter`` or ``lp_failure``, and the last iterate is always valid.
    """

    iterations: list[RefinementIteration]
    termination: str

    @property
    def final(self) -> RefinementIteration:
        return self.iterations[-1]

    def to_json(self) -> str:
        from . import serialize

        return serialize.trace_json(self)


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

    An LP failure ends the run with the last valid iterate in the trace
    rather than raising; the iterates themselves never regress, so the
    final grid is cellwise at least as tight as the initial one.
    """
    if max_iter < 1:
        raise ValueError(f"require max_iter >= 1, got {max_iter}")
    check_tol(tol_converge, "tol_converge")
    check_tol(tau, "tau")
    if problem.n > _CONDITION_REFUSE_N:
        raise ValueError(
            f"refinement rows are numerically meaningless for n={problem.n} "
            f"(> {_CONDITION_REFUSE_N})"
        )
    initial.validate_for(problem)
    coeffs = initial
    table = bound_table(problem, coeffs, tol_root)
    iterations = [RefinementIteration(0, coeffs, table, None)]
    termination = "max_iter"
    for step in range(1, max_iter + 1):
        lp = build_refinement_lp(table, problem, tau)
        try:
            solution = lp_solve(lp)
        except LPError:
            termination = "lp_failure"
            break
        values = np.clip(solution.x, 0.0, None)
        values /= values.sum()
        coeffs = CoefficientVector(values, problem, scheme="refined")
        new_table = bound_table(problem, coeffs, tol_root)
        increase = float(np.max(new_table.t - table.t))
        iterations.append(RefinementIteration(step, coeffs, new_table, increase))
        table = new_table
        if increase < tol_converge:
            termination = "converged"
            break
    return RefinementTrace(iterations, termination)
