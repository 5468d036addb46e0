"""Dense two-phase revised simplex for small linear programs.

The refinement step needs one small LP per iteration (a few hundred
variables, around a hundred rows), so a self-contained deterministic
solver beats an external dependency: runs stay bit-reproducible.  Every
pivot recomputes the basic solution, the duals and the entering
direction directly from the original constraint matrix, so roundoff
never accumulates across pivots -- essential here because the refinement
programs are feasible only within razor-thin margins near their fixed
point.  Pivoting is Dantzig's rule with a largest-direction ratio
tie-break, falling back to Bland's rule whenever the objective stalls so
that degenerate vertices cannot cycle.

Problems are stated as

    maximize    c . x
    subject to  a_ge x >= b_ge
                a_eq x  = b_eq
                x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LPSolution",
    "LPError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "SimplexError",
    "lp_solve",
]

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8  # matches the documented residual contract of lp_solve
_MAX_PIVOTS = 100_000
_STALL_LIMIT = 30  # stalled pivots before switching to Bland's rule


class LPError(RuntimeError):
    pass


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


class SimplexError(LPError):
    pass


def _as_matrix(rows, n_vars: int, name: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        return np.zeros((0, n_vars))
    if arr.ndim != 2 or arr.shape[1] != n_vars:
        raise ValueError(f"{name} must have shape (rows, {n_vars}), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c.x  s.t.  a_ge x >= b_ge,  a_eq x = b_eq,  x >= 0."""

    c: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError(f"objective must be a nonempty vector, got shape {c.shape}")
        n = c.size
        a_ge = _as_matrix(self.a_ge, n, "a_ge")
        a_eq = _as_matrix(self.a_eq, n, "a_eq")
        b_ge = np.asarray(self.b_ge, dtype=float).reshape(-1)
        b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if b_ge.size != a_ge.shape[0] or b_eq.size != a_eq.shape[0]:
            raise ValueError("right-hand sides do not match constraint row counts")
        for name, arr in (("c", c), ("a_ge", a_ge), ("b_ge", b_ge),
                          ("a_eq", a_eq), ("b_eq", b_eq)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ge", a_ge)
        object.__setattr__(self, "b_ge", b_ge)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True, eq=False)
class LPSolution:
    x: np.ndarray
    objective: float


def _solve_basis(basis_matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a basis matrix or its transpose.  A singular basis is a
    numerical breakdown of the method, so it raises SimplexError."""
    try:
        return np.linalg.solve(basis_matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"singular basis matrix: {exc}") from exc


def _revised_simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
                     basis: np.ndarray) -> np.ndarray:
    """Minimize cost.x over {a x = b, x >= 0} from a feasible basis.

    The basis array is updated in place and returned; each iteration
    re-solves against the original data, so no drift survives a pivot.
    One basic solution per iteration serves both the ratio test and the
    stall test.  Stalls count from the objective of the starting basis
    (the first iteration always counts as progress over ``inf``): a
    pivot that lowers the best objective so far resets the count, and
    Bland's rule prices only after ``_STALL_LIMIT`` pivots in a row
    without such progress.
    """
    n_rows = a.shape[0]
    stall = 0
    last_objective = np.inf
    for _ in range(_MAX_PIVOTS):
        basis_matrix = a[:, basis]
        x_basic = _solve_basis(basis_matrix, b)
        objective = float(cost[basis] @ x_basic)
        if objective < last_objective - 1e-12 * (1.0 + abs(objective)):
            stall = 0
            last_objective = objective
        else:
            stall += 1
        duals = _solve_basis(basis_matrix.T, cost[basis])
        reduced = cost - duals @ a
        reduced[basis] = 0.0
        negative = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if negative.size == 0:
            return basis
        use_bland = stall >= _STALL_LIMIT
        if use_bland:
            entering = int(negative[0])  # smallest index: Bland's rule
        else:
            entering = int(negative[np.argmin(reduced[negative])])
        direction = _solve_basis(basis_matrix, a[:, entering])
        blocking = np.nonzero(direction > _PIVOT_TOL)[0]
        if blocking.size == 0:
            raise LPUnboundedError(f"entering column {entering} has no blocking row")
        ratios = np.maximum(x_basic[blocking], 0.0) / direction[blocking]
        best = float(ratios.min())
        ties = blocking[ratios <= best + 1e-12 * (1.0 + abs(best))]
        if use_bland:
            leaving = int(ties[np.argmin(basis[ties])])
        else:
            leaving = int(ties[np.argmax(direction[ties])])
        basis[leaving] = entering
    raise SimplexError(f"pivot limit {_MAX_PIVOTS} exceeded ({n_rows} rows)")


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Optimal basic feasible solution of a small dense LP.

    Feasibility residuals of the returned point are at the level of one
    fresh linear solve (well below 1e-8 for the scaled refinement
    programs).  Raises LPInfeasibleError when phase 1 cannot zero the
    artificial variables and LPUnboundedError when an entering column
    has no blocking row; neither can occur for the refinement programs,
    whose feasible set is a nonempty face of the probability simplex, so
    seeing them there signals numerical breakdown, not a model property.
    """
    n = lp.n_vars
    p = lp.b_ge.size
    q = lp.b_eq.size
    n_rows = p + q
    # Equality standard form: x, then one surplus per >= row.
    a = np.zeros((n_rows, n + p))
    b = np.empty(n_rows)
    if p:
        a[:p, :n] = lp.a_ge
        a[:p, n : n + p] = -np.eye(p)
        b[:p] = lp.b_ge
    if q:
        a[p:, :n] = lp.a_eq
        b[p:] = lp.b_eq
    neg = b < 0.0
    a[neg] *= -1.0
    b[neg] *= -1.0

    if n_rows == 0:
        # Only x >= 0 remains; bounded iff no objective coefficient is
        # positive, in which case x = 0 is optimal.
        if np.any(lp.c > _PIVOT_TOL):
            raise LPUnboundedError("no constraints bound a rising objective")
        return LPSolution(np.zeros(n), 0.0)

    n_cols = n + p
    a_ext = np.hstack([a, np.eye(n_rows)])

    phase1_cost = np.zeros(n_cols + n_rows)
    phase1_cost[n_cols:] = 1.0
    basis = np.arange(n_cols, n_cols + n_rows)
    _revised_simplex(a_ext, b, phase1_cost, basis)
    x_basic = _solve_basis(a_ext[:, basis], b)
    artificial = basis >= n_cols
    scale = max(1.0, float(np.abs(b).max()))
    if float(np.abs(x_basic[artificial]).sum()) > _FEAS_TOL * scale:
        raise LPInfeasibleError("phase 1 could not drive artificial variables to zero")

    # Pivot leftover zero-level artificial variables out of the basis;
    # rows whose basis inverse row meets no structural column are
    # redundant and get dropped.
    keep = np.ones(n_rows, dtype=bool)
    for i in range(n_rows):
        if basis[i] >= n_cols:
            unit = np.zeros(n_rows)
            unit[i] = 1.0
            inverse_row = _solve_basis(a_ext[:, basis].T, unit)
            weights = inverse_row @ a_ext[:, :n_cols]
            structural = np.nonzero(np.abs(weights) > _PIVOT_TOL)[0]
            if structural.size:
                basis[i] = int(structural[0])
            else:
                keep[i] = False
    a_struct = a[keep]
    b_struct = b[keep]
    basis = basis[keep]

    phase2_cost = np.zeros(n_cols)
    phase2_cost[:n] = -lp.c  # maximize c.x == minimize -c.x
    _revised_simplex(a_struct, b_struct, phase2_cost, basis)

    x_full = np.zeros(n_cols)
    x_full[basis] = _solve_basis(a_struct[:, basis], b_struct)
    if float(x_full.min()) < -_FEAS_TOL:
        raise SimplexError(
            f"final basis is not feasible (min coordinate {x_full.min():.3e})"
        )
    x = np.clip(x_full[:n], 0.0, None)
    return LPSolution(x, float(lp.c @ x))
