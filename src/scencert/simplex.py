"""Small linear programs, solved by HiGHS.

Problems are stated as

    maximize    c . x
    subject to  a_ge x >= b_ge
                a_eq x  = b_eq
                x >= 0.

``lp_solve`` runs the dual revised simplex of HiGHS (Huangfu & Hall,
Math. Prog. Comp. 10, 2018), which ships with SciPy.  Its extension
module is loaded by file path on the first solve, so ``scipy.optimize``
(about 23 MB of resident memory) is never imported.  ``passModel``
takes the program as NumPy arrays: the raveled dense rows of ``[a_ge;
a_eq]``, int32 row starts every ``n_vars`` entries and the column
indices ``0..n_vars-1`` for each row, so a program of 2^31 entries or
more raises ``SimplexError``.  Where that private module is missing or
will not load, ``scipy.optimize.linprog`` runs HiGHS.  Both paths fix
these options:

- ``output_flag`` off;
- ``presolve`` off: near their fixed point every row of the refinement
  programs is tight, and presolve called such a program infeasible
  although the previous weights violated it by only 4.2e-17;
- ``primal_feasibility_tolerance`` 1e-10;
- ``simplex_scale_strategy`` 0: HiGHS applies its tolerances to the
  scaled model, so with scaling a zero weight could pass for the
  refinement's mass floor of 1e-9;
- ``small_matrix_value`` 1e-12, set before the model is passed: at the
  default 1e-9 HiGHS dropped 37,051 entries of a (500, 500, 18)
  refinement step's matrix, and the dual simplex then stalled.  It also
  drops the dense rows' exact zeros;
- ``simplex_iteration_limit`` 10,000, a deterministic backstop for a
  stalled solve: no refinement program measured took over 693.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache

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

# The HiGHS options both paths pass; each adds its own spelling of the
# output and presolve switches.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "simplex_scale_strategy": 0,
    "small_matrix_value": 1e-12,
    "simplex_iteration_limit": 10_000,
}
_HIGHS_CORE = "scipy.optimize._highspy._core"
# HiGHS indexes the matrix with 32-bit integers, row starts included.
_MAX_HIGHS_INDEX = int(np.iinfo(np.int32).max)


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


@cache
def _load_highs():
    """SciPy's HiGHS extension module, or None where it cannot be loaded.

    It is registered under its own name, so a later ``import
    scipy.optimize`` reuses it instead of loading the library twice.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    try:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                break
        else:
            return None
        spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    sys.modules[_HIGHS_CORE] = module
    return module


def _solve_core(h, lp: LinearProgram) -> np.ndarray:
    n, rows = lp.n_vars, lp.b_ge.size + lp.b_eq.size
    if rows * n > _MAX_HIGHS_INDEX:
        raise SimplexError(f"{rows} x {n} matrix entries overflow HiGHS's 32-bit indices")
    highs = h._Highs()
    for name, value in {"output_flag": False, "presolve": "off", **_HIGHS_OPTIONS}.items():
        if highs.setOptionValue(name, value) == h.HighsStatus.kError:
            raise SimplexError(f"HiGHS rejected option {name}={value!r}")
    status = highs.passModel(
        n, rows, rows * n, int(h.MatrixFormat.kRowwise), int(h.ObjSense.kMaximize), 0.0,
        lp.c, np.zeros(n), np.full(n, h.kHighsInf), np.concatenate([lp.b_ge, lp.b_eq]),
        np.concatenate([np.full(lp.b_ge.size, h.kHighsInf), lp.b_eq]),
        np.arange(0, rows * n, n, dtype=np.int32), np.tile(np.arange(n, dtype=np.int32), rows),
        np.concatenate([lp.a_ge, lp.a_eq]).ravel(), np.zeros(n, dtype=np.int32))
    if status == h.HighsStatus.kError:
        raise SimplexError("HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status == h.HighsModelStatus.kOptimal:
        return np.array(highs.getSolution().col_value)
    error = {h.HighsModelStatus.kInfeasible: LPInfeasibleError,
             h.HighsModelStatus.kUnbounded: LPUnboundedError}.get(status, SimplexError)
    raise error(f"HiGHS: {highs.modelStatusToString(status)}")


def _solve_linprog(lp: LinearProgram) -> np.ndarray:
    from scipy.optimize import OptimizeWarning, linprog

    with warnings.catch_warnings():
        # SciPy passes the options it does not name to HiGHS, and says so.
        names = "|".join(_HIGHS_OPTIONS)
        warnings.filterwarnings("ignore", rf"Unrecognized options detected: \{{'({names})'",
                                OptimizeWarning)
        result = linprog(-lp.c, A_ub=-lp.a_ge, b_ub=-lp.b_ge, A_eq=lp.a_eq, b_eq=lp.b_eq,
                         bounds=(0.0, None), method="highs",
                         options={"disp": False, "presolve": False, **_HIGHS_OPTIONS})
    if result.status == 0:
        return result.x
    error = {2: LPInfeasibleError, 3: LPUnboundedError}.get(result.status, SimplexError)
    raise error(f"linprog: {result.message}")


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Optimal basic solution of the program, clipped at 0.

    Its feasibility residuals are at the level of the primal feasibility
    tolerance.  Raises LPInfeasibleError or LPUnboundedError when HiGHS
    proves the program infeasible or unbounded, and SimplexError on any
    other outcome.  The refinement programs are feasible and bounded, so
    any of these there signals numerical breakdown.
    """
    h = _load_highs()
    x = _solve_core(h, lp) if h is not None else _solve_linprog(lp)
    x = np.clip(x, 0.0, None)
    return LPSolution(x, float(lp.c @ x))
