"""Small linear programs, solved by HiGHS.

Problems are stated in HiGHS's row-bounds form,

    maximize    c . x
    subject to  lower <= a x <= upper
                x >= 0,

where a side may be infinite and ``lower == upper`` makes a row an
equality.  ``lp_solve`` runs the dual revised simplex of HiGHS (Huangfu &
Hall, Math. Prog. Comp. 10, 2018), which ships with SciPy.  Its extension
module is loaded by file path on the first solve, so ``scipy.optimize``
(about 23 MB of resident memory) is never imported.  ``passModel`` takes
the program as NumPy arrays: the raveled dense rows of ``a`` and the row
bounds as they are, int32 row starts every ``len(c)`` entries and the
column indices ``0..len(c)-1`` for each row, so a program of 2^31
entries or more raises ``SimplexError``.  Where that private module is
missing or will not load, ``scipy.optimize.linprog`` runs HiGHS.  Both
paths fix these options:

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
  stalled solve: no refinement program measured took over 729, the
  second step at (n, m, zeta) = (20000, 20, 18).
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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize c.x  s.t.  lower <= a x <= upper,  x >= 0.

    ``a`` is a dense (rows, len(c)) matrix.  A row bound may be infinite
    on its open side (-inf below, +inf above); ``lower == upper`` makes
    the row an equality.
    """

    c: np.ndarray
    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError(f"objective must be a nonempty vector, got shape {c.shape}")
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[1] != c.size:
            raise ValueError(f"a must have shape (rows, {c.size}), got {a.shape}")
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if lower.size != a.shape[0] or upper.size != a.shape[0]:
            raise ValueError("row bounds do not match the row count of a")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a))):
            raise ValueError("c or a contains non-finite entries")
        # NaN fails lower <= upper, so it is refused with the empty rows.
        bad = ~(lower <= upper) | (lower == np.inf) | (upper == -np.inf)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i} admits no value: bounds [{lower[i]}, {upper[i]}]")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


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
    (rows, n), entries = lp.a.shape, lp.a.size
    if entries > _MAX_HIGHS_INDEX:
        raise SimplexError(f"{rows} x {n} matrix entries overflow HiGHS's 32-bit indices")
    highs = h._Highs()
    for name, value in {"output_flag": False, "presolve": "off", **_HIGHS_OPTIONS}.items():
        if highs.setOptionValue(name, value) == h.HighsStatus.kError:
            raise SimplexError(f"HiGHS rejected option {name}={value!r}")
    status = highs.passModel(
        n, rows, entries, int(h.MatrixFormat.kRowwise), int(h.ObjSense.kMaximize), 0.0,
        lp.c, np.zeros(n), np.full(n, h.kHighsInf), lp.lower, lp.upper,
        np.arange(0, entries, n, dtype=np.int32), np.tile(np.arange(n, dtype=np.int32), rows),
        lp.a.ravel(), np.zeros(n, dtype=np.int32))
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

    # linprog takes equalities apart and every other finite side as a <= row.
    eq = lp.lower == lp.upper
    below, above = ~eq & (lp.upper < np.inf), ~eq & (lp.lower > -np.inf)
    with warnings.catch_warnings():
        # SciPy passes the options it does not name to HiGHS, and says so.
        names = "|".join(_HIGHS_OPTIONS)
        warnings.filterwarnings("ignore", rf"Unrecognized options detected: \{{'({names})'",
                                OptimizeWarning)
        result = linprog(-lp.c, A_ub=np.concatenate([lp.a[below], -lp.a[above]]),
                         b_ub=np.concatenate([lp.upper[below], -lp.lower[above]]),
                         A_eq=lp.a[eq], b_eq=lp.lower[eq], bounds=(0.0, None),
                         method="highs",
                         options={"disp": False, "presolve": False, **_HIGHS_OPTIONS})
    if result.status == 0:
        return result.x
    error = {2: LPInfeasibleError, 3: LPUnboundedError}.get(result.status, SimplexError)
    raise error(f"linprog: {result.message}")


def lp_solve(lp: LinearProgram) -> np.ndarray:
    """Optimal basic solution x of the program, clipped at 0.

    Its feasibility residuals are at the level of the primal feasibility
    tolerance.  Raises LPInfeasibleError or LPUnboundedError when HiGHS
    proves the program infeasible or unbounded, and SimplexError on any
    other outcome.  The refinement programs are feasible and bounded, so
    any of these there signals numerical breakdown.
    """
    h = _load_highs()
    x = _solve_core(h, lp) if h is not None else _solve_linprog(lp)
    return np.clip(x, 0.0, None)
