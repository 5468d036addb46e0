"""Pre-existing one-sided certificates for a violation probability.

Three bounds that certify the risk of a fixed decision from Bernoulli
counts alone: the additive Chernoff bound, the exact Clopper-Pearson
upper confidence limit, and the prior sample-size bound of the scenario
approach.  The last two are roots of binomial tail equations found by
``bisect``, the bisection routine every certificate root in the package
goes through.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .binom_tail import log_binom_cdf

__all__ = [
    "DEFAULT_TOL",
    "MAX_BISECT_ITER",
    "bisect",
    "ChernoffBound",
    "chernoff_bound",
    "clopper_pearson",
    "apriori_epsilon",
]

DEFAULT_TOL = 1e-10
MAX_BISECT_ITER = 200


def check_confidence(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError(f"confidence level beta must lie in (0, 1), got {beta}")


def check_tol(tol: float, name: str = "tol") -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"require finite {name} > 0, got {tol}")


def bisect(below_root: Callable, lo, hi, tol: float):
    """Final brackets (lo, hi), as float arrays, of an elementwise bisection.

    ``lo`` and ``hi`` are arrays of brackets that broadcast together;
    ``below_root`` gets the array of midpoints and answers true below the
    root and false above it, elementwise.  An end only moves to a midpoint
    judged on its own side, so each caller reports the end it can certify.
    Each element follows the midpoint sequence it would follow alone, and
    halving stops once every bracket is narrower than ``tol`` or after
    MAX_BISECT_ITER midpoints; the cap keeps a tolerance below the double
    spacing at a root from spinning forever.
    """
    lo, hi = (np.array(end, dtype=float) for end in np.broadcast_arrays(lo, hi))
    for _ in range(MAX_BISECT_ITER):
        open_ = hi - lo >= tol
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        below = below_root(mid)
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    return lo, hi


class ChernoffBound(NamedTuple):
    """Additive bound value plus a flag for the out-of-range pathology."""

    value: float
    exceeds_one: bool


def chernoff_bound(m: int, r: int, beta: float) -> ChernoffBound:
    """One-sided Chernoff bound r/m + sqrt(ln(beta) / (-2 m)).

    The value is returned unclamped: for large r it can exceed one, and
    truncating would distort gap statistics downstream, so callers get
    the raw value with ``exceeds_one`` set instead.
    """
    if m < 1:
        raise ValueError(f"require m >= 1 validation samples, got m={m}")
    if not 0 <= r <= m:
        raise ValueError(f"require 0 <= r <= m, got r={r}, m={m}")
    check_confidence(beta)
    value = r / m + math.sqrt(math.log(beta) / (-2.0 * m))
    return ChernoffBound(value, value > 1.0)


def _binom_tail_root(n, m, beta: float, tol: float) -> np.ndarray:
    """Upper end of a bracket narrower than ``tol`` around the unique x in
    (0, 1) with B_n(x; m) = beta, for 0 <= m < n.

    The tail is strictly decreasing from 1 at x = 0 to 0 at x = 1, so
    bisection converges unconditionally, and B_n(x; m) <= beta at the
    returned end; the comparison runs in log space because beta is
    typically ~1e-6.  ``n`` and ``m`` may be arrays, which are solved in
    one bisection; the result has their broadcast shape.
    """
    check_tol(tol)
    log_beta = math.log(beta)
    n, m = np.broadcast_arrays(n, m)
    _, hi = bisect(
        lambda x: np.greater(log_binom_cdf(n, m, x), log_beta),
        np.zeros(m.shape),
        1.0,
        tol,
    )
    return hi


def clopper_pearson(m, l, beta: float, tol: float = DEFAULT_TOL):
    """Exact one-sided upper confidence bound for a binomial proportion.

    For l < m this is the upper end of a bracket narrower than ``tol``
    around the root of B_m(x; l) = beta, so B_m(x; l) <= beta at the
    reported x and the bound never falls below the exact one; at l == m
    the bound is vacuous and equals one exactly.  ``m`` and ``l`` may
    also be arrays that broadcast together: their bounds come from one
    array bisection and equal the scalar calls elementwise.  Scalar
    inputs return a float.
    """
    if np.any(np.less(m, 1)):
        raise ValueError(f"require m >= 1 validation samples, got m={m}")
    if np.any(np.less(l, 0) | np.greater(l, m)):
        raise ValueError(f"require 0 <= l <= m, got l={l}, m={m}")
    check_confidence(beta)
    if np.ndim(m) == 0 and np.ndim(l) == 0:
        return 1.0 if l == m else float(_binom_tail_root(m, l, beta, tol))
    return np.where(np.equal(l, m), 1.0, _binom_tail_root(m, l, beta, tol))


def apriori_epsilon(n: int, zeta: int, beta: float, tol: float = DEFAULT_TOL) -> float:
    """Prior violation level from the sample size alone.

    Returns the upper end of a bracket narrower than ``tol`` around the
    root of B_n(x; zeta - 1) = beta in (0, 1).  Requires zeta < n; at
    zeta >= n the bound is vacuous.
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got n={n}")
    if not 1 <= zeta < n:
        raise ValueError(f"require 1 <= zeta < n, got zeta={zeta}, n={n}")
    check_confidence(beta)
    return float(_binom_tail_root(n, zeta - 1, beta, tol))
