"""Pre-existing one-sided certificates for a violation probability.

Three bounds that certify the risk of a fixed decision from Bernoulli
counts alone: the additive Chernoff bound, the exact Clopper-Pearson
upper confidence limit, and the prior sample-size bound of the scenario
approach.  The last two are roots of binomial tail equations found by
``bisect``, the bracketing root kernel every certificate root in the
package goes through.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import betaincinv

from .binom_tail import log_binom_cdf

__all__ = [
    "DEFAULT_TOL",
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


def bisect(value: Callable, size: int, tol: float, guess=None):
    """Final brackets (lo, hi), as float arrays, of ``size`` roots in [0, 1].

    ``value(x, cells)`` is >= 0 below the roots of cells and < 0 or nan
    above them, at x strictly inside their brackets; an end only moves to
    a point judged on its side, so a caller reports the end it can
    certify.  Each step evaluates only the open cells, at ITP points (k1 =
    0.2, k2 = 2, n0 = 2; Oliveira & Takahashi, ACM TOMS 47(1), 2020) on
    bisection's grid of 2^-L, L its halving count for ``tol``: midpoints
    until both ends are finite (0 and 1 count as +-inf), at most L + 2 in
    all to one grid step, where bisection ends if the sign is monotone
    there, or until no double lies inside, within MAX_BISECT_ITER steps.

    ``guess`` optionally holds an estimate of each root, nan for none;
    no guess is a guess of nan for every cell, and a cell guessed nan
    takes the points of a cold solve, whatever the other cells' guesses.
    A cell with a finite guess is first evaluated at the guess's grid
    point g, clamped to [2^-L, 1 - 2^-L], then at g's grid neighbour on the
    root's side: g + 2^-L if g is judged below the root, g - 2^-L if
    above.  ITP then restarts on the bracket those two points leave.  An
    unmoved root thus takes two points, one if it lies within a grid step
    of the end its guess was clamped to, and since a monotone sign changes
    at one grid step, a guess changes how many points a cell takes but
    never its bracket.
    """
    spacing = 2.0 ** -next((j for j in range(MAX_BISECT_ITER) if 2.0**-j < tol), MAX_BISECT_ITER)
    lo, hi = np.zeros(size), np.ones(size)
    # The open cells: their indices, brackets and end values.
    cells, a, b = np.arange(size), lo.copy(), hi.copy()
    f_a, f_b = np.full(size, np.inf), np.full(size, -np.inf)
    # A guessed cell's next point while its guess leads (nan for the rest),
    # then 2^s for s the step its restarted ITP counts from (s = 0 if cold).
    guess = np.full(size, np.nan) if guess is None else np.ravel(guess)
    lead = np.where(np.isfinite(guess),
                    np.clip(np.round(guess / spacing) * spacing, spacing, 1.0 - spacing), np.nan)
    scale = np.ones(size)
    for step in range(MAX_BISECT_ITER):
        width = b - a
        keep = (width > spacing) & (np.nextafter(a, 1.0) < b)
        if not keep.all():
            shut = ~keep
            lo[cells[shut]], hi[cells[shut]] = a[shut], b[shut]
            cells, a, b, f_a, f_b, width, lead, scale = (
                v[keep] for v in (cells, a, b, f_a, f_b, width, lead, scale))
        if not cells.size:
            break
        mid, gap = 0.5 * (a + b), f_a - f_b
        with np.errstate(invalid="ignore", over="ignore"):  # mid until ends are finite
            falsi = np.where(np.isfinite(gap), a + width * f_a / gap, mid)
        gap = mid - falsi
        side, trunc = np.sign(gap), 0.2 * width**2  # k1 * width^k2
        x = np.where(trunc <= abs(gap), falsi + side * trunc, mid)
        # 2^(n0 - 1 - step + s) - width / 2, n0 = 2
        reach = np.ldexp(2.0, -step) * scale - 0.5 * width
        x = np.where(abs(x - mid) <= reach, x, mid - side * reach)
        if step < 2:  # a guessed cell's first two points
            x = np.where(np.isnan(lead), x, lead)
        x = np.minimum(np.maximum(np.round(x / spacing) * spacing, a + spacing), b - spacing)
        # A grid finer than doubles: keep x strictly inside (a, b).
        x = np.minimum(np.maximum(x, np.nextafter(a, 1.0)), np.nextafter(b, 0.0))
        below = (y := value(x, cells)) >= 0.0
        a, f_a = np.where(below, x, a), np.where(below, y, f_a)
        b, f_b = np.where(below, b, x), np.where(below, f_b, y)
        if step == 0:  # then the neighbour on the root's side
            lead = np.where(np.isnan(lead), lead, np.where(below, x + spacing, x - spacing))
        elif step == 1:  # ITP restarts on what the guess left, at its step for that width
            restart = np.ldexp(4.0, np.ceil(np.log2(b - a)).astype(int))
            scale = np.where(np.isnan(lead), 1.0, restart)
    lo[cells], hi[cells] = a, b
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
    the bracketing solve converges unconditionally, and B_n(x; m) <= beta
    at the returned end; the comparison runs in log space because beta is
    typically ~1e-6.  ``n`` and ``m`` may be arrays, which are solved in
    one ``bisect`` call; the result has their broadcast shape.  Each cell
    starts from B_n(x; m) = I_{1-x}(n - m, m + 1) inverted by
    ``betaincinv``, which puts it two points from its bracket; by
    ``bisect``'s guess contract the brackets are those of a cold solve.
    """
    check_tol(tol)
    log_beta_up = np.nextafter(math.log(beta), math.inf)  # v >= it iff v > ln beta
    n, m = np.broadcast_arrays(n, m)
    _, hi = bisect(
        lambda x, cells: log_binom_cdf(n.flat[cells], m.flat[cells], x) - log_beta_up,
        m.size,
        tol,
        1.0 - betaincinv(n - m, m + 1, beta),
    )
    return hi.reshape(m.shape)


def clopper_pearson(m, l, beta: float, tol: float = DEFAULT_TOL):
    """Exact one-sided upper confidence bound for a binomial proportion.

    For l < m this is the upper end of a bracket narrower than ``tol``
    around the root of B_m(x; l) = beta, so B_m(x; l) <= beta at the
    reported x and the bound never falls below the exact one; at l == m
    the bound is vacuous and equals one exactly.  ``m`` and ``l`` may
    also be arrays that broadcast together: the bounds of their l < m
    cells come from one ``bisect`` call and equal the scalar calls
    elementwise.  Scalar inputs return a float.
    """
    if np.any(np.less(m, 1)):
        raise ValueError(f"require m >= 1 validation samples, got m={m}")
    if np.any(np.less(l, 0) | np.greater(l, m)):
        raise ValueError(f"require 0 <= l <= m, got l={l}, m={m}")
    check_confidence(beta)
    m, l = np.broadcast_arrays(m, l)
    below = l < m  # only these have a root; the rest are 1 exactly
    eta = np.ones(l.shape)
    eta[below] = _binom_tail_root(m[below], l[below], beta, tol)
    return float(eta) if eta.ndim == 0 else eta


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
