"""Fundamental lower limits of the two-indexed certificates.

Within the class of certificate grids that are non-decreasing in the
validation index l, no admissible choice at confidence beta can fall
below the limit computed here: for k >= 1 it is the root in (0, 1) of

    sum_{j=0}^{l} z_j B_{n+m}(eps; k + j - 1) = beta,

with mixture weights z_j = C(n,k) C(m,j) / C(n+m,k+j) * k/(k+j), and at
k = 0 the limit is identically zero.  ``lower_limit`` takes one cell or
an array of cells, and ``lower_limit_table`` passes it the whole grid.
It sums the mixture by parts, so that a root-finding step over the open
cells of a run is one log-sum-exp of ln pmf_i(eps) + ln W_i per cell.  The
degenerate grid that attains the limit at one chosen cell is also
provided, for use in tightness demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binom_tail import _BATCH_ELEMENTS, _log_comb, log_sum_exp
from .classic_bounds import DEFAULT_TOL, bisect, check_tol
from .posterior_bounds import CertificateProblem, _check_cells

__all__ = [
    "z_coefficients",
    "LowerLimit",
    "lower_limit",
    "LowerLimitTable",
    "lower_limit_table",
    "attaining_table",
]


def z_coefficients(n: int, m: int, k: int) -> np.ndarray:
    """Mixture weights z_0..z_m tying grid cell (k, .) to binomial tails
    in n + m trials, for k >= 1.  Positive in exact arithmetic, they can
    underflow to 0 once m is in the thousands."""
    if k < 1:
        raise ValueError(f"z coefficients are defined for k >= 1, got k={k}")
    if n < 1 or m < 0 or k > n:
        raise ValueError(f"require 1 <= k <= n and m >= 0, got n={n}, m={m}, k={k}")
    j = np.arange(m + 1)
    log_z = (
        _log_comb(n, k)
        + _log_comb(m, j)
        - _log_comb(n + m, k + j)
        + math.log(k)
        - np.log(k + j)
    )
    return np.exp(log_z)


class LowerLimit(NamedTuple):
    """A lower-limit value plus a flag for the no-root boundary regime;
    an array of each for an array of cells."""

    eps: float
    degenerate: bool


def lower_limit(
    k,
    l,
    problem: CertificateProblem,
    tol: float = DEFAULT_TOL,
) -> LowerLimit:
    """Smallest admissible certificate at cell (k, l).

    k = 0 pins the limit at zero.  For k >= 1 the defining equation has a
    root exactly when the total weight sum_{j<=l} z_j exceeds beta; in
    the boundary regime where it does not, the limit degrades gracefully
    to 0 with the ``degenerate`` flag set instead of raising.  A root is
    reported as the lower end of a bracket narrower than ``tol``, where
    the mixture is still above beta, so the reported limit never exceeds
    the exact one.

    ``k`` and ``l`` may also be 1-d arrays of cells that broadcast
    together, such as the whole grid that ``lower_limit_table`` passes;
    the result is then a ``LowerLimit`` of arrays.

    Summed by parts, the mixture at cell (k, l) is sum_{i<k+l} pmf_i W_i,
    with pmf_i(eps) the binomial terms in n + m trials and the weights
    W_i = sum_{j=max(0,i-k+1)}^{l} z_j, which do not depend on eps.  The
    cells with a root are sorted by k + l and cut into runs of at most
    _BATCH_ELEMENTS terms, each as wide as its largest k + l.  A run
    builds its ln W when it starts, in one gather over cells of any k,
    and is solved in one ``bisect`` call on [0, 1], whose steps evaluate
    only the run's open cells, and in which each cell follows the
    sequence of points it would follow alone.
    """
    _check_cells(problem, k, l)
    scalar = np.ndim(k) == 0 and np.ndim(l) == 0
    k, l = np.broadcast_arrays(np.atleast_1d(k), np.atleast_1d(l))
    check_tol(tol)
    eps, degenerate = np.zeros(l.shape), np.zeros(l.shape, dtype=bool)
    cells = np.flatnonzero(k >= 1)
    ks, row = np.unique(k[cells], return_inverse=True)
    with np.errstate(divide="ignore"):  # an underflowed z_j drops out as -inf
        log_z = np.log([z_coefficients(problem.n, problem.m, int(kr)) for kr in ks])
    log_z = log_z.reshape(ks.size, problem.m + 1)
    log_beta = math.log(problem.beta)
    log_beta_up = np.nextafter(log_beta, math.inf)  # v >= it iff v > ln beta
    log_total = np.logaddexp.accumulate(log_z, axis=1)[row, l[cells]]  # ln W_0
    degenerate[cells] = log_total <= log_beta
    live = np.flatnonzero(log_total > log_beta)
    live = live[np.argsort((k + l)[cells[live]], kind="stable")]
    cells, row, log_total = cells[live], row[live], log_total[live]
    width = (k + l)[cells]  # pmf terms i = 0..k+l-1 per cell
    n_total = problem.n + problem.m
    i = np.arange(width[-1] if width.size else 0, dtype=float)
    log_comb = _log_comb(n_total, i)
    start = 0
    while start < cells.size:
        # width is non-decreasing, so (c + 1) * width[start + c] rises with c
        span = width[start : start + max(1, _BATCH_ELEMENTS // width[start])]
        fits = np.arange(1, span.size + 1) * span <= _BATCH_ELEMENTS
        run = slice(start, start + max(1, np.count_nonzero(fits)))
        terms = width[run.stop - 1]
        # ln W_i is the forward ln W_0 for i < k (a reversed sum differs in the last
        # bits), then the reversed running sum of z_{i-k+1}..z_l, -inf past l.
        k_run, l_run = k[cells[run], None], l[cells[run], None]
        j = np.arange(l_run.max() + 2)
        suffix = np.where(j <= l_run, log_z[row[run, None], np.minimum(j, l_run)], -np.inf)
        suffix = np.logaddexp.accumulate(suffix[:, ::-1], axis=1)[:, ::-1]
        at = np.clip(np.arange(terms) - k_run + 1, 0, j[-1])
        log_w = np.where(at == 0, log_total[run, None], np.take_along_axis(suffix, at, axis=1))
        log_w += log_comb[:terms]
        buf = np.empty_like(log_w)

        def log_excess(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
            # ln pmf_i = ln C(n+m, i) + (n+m) ln(1 - x) + i ln(x / (1 - x))
            log_1mx = np.log1p(-x)
            log_terms = np.multiply(i[:terms], (np.log(x) - log_1mx)[:, None], out=buf[: x.size])
            log_terms += log_w[rows]
            return log_sum_exp(log_terms) + n_total * log_1mx - log_beta_up

        eps[cells[run]], _ = bisect(log_excess, len(log_w), tol)
        start = run.stop
    if scalar:
        return LowerLimit(float(eps[0]), bool(degenerate[0]))
    return LowerLimit(eps, degenerate)


@dataclass(frozen=True, eq=False)
class LowerLimitTable:
    """Grid of lower limits; row k = 0 is identically zero."""

    problem: CertificateProblem
    tol: float
    eps_lower: np.ndarray
    degenerate: np.ndarray


def lower_limit_table(
    problem: CertificateProblem, tol: float = DEFAULT_TOL
) -> LowerLimitTable:
    """Lower limits for every cell (k, l).

    The whole grid is one array ``lower_limit`` call: its cells are cut
    into runs in order of k + l, and each run is one ``bisect`` call on
    [0, 1] in which every cell follows the sequence of points the scalar
    call follows for it.
    """
    k, l = np.indices((problem.zeta + 1, problem.m + 1))
    eps, degenerate = lower_limit(k.ravel(), l.ravel(), problem, tol)
    return LowerLimitTable(problem, tol, eps.reshape(k.shape), degenerate.reshape(k.shape))


def attaining_table(
    k: int,
    l: int,
    problem: CertificateProblem,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Degenerate certificate grid that attains the lower limit at (k, l).

    The grid equals the limit on cells (k, 0..l) and is vacuous (= 1)
    everywhere else, which keeps it admissible at confidence beta while
    being as small as possible at the chosen cell.  On a fully supported
    problem whose support count is always k, it exhibits empirical
    confidence close to beta.
    """
    _check_cells(problem, k, l)
    eps = np.ones((problem.zeta + 1, problem.m + 1))
    eps[k, : l + 1] = lower_limit(k, l, problem, tol).eps  # 0 for k = 0
    return eps
