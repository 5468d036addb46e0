"""Fundamental lower limits of the two-indexed certificates.

Within the class of certificate grids that are non-decreasing in the
validation index l, no admissible choice at confidence beta can fall
below the limit computed here: for k >= 1 it is the root in (0, 1) of

    sum_{j=0}^{l} z_j B_{n+m}(eps; k + j - 1) = beta,

with mixture weights z_j = C(n,k) C(m,j) / C(n+m,k+j) * k/(k+j), and at
k = 0 the limit is identically zero.  ``lower_limit`` takes one cell or
an array of cells with the same k: the cells with a root are solved in
one array bisection, and a grid row is one such call.  The degenerate
grid that attains the limit at one chosen cell is also provided, for use
in tightness demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .binom_tail import log_sum_exp
from .classic_bounds import DEFAULT_TOL, bisect, check_tol
from .posterior_bounds import (
    _BATCH_ELEMENTS,
    CertificateProblem,
    _check_cell,
    _check_support,
)

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
    in n + m trials.  Defined for k >= 1; all entries are positive."""
    if k < 1:
        raise ValueError(f"z coefficients are defined for k >= 1, got k={k}")
    if n < 1 or m < 0 or k > n:
        raise ValueError(f"require 1 <= k <= n and m >= 0, got n={n}, m={m}, k={k}")
    lg = gammaln(np.arange(n + m + 2, dtype=float))
    j = np.arange(m + 1)
    log_z = (
        (lg[n + 1] - lg[k + 1] - lg[n - k + 1])
        + (lg[m + 1] - lg[j + 1] - lg[m - j + 1])
        - (lg[n + m + 1] - lg[k + j + 1] - lg[n + m - k - j + 1])
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
    k: int,
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

    ``l`` may also be a 1-d array of cells with the one support count k.
    The cells with a root are then solved in one array bisection on
    [0, 1], in which each cell follows the midpoint sequence it would
    follow alone, and the result is a ``LowerLimit`` of arrays.  A scalar
    ``l`` returns a float and a bool.
    """
    _check_support(problem, k)
    if np.any(np.less(l, 0) | np.greater(l, problem.m)):
        raise ValueError(f"require 0 <= l <= m={problem.m}, got l={l}")
    check_tol(tol)
    cells = np.atleast_1d(l)
    eps = np.zeros(cells.shape)
    degenerate = np.zeros(cells.shape, dtype=bool)
    if k >= 1:
        z = z_coefficients(problem.n, problem.m, k)
        degenerate[...] = [float(z[: j + 1].sum()) <= problem.beta for j in cells]
        live = np.flatnonzero(~degenerate)
        live = live[np.argsort(cells[live], kind="stable")]
        if live.size:
            eps[live] = _solve_limits(k, cells[live], np.log(z), problem, tol)
    if np.ndim(l) == 0:
        return LowerLimit(float(eps[0]), bool(degenerate[0]))
    return LowerLimit(eps, degenerate)


def _solve_limits(
    k: int, l: np.ndarray, log_z: np.ndarray, problem: CertificateProblem, tol: float
) -> np.ndarray:
    """Roots for the cells (k, l[i]), k >= 1, each with a root; ``l`` is
    sorted ascending.

    Cell (k, l) needs k + l pmf terms, so the cells are cut into runs of
    at most _BATCH_ELEMENTS terms, each as wide as its own largest l.
    """
    log_beta = math.log(problem.beta)
    n_total = problem.n + problem.m
    # The tails B_{n+m}(eps; k+j-1), j = 0..l, are the prefix sums of the
    # pmf terms i = 0..k+l-1 from index k-1 on; k+l-1 < n+m, so none of
    # them is the full mass.
    i = np.arange(k + int(l[-1]), dtype=float)
    log_comb = gammaln(n_total + 1.0) - gammaln(i + 1.0) - gammaln(n_total - i + 1.0)
    starts = [0]
    for c in range(1, len(l)):
        if (c + 1 - starts[-1]) * (k + int(l[c])) > _BATCH_ELEMENTS:
            starts.append(c)
    runs = []
    for start, stop in zip(starts, starts[1:] + [len(l)]):
        width = int(l[stop - 1]) + 1  # tails j = 0..largest l of the run
        runs.append((slice(start, stop), k + width - 1, log_z[:width], np.arange(width)))

    def above_beta(eps: np.ndarray) -> np.ndarray:
        out = np.empty(eps.shape, dtype=bool)
        for cells, n_terms, log_z_run, j_run in runs:
            # ln of the pmf terms, then their running log-sums, in place
            terms = i[:n_terms] * np.log(eps[cells, None])
            terms += log_comb[:n_terms]
            terms += (n_total - i[:n_terms]) * np.log1p(-eps[cells, None])
            np.logaddexp.accumulate(terms, axis=1, out=terms)
            tails = terms[:, k - 1 :]
            np.minimum(tails, 0.0, out=tails)
            tails += log_z_run
            tails[j_run > l[cells, None]] = -np.inf
            out[cells] = log_sum_exp(tails) > log_beta
        return out

    lo, _ = bisect(above_beta, np.zeros(len(l)), 1.0, tol)
    return lo


@dataclass(frozen=True, eq=False)
class LowerLimitTable:
    """Grid of lower limits; row k = 0 is identically zero."""

    problem: CertificateProblem
    tol: float
    eps_lower: np.ndarray
    degenerate: np.ndarray

    def to_csv(self) -> str:
        from . import serialize

        return serialize.lower_table_csv(self)

    def to_json(self) -> str:
        from . import serialize

        return serialize.lower_table_json(self)


def lower_limit_table(
    problem: CertificateProblem, tol: float = DEFAULT_TOL
) -> LowerLimitTable:
    """Lower limits for every cell (k, l).

    Each row k >= 1 is one array ``lower_limit`` call over l = 0..m: its
    cells with a root share one bisection on [0, 1], in which every cell
    follows the midpoint sequence the scalar call follows for it.  Each
    bisection step evaluates the row in runs of consecutive cells, at
    most _BATCH_ELEMENTS pmf terms per run, and each run is only as wide
    as its own largest l needs.  A long row thus stays small in memory,
    and its short cells are not padded out to the row's full width.
    """
    shape = (problem.zeta + 1, problem.m + 1)
    eps = np.zeros(shape)
    degenerate = np.zeros(shape, dtype=bool)
    l = np.arange(problem.m + 1)
    for k in range(1, problem.zeta + 1):
        eps[k], degenerate[k] = lower_limit(k, l, problem, tol)
    return LowerLimitTable(problem, tol, eps, degenerate)


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
    _check_cell(problem, k, l)
    eps = np.ones((problem.zeta + 1, problem.m + 1))
    if k >= 1:
        eps[k, : l + 1] = lower_limit(k, l, problem, tol).eps
    else:
        eps[k, : l + 1] = 0.0
    return eps
