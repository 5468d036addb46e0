"""Fundamental lower limits of the two-indexed certificates.

Within the class of certificate grids that are non-decreasing in the
validation index l, no admissible choice at confidence beta can fall
below the limit computed here: for k >= 1 it is the root in (0, 1) of

    sum_{j=0}^{l} z_j B_{n+m}(eps; k + j - 1) = beta,

with mixture weights z_j = C(n,k) C(m,j) / C(n+m,k+j) * k/(k+j), and at
k = 0 the limit is identically zero.  The degenerate grid that attains
the limit at one chosen cell is also provided, for use in tightness
demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .binom_tail import log_sum_exp
from .classic_bounds import DEFAULT_TOL, bisect, check_tol
from .posterior_bounds import CertificateProblem, _check_cell

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
    """A lower-limit value plus a flag for the no-root boundary regime."""

    eps: float
    degenerate: bool


def lower_limit(
    k: int,
    l: int,
    problem: CertificateProblem,
    tol: float = DEFAULT_TOL,
) -> LowerLimit:
    """Smallest admissible certificate at cell (k, l).

    k = 0 pins the limit at zero.  For k >= 1 the defining equation has a
    root exactly when the total weight sum_{j<=l} z_j exceeds beta; in
    the boundary regime where it does not, the limit degrades gracefully
    to 0 with the ``degenerate`` flag set instead of raising.
    """
    _check_cell(problem, k, l)
    check_tol(tol)
    if k == 0:
        return LowerLimit(0.0, False)
    z = z_coefficients(problem.n, problem.m, k)[: l + 1]
    if float(z.sum()) <= problem.beta:
        return LowerLimit(0.0, True)
    log_z = np.log(z)
    log_beta = math.log(problem.beta)
    n_total = problem.n + problem.m
    # The tails B_{n+m}(eps; k+j-1), j = 0..l, are the prefix sums of the
    # pmf terms i = 0..k+l-1 from index k-1 on; k+l-1 < n+m, so none of
    # them is the full mass.
    i = np.arange(k + l, dtype=float)
    log_comb = gammaln(n_total + 1.0) - gammaln(i + 1.0) - gammaln(n_total - i + 1.0)

    def log_lhs(eps: float) -> float:
        terms = log_comb + i * math.log(eps) + (n_total - i) * math.log1p(-eps)
        tails = np.minimum(np.logaddexp.accumulate(terms)[k - 1 :], 0.0)
        return log_sum_exp(log_z + tails)

    lo, hi = bisect(lambda eps: log_lhs(eps) > log_beta, 0.0, 1.0, tol)
    return LowerLimit(0.5 * (lo + hi), False)


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
    """Lower limits for every cell (k, l); cells are independent."""
    shape = (problem.zeta + 1, problem.m + 1)
    eps = np.zeros(shape)
    degenerate = np.zeros(shape, dtype=bool)
    for k in range(1, problem.zeta + 1):
        for l in range(problem.m + 1):
            eps[k, l], degenerate[k, l] = lower_limit(k, l, problem, tol)
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
