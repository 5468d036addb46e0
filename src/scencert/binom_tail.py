"""Numerically stable binomial tail sums.

Every certificate in this package reduces to evaluating the lower tail

    B_n(t; m) = sum_{i=0}^{m} C(n, i) t^i (1 - t)^(n - i)

of a Binomial(n, t) distribution, for n up to ~1e5 and tail values down to
~1e-12.  Direct summation overflows long before that (C(1000, 500) exceeds
the double range), so every term is assembled in log space and the terms
are combined with a max-shifted log-sum-exp.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = ["log_binom_coeff", "log_sum_exp", "log_binom_cdf", "binom_cdf"]

# Below this many factors ln C(n, k) is summed factor by factor; lgamma
# differencing loses absolute accuracy ~1e-10 at n ~ 1e5, which is only
# acceptable once the coefficient itself is large.
_EXACT_FACTOR_LIMIT = 64


def log_binom_coeff(n: int, k: int) -> float:
    """ln C(n, k) for integers 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"require n >= 0 and k >= 0, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"require k <= n, got n={n}, k={k}")
    r = min(k, n - k)
    if r == 0:
        return 0.0
    if r <= _EXACT_FACTOR_LIMIT:
        return math.fsum(math.log(n - i) - math.log(i + 1) for i in range(r))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_sum_exp(log_terms):
    """ln(sum_i exp(v_i)) over the last axis, without overflow.

    Terms are exponentiated relative to the largest one, so every summand
    lies in [0, 1] and plain summation keeps full double precision on the
    dominant terms.  ``-inf`` entries drop out; an empty or all-``-inf``
    input yields ``-inf``.  A 1-d input gives a float, a stack of rows
    one value per row.
    """
    arr = np.asarray(log_terms, dtype=float)
    if arr.size == 0:
        return -math.inf
    mx = arr.max(axis=-1, keepdims=True)
    dead = mx == -math.inf  # all -inf: shift by 0 and take ln 1, not ln 0
    total = np.exp(arr - np.where(dead, 0.0, mx)).sum(axis=-1, keepdims=True) + dead
    out = (mx + np.log(total))[..., 0]
    return float(out) if out.ndim == 0 else out


def log_binom_cdf(n: int, m: int, t: float) -> float:
    """ln B_n(t; m).

    ``m < 0`` returns ``-inf`` (empty sum by convention), ``m == n``
    returns 0 exactly (the full mass), and the endpoints t = 0 and t = 1
    short-circuit so that ln 0 is never formed.
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got n={n}")
    if m > n:
        raise ValueError(f"require m <= n, got n={n}, m={m}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"require t in [0, 1], got t={t}")
    if m < 0:
        return -math.inf
    if m == n:
        return 0.0
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return -math.inf
    i = np.arange(m + 1, dtype=float)
    log_terms = (
        gammaln(n + 1.0)
        - gammaln(i + 1.0)
        - gammaln(n - i + 1.0)
        + i * math.log(t)
        + (n - i) * math.log1p(-t)
    )
    # The sum is a probability; clamp rounding excursions above ln(1) = 0.
    return min(log_sum_exp(log_terms), 0.0)


def binom_cdf(n: int, m: int, t: float) -> float:
    """B_n(t; m) = P{Binomial(n, t) <= m}."""
    return math.exp(log_binom_cdf(n, m, t))
