"""Numerically stable binomial tail sums.

Every certificate in this package reduces to evaluating the lower tail

    B_n(t; m) = sum_{i=0}^{m} C(n, i) t^i (1 - t)^(n - i)

of a Binomial(n, t) distribution, for n up to ~1e5 and tail values down to
~1e-12.  Direct summation overflows long before that (C(1000, 500) exceeds
the double range), so every term is assembled in log space and the terms
are combined there: by a max-shifted log-sum-exp, or, for the tails of
``log_binom_tails``, by a running log-add whose prefix at l is the tail.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "log_binom_coeff",
    "log_sum_exp",
    "log_binom_tails",
    "log_binom_cdf",
    "binom_cdf",
]

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


@functools.lru_cache(maxsize=8)
def _coefficient_row(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ln C(m, i), i and m - i for i = 0..m; read-only, as every caller
    with trial count m shares them."""
    i = np.arange(m + 1, dtype=float)
    m_i = m - i
    log_comb = gammaln(m + 1.0) - gammaln(i + 1.0) - gammaln(m_i + 1.0)
    for row in (log_comb, i, m_i):
        row.setflags(write=False)
    return log_comb, i, m_i


def log_binom_tails(m, l, log_x, log_1mx):
    """ln B_m(x; l) elementwise, from ln x and ln(1 - x).

    Upper index ``l`` and the point have one shape, with 0 <= l <= m and
    x strictly inside (0, 1); trial count ``m`` has that shape too, or is
    a scalar that keeps one row of binomial coefficients for every
    element.  ``l == m`` is the full mass and gives 0 exactly.  The point
    comes as its two logs so that a caller at x = 1 - t can pass
    log1p(-t) and ln t without rounding 1 - t first.
    """
    m, l = np.asarray(m), np.asarray(l)
    top = int(l.max()) + 1
    if m.ndim == 0:
        log_comb, i, m_i = (row[:top] for row in _coefficient_row(int(m)))
    else:
        i = np.arange(top, dtype=float)
        m_i = m[..., None] - i
        # Clipping m - i only keeps the coefficients of terms past an
        # element's own m finite; no tail picked below reaches them.
        log_comb = gammaln(m[..., None] + 1.0) - gammaln(i + 1.0) - gammaln(
            np.maximum(m_i, 0.0) + 1.0
        )
    terms = (
        log_comb
        + i * np.asarray(log_x)[..., None]
        + m_i * np.asarray(log_1mx)[..., None]
    )
    # Every tail of an element from one running log-sum; keep the one at l.
    tails = np.logaddexp.accumulate(terms, axis=-1)
    picked = tails.reshape(-1, tails.shape[-1])[np.arange(l.size), l.ravel()]
    # A tail is a probability; clamp rounding excursions above ln(1) = 0.
    return np.where(l >= m, 0.0, np.minimum(picked.reshape(l.shape), 0.0))


def log_binom_cdf(n: int, m: int, t: float) -> float:
    """ln B_n(t; m): the scalar case of ``log_binom_tails``.

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
    return float(log_binom_tails(n, m, math.log(t), math.log1p(-t)))


def binom_cdf(n: int, m: int, t: float) -> float:
    """B_n(t; m) = P{Binomial(n, t) <= m}."""
    return math.exp(log_binom_cdf(n, m, t))
