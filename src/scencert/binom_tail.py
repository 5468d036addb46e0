"""Numerically stable binomial tail sums.

Every certificate in this package reduces to evaluating the lower tail

    B_n(t; m) = sum_{i=0}^{m} C(n, i) t^i (1 - t)^(n - i)

of a Binomial(n, t) distribution, for n up to ~1e5 and tail values down to
~1e-12.  Direct summation overflows long before that (C(1000, 500) exceeds
the double range).  ``log_binom_tails`` therefore takes each tail as one
regularized incomplete beta value and only its logarithm; a tail too
small for that value to keep its digits is summed in log space instead.
That sum, like every other sum of log-space terms here, is one
max-shifted ``log_sum_exp`` reduction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, gammaln

__all__ = [
    "log_sum_exp",
    "log_binom_cdf",
    "binom_cdf",
]

# Incomplete beta values below this are recomputed in log space.  SciPy's
# betainc underflows near 1e-308, and for l <= 38 it loses digits well
# before that, as the power product it starts from goes subnormal: SciPy
# 1.17.1 gives B_1000(0.527; 38) = 4.3e-255 as 5.4e-255.  Scanning m up to
# 20000 found no tail above 1e-240 off by 1e-9 in its log for l <= 40, and
# none between 1e-240 and 1e-60 off by 2e-13 relative for l from 40 to 1200.
_BETAINC_FLOOR = 1e-200

# Largest number of log-terms one array evaluation holds at once: every
# batched evaluation in the package takes its slices from ``_batches``.
_BATCH_ELEMENTS = 1 << 16


def _batches(size: int, widths):
    """Consecutive slices of range(size), each holding at most
    _BATCH_ELEMENTS log-terms with every item counted at its slice's
    widest.  ``widths`` is one positive count shared by every item, or a
    non-decreasing array of them; an item wider than the cap gets a slice
    of its own."""
    start, shared = 0, np.ndim(widths) == 0
    while start < size:
        if shared:
            count = _BATCH_ELEMENTS // widths
        else:  # (c + 1) * widths[start + c] rises with c: the items that fit lead
            span = widths[start : start + max(1, _BATCH_ELEMENTS // widths[start])]
            count = np.count_nonzero(np.arange(1, span.size + 1) * span <= _BATCH_ELEMENTS)
        stop = min(start + max(1, count), size)
        yield slice(start, stop)
        start = stop


def _log_comb(n, k):
    """ln C(n, k) elementwise, the package's one rule for it, as lgamma
    differences; a finite placeholder where k > n, which callers mask."""
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(np.maximum(n - k, 0) + 1.0)


def log_sum_exp(log_terms):
    """ln(sum_i exp(v_i)) over the last axis, without overflow.

    Terms are exponentiated relative to the largest one, so every summand
    lies in [0, 1] and plain summation keeps full double precision on the
    dominant terms.  ``-inf`` entries drop out; an empty or all-``-inf``
    input yields ``-inf``.  A 1-d input gives a float, a stack of rows
    one value per row.
    """
    arr = np.array(log_terms, dtype=float)
    if arr.size == 0:
        return -math.inf
    out = _log_sum_exp_inplace(arr)
    return float(out) if out.ndim == 0 else out


def _log_sum_exp_inplace(buf: np.ndarray) -> np.ndarray:
    """``log_sum_exp`` over the last axis of a float buffer, one value per
    row, overwriting the buffer with the shifted exponentials."""
    top = buf.max(axis=-1, keepdims=True)
    dead = top == -math.inf  # all -inf: shift by 0 and take ln 1, not ln 0
    buf -= np.where(dead, 0.0, top)
    total = np.exp(buf, out=buf).sum(axis=-1, keepdims=True) + dead
    return (top + np.log(total))[..., 0]


def log_binom_tails(m, l, log_x, log_1mx):
    """ln B_m(x; l) elementwise, from ln x and ln(1 - x).

    Upper index ``l`` and the point have one shape, with 0 <= l <= m and
    x strictly inside (0, 1); trial count ``m`` has that shape too, or is
    a scalar shared by every element.  ``l == m`` is the full mass and
    gives 0 exactly.  The point comes as its two logs so that a caller at
    x = 1 - t can pass log1p(-t) and ln t without rounding 1 - t first.

    Each tail is one regularized incomplete beta value,
    B_m(x; l) = I_{1-x}(m - l, l + 1), taken at 1 - x = exp(ln(1 - x)).
    Tails below ``_BETAINC_FLOOR`` lose their digits there and are
    summed in log space instead (``_log_tails_by_sum``).
    """
    m, l = np.asarray(m), np.asarray(l)
    tail = betainc(m - l, l + 1, np.exp(log_1mx))
    out = np.log(np.maximum(tail, _BETAINC_FLOOR))
    low = tail < _BETAINC_FLOOR
    if low.any():
        out = np.array(out)
        out[low] = _log_tails_by_sum(
            np.broadcast_to(m, low.shape)[low],
            l[low],
            np.broadcast_to(log_x, low.shape)[low],
            np.broadcast_to(log_1mx, low.shape)[low],
        )
    # A tail is a probability; clamp rounding excursions above ln(1) = 0.
    return np.where(l >= m, 0.0, np.minimum(out, 0.0))


def _log_tails_by_sum(m, l, log_x, log_1mx):
    """ln B_m(x; l) for 1-d arrays, as one max-shifted sum of each
    element's terms ln C(m, i) + i ln x + (m - i) ln(1 - x), i = 0..l,
    taken for ``_batches`` of elements, each counted at the largest
    l + 1; a row's terms past its element's own l are -inf."""
    out = np.empty(l.size)
    for b in _batches(l.size, int(l.max()) + 1):
        i = np.arange(int(l[b].max()) + 1, dtype=float)
        m_b = m[b, None].astype(float)
        terms = _log_comb(m_b, i) + i * log_x[b, None] + (m_b - i) * log_1mx[b, None]
        terms[i > l[b, None]] = -np.inf
        out[b] = _log_sum_exp_inplace(terms)
    return out


def log_binom_cdf(n, m, t):
    """ln B_n(t; m), elementwise over arrays that broadcast together.

    ``m < 0`` gives ``-inf`` (empty sum by convention), ``m == n`` gives 0
    exactly (the full mass), and the endpoints t = 0 and t = 1 give 0 and
    ``-inf`` without forming ln 0; these cases are applied per element,
    and every other element goes through ``log_binom_tails``.  Scalar
    inputs return a float.
    """
    n, m, t = np.broadcast_arrays(n, m, np.asarray(t, dtype=float))
    if (n < 1).any():
        raise ValueError(f"require n >= 1, got n={n}")
    if (m > n).any():
        raise ValueError(f"require m <= n, got n={n}, m={m}")
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError(f"require t in [0, 1], got t={t}")
    out = np.where((m >= 0) & ((m == n) | (t == 0.0)), 0.0, -math.inf)
    inner = (m >= 0) & (m < n) & (t > 0.0) & (t < 1.0)
    ti = t[inner]
    out[inner] = log_binom_tails(n[inner], m[inner], np.log(ti), np.log1p(-ti))
    return float(out) if out.ndim == 0 else out


def binom_cdf(n: int, m: int, t: float) -> float:
    """B_n(t; m) = P{Binomial(n, t) <= m}."""
    return math.exp(log_binom_cdf(n, m, t))
