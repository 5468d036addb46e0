"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's log-space code paths:
exact rational arithmetic for tail sums, mixture weights and the sign of
the certificate equation, plain log-sum-exp over every term for the
certificate margin, plain linear-domain polynomial evaluation for root
scans, plain bisection for the root kernel, brute-force basis
enumeration for linear programs, and NumPy's own seeding for the Monte
Carlo audit's per-run streams.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np
from scipy.special import logsumexp

from scencert.simplex import LinearProgram


def exact_binom_cdf(n: int, m: int, t) -> Fraction:
    """Sum_{i<=m} C(n,i) t^i (1-t)^(n-i) in exact rational arithmetic.

    Floats are converted exactly (their binary value, not a decimal
    re-reading), so the comparison target matches what the library saw.
    """
    if m < 0:
        return Fraction(0)
    tf = Fraction(t)
    p, d = tf.numerator, tf.denominator
    q = d - p  # 1 - t = q / d
    k = min(m, n)
    # Integer Horner sum h_i = h_{i-1} q + C(n, i) p^i, so that
    # h_k = sum_{i<=k} C(n,i) p^i q^(k-i), with one division at the end.
    h, p_pow = 1, 1
    for i in range(1, k + 1):
        p_pow *= p
        h = h * q + comb(n, i) * p_pow
    return Fraction(h * q ** (n - k), d**n)


def exact_z(n: int, m: int, k: int) -> list[Fraction]:
    return [
        Fraction(comb(n, k) * comb(m, j), comb(n + m, k + j)) * Fraction(k, k + j)
        for j in range(m + 1)
    ]


def exact_lower_lhs(n: int, m: int, k: int, l: int, eps) -> Fraction:
    z = exact_z(n, m, k)
    return sum(z[j] * exact_binom_cdf(n + m, k + j - 1, eps) for j in range(l + 1))


@lru_cache(maxsize=64)
def _log_comb_row(n: int, k: int) -> np.ndarray:
    """ln C(j, k) for j = 0..n (-inf below k), each from the exact integer."""
    return np.array([math.log(comb(j, k)) if j >= k else -math.inf for j in range(n + 1)])


@lru_cache(maxsize=64)
def _log_comb_col(m: int) -> np.ndarray:
    """ln C(m, i) for i = 0..m, each from the exact integer."""
    return np.array([math.log(comb(m, i)) for i in range(m + 1)])


def dense_margin(t, k, l, problem, coeffs) -> np.ndarray:
    """ln(beta sum_{j=k}^{n} a_j C(j,k) t^(j-k)) minus
    ln(C(n,k) t^(n-k) sum_{i<=l} C(m,i) (1-t)^i t^(m-i)) per cell, each
    side one plain log-sum-exp over all of its terms."""
    n, m = problem.n, problem.m
    with np.errstate(divide="ignore"):
        log_a = np.log(coeffs.values)
    j, out = np.arange(n + 1), []
    for ti, ki, li in zip(*np.broadcast_arrays(np.asarray(t, dtype=float), k, l)):
        ki, li = int(ki), int(li)
        log_t, log_1mt, i = math.log(ti), math.log1p(-ti), np.arange(li + 1)
        poly = logsumexp(log_a + _log_comb_row(n, ki) + np.maximum(j - ki, 0) * log_t)
        tail = logsumexp(_log_comb_col(m)[: li + 1] + i * log_1mt + (m - i) * log_t)
        out.append(math.log(problem.beta) + poly
                   - (math.log(comb(n, ki)) + (n - ki) * log_t + tail))
    return np.array(out)


def exact_certificate_sign(t, k: int, l: int, problem, coeffs) -> int:
    """Sign of beta sum_j a_j C(j,k) t^(j-k) - C(n,k) t^(n-k) B_m(1-t; l)
    in integer arithmetic, for a float t in (0, 1).

    With t = P/D, beta = bn/bd and a_j = A_j / 2^E (every float weight is
    a binary fraction, E their common exponent), both sides times
    bd 2^E D^(n-k+m) are integers:
    bn D^m sum_j A_j C(j,k) P^(j-k) D^(n-j) against
    bd 2^E C(n,k) P^(n-k) sum_{i<=l} C(m,i) (D-P)^i P^(m-i),
    each sum taken by a homogeneous Horner loop.
    """
    n, m = problem.n, problem.m
    tf, bf = Fraction(t), Fraction(problem.beta)
    p, d = tf.numerator, tf.denominator
    weights = [Fraction(float(a)) for a in coeffs.values]
    scale = max(w.denominator for w in weights)  # 2^E
    big_a = [w.numerator * (scale // w.denominator) for w in weights]
    # h = sum_{j=k}^{i} A_j C(j,k) P^(j-k) D^(i-j), from i = k up to n.
    h, p_pow = 0, 1
    for j in range(k, n + 1):
        h = h * d + big_a[j] * comb(j, k) * p_pow
        p_pow *= p
    lhs = bf.numerator * d**m * h
    # g = sum_{i<=l} C(m,i) (D-P)^i P^(l-i), from i = 0 up to l.
    g, q_pow = 0, 1
    for i in range(l + 1):
        g = g * p + comb(m, i) * q_pow
        q_pow *= d - p
    rhs = bf.denominator * scale * comb(n, k) * p ** (n - k) * g * p ** (m - l)
    return (lhs > rhs) - (lhs < rhs)


def direct_h_values(t_grid: np.ndarray, n: int, m: int, k: int, l: int,
                    beta: float, a: np.ndarray) -> np.ndarray:
    """Linear-domain evaluation of the root-defining polynomial.

    Only valid for small n, m where nothing overflows; this is the whole
    point -- it shares no code with the log-space implementation.
    """
    lhs = np.zeros_like(t_grid)
    for j in range(k, n + 1):
        lhs += beta * a[j] * comb(j, k) * t_grid ** (j - k)
    tail = np.zeros_like(t_grid)
    for i in range(l + 1):
        tail += comb(m, i) * (1.0 - t_grid) ** i * t_grid ** (m - i)
    return lhs - comb(n, k) * t_grid ** (n - k) * tail


def scan_root(n: int, m: int, k: int, l: int, beta: float, a: np.ndarray,
              grid_size: int = 1_000_000) -> float:
    """Root located by a dense sign scan; resolution = 1/grid_size."""
    t = np.linspace(0.0, 1.0, grid_size + 1)[1:-1]
    values = direct_h_values(t, n, m, k, l, beta, a)
    signs = np.sign(values)
    flips = np.nonzero(np.diff(signs) < 0)[0]
    assert flips.size == 1, f"expected one sign change, found {flips.size}"
    return float(0.5 * (t[flips[0]] + t[flips[0] + 1]))


def reference_bisect(value, size: int, tol: float):
    """Plain lockstep bisection on [0, 1] with ``bisect``'s value-function
    API: every cell is evaluated at its bracket's midpoint until all
    brackets are narrower than ``tol``.  Returns the final (lo, hi)."""
    lo, hi, cells = np.zeros(size), np.ones(size), np.arange(size)
    while (hi - lo >= tol).any():
        mid = 0.5 * (lo + hi)
        below = value(mid, cells) >= 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo, hi


def vertex_optimum(lp: LinearProgram) -> float | None:
    """Brute-force LP optimum: enumerate every basis of the standard
    equality form, keep feasible basic solutions, take the best
    objective.  Returns None when no feasible basis exists.

    A finite lower side of an inequality row becomes a x - s = lower, a
    finite upper side a x + s = upper (a range row gives both), and an
    equality row a x = lower, with every slack s >= 0."""
    n = lp.c.size
    eq = lp.lower == lp.upper
    ge = ~eq & (lp.lower > -np.inf)
    le = ~eq & (lp.upper < np.inf)
    signs = np.concatenate([-np.ones(ge.sum()), np.ones(le.sum())])
    p = signs.size
    a_rows = np.concatenate([lp.a[ge], lp.a[le], lp.a[eq]])
    rows = a_rows.shape[0]
    a = np.zeros((rows, n + p))
    a[:, :n] = a_rows
    a[:p, n:] = np.diag(signs)
    b = np.concatenate([lp.lower[ge], lp.upper[le], lp.lower[eq]])
    c_ext = np.concatenate([lp.c, np.zeros(p)])
    best = None
    for cols in combinations(range(n + p), rows):
        square = a[:, cols]
        if abs(np.linalg.det(square)) < 1e-12:
            continue
        x_basic = np.linalg.solve(square, b)
        if np.any(x_basic < -1e-9):
            continue
        x = np.zeros(n + p)
        x[list(cols)] = x_basic
        value = float(c_ext @ x)
        if best is None or value > best:
            best = value
    return best


def random_feasible_lp(rng: np.random.Generator, n_vars: int,
                       zero_heavy: bool = False) -> LinearProgram:
    """A bounded, feasible LP on the probability simplex with a few
    random >= rows satisfied strictly at a random interior point, and the
    total mass row last.  With ``zero_heavy`` about half of each >= row
    is exactly 0, and one entry is 1e-13, below HiGHS's
    small_matrix_value."""
    x0 = rng.random(n_vars) + 0.1
    x0 /= x0.sum()
    n_ineq = int(rng.integers(1, 4))
    a_ge = rng.normal(size=(n_ineq, n_vars))
    if zero_heavy:
        a_ge[rng.random(a_ge.shape).argsort(axis=1) < n_vars // 2] = 0.0
        a_ge[int(rng.integers(n_ineq)), int(rng.integers(n_vars))] = 1e-13
    b_ge = a_ge @ x0 - rng.random(n_ineq) * 0.5
    c = rng.normal(size=n_vars)
    return LinearProgram(c, np.vstack([a_ge, np.ones(n_vars)]), np.append(b_ge, 1.0),
                         np.append(np.full(n_ineq, np.inf), 1.0))


def reference_run_rng(seed: int, run: int) -> np.random.Generator:
    """Run ``run``'s stream of a Monte Carlo audit seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(run,)))
