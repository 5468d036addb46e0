"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's log-space code paths:
exact rational arithmetic for tail sums and mixture weights, plain
linear-domain polynomial evaluation for root scans, and brute-force basis
enumeration for linear programs.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

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


def vertex_optimum(lp: LinearProgram) -> float | None:
    """Brute-force LP optimum: enumerate every basis of the standard
    equality form, keep feasible basic solutions, take the best
    objective.  Returns None when no feasible basis exists."""
    n = lp.n_vars
    p = lp.b_ge.size
    q = lp.b_eq.size
    rows = p + q
    a = np.zeros((rows, n + p))
    b = np.empty(rows)
    if p:
        a[:p, :n] = lp.a_ge
        a[:p, n:] = -np.eye(p)
        b[:p] = lp.b_ge
    if q:
        a[p:, :n] = lp.a_eq
        b[p:] = lp.b_eq
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


def random_feasible_lp(rng: np.random.Generator, n_vars: int) -> LinearProgram:
    """A bounded, feasible LP on the probability simplex with a few
    random inequality rows satisfied strictly at a random interior
    point."""
    x0 = rng.random(n_vars) + 0.1
    x0 /= x0.sum()
    n_ineq = int(rng.integers(1, 4))
    a_ge = rng.normal(size=(n_ineq, n_vars))
    b_ge = a_ge @ x0 - rng.random(n_ineq) * 0.5
    a_eq = np.ones((1, n_vars))
    b_eq = np.array([1.0])
    c = rng.normal(size=n_vars)
    return LinearProgram(c, a_ge, b_ge, a_eq, b_eq)
