"""Two-indexed a posteriori certificates from support-constraint counts
and validation-test outcomes.

For a design sample size n, validation sample size m, support-count cap
zeta and confidence beta, the certificate at cell (k, l) is
eps(k, l) = 1 - t(k, l), where t(k, l) is the unique root in (0, 1) of

    beta * sum_{j=k}^{n} a_j C(j, k) t^(j-k)  =  C(n, k) t^(n-k) B_m(1-t; l)

and {a_j} is a nonnegative weight vector that sums to one and puts
positive mass on indices zeta..n-1.  Dividing both sides by t^(n-k)
makes the left side strictly decreasing and the right side strictly
increasing on (0, 1), so the root exists, is unique, and is found by
bisection on the sign of the difference.  Both sides are evaluated in
log space: the rescaled polynomial contains t^(j-n) factors that
overflow for plain evaluation once n reaches the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .binom_tail import log_binom_tails, log_sum_exp
from .classic_bounds import DEFAULT_TOL, bisect, check_confidence, check_tol

# Largest number of log-terms a margin evaluation holds at once; a grid
# row with more cells x terms than this is evaluated in slices.
_BATCH_ELEMENTS = 1 << 16

__all__ = [
    "CertificateProblem",
    "CoefficientVector",
    "BoundTable",
    "certificate_sign",
    "solve_root",
    "bound_table",
    "wait_and_judge",
]


@dataclass(frozen=True)
class CertificateProblem:
    """A certification instance: sample counts, support cap, confidence."""

    n: int
    m: int
    zeta: int
    beta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"require n >= 1 design samples, got n={self.n}")
        if self.m < 0:
            raise ValueError(f"require m >= 0 validation samples, got m={self.m}")
        if not 1 <= self.zeta < self.n:
            raise ValueError(
                f"require 1 <= zeta < n, got zeta={self.zeta}, n={self.n}"
            )
        check_confidence(self.beta)


class CoefficientVector:
    """Weights a_0..a_n steering the certificate family.

    Valid vectors are nonnegative, sum to one (inputs within 1e-9 of one
    are renormalized, anything further off is rejected so file rounding
    cannot silently skew results), and carry strictly positive mass on
    indices zeta..n-1; without that mass some grid cells would have no
    root.
    """

    __slots__ = ("values", "log_values", "n", "zeta", "scheme")

    def __init__(self, values, problem: CertificateProblem, scheme: str = "custom"):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (problem.n + 1,):
            raise ValueError(
                f"expected {problem.n + 1} coefficients for n={problem.n}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must all be finite")
        if np.any(arr < 0.0):
            raise ValueError("coefficients must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"coefficients must sum to 1 within 1e-9, got sum {total!r}"
            )
        arr = arr / total
        self.values: np.ndarray = arr
        with np.errstate(divide="ignore"):
            self.log_values: np.ndarray = np.log(arr)
        self.n = problem.n
        self.zeta = problem.zeta
        self.scheme = scheme
        self.validate_for(problem)

    @classmethod
    def uniform(cls, problem: CertificateProblem) -> "CoefficientVector":
        """The default flat weights a_j = 1/(n+1)."""
        values = np.full(problem.n + 1, 1.0 / (problem.n + 1))
        return cls(values, problem, scheme="uniform")

    def validate_for(self, problem: CertificateProblem) -> None:
        if self.n != problem.n:
            raise ValueError(
                f"coefficient vector built for n={self.n}, problem has n={problem.n}"
            )
        if float(self.values[problem.zeta : problem.n].sum()) <= 0.0:
            raise ValueError(
                f"coefficients need positive mass on indices {problem.zeta}..{problem.n - 1}"
            )


class _SignEvaluator:
    """Precomputed log-space pieces for many margin queries against one
    (problem, coefficients) pair.  Read-only after construction.

    Every cell sees ``problem.m`` validation trials unless ``m`` gives a
    trial count per cell; margin queries then pass their cells in that
    order."""

    def __init__(
        self, problem: CertificateProblem, coeffs: CoefficientVector, m=None
    ):
        n, zeta = problem.n, problem.zeta
        self.n = n
        self.m = np.asarray(problem.m if m is None else m)
        self._max_m = int(self.m.max())
        self.log_beta = math.log(problem.beta)
        lg = gammaln(np.arange(n + 2, dtype=float))  # lg[x] = ln(x-1)!
        js = np.arange(n + 1)
        self._log_comb_n_k = np.empty(zeta + 1)
        self._log_comb: list[np.ndarray] = []  # ln C(j, k), j = k..n
        self._base: list[np.ndarray] = []  # ln(a_j C(j, k))
        self._powers: list[np.ndarray] = []
        for k in range(zeta + 1):
            jk = js[k:]
            self._log_comb_n_k[k] = lg[n + 1] - lg[k + 1] - lg[n - k + 1]
            self._log_comb.append(lg[jk + 1] - lg[k + 1] - lg[jk - k + 1])
            self._base.append(coeffs.log_values[k:] + self._log_comb[k])
            self._powers.append((jk - k).astype(float))

    def margin(self, t: np.ndarray, k: int, l: np.ndarray) -> np.ndarray:
        """ln of the weighted-polynomial side minus ln of the tail side,
        for cells (k, l[i]) at roots t[i]; positive below the root,
        negative above it.  Cells are evaluated in batches of at most
        _BATCH_ELEMENTS log-terms so that long rows stay small in memory."""
        t, l, m = np.asarray(t, dtype=float), np.asarray(l), self.m
        step = max(1, _BATCH_ELEMENTS // (self.n - k + self._max_m + 2))
        return np.concatenate([
            self._margin(
                t[s : s + step], k, l[s : s + step], m if m.ndim == 0 else m[s : s + step]
            )
            for s in range(0, t.size, step)
        ])

    def _margin(self, t: np.ndarray, k: int, l: np.ndarray, m) -> np.ndarray:
        log_t = np.log(t)
        lhs = self.log_beta + log_sum_exp(self._base[k] + self._powers[k] * log_t[:, None])
        return lhs - self._tail_side(t, log_t, k, l, m)

    def _tail_side(self, t, log_t, k: int, l, m) -> np.ndarray:
        # ln(C(n, k) t^(n-k) B_m(1-t; l)); l == m gives B = 1, covering m == 0.
        log_tail = log_binom_tails(m, l, np.log1p(-t), log_t)
        return self._log_comb_n_k[k] + (self.n - k) * log_t + log_tail

    def log_sides(self, t, k: int, l) -> tuple[np.ndarray, np.ndarray]:
        """Unweighted log terms and log tail side at cells (k, l[i]), roots
        t[i] in (0, 1): terms[i, j-k] = ln(beta C(j, k) t[i]^(j-k)) for
        j = k..n and tail[i] = ln(C(n, k) t[i]^(n-k) B_m(1-t[i]; l[i])), so
        the equation reads sum_j a_j exp(terms[i, j-k]) = exp(tail[i])."""
        t, l = np.asarray(t, dtype=float), np.asarray(l)
        log_t = np.log(t)
        terms = self.log_beta + self._log_comb[k] + self._powers[k] * log_t[:, None]
        return terms, self._tail_side(t, log_t, k, l, self.m)


def _check_support(problem: CertificateProblem, k: int) -> None:
    if not 0 <= k <= problem.zeta:
        raise ValueError(f"require 0 <= k <= zeta={problem.zeta}, got k={k}")


def _check_cell(problem: CertificateProblem, k: int, l: int) -> None:
    _check_support(problem, k)
    if not 0 <= l <= problem.m:
        raise ValueError(f"require 0 <= l <= m={problem.m}, got l={l}")


def certificate_sign(
    t: float,
    k: int,
    l: int,
    problem: CertificateProblem,
    coeffs: CoefficientVector,
) -> int:
    """Sign of the root-defining polynomial at t, for cell (k, l).

    Positive strictly below the root t(k, l), negative strictly above it.
    t must lie strictly inside (0, 1); the endpoints are limits, never
    evaluated.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"require 0 < t < 1, got t={t}")
    _check_cell(problem, k, l)
    coeffs.validate_for(problem)
    return int(np.sign(_SignEvaluator(problem, coeffs).margin([t], k, [l])[0]))


def _row_roots(ev: _SignEvaluator, k: int, l: np.ndarray, tol: float) -> np.ndarray:
    # One cold bisection on [0, 1] for the cells (k, l[i]) together; the
    # margin is >= 0 at each lower end, so eps = 1 - lower is safe.
    lower, _ = bisect(lambda t: ev.margin(t, k, l) >= 0.0, np.zeros(len(l)), 1.0, tol)
    return lower


def solve_root(
    k: int,
    l,
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
    m=None,
):
    """Root t(k, l) in [0, 1): the one-cell case of a grid-row solve.

    Bisection starts from the whole interval [0, 1], keeps the sign
    positive at the lower end and negative at the upper end, and returns
    the lower end of the first bracket narrower than ``tol``: the reported
    t is at most the true root, so eps = 1 - t never understates the
    certificate.  A root below ``tol`` is reported as 0.

    ``l`` may also be an array of cells with the one support count k,
    solved in one array bisection in which each cell follows the
    midpoint sequence it would follow alone.  Cell i then sees m[i]
    validation trials (``problem.m`` by default), with
    0 <= l[i] <= m[i] <= problem.m.  A scalar ``l`` returns a float.
    """
    coeffs.validate_for(problem)
    check_tol(tol)
    _check_support(problem, k)
    trials = problem.m if m is None else np.asarray(m)
    if np.any(np.less(l, 0) | np.greater(l, trials) | np.greater(trials, problem.m)):
        raise ValueError(f"require 0 <= l <= m <= {problem.m}, got l={l}, m={trials}")
    roots = _row_roots(_SignEvaluator(problem, coeffs, m), k, np.atleast_1d(l), tol)
    return float(roots[0]) if np.ndim(l) == 0 else roots


@dataclass(frozen=True, eq=False)
class BoundTable:
    """Grid of roots t(k, l) and certificates eps(k, l) = 1 - t(k, l),
    together with the inputs that produced it."""

    problem: CertificateProblem
    coefficients: CoefficientVector
    tol: float
    t: np.ndarray
    eps: np.ndarray

    def to_csv(self) -> str:
        from . import serialize

        return serialize.table_csv(self)

    def to_json(self) -> str:
        from . import serialize

        return serialize.table_json(self)


def bound_table(
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
) -> BoundTable:
    """Full (zeta+1) x (m+1) certificate grid.

    Each row k is solved by one cold bisection on [0, 1] over all of its
    cells at once; every cell follows the midpoint sequence ``solve_root``
    follows for it alone and reports the same lower bracket end.
    """
    coeffs.validate_for(problem)
    check_tol(tol)
    ev = _SignEvaluator(problem, coeffs)
    l = np.arange(problem.m + 1)
    t = np.array([_row_roots(ev, k, l, tol) for k in range(problem.zeta + 1)])
    return BoundTable(problem, coeffs, tol, t, 1.0 - t)


def wait_and_judge(
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Certificates eps(k) from support counts alone (no validation data).

    Convenience wrapper: the m = 0 grid collapsed to one column, indexed
    by k.
    """
    zero_m = replace(problem, m=0)
    return bound_table(zero_m, coeffs, tol).eps[:, 0].copy()
