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

from ._parallel import resolve_threads
from .binom_tail import log_sum_exp
from .classic_bounds import DEFAULT_TOL, bisect, check_confidence, check_tol

__all__ = [
    "CertificateProblem",
    "CoefficientVector",
    "BoundTable",
    "BracketError",
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


class BracketError(RuntimeError):
    """A bisection bracket lost its sign invariant.

    Happens only on numerically impossible roots; carries the offending
    cell and bracket for diagnosis.
    """

    def __init__(self, k: int, l: int, lower: float, upper: float):
        super().__init__(
            f"no sign change for cell (k={k}, l={l}) on [{lower!r}, {upper!r}]"
        )
        self.k = k
        self.l = l
        self.lower = lower
        self.upper = upper


class _SignEvaluator:
    """Precomputed log-space pieces for many sign queries against one
    (problem, coefficients) pair.  Read-only after construction."""

    def __init__(self, problem: CertificateProblem, coeffs: CoefficientVector):
        n, m, zeta = problem.n, problem.m, problem.zeta
        self.n = n
        self.m = m
        self.log_beta = math.log(problem.beta)
        lg = gammaln(np.arange(max(n, m) + 2, dtype=float))  # lg[x] = ln(x-1)!
        i = np.arange(m + 1)
        self._log_comb_m = lg[m + 1] - lg[i + 1] - lg[m - i + 1]
        self._i = i.astype(float)
        js = np.arange(n + 1)
        self._log_comb_n_k = np.empty(zeta + 1)
        self._base: list[np.ndarray] = []
        self._powers: list[np.ndarray] = []
        for k in range(zeta + 1):
            jk = js[k:]
            self._log_comb_n_k[k] = lg[n + 1] - lg[k + 1] - lg[n - k + 1]
            self._base.append(
                coeffs.log_values[k:] + lg[jk + 1] - lg[k + 1] - lg[jk - k + 1]
            )
            self._powers.append((jk - k).astype(float))

    def margin(self, t: float, k: int, l: int) -> float:
        """ln of the weighted-polynomial side minus ln of the tail side;
        positive below the root, negative above it."""
        log_t = math.log(t)
        lhs = self.log_beta + log_sum_exp(self._base[k] + self._powers[k] * log_t)
        if l >= self.m:
            log_tail = 0.0  # B_m(1-t; m) == 1 identically, also covers m == 0
        else:
            sl = slice(0, l + 1)
            log_tail = min(
                log_sum_exp(
                    self._log_comb_m[sl]
                    + self._i[sl] * math.log1p(-t)
                    + (self.m - self._i[sl]) * log_t
                ),
                0.0,
            )
        rhs = self._log_comb_n_k[k] + (self.n - k) * log_t + log_tail
        return lhs - rhs

    def sign(self, t: float, k: int, l: int) -> int:
        d = self.margin(t, k, l)
        if d > 0.0:
            return 1
        if d < 0.0:
            return -1
        return 0


def _check_cell(problem: CertificateProblem, k: int, l: int) -> None:
    if not 0 <= k <= problem.zeta:
        raise ValueError(f"require 0 <= k <= zeta={problem.zeta}, got k={k}")
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
    return _SignEvaluator(problem, coeffs).sign(t, k, l)


def solve_root(
    k: int,
    l: int,
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    warm_lower: float = 0.0,
    tol: float = DEFAULT_TOL,
    _evaluator: _SignEvaluator | None = None,
) -> float:
    """Root t(k, l) in (0, 1) by bisection from a known lower bracket.

    ``warm_lower`` is typically the previously computed root t(k, l+1),
    which sits below t(k, l); pass 0.0 when nothing better is known.  The
    loop keeps the sign positive at the lower end and negative at the
    upper end and stops once the bracket is narrower than ``tol``.
    """
    _check_cell(problem, k, l)
    if not 0.0 <= warm_lower < 1.0:
        raise ValueError(f"require 0 <= warm_lower < 1, got {warm_lower}")
    check_tol(tol)
    ev = _evaluator if _evaluator is not None else _SignEvaluator(problem, coeffs)
    lower, upper = float(warm_lower), 1.0
    if lower > 0.0 and ev.sign(lower, k, l) < 0:
        # A warm start taken from an adjacent root can overshoot by up to
        # ~tol when two roots nearly coincide; back off once before
        # declaring the bracket impossible.
        backed = lower - 2.0 * tol
        if backed <= 0.0:
            lower = 0.0
        elif ev.sign(backed, k, l) < 0:
            raise BracketError(k, l, backed, upper)
        else:
            lower = backed
    lower, upper = bisect(lambda t: ev.sign(t, k, l) >= 0, lower, upper, tol)
    return 0.5 * (lower + upper)


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
    threads: int | None = None,
) -> BoundTable:
    """Full (zeta+1) x (m+1) certificate grid.

    Within each support count k the validation index l is swept from m
    down to 0 so that every root warm-starts the next one below it.
    ``threads`` is validated but all cells are solved in the calling
    thread, so the result never depends on it.
    """
    coeffs.validate_for(problem)
    check_tol(tol)
    resolve_threads(threads)
    ev = _SignEvaluator(problem, coeffs)
    t = np.empty((problem.zeta + 1, problem.m + 1))
    for k in range(problem.zeta + 1):
        warm = 0.0
        for l in range(problem.m, -1, -1):
            warm = solve_root(
                k, l, problem, coeffs, warm_lower=warm, tol=tol, _evaluator=ev
            )
            t[k, l] = warm
    return BoundTable(problem, coeffs, tol, t, 1.0 - t)


def wait_and_judge(
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
    threads: int | None = None,
) -> np.ndarray:
    """Certificates eps(k) from support counts alone (no validation data).

    Convenience wrapper: the m = 0 grid collapsed to one column, indexed
    by k.
    """
    zero_m = replace(problem, m=0)
    return bound_table(zero_m, coeffs, tol, threads).eps[:, 0].copy()
