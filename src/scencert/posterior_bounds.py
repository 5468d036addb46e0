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
``classic_bounds.bisect`` on the log difference.  Both sides are evaluated in
log space: the rescaled polynomial contains t^(j-n) factors that
overflow for plain evaluation once n reaches the thousands.

The polynomial side costs O(support) per cell.  Equal weights a_j = a
use the negative binomial identity

    sum_{j=k}^{n} C(j, k) t^(j-k)  =  (1-t)^-(k+1) B_{n+1}(t; n-k),

one more binomial tail from ``log_binom_tails``.  Any other vector is a
max-shifted sum over its nonzero weights only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom_tail import _batches, _log_comb, _log_sum_exp_inplace, log_binom_tails
from .classic_bounds import DEFAULT_TOL, bisect, check_confidence, check_counts, check_tol

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
        check_counts(n=self.n, m=self.m)
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

    __slots__ = ("values", "log_values", "n", "scheme")

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
    (problem, coefficients) pair.

    Every cell sees ``problem.m`` validation trials unless ``m`` gives a
    trial count per cell; margin queries then pass their cells in that
    order.  ``m`` is the one attribute a solve rewrites: ``_roots`` sets
    it to the open cells' counts before each step.  Building one checks
    the coefficients against the problem."""

    def __init__(
        self, problem: CertificateProblem, coeffs: CoefficientVector, m=None
    ):
        coeffs.validate_for(problem)
        n, zeta = problem.n, problem.zeta
        self.n = n
        self.m = np.asarray(problem.m if m is None else m)
        self.log_beta = math.log(problem.beta)
        ks = np.arange(zeta + 1)[:, None]
        self._log_comb_n_k = _log_comb(n, ks)[:, 0]
        values = coeffs.values
        self._log_terms = self._powers = None
        if np.all(values == values[0]):
            self._log_a = float(coeffs.log_values[0])  # equal weights: closed form
        else:
            # ln(a_j C(j, k)) and j - k at [k, s] for the s-th nonzero
            # weight a_j, -inf (power 0) where j < k.
            j = np.flatnonzero(values)
            log_terms = coeffs.log_values[j] + _log_comb(j, ks)
            self._log_terms = np.where(j >= ks, log_terms, -np.inf)
            self._powers = np.maximum(j - ks, 0).astype(float)

    def margin(self, t: np.ndarray, k, l: np.ndarray) -> np.ndarray:
        """ln of the weighted-polynomial side minus ln of the tail side,
        for cells (k[i], l[i]) at roots t[i], where k and l broadcast;
        positive below the root, negative above it.  Cells go in
        ``_batches``, each cell counted at the terms its polynomial side
        holds at once: one tail for equal weights, otherwise two rows of
        one term per nonzero weight (the powers and the gathered
        ln-terms), so no margin depends on which cells share its batch."""
        t = np.asarray(t, dtype=float)
        k, l, m = np.broadcast_arrays(k, l, self.m)
        terms = 1 if self._log_terms is None else 2 * self._log_terms.shape[1]
        return np.concatenate([self._margin(t[b], k[b], l[b], m[b])
                               for b in _batches(t.size, terms)])

    def _margin(self, t: np.ndarray, k: np.ndarray, l: np.ndarray, m) -> np.ndarray:
        log_t, log_1mt = np.log(t), np.log1p(-t)
        lhs = self.log_beta + self._poly_side(log_t, log_1mt, k)
        return lhs - self._tail_side(log_t, log_1mt, k, l, m)

    def _poly_side(self, log_t, log_1mt, k) -> np.ndarray:
        # ln(sum_j a_j C(j, k) t^(j-k)).
        if self._log_terms is None:
            tail = log_binom_tails(self.n + 1, self.n - k, log_t, log_1mt)
            return self._log_a - (k + 1) * log_1mt + tail
        buf = self._powers[k]
        buf *= log_t[:, None]
        buf += self._log_terms[k]
        return _log_sum_exp_inplace(buf)

    def _tail_side(self, log_t, log_1mt, k, l, m) -> np.ndarray:
        # ln(C(n, k) t^(n-k) B_m(1-t; l)); l == m gives B = 1, covering m == 0.
        log_tail = log_binom_tails(m, l, log_1mt, log_t)
        return self._log_comb_n_k[k] + (self.n - k) * log_t + log_tail

    def log_sides(self, t, k, l) -> tuple[np.ndarray, np.ndarray]:
        """Unweighted log terms and log tail side at cells (k[i], l[i]),
        where k and l broadcast, at roots t[i] in (0, 1).  With k0 =
        min(k), terms[i, j-k0] = ln(beta C(j, k[i]) t[i]^(j-k[i])) for j =
        k[i]..n, -inf for j < k[i], and tail[i] = ln(C(n, k[i])
        t[i]^(n-k[i]) B_m(1-t[i]; l[i])), so the equation reads
        sum_j a_j exp(terms[i, j-k0]) = exp(tail[i]).  ln(beta C(j, k)) is
        taken once for each k from k0 to max(k)."""
        t = np.asarray(t, dtype=float)
        k, l = np.broadcast_arrays(k, l)
        ks = np.arange(int(k.min()), int(k.max()) + 1)[:, None]
        log_t, j = np.log(t), np.arange(ks[0, 0], self.n + 1)
        log_comb = np.where(j >= ks, self.log_beta + _log_comb(j, ks), -np.inf)
        row = k - ks[0, 0]  # cell i takes the row of k[i] in both tables
        terms = np.subtract(j, ks, dtype=float)[row] * log_t[:, None]
        terms += log_comb[row]  # -inf where j < k
        return terms, self._tail_side(log_t, np.log1p(-t), k, l, self.m)


def _check_cells(problem: CertificateProblem, k, l, m=None) -> None:
    # Cells (k[i], l[i]) with m[i] validation trials, where k, l and m
    # broadcast; m defaults to problem.m.
    trials = problem.m if m is None else np.asarray(m)
    if np.any(np.less(k, 0) | np.greater(k, problem.zeta)):
        raise ValueError(f"require 0 <= k <= zeta={problem.zeta}, got k={k}")
    if np.any(np.less(l, 0) | np.greater(l, trials) | np.greater(trials, problem.m)):
        raise ValueError(f"require 0 <= l <= m <= {problem.m}, got l={l}, m={trials}")


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
    _check_cells(problem, k, l)
    return int(np.sign(_SignEvaluator(problem, coeffs).margin([t], k, [l])[0]))


def _roots(
    problem: CertificateProblem, coeffs: CoefficientVector, k, l, tol: float,
    m=None, guess=None,
) -> np.ndarray:
    # One solve for the cells (k[i], l[i]) together, cold on [0, 1] or
    # from guess[i]; the margin is >= 0 at each lower end, so eps = 1 -
    # lower is safe.
    ev = _SignEvaluator(problem, coeffs, m)
    k, l, m = (v.ravel() for v in np.broadcast_arrays(k, l, ev.m))

    def margin(t: np.ndarray, cells: np.ndarray) -> np.ndarray:
        ev.m = m[cells]  # the trial counts of the open cells
        return ev.margin(t, k[cells], l[cells])

    return bisect(margin, l.size, tol, guess)[0]


def solve_root(
    k,
    l,
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
    m=None,
):
    """Roots t(k, l) in [0, 1) of any cells, solved in one ``bisect`` call.

    ``k``, ``l`` and ``m`` broadcast to one 1-d array of cells: cell i
    is (k[i], l[i]) with m[i] validation trials (``problem.m`` by
    default), 0 <= k[i] <= zeta and 0 <= l[i] <= m[i] <= problem.m.
    ``bisect`` starts each cell from the whole interval [0, 1], keeps the
    sign positive at the lower end and negative at the upper end, and
    returns the lower end of a final bracket narrower than ``tol``: the
    reported t is at most the true root, so eps = 1 - t never understates
    the certificate.  A root below ``tol`` is reported as 0.

    A cell's points depend on its own margins alone, so it reports bit
    for bit the root it gets alone, in any other set of cells, or in
    ``bound_table``'s grid.  Scalar ``k``, ``l`` and ``m`` return a float.
    """
    check_tol(tol)
    _check_cells(problem, k, l, m)
    roots = _roots(problem, coeffs, k, l, tol, m)
    return float(roots[0]) if np.ndim(k) + np.ndim(l) + np.ndim(m) == 0 else roots


@dataclass(frozen=True, eq=False)
class BoundTable:
    """Grid of roots t(k, l), together with the inputs that produced it."""

    problem: CertificateProblem
    coefficients: CoefficientVector
    tol: float
    t: np.ndarray

    @property
    def eps(self) -> np.ndarray:
        """Certificates eps(k, l) = 1 - t(k, l), taken on each read."""
        return 1.0 - self.t


def bound_table(
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
    *,
    _guess=None,
) -> BoundTable:
    """Full (zeta+1) x (m+1) certificate grid.

    One cold ``bisect`` call on [0, 1] solves every cell, each step only
    the cells still open; each follows the points ``solve_root`` follows
    for it alone and reports the same lower bracket end, bit for bit.
    ``_guess``, a previous grid of roots, starts each cell's solve from
    its root there: the same roots, bit for bit, wherever the margin's
    sign is monotone on the root grid, and two margins a cell whose root
    is unmoved.
    """
    check_tol(tol)
    k, l = np.indices((problem.zeta + 1, problem.m + 1)).reshape(2, -1)
    t = _roots(problem, coeffs, k, l, tol, guess=_guess).reshape(problem.zeta + 1, -1)
    return BoundTable(problem, coeffs, tol, t)


def wait_and_judge(
    problem: CertificateProblem,
    coeffs: CoefficientVector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Certificates eps(k) from support counts alone (no validation data).

    The cells (k, 0) with m = 0 validation trials, for k = 0..zeta: the
    m = 0 grid's one column, indexed by k.
    """
    return 1.0 - solve_root(np.arange(problem.zeta + 1), 0, problem, coeffs, tol, m=0)
