"""Analytically solvable scenario programs and the Monte Carlo audit.

Two toy convex programs with uniform-on-the-unit-cube uncertainty:

* ``scalar_max``: minimize x subject to x >= sample_i; the optimizer is
  the sample maximum, exactly one constraint is of support, and the
  violation probability is 1 - x*.
* ``bounding_box``: the smallest axis-aligned box containing all samples;
  the support constraints are the distinct samples attaining a coordinate
  extremum (at most 2d of them) and the violation probability is
  1 - volume(box).

Both admit exact support-constraint identification and a closed-form
violation probability, which makes them ideal for auditing certificates:
the certified guarantee is distribution-free, so checking it on one
tractable family checks the machinery, not the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .classic_bounds import DEFAULT_TOL, chernoff_bound, clopper_pearson
from .posterior_bounds import (
    CertificateProblem,
    CoefficientVector,
    bound_table,
    solve_root,
    wait_and_judge,
)

__all__ = [
    "ToyScenarioProblem",
    "ScenarioSolution",
    "solve_scenario",
    "violation_mask",
    "count_validation_violations",
    "violation_probability",
    "TrialRecord",
    "GapStatistics",
    "run_monte_carlo",
    "IncrementalStep",
    "incremental_judgement",
    "BOUND_NAMES",
]

KINDS = ("scalar_max", "bounding_box")
BOUND_NAMES = ("eps_sr", "eps_s", "eta", "chernoff")


@dataclass(frozen=True)
class ToyScenarioProblem:
    """A toy scenario program kind plus its uncertainty dimension."""

    kind: str
    dimension: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.kind == "scalar_max" and self.dimension != 1:
            raise ValueError("scalar_max is one-dimensional")

    @property
    def zeta(self) -> int:
        """Exact support-count cap: 1 for the maximum, 2 per box axis."""
        return 1 if self.kind == "scalar_max" else 2 * self.dimension

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self.dimension))


@dataclass(frozen=True, eq=False)
class ScenarioSolution:
    """Optimizer, support-constraint indices, and a tie flag.

    ``decision`` is ``[x*]`` for scalar_max and ``[lower; upper]`` (shape
    (2, d)) for bounding_box.  Exact extremum ties are measure-zero under
    the continuous distribution; when they do occur the tied extremum is
    counted once and ``tie`` is set.
    """

    problem: ToyScenarioProblem
    decision: np.ndarray
    support_set: tuple[int, ...]
    tie: bool

    @property
    def support_count(self) -> int:
        return len(self.support_set)


def _as_samples(problem: ToyScenarioProblem, samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != problem.dimension:
        raise ValueError(
            f"samples must have shape (count, {problem.dimension}), got {arr.shape}"
        )
    return arr


def solve_scenario(problem: ToyScenarioProblem, samples) -> ScenarioSolution:
    """Exact optimizer and support set for the given design samples."""
    pts = _as_samples(problem, samples)
    if pts.shape[0] < 1:
        raise ValueError("need at least one design sample")
    support: set[int] = set()
    tie = False
    if problem.kind == "scalar_max":
        values = pts[:, 0]
        top = values.max()
        attainers = np.nonzero(values == top)[0]
        tie = attainers.size > 1
        support.add(int(attainers[0]))
        decision = np.array([top])
    else:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        for j in range(problem.dimension):
            for extremum in (lo[j], hi[j]):
                attainers = np.nonzero(pts[:, j] == extremum)[0]
                if attainers.size > 1:
                    tie = True
                support.add(int(attainers[0]))
        decision = np.stack([lo, hi])
    return ScenarioSolution(problem, decision, tuple(sorted(support)), tie)


def violation_mask(
    problem: ToyScenarioProblem, solution: ScenarioSolution, samples
) -> np.ndarray:
    """Boolean mask of samples outside the solution's feasible region."""
    pts = _as_samples(problem, samples)
    if problem.kind == "scalar_max":
        return pts[:, 0] > solution.decision[0]
    lo, hi = solution.decision
    return np.any((pts < lo) | (pts > hi), axis=1)


def count_validation_violations(
    problem: ToyScenarioProblem, solution: ScenarioSolution, samples
) -> int:
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        return 0
    return int(violation_mask(problem, solution, pts).sum())


def violation_probability(
    problem: ToyScenarioProblem, solution: ScenarioSolution
) -> float:
    """Closed-form violation probability under the uniform distribution."""
    if problem.kind == "scalar_max":
        return float(1.0 - solution.decision[0])
    lo, hi = solution.decision
    return float(1.0 - np.prod(hi - lo))


@dataclass(frozen=True)
class TrialRecord:
    """One Monte Carlo replication with its certificates and true risk.

    ``eta`` and ``chernoff`` are None when m = 0 (both are undefined
    without validation samples).
    """

    run: int
    s: int
    r: int
    v_true: float
    eps_sr: float
    eps_s: float
    eta: float | None
    chernoff: float | None
    tie: bool


@dataclass(frozen=True)
class GapStatistics:
    """Aggregate gap and coverage statistics across runs.

    ``empirical_confidence`` is the fraction of runs whose true violation
    probability exceeded the certificate; by the finite-sample guarantee
    its expectation never exceeds beta.  ``occurrences`` maps each
    observed support count to (count, mean r/m).
    """

    runs: int
    bound_names: tuple[str, ...]
    mean_gap: dict[str, float | None]
    std_gap: dict[str, float | None]
    empirical_confidence: dict[str, float | None]
    occurrences: dict[int, tuple[int, float | None]]
    ties: int

    def to_json(self) -> str:
        from . import serialize

        return serialize.gap_stats_json(self)


def _run_seed(master_seed: int, run: int) -> np.random.Generator:
    # Counter-based split: child streams depend only on (master, index),
    # never on scheduling order.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run,))
    )


def run_monte_carlo(
    problem: ToyScenarioProblem,
    n: int,
    m: int,
    beta: float,
    runs: int,
    coeffs: CoefficientVector | None = None,
    master_seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[GapStatistics, list[TrialRecord]]:
    """Monte Carlo audit of all certificates on a toy problem.

    Each run draws fresh n + m samples from its own deterministic stream,
    solves the scenario program on the first n, counts validation
    violations on the rest, and looks its certificates up in tables
    computed once and shared across runs.  Identical ``master_seed``
    gives a bit-identical record stream.
    """
    if runs < 1:
        raise ValueError(f"require runs >= 1, got {runs}")
    cert = CertificateProblem(n, m, problem.zeta, beta)
    if coeffs is None:
        coeffs = CoefficientVector.uniform(cert)
    table = bound_table(cert, coeffs, tol)
    judged = wait_and_judge(cert, coeffs, tol)
    if m > 0:
        eta_by_l = clopper_pearson(m, np.arange(m + 1), beta, tol)
        chern_by_l = np.array([chernoff_bound(m, l, beta).value for l in range(m + 1)])
    else:
        eta_by_l = chern_by_l = None

    def one(run: int) -> TrialRecord:
        rng = _run_seed(master_seed, run)
        pts = problem.sample(rng, n + m)
        solution = solve_scenario(problem, pts[:n])
        s = solution.support_count
        r = count_validation_violations(problem, solution, pts[n:])
        return TrialRecord(
            run=run,
            s=s,
            r=r,
            v_true=violation_probability(problem, solution),
            eps_sr=float(table.eps[s, r]),
            eps_s=float(judged[s]),
            eta=None if eta_by_l is None else float(eta_by_l[r]),
            chernoff=None if chern_by_l is None else float(chern_by_l[r]),
            tie=solution.tie,
        )

    records = [one(i) for i in range(runs)]
    return _aggregate(records, m), records


def _aggregate(records: Sequence[TrialRecord], m: int) -> GapStatistics:
    runs = len(records)
    v = np.array([rec.v_true for rec in records])
    mean_gap: dict[str, float | None] = {}
    std_gap: dict[str, float | None] = {}
    confidence: dict[str, float | None] = {}
    for name in BOUND_NAMES:
        values = [getattr(rec, name) for rec in records]
        if any(value is None for value in values):
            mean_gap[name] = std_gap[name] = confidence[name] = None
            continue
        arr = np.array(values, dtype=float)
        gaps = arr - v
        mean_gap[name] = float(gaps.mean())
        std_gap[name] = float(gaps.std(ddof=1)) if runs > 1 else 0.0
        confidence[name] = float(np.mean(v > arr))
    occurrences: dict[int, tuple[int, float | None]] = {}
    for s in sorted({rec.s for rec in records}):
        group = [rec for rec in records if rec.s == s]
        mean_ratio = (
            float(np.mean([rec.r / m for rec in group])) if m > 0 else None
        )
        occurrences[s] = (len(group), mean_ratio)
    return GapStatistics(
        runs=runs,
        bound_names=BOUND_NAMES,
        mean_gap=mean_gap,
        std_gap=std_gap,
        empirical_confidence=confidence,
        occurrences=occurrences,
        ties=sum(1 for rec in records if rec.tie),
    )


class IncrementalStep(NamedTuple):
    """Certificates after the first m validation samples were revealed."""

    m: int
    r: int
    eta: float | None  # undefined before the first validation sample
    eps: float


def incremental_judgement(
    problem: ToyScenarioProblem,
    solution: ScenarioSolution,
    n_design: int,
    beta: float,
    validation_samples,
    coeffs: CoefficientVector | None = None,
    tol: float = DEFAULT_TOL,
) -> list[IncrementalStep]:
    """Certificate sequence as validation samples arrive one at a time.

    The two-indexed certificate starts at m = 0 from the support-count
    information alone; the Clopper-Pearson bound only exists from m = 1.
    A violating arrival pushes both bounds up, a satisfied one pulls both
    down.  Each sequence is one array solve: arrival i is the cell
    (s, r_i) with i validation trials.
    """
    pts = _as_samples(problem, validation_samples)
    cert = CertificateProblem(n_design, pts.shape[0], problem.zeta, beta)
    if coeffs is None:
        coeffs = CoefficientVector.uniform(cert)
    seen = np.arange(pts.shape[0] + 1)
    r = np.concatenate([[0], np.cumsum(violation_mask(problem, solution, pts))])
    roots = solve_root(solution.support_count, r, cert, coeffs, tol, m=seen)
    eta = clopper_pearson(seen[1:], r[1:], beta, tol)
    return [
        IncrementalStep(
            int(i), int(r[i]), float(eta[i - 1]) if i else None, float(1.0 - roots[i])
        )
        for i in seen
    ]
