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

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binom_tail import _batches
from .classic_bounds import DEFAULT_TOL, chernoff_bound, clopper_pearson
from .posterior_bounds import CertificateProblem, CoefficientVector, solve_root, wait_and_judge

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


def _extremes(
    problem: ToyScenarioProblem, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support rule on a batch of design sets of shape (..., d, count).

    Returns the decisions (shape (..., 1) for scalar_max, (..., 2, d)
    with rows [lower; upper] for bounding_box), each extremum's first
    attainer sorted along the last axis (a sample attaining several
    extrema repeats; the distinct entries are the support constraints),
    and the tie flags: some extremum is attained more than once.  Every
    reduction runs along the contiguous sample axis; scalar_max is the
    upper bound of a one-row box.
    """
    first = [pts.argmax(axis=-1)]
    if problem.kind == "bounding_box":
        first.insert(0, pts.argmin(axis=-1))
    first = np.stack(first, axis=-1)
    bounds = np.take_along_axis(pts, first, axis=-1)
    # Each extremum is attained at least once; any extra is a tie.
    attained = sum(
        np.count_nonzero(pts == bound[..., None], axis=(-2, -1))
        for bound in np.moveaxis(bounds, -1, 0)
    )
    first = np.sort(first.reshape(*first.shape[:-2], -1), axis=-1)
    decision = bounds[..., 0] if problem.kind == "scalar_max" else bounds.swapaxes(-2, -1)
    return decision, first, attained > first.shape[-1]


def _outside(
    problem: ToyScenarioProblem, decision: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Mask of samples (..., d, count) outside decisions shaped as ``_extremes`` gives."""
    if problem.kind == "scalar_max":
        return pts[..., 0, :] > decision
    lo, hi = decision[..., 0, :, None], decision[..., 1, :, None]
    return np.any((pts < lo) | (pts > hi), axis=-2)


def _risk(problem: ToyScenarioProblem, decision: np.ndarray) -> np.ndarray:
    """Closed-form violation probabilities of decisions shaped as ``_extremes`` gives."""
    if problem.kind == "scalar_max":
        return 1.0 - decision[..., 0]
    return 1.0 - np.prod(decision[..., 1, :] - decision[..., 0, :], axis=-1)


def solve_scenario(problem: ToyScenarioProblem, samples) -> ScenarioSolution:
    """Exact optimizer and support set for the given design samples."""
    pts = _as_samples(problem, samples)
    if pts.shape[0] < 1:
        raise ValueError("need at least one design sample")
    decision, first, tie = _extremes(problem, pts.T[None])
    support = tuple(int(i) for i in np.unique(first[0]))
    return ScenarioSolution(problem, decision[0], support, bool(tie[0]))


def violation_mask(solution: ScenarioSolution, samples) -> np.ndarray:
    """Boolean mask of samples outside the solution's feasible region."""
    problem = solution.problem
    return _outside(problem, solution.decision, _as_samples(problem, samples).T)


def count_validation_violations(solution: ScenarioSolution, samples) -> int:
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        return 0
    return int(violation_mask(solution, pts).sum())


def violation_probability(solution: ScenarioSolution) -> float:
    """Closed-form violation probability under the uniform distribution."""
    return float(_risk(solution.problem, solution.decision))


class TrialRecord(NamedTuple):
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
    observed support count to (count, mean r/m).  The dicts of gaps and
    confidences are keyed by ``BOUND_NAMES``.
    """

    runs: int
    mean_gap: dict[str, float | None]
    std_gap: dict[str, float | None]
    empirical_confidence: dict[str, float | None]
    occurrences: dict[int, tuple[int, float | None]]
    ties: int


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# A run index is one 32-bit spawn word; larger indices take two.
_MAX_RUNS = 1 << 32


def _hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant init * mult**j for j = 0..steps, as a uint32 column."""
    consts = [init & _MASK32]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, step j on row j of ``values`` (uint32 arrays)."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> np.uint32(16)


# generate_state(4, uint64) hashes eight words, cycling the pool twice.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


class _RunStreams:
    """The audit's per-run streams, seeded as arrays and served by one generator.

    Run i's stream is ``default_rng(SeedSequence(seed, spawn_key=(i,)))``
    bit for bit.  Its entropy is the seed's words, zero-padded to the
    pool size 4, followed by the spawn word i.  Hashing the seed's words
    ends in ``SeedSequence(seed).pool``, so only the spawn word's mixing,
    the state generation and PCG64's seeding differ between runs.  Those
    are done as uint32 arrays over a block of run indices, and each
    run's state is then set on one reused PCG64 and Generator pair.
    """

    def __init__(self, master_seed: int):
        # NumPy validates the seed and hashes its words into the pool.
        seq = np.random.SeedSequence(entropy=master_seed)
        words = max(1, -(-operator.index(seq.entropy).bit_length() // 32))
        # mix(x, y) = MIX_MULT_L * x - MIX_MULT_R * y with x a pool word.
        self._pool_terms = np.array(
            [_MIX_MULT_L * int(word) & _MASK32 for word in seq.pool], dtype=np.uint32
        )[:, None]
        # Filling the pool and mixing all its pairs took 4 + 12 hashmix
        # steps, and each seed word past the pool size 4 more; the spawn
        # word takes the next 4.
        steps = 16 + 4 * max(0, words - 4)
        spawn_init = _INIT_A * pow(_MULT_A, steps, 1 << 32)
        self._spawn_consts = _hash_consts(spawn_init, _MULT_A, 4)
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def generators(self, start: int, stop: int) -> Iterator[np.random.Generator]:
        """The shared generator, set to each run's stream in [start, stop) in turn."""
        if not 0 <= start <= stop <= _MAX_RUNS:
            raise ValueError(f"run indices must lie in [0, 2**32), got [{start}, {stop})")
        spawn = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
        mixed = self._pool_terms - _MIX_MULT_R * _hashmix(spawn, self._spawn_consts)
        pool = mixed ^ mixed >> np.uint32(16)
        words = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTS).astype(np.uint64)
        # Little-endian word pairs give the four 64-bit seed words; PCG64
        # takes the first two as its initial state and the last two as
        # its stream (pcg_setseq_128_srandom_r).
        seeds = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
        for s_hi, s_lo, q_hi, q_lo in zip(*seeds):
            inc = ((q_hi << 65) | (q_lo << 1) | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            self._bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield self._generator


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
    which depends only on (``master_seed``, run index), solves the
    scenario program on the first n and counts validation violations on
    the rest.  Runs are scored a block at a time, as arrays; the block
    size changes no record.  The certificates come after all runs are
    scored: eps_sr from one ``solve_root`` call over the distinct cells
    (s, r) the runs landed on, eta and chernoff over their distinct r,
    and eps_s from ``wait_and_judge``.  Each equals its cell in the full
    tables bit for bit, so the work grows with the cells the runs reach,
    not with (zeta + 1)(m + 1).  Identical ``master_seed`` gives a
    bit-identical record stream.

    Run i's stream is bit-identical to
    ``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``.  It is
    derived from the seed's ``SeedSequence`` pool: the spawn word i is
    mixed in and PCG64 seeded as arrays over a block of run indices, and
    each run's state is set on one reused generator.  The spawn word is
    32 bits wide, so ``runs`` is at most 2**32.
    """
    if not 1 <= runs <= _MAX_RUNS:
        raise ValueError(f"require 1 <= runs <= 2**32, got {runs}")
    streams = _RunStreams(master_seed)
    cert = CertificateProblem(n, m, problem.zeta, beta)
    if coeffs is None:
        coeffs = CoefficientVector.uniform(cert)
    judged = wait_and_judge(cert, coeffs, tol)  # checks coeffs and tol before any run

    # Runs go in _batches, each run counted at its sample coordinates; run
    # i fills row i of its block from its own stream, as problem.sample
    # would.  The block is then copied sample-major, so the support rule
    # reduces along contiguous rows.
    width = n + m
    block = next(_batches(runs, width * problem.dimension)).stop  # the first is the largest
    drawn = np.empty((block, width, problem.dimension))
    sample_major = np.empty((block, problem.dimension, width))
    s, r = np.empty(runs, dtype=np.intp), np.empty(runs, dtype=np.intp)
    v_true, tie = np.empty(runs), np.empty(runs, dtype=bool)
    for b in _batches(runs, width * problem.dimension):
        for row, rng in enumerate(streams.generators(b.start, b.stop)):
            rng.random(out=drawn[row])
        pts = sample_major[: b.stop - b.start]
        np.copyto(pts, drawn[: b.stop - b.start].swapaxes(-2, -1))
        decision, first, tie[b] = _extremes(problem, pts[..., :n])
        s[b] = 1 + np.count_nonzero(np.diff(first, axis=-1), axis=-1)
        r[b] = np.count_nonzero(_outside(problem, decision, pts[..., n:]), axis=-1)
        v_true[b] = _risk(problem, decision)
    # Each bound is solved once per distinct cell the runs land on.
    cells, at = np.unique(s * (m + 1) + r, return_inverse=True)
    roots = solve_root(cells // (m + 1), cells % (m + 1), cert, coeffs, tol)
    bounds = {"eps_sr": 1.0 - roots[at], "eps_s": judged[s]}
    if m > 0:  # eta and chernoff need validation samples
        ls, at_r = np.unique(r, return_inverse=True)
        bounds["eta"] = clopper_pearson(m, ls, beta, tol)[at_r]
        chernoff = [chernoff_bound(m, l, beta).value for l in ls.tolist()]
        bounds["chernoff"] = np.array(chernoff)[at_r]
    columns = [bounds[name].tolist() if name in bounds else [None] * runs
               for name in BOUND_NAMES]
    records = list(map(TrialRecord._make, zip(
        range(runs), s.tolist(), r.tolist(), v_true.tolist(), *columns, tie.tolist()
    )))
    return _aggregate(s, r, v_true, tie, bounds, m), records


def _aggregate(s: np.ndarray, r: np.ndarray, v_true: np.ndarray, tie: np.ndarray,
               bounds: dict[str, np.ndarray], m: int) -> GapStatistics:
    runs = s.size
    # A bound that ``bounds`` lacks (eta and chernoff at m = 0) stays None.
    mean_gap, std_gap, confidence = (dict.fromkeys(BOUND_NAMES) for _ in range(3))
    for name, values in bounds.items():
        gaps = values - v_true
        mean_gap[name] = float(gaps.mean())
        std_gap[name] = float(gaps.std(ddof=1)) if runs > 1 else 0.0
        confidence[name] = float(np.mean(v_true > values))
    occurrences: dict[int, tuple[int, float | None]] = {}
    for value, count in zip(*np.unique(s, return_counts=True)):
        mean_ratio = float(np.mean(r[s == value] / m)) if m > 0 else None
        occurrences[int(value)] = (int(count), mean_ratio)
    return GapStatistics(runs=runs, mean_gap=mean_gap, std_gap=std_gap,
                         empirical_confidence=confidence, occurrences=occurrences,
                         ties=int(tie.sum()))


class IncrementalStep(NamedTuple):
    """Certificates after the first m validation samples were revealed."""

    m: int
    r: int
    eta: float | None  # undefined before the first validation sample
    eps: float


def incremental_judgement(
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
    (s, r_i) with i validation trials.  The samples are points of the
    solution's problem.
    """
    problem = solution.problem
    pts = _as_samples(problem, validation_samples)
    cert = CertificateProblem(n_design, pts.shape[0], problem.zeta, beta)
    if coeffs is None:
        coeffs = CoefficientVector.uniform(cert)
    seen = np.arange(pts.shape[0] + 1)
    r = np.concatenate([[0], np.cumsum(violation_mask(solution, pts))])
    roots = solve_root(solution.support_count, r, cert, coeffs, tol, m=seen)
    eta = clopper_pearson(seen[1:], r[1:], beta, tol)
    return [
        IncrementalStep(
            int(i), int(r[i]), float(eta[i - 1]) if i else None, float(1.0 - roots[i])
        )
        for i in seen
    ]
