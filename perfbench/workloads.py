"""The benchmark's workloads: the CLI operations of one pass over each.

Each workload is one client running its operations back to back (a closed
loop).  Operations are kept to a few seconds each, so that a run repeats
every one of them several times and its medians do not hang on one
sample.  ``{out}`` in an argument list is replaced by a fresh output path
and ``{seed}`` by the benchmark's workload seed.  A warm-up runs small
versions of the same subcommands once, untimed, so lazy imports and
first-call costs are paid before the timed passes.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42
BETA = "1e-6"


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: str  # name of the function in checks.py that judges the output
    deadline_s: float
    params: tuple[tuple[str, int], ...] = ()

    def param(self, key: str) -> int:
        return dict(self.params)[key]


def _sizes(n: int, m: int, zeta: int) -> tuple[str, ...]:
    return ("--n", str(n), "--m", str(m), "--zeta", str(zeta), "--beta", BETA)


def _refine(n: int, m: int, zeta: int) -> Op:
    # The good cases converge in under a second (at most 0.97 s seen on a
    # 2-vCPU Xeon); (100, 10, 8) runs the custom simplex into its pivot
    # limit after about a minute, so the deadline decides what that known
    # failure costs a pass.  It is kept short so that the cut-off case does
    # not drown out the converging ones.
    return Op(f"refine-{n}-{m}-{zeta}", ("refine", *_sizes(n, m, zeta), "--output", "{out}"),
              "refine", 2.0)


AUDIT_D, AUDIT_RUNS = 5, 5000
INCR_D, INCR_N, INCR_M = 2, 500, 500

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "grid": (
        Op("table-100-100-18", ("table", *_sizes(100, 100, 18), "--output", "{out}"),
           "grid", 30.0),
    ),
    "limits": (
        Op("lower-limit-100-25-10",
           ("lower-limit", *_sizes(100, 25, 10), "--output", "{out}"), "limits", 30.0),
    ),
    "refine": tuple(
        _refine(*size)
        for size in ((100, 5, 8), (120, 5, 8), (80, 10, 6), (150, 5, 8), (100, 5, 10),
                     (100, 10, 8))
    ),
    "audit": (
        Op("simulate-box5-100-100",
           ("simulate", "--kind", "bounding-box", "--d", str(AUDIT_D), "--n", "100",
            "--m", "100", "--beta", BETA, "--runs", str(AUDIT_RUNS), "--seed", "{seed}",
            "--output", "{out}"),
           "simulate", 30.0,
           (("d", AUDIT_D), ("n", 100), ("m", 100), ("runs", AUDIT_RUNS))),
        Op("incremental-box2-500-500",
           ("incremental", "--kind", "bounding-box", "--d", str(INCR_D), "--n", str(INCR_N),
            "--m", str(INCR_M), "--beta", BETA, "--seed", "{seed}"),
           "incremental", 30.0,
           (("d", INCR_D), ("n", INCR_N), ("m", INCR_M))),
    ),
}

WARMUP: dict[str, tuple[tuple[str, ...], ...]] = {
    "grid": (("table", *_sizes(40, 20, 4), "--output", "{out}"),),
    "limits": (("lower-limit", *_sizes(30, 5, 3), "--output", "{out}"),),
    "refine": (("refine", *_sizes(40, 3, 4), "--output", "{out}"),),
    "audit": (
        ("simulate", "--kind", "bounding-box", "--d", "2", "--n", "20", "--m", "20",
         "--beta", BETA, "--runs", "50", "--seed", "{seed}", "--output", "{out}"),
        ("incremental", "--kind", "bounding-box", "--d", "2", "--n", "30", "--m", "10",
         "--beta", BETA, "--seed", "{seed}"),
    ),
}
