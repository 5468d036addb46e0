"""Correctness checks on the outputs of the benchmark's operations.

Each check gets the operation, the workload seed, the text of the output
file (or ``None``) and the captured stdout, and returns ``None`` when the
output is right or a one-line reason when it is not.  ``grid`` and
``limits`` are compared with stored references for every seed (their
inputs do not depend on it); ``simulate`` and ``incremental`` are held to
invariants for every seed and to stored references at the default seed.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from functools import cache
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Op

REFERENCE = Path(__file__).resolve().parent / "reference"

TOL = 1e-10  # the CLI's default root tolerance
# A root may sit 2*tol from the reference (the documented bisection error)
# and move a further tol/2 when the safe bracket end is reported instead
# of the midpoint; 12-significant-digit output adds at most 5e-13.
ROOT_ATOL = 2.5 * TOL + 1e-12
CHERNOFF_ATOL = 1e-11  # closed form, only formatting error


def _table(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


@cache
def _reference_text(name: str) -> str:
    path = REFERENCE / name
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes()).decode()
    return path.read_text()


def _compare_grid(text: str, reference: str, what: str) -> str | None:
    got, ref = _table(text), _table(_reference_text(reference))
    if got.shape != ref.shape:
        return f"{what}: shape {got.shape}, reference {ref.shape}"
    if not np.array_equal(got[:, :2], ref[:, :2]):
        return f"{what}: cell indices differ from the reference"
    worst = float(np.max(np.abs(got[:, 2:] - ref[:, 2:])))
    if worst > ROOT_ATOL:
        return f"{what}: differs from the reference by {worst:.3g} > {ROOT_ATOL:.3g}"
    return None


def check_grid(op: Op, seed: int, text: str | None, stdout: str) -> str | None:
    return _compare_grid(text, "grid.csv.gz", "table")


def check_limits(op: Op, seed: int, text: str | None, stdout: str) -> str | None:
    return _compare_grid(text, "limits.csv", "lower-limit table")


def check_refine(op: Op, seed: int, text: str | None, stdout: str) -> str | None:
    if not stdout.startswith("converged"):
        return f"refine ended with {stdout.strip()!r}"
    iterations = json.loads(text)
    first = np.array(iterations[0]["eps_grid"])
    last = np.array(iterations[-1]["eps_grid"])
    # Refinement never loosens a certificate by more than 2*tol.
    worst = float(np.max(last - first))
    if last.shape != first.shape or worst > 2.0 * TOL + 1e-12:
        return f"refined grid rises above the initial grid by {worst:.3g}"
    return None


def simulate_digest(records: np.ndarray) -> dict:
    """Compact, seed-specific summary of a Monte Carlo record table."""
    s = records[:, 1].astype(int)
    r = records[:, 2].astype(int)
    sr = "\n".join(f"{a},{b}" for a, b in zip(s.tolist(), r.tolist()))
    lookups: dict[str, dict[str, float]] = {}
    for column, name, keys in ((4, "eps_sr", (s, r)), (5, "eps_s", (s,)),
                               (6, "eta", (r,)), (7, "chernoff", (r,))):
        table: dict[str, float] = {}
        for key, value in zip(zip(*(k.tolist() for k in keys)), records[:, column].tolist()):
            label = ",".join(map(str, key))
            if table.setdefault(label, value) != value:
                raise ValueError(f"{name} differs between records with key {label}")
        lookups[name] = dict(sorted(table.items()))
    return {
        "runs": int(len(records)),
        "sr_sha256": hashlib.sha256(sr.encode()).hexdigest(),
        "v_true_sum": float(records[:, 3].sum()),
        **lookups,
    }


def check_simulate(op: Op, seed: int, text: str | None, stdout: str) -> str | None:
    runs, m, zeta = op.param("runs"), op.param("m"), 2 * op.param("d")
    stats = json.loads(stdout)
    if stats["runs"] != runs:
        return f"simulate reports {stats['runs']} runs, expected {runs}"
    rec = _table(text)
    if rec.shape != (runs, 8) or not np.array_equal(rec[:, 0], np.arange(runs)):
        return f"simulate records have shape {rec.shape}, expected ({runs}, 8)"
    s, r, v_true, eps_sr, eps_s = rec[:, 1], rec[:, 2], rec[:, 3], rec[:, 4], rec[:, 5]
    if np.any(s > zeta) or np.any(s < 0):
        return "simulate: a support count exceeds zeta"
    if np.any(r > m) or np.any(r < 0):
        return "simulate: a violation count exceeds m"
    if np.any((v_true < 0.0) | (v_true > 1.0)):
        return "simulate: a true violation probability lies outside [0, 1]"
    if np.any(eps_sr > eps_s + 2.0 * TOL + 1e-12):
        return "simulate: eps_sr exceeds eps_s by more than 2*tol"
    if seed != DEFAULT_SEED:
        return None
    try:
        got = simulate_digest(rec)
    except ValueError as exc:
        return f"simulate: {exc}"
    ref = json.loads(_reference_text(f"simulate-seed{DEFAULT_SEED}.json"))
    if got["sr_sha256"] != ref["sr_sha256"]:
        return "simulate: (s, r) sequence differs from the reference"
    if abs(got["v_true_sum"] - ref["v_true_sum"]) > 1e-7:
        return "simulate: true violation probabilities differ from the reference"
    for name, atol in (("eps_sr", ROOT_ATOL), ("eps_s", ROOT_ATOL), ("eta", ROOT_ATOL),
                       ("chernoff", CHERNOFF_ATOL)):
        if got[name].keys() != ref[name].keys():
            return f"simulate: {name} keys differ from the reference"
        worst = max(abs(got[name][k] - ref[name][k]) for k in ref[name])
        if worst > atol:
            return f"simulate: {name} differs from the reference by {worst:.3g}"
    return None


def _incremental_rows(text: str) -> list[tuple[int, int, float, float]]:
    rows = []
    for line in text.strip().splitlines()[1:]:
        m, r, eta, eps = line.split(",")
        rows.append((int(m), int(r), float(eta) if eta else float("nan"), float(eps)))
    return rows


def check_incremental(op: Op, seed: int, text: str | None, stdout: str) -> str | None:
    rows = _incremental_rows(stdout)
    ms = [row[0] for row in rows]
    if ms != list(range(op.param("m") + 1)):
        return "incremental: validation counts are not 0..m"
    previous = 0
    for m, r, eta, eps in rows:
        if not previous <= r <= previous + 1 or r > m:
            return f"incremental: violation count {r} at m={m} after {previous}"
        previous = r
        if not 0.0 <= eps <= 1.0 or (m > 0 and not 0.0 <= eta <= 1.0):
            return f"incremental: certificate outside [0, 1] at m={m}"
    if seed != DEFAULT_SEED:
        return None
    ref = _incremental_rows(_reference_text(f"incremental-seed{DEFAULT_SEED}.csv"))
    if [row[:2] for row in rows] != [row[:2] for row in ref]:
        return "incremental: (m, r) sequence differs from the reference"
    got, want = np.array(rows)[:, 2:], np.array(ref)[:, 2:]
    worst = float(np.nanmax(np.abs(got - want)))
    if worst > ROOT_ATOL:
        return f"incremental: differs from the reference by {worst:.3g}"
    return None


CHECKS = {
    "grid": check_grid,
    "limits": check_limits,
    "refine": check_refine,
    "simulate": check_simulate,
    "incremental": check_incremental,
}
