"""Byte-stable text formats for tables, traces and Monte Carlo records.

All floats are rendered with 12 significant digits through one formatter
so that identical inputs always produce identical bytes; JSON documents
with float payloads are assembled by hand for the same reason.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = [
    "fmt",
    "table_csv",
    "table_json",
    "lower_table_csv",
    "lower_table_json",
    "coefficients_json",
    "parse_coefficients",
    "records_csv",
    "records_jsonl",
    "gap_stats_json",
    "trace_json",
    "incremental_csv",
    "incremental_json",
    "write_output",
]


def fmt(x: float) -> str:
    """12-significant-digit rendering used for every emitted number."""
    return format(float(x), ".12g")


def _opt(x) -> str:
    return "" if x is None else fmt(x)


def _opt_json(x) -> str:
    return "null" if x is None else fmt(x)


def _problem_json(problem) -> str:
    return (
        f'{{"n": {problem.n}, "m": {problem.m}, "zeta": {problem.zeta}, '
        f'"beta": {fmt(problem.beta)}}}'
    )


def table_csv(table) -> str:
    lines = ["k,l,t,eps"]
    zeta_rows, m_cols = table.t.shape
    for k in range(zeta_rows):
        for l in range(m_cols):
            lines.append(f"{k},{l},{fmt(table.t[k, l])},{fmt(table.eps[k, l])}")
    return "\n".join(lines) + "\n"


def table_json(table) -> str:
    cells = []
    zeta_rows, m_cols = table.t.shape
    for k in range(zeta_rows):
        for l in range(m_cols):
            cells.append(
                f'{{"k": {k}, "l": {l}, "t": {fmt(table.t[k, l])}, '
                f'"eps": {fmt(table.eps[k, l])}}}'
            )
    return (
        f'{{"problem": {_problem_json(table.problem)}, '
        f'"coefficients_scheme": {json.dumps(table.coefficients.scheme)}, '
        f'"tol": {fmt(table.tol)}, '
        f'"grid": [{", ".join(cells)}]}}\n'
    )


def lower_table_csv(table) -> str:
    lines = ["k,l,eps_lower"]
    zeta_rows, m_cols = table.eps_lower.shape
    for k in range(zeta_rows):
        for l in range(m_cols):
            lines.append(f"{k},{l},{fmt(table.eps_lower[k, l])}")
    return "\n".join(lines) + "\n"


def lower_table_json(table) -> str:
    cells = []
    zeta_rows, m_cols = table.eps_lower.shape
    for k in range(zeta_rows):
        for l in range(m_cols):
            degenerate = "true" if bool(table.degenerate[k, l]) else "false"
            cells.append(
                f'{{"k": {k}, "l": {l}, "eps_lower": {fmt(table.eps_lower[k, l])}, '
                f'"degenerate": {degenerate}}}'
            )
    return (
        f'{{"problem": {_problem_json(table.problem)}, '
        f'"tol": {fmt(table.tol)}, '
        f'"grid": [{", ".join(cells)}]}}\n'
    )


def coefficients_json(values) -> str:
    """Coefficient file format: a bare JSON array of n+1 reals."""
    return "[" + ", ".join(fmt(v) for v in values) + "]\n"


def parse_coefficients(text: str) -> list[float]:
    data = json.loads(text)
    # bool is a subclass of int, but true/false are not coefficients.
    if not isinstance(data, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
    ):
        raise ValueError("coefficient file must hold a JSON array of numbers")
    return [float(v) for v in data]


_RECORD_HEADER = "run,s,r,v_true,eps_sr,eps_s,eta,chernoff"


def records_csv(records) -> str:
    lines = [_RECORD_HEADER]
    for rec in records:
        lines.append(
            f"{rec.run},{rec.s},{rec.r},{fmt(rec.v_true)},{fmt(rec.eps_sr)},"
            f"{fmt(rec.eps_s)},{_opt(rec.eta)},{_opt(rec.chernoff)}"
        )
    return "\n".join(lines) + "\n"


def records_jsonl(records) -> str:
    lines = []
    for rec in records:
        lines.append(
            f'{{"run": {rec.run}, "s": {rec.s}, "r": {rec.r}, '
            f'"v_true": {fmt(rec.v_true)}, "eps_sr": {fmt(rec.eps_sr)}, '
            f'"eps_s": {fmt(rec.eps_s)}, "eta": {_opt_json(rec.eta)}, '
            f'"chernoff": {_opt_json(rec.chernoff)}}}'
        )
    return "\n".join(lines) + "\n"


def gap_stats_json(stats) -> str:
    bound_parts = []
    for name in stats.bound_names:
        bound_parts.append(
            f'{json.dumps(name)}: {{"mean_gap": {_opt_json(stats.mean_gap[name])}, '
            f'"std_gap": {_opt_json(stats.std_gap[name])}, '
            f'"empirical_confidence": {_opt_json(stats.empirical_confidence[name])}}}'
        )
    occ_parts = []
    for s in sorted(stats.occurrences):
        count, mean_ratio = stats.occurrences[s]
        occ_parts.append(
            f'{{"s": {s}, "count": {count}, '
            f'"frequency": {fmt(count / stats.runs)}, '
            f'"mean_r_over_m": {_opt_json(mean_ratio)}}}'
        )
    return (
        f'{{"runs": {stats.runs}, '
        f'"ties": {stats.ties}, '
        f'"bounds": {{{", ".join(bound_parts)}}}, '
        f'"occurrences": [{", ".join(occ_parts)}]}}\n'
    )


def trace_json(trace) -> str:
    """Refinement trace format: a JSON array, one object per iteration."""
    parts = []
    for it in trace.iterations:
        coeffs = ", ".join(fmt(v) for v in it.coefficients.values)
        rows = []
        for k in range(it.table.eps.shape[0]):
            rows.append("[" + ", ".join(fmt(v) for v in it.table.eps[k]) + "]")
        parts.append(
            f'{{"iter": {it.index}, "coefficients": [{coeffs}], '
            f'"eps_grid": [{", ".join(rows)}], '
            f'"max_t_increase": {_opt_json(it.max_t_increase)}}}'
        )
    return "[" + ", ".join(parts) + "]\n"


def incremental_csv(steps) -> str:
    lines = ["m,r,eta,eps"]
    for step in steps:
        lines.append(f"{step.m},{step.r},{_opt(step.eta)},{fmt(step.eps)}")
    return "\n".join(lines) + "\n"


def incremental_json(steps) -> str:
    parts = [
        f'{{"m": {s.m}, "r": {s.r}, "eta": {_opt_json(s.eta)}, "eps": {fmt(s.eps)}}}'
        for s in steps
    ]
    return "[" + ", ".join(parts) + "]\n"


def write_output(path: str, text: str) -> None:
    """Write text to the file ``path`` resolves to, with the umask's mode,
    by renaming a flushed temporary sibling over it, so no partial file is
    ever left; a target that is not a regular file is written directly."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as handle:
            handle.write(text)
        return
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".scencert-", suffix=".tmp")
    try:
        os.umask(umask := os.umask(0))  # read the umask, leaving it set
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
