"""Byte-stable text formats for tables, traces and Monte Carlo records.

This is the only module that renders output: the result records hold
data, and each output has one public writer here.

Each writer names its columns and hands them to one of three renderers:
``_csv`` (a header line, then one line per record), ``_objects`` (one
JSON object per record) or ``_json`` (a whole document).  A column's
format is chosen once, by its name, and each record is one ``%`` template
over its columns, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
from operator import index

import numpy as np

from .scenario_lab import BOUND_NAMES, IncrementalStep, TrialRecord

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

_REAL = "%.12g"  # fmt's rule; it equals format(x, ".12g") for every double
# Columns printed by fmt's rule; any other column prints as str() does.  A
# real column may hold None where it is undefined: empty in CSV, null in JSON.
_REALS = frozenset({"t", "eps", "eps_lower", "v_true", "eps_sr", "eps_s", "eta",
                    "chernoff", "mean_gap", "std_gap", "empirical_confidence",
                    "frequency", "mean_r_over_m"})
# A TrialRecord's fields in order; its last field, tie, is not printed.
_RECORD_COLUMNS = TrialRecord._fields[:-1]
_STEP_COLUMNS = IncrementalStep._fields


def fmt(x: float) -> str:
    """12-significant-digit rendering used for every emitted number."""
    return _REAL % float(x)


def _cells(columns: dict, empty: str):
    """Each column's template and the values it takes."""
    for name, column in columns.items():
        if name in _REALS and None in column:
            yield "%s", [empty if v is None else _REAL % v for v in column]
        else:
            yield _REAL if name in _REALS else "%s", column


def _csv(columns: dict) -> str:
    templates, values = zip(*_cells(columns, ""))
    row = ",".join(templates) + "\n"
    return ",".join(columns) + "\n" + "".join([row % cells for cells in zip(*values)])


def _objects(columns: dict) -> list[str]:
    templates, values = zip(*_cells(columns, "null"))
    obj = "{%s}" % ", ".join([f'"{name}": {t}' for name, t in zip(columns, templates)])
    return [obj % cells for cells in zip(*values)]


def _array(items) -> str:
    return "[%s]" % ", ".join(items)


def _json(value) -> str:
    """A JSON document of dicts, lists and float arrays, whose other
    leaves are strings (taken as JSON text), None, ints and floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return "{%s}" % ", ".join([f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()])
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return "[%s]" % ", ".join([_REAL] * value.size) % tuple(value.tolist())
    if isinstance(value, (list, tuple, np.ndarray)):
        return _array(map(_json, value))
    if value is None:
        return "null"
    if isinstance(value, float):
        return fmt(value)
    return str(index(value))


def _grid(**arrays) -> dict:
    """Columns k and l, then the named (k, l) arrays, cell by cell in row-major order."""
    first = next(iter(arrays.values()))
    k, l = np.indices(first.shape).reshape(2, -1).tolist()
    return {"k": k, "l": l, **{name: a.ravel().tolist() for name, a in arrays.items()}}


def _columns(names: tuple[str, ...], rows) -> dict:
    """Named columns of the rows, which hold values in the names' order;
    fields past the last name are dropped."""
    return dict(zip(names, zip(*rows))) or dict.fromkeys(names, ())


def _problem(problem) -> dict:
    return {"n": problem.n, "m": problem.m, "zeta": problem.zeta, "beta": float(problem.beta)}


def table_csv(table) -> str:
    return _csv(_grid(t=table.t, eps=table.eps))


def table_json(table) -> str:
    return _json({
        "problem": _problem(table.problem),
        "coefficients_scheme": json.dumps(table.coefficients.scheme),
        "tol": float(table.tol),
        "grid": _array(_objects(_grid(t=table.t, eps=table.eps))),
    }) + "\n"


def lower_table_csv(table) -> str:
    return _csv(_grid(eps_lower=table.eps_lower))


def lower_table_json(table) -> str:
    degenerate = np.where(table.degenerate, "true", "false")
    return _json({
        "problem": _problem(table.problem),
        "tol": float(table.tol),
        "grid": _array(_objects(_grid(eps_lower=table.eps_lower, degenerate=degenerate))),
    }) + "\n"


def coefficients_json(values) -> str:
    """Coefficient file format: a bare JSON array of n+1 reals."""
    return _json(np.asarray(values, dtype=float)) + "\n"


def parse_coefficients(text: str) -> list[float]:
    data = json.loads(text)
    # bool is a subclass of int, but true/false are not coefficients.
    if not isinstance(data, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
    ):
        raise ValueError("coefficient file must hold a JSON array of numbers")
    return [float(v) for v in data]


def records_csv(records) -> str:
    return _csv(_columns(_RECORD_COLUMNS, records))


def records_jsonl(records) -> str:
    return "\n".join(_objects(_columns(_RECORD_COLUMNS, records))) + "\n"


def gap_stats_json(stats) -> str:
    bounds = _columns(("mean_gap", "std_gap", "empirical_confidence"), [
        (stats.mean_gap[name], stats.std_gap[name], stats.empirical_confidence[name])
        for name in BOUND_NAMES])
    occurrences = _columns(("s", "count", "frequency", "mean_r_over_m"), [
        (s, count, count / stats.runs, ratio)
        for s, (count, ratio) in sorted(stats.occurrences.items())])
    return _json({"runs": stats.runs, "ties": stats.ties,
                  "bounds": dict(zip(BOUND_NAMES, _objects(bounds))),
                  "occurrences": _array(_objects(occurrences))}) + "\n"


def trace_json(trace) -> str:
    """Refinement trace format: a JSON array, one object per iteration."""
    return _json([
        {"iter": i, "coefficients": it.coefficients.values,
         "eps_grid": it.table.eps, "max_t_increase": it.max_t_increase}
        for i, it in enumerate(trace.iterations)
    ]) + "\n"


def incremental_csv(steps) -> str:
    return _csv(_columns(_STEP_COLUMNS, steps))


def incremental_json(steps) -> str:
    return _array(_objects(_columns(_STEP_COLUMNS, steps))) + "\n"


def write_output(path: str, text: str) -> None:
    """Write text to the file ``path`` resolves to, with the umask's mode,
    by renaming a flushed temporary sibling over it, so no partial file is
    ever left; a target that is not a regular file, such as /dev/stdout on
    a pipe (which resolves to "pipe:[N]"), is written directly by its path."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".scencert-",
                                        suffix=".tmp")
    except OSError as exc:
        # Name the requested file, not the temporary one's random name.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        os.umask(umask := os.umask(0))  # read the umask, leaving it set
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
