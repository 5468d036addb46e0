"""Span tracing of scencert's layers, installed from outside the package.

The package binds names with ``from .x import y``, so a function has one
binding in its own module and one more in every module that imports it.
``install`` replaces every binding it finds in the loaded ``scencert``
modules, which keeps the counts right whichever binding a caller goes
through.  Span stacks are thread-local because ``bound_table`` and
``run_monte_carlo`` map work over thread pools; the pools are swapped
for a subclass that hands the submitting thread's open span to the
worker thread, so pool work is attributed to the call that caused it.

Spans are held in memory, one flat float array per thread, and folded
into per-function totals only when ``summary`` is called at the end.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "scencert"

# Functions that get a span: "<module>.<function>" under PACKAGE.
TARGETS = (
    "binom_tail.log_sum_exp",
    "binom_tail.log_binom_cdf",
    "classic_bounds.clopper_pearson",
    "posterior_bounds.bound_table",
    "posterior_bounds.solve_root",
    "posterior_bounds.wait_and_judge",
    "lower_limits.lower_limit",
    "lower_limits.z_coefficients",
    "refinement.refine",
    "refinement.build_refinement_lp",
    "simplex.lp_solve",
    "scenario_lab.run_monte_carlo",
    "scenario_lab.solve_scenario",
    "scenario_lab.violation_mask",
    "scenario_lab.incremental_judgement",
    "serialize.write_output",
)

# Counters kept beside the spans (no span of their own).
MARGIN_CALLS = "posterior_bounds.margin.calls"
LP_FAILURES = "simplex.lp_solve.failures"
REFINE_STEPS = "refinement.steps"
BYTES_WRITTEN = "serialize.bytes_written"
WORKERS = "parallel.workers"

_FIELDS = 5  # target index, span id, parent span id (0 = none), start, end


class _ThreadBuffer:
    __slots__ = ("stack", "inherited", "spans", "counts")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.inherited = 0  # span that submitted the pool task running here
        self.spans = array("d")
        self.counts: dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def current(self) -> int:
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.inherited

    def adopt(self, parent: int, fn, *args, **kwargs):
        """Run ``fn`` with ``parent`` as the open span of this thread."""
        buf = self._buffer()
        saved, buf.inherited = buf.inherited, parent
        try:
            return fn(*args, **kwargs)
        finally:
            buf.inherited = saved

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        with self._lock:
            for buf in self._buffers:
                del buf.spans[:]
                buf.counts.clear()

    def span_wrapper(self, index: int, fn, on_return=None, on_raise=None):
        buffer_of = self._buffer
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            buf = buffer_of()
            stack = buf.stack
            parent = stack[-1] if stack else buf.inherited
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_raise is not None:
                    on_raise(buf)
                raise
            finally:
                end = clock()
                stack.pop()
                buf.spans.extend((index, sid, parent, start, end))
            if on_return is not None:
                on_return(buf, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ----------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every target at every module binding of it."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        by_name = {mod.__name__: mod for mod in modules}
        for index, target in enumerate(TARGETS):
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(by_name[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self.span_wrapper(index, original, *_HOOKS.get(target, ()))
            self._rebind(modules, original, wrapper)

        posterior = by_name[f"{PACKAGE}.posterior_bounds"]
        evaluator = posterior._SignEvaluator
        margin = evaluator.margin
        buffer_of = self._buffer

        def counted_margin(ev, t, k, l):
            buffer_of().bump(MARGIN_CALLS)
            return margin(ev, t, k, l)

        self._restore.append((evaluator, "margin", margin))
        evaluator.margin = counted_margin

        resolve = by_name[f"{PACKAGE}._parallel"].resolve_threads

        def recorded_resolve(threads):
            workers = resolve(threads)
            buf = buffer_of()
            buf.counts[WORKERS] = max(buf.counts.get(WORKERS, 0), workers)
            return workers

        self._rebind(modules, resolve, recorded_resolve)

        tracer = self

        class SpanPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        self._rebind(modules, ThreadPoolExecutor, SpanPool)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- folding ---------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All spans as rows (target, span, parent, start, end, thread)."""
        parts = []
        with self._lock:
            for thread, buf in enumerate(self._buffers):
                rows = np.frombuffer(buf.spans, dtype=float).reshape(-1, _FIELDS).copy()
                parts.append(np.column_stack([rows, np.full(len(rows), thread)]))
        if not parts:
            return np.zeros((0, _FIELDS + 1))
        return np.concatenate(parts)

    def counters(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        with self._lock:
            for buf in self._buffers:
                for key, value in buf.counts.items():
                    if key == WORKERS:
                        merged[key] = max(merged.get(key, 0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value
        return merged

    def summary(self) -> dict[str, float]:
        """Calls and self time per target, the edge counts the derived
        metrics need, and the plain counters."""
        rows = self.spans()
        target = rows[:, 0].astype(np.int64)
        sid = rows[:, 1].astype(np.int64)
        parent = rows[:, 2].astype(np.int64)
        start, end, thread = rows[:, 3], rows[:, 4], rows[:, 5]
        duration = end - start

        row_of = np.full(int(sid.max(initial=0)) + 1, -1)
        row_of[sid] = np.arange(len(sid))
        parent_row = row_of[parent]  # -1: no parent, or one recorded before a reset

        # Children on the parent's own thread run one after another inside
        # it, so their durations add up.  Children on pool threads overlap,
        # so their parent is charged with the union of their intervals.
        linked = parent_row >= 0
        same = linked.copy()
        same[linked] = thread[parent_row[linked]] == thread[linked]
        covered = np.bincount(parent_row[same], weights=duration[same], minlength=len(rows))
        for p in np.unique(parent_row[linked & ~same]):
            kids = np.flatnonzero(parent_row == p)
            covered[p] = _union_length(start[kids], end[kids])
        self_time = duration - covered

        out: dict[str, float] = {}
        calls = np.bincount(target, minlength=len(TARGETS))
        self_s = np.bincount(target, weights=self_time, minlength=len(TARGETS))
        for index, name in enumerate(TARGETS):
            out[f"{name}.calls"] = int(calls[index])
            out[f"{name}.self_s"] = float(self_s[index])

        tail = TARGETS.index("binom_tail.log_binom_cdf")
        limit = TARGETS.index("lower_limits.lower_limit")
        tails_in_limits = int(np.sum(
            (target == tail) & linked & (target[parent_row] == limit)
        ))
        counts = self.counters()
        out["lower_limits.log_binom_cdf.calls"] = tails_in_limits
        for key in (MARGIN_CALLS, LP_FAILURES, REFINE_STEPS, BYTES_WRITTEN, WORKERS):
            out[key] = int(counts.get(key, 0))
        return out


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total = 0.0
    reach = -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def _count_failure(buf: _ThreadBuffer) -> None:
    buf.bump(LP_FAILURES)


def _count_steps(buf, args, kwargs, trace) -> None:
    buf.bump(REFINE_STEPS, len(trace.iterations) - 1)


def _count_bytes(buf, args, kwargs, result) -> None:
    text = kwargs["text"] if "text" in kwargs else args[1]
    buf.bump(BYTES_WRITTEN, len(text.encode("utf-8")))


# target -> (on_return, on_raise)
_HOOKS = {
    "simplex.lp_solve": (None, _count_failure),
    "refinement.refine": (_count_steps, None),
    "serialize.write_output": (_count_bytes, None),
}
