"""The tracer must see every call, whichever binding the caller uses.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import threading

import scencert.cli as cli
from scencert import posterior_bounds
from tracer import MARGIN_CALLS, TARGETS, Tracer


def _ops(tmp_path):
    box = ("--kind", "bounding-box", "--d", "2", "--beta", "1e-6")
    return [
        ["table", "--n", "30", "--m", "8", "--zeta", "4", "--beta", "1e-6",
         "--threads", "2", "--output", str(tmp_path / "grid.csv")],
        ["lower-limit", "--n", "20", "--m", "4", "--zeta", "3", "--beta", "1e-6",
         "--output", str(tmp_path / "limits.csv")],
        ["refine", "--n", "40", "--m", "3", "--zeta", "4", "--beta", "1e-6",
         "--output", str(tmp_path / "trace.json")],
        ["simulate", *box, "--n", "20", "--m", "20", "--runs", "40", "--seed", "3",
         "--threads", "2", "--output", str(tmp_path / "records.csv")],
        ["incremental", *box, "--n", "30", "--m", "10", "--seed", "3"],
    ]


def _run(ops) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in ops:
            assert cli.main(argv) == 0, argv


def _originals():
    codes = {}
    for target in TARGETS:
        module, name = target.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"scencert.{module}"), name)
        codes[fn.__code__] = target
    codes[posterior_bounds._SignEvaluator.margin.__code__] = MARGIN_CALLS
    return codes


@contextlib.contextmanager
def _profile_counts(codes):
    """Count calls by code object with the interpreter's profile hook, an
    independent view that does not depend on how names are bound."""
    counts = dict.fromkeys(codes.values(), 0)
    lock = threading.Lock()

    def hook(frame, event, arg):
        if event == "call":
            target = codes.get(frame.f_code)
            if target is not None:
                with lock:
                    counts[target] += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield counts
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


@contextlib.contextmanager
def _traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_wrapped_counts_match_profile_hook(tmp_path):
    codes = _originals()
    with _traced() as tracer, _profile_counts(codes) as expected:
        _run(_ops(tmp_path))
    summary = tracer.summary()
    for target in TARGETS:
        assert expected[target] > 0, f"{target} is not exercised"
        assert summary[f"{target}.calls"] == expected[target], target
    assert summary[MARGIN_CALLS] == expected[MARGIN_CALLS]
    # Work run on the pools is attributed to the call that submitted it.
    assert summary["posterior_bounds.bound_table.self_s"] >= 0.0
    assert summary["parallel.workers"] == 2


def test_uninstall_restores_every_binding():
    before = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.startswith("scencert")
    }
    with _traced():
        pass
    for name, namespace in before.items():
        assert dict(vars(sys.modules[name])) == namespace, name


def test_traced_counters_repeat(tmp_path):
    counters = []
    for _ in range(2):
        with _traced() as tracer:
            _run(_ops(tmp_path))
        summary = tracer.summary()
        counters.append({k: v for k, v in summary.items() if not k.endswith("self_s")})
    assert counters[0] == counters[1]
