"""Benchmark worker: one process that imports ``scencert.cli`` once and then
runs CLI operations in-process, back to back, as the parent asks.

Protocol: the parent writes one JSON request per line on stdin; the worker
answers each with one line on stdout that starts with ``@@``.  Anything
the CLI prints during an operation is captured and sent back in the reply.

    python3 perfbench/worker.py --root <checkout> [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

PREFIX = "@@"


class DeadlineExceeded(BaseException):
    """Raised in the worker's main thread when an operation runs out of
    time; a BaseException so the CLI's own error handlers let it pass."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _openblas_version(numpy) -> str:
    try:
        config = numpy.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    from scencert._parallel import resolve_threads

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(numpy),
        "default_workers": resolve_threads(None),
    }


def _current_cpu() -> int:
    try:
        return ctypes.CDLL(None).sched_getcpu()
    except (OSError, AttributeError):
        return -1


def run_op(cli, argv: list[str], deadline: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status, rc = "ok", None
    first_cpu = _current_cpu()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except Exception:  # an uncaught CLI error is a failed operation, not a dead worker
        status = "crash"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if status == "ok" and rc != 0:
        status = "exit"
    return {
        "status": status,
        "rc": rc,
        "wall": wall,
        "cpu": cpu,
        "rss_mb": _peak_rss_mb(),
        "cpus": [first_cpu, _current_cpu()],  # the CPU the main thread ran on at start, end
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import scencert.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"scencert imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    proto = sys.stdout

    def reply(obj) -> None:
        proto.write(PREFIX + json.dumps(obj) + "\n")
        proto.flush()

    reply({"ready": True, "env": environment()})
    for line in sys.stdin:
        request = json.loads(line)
        kind = request["kind"]
        if kind == "run":
            reply(run_op(cli, request["argv"], request["deadline"]))
        elif kind == "reset":
            tracer.reset()
            reply({"ok": True})
        elif kind == "report":
            import numpy as np

            np.save(request["spans_path"], tracer.spans())
            reply(tracer.summary())
        elif kind == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
