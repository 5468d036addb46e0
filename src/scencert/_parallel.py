"""Validation of the ``--threads`` flag of the ``table``, ``refine`` and
``simulate`` subcommands.  The flag is a no-op: all work runs in the
calling thread, because the cells and runs are pure Python that holds the
interpreter lock, so a pool only added overhead.  The CLI still checks a
given value once, so that bad values are rejected."""

from __future__ import annotations

import os

_MAX_DEFAULT_WORKERS = 32


def resolve_threads(threads: int | None) -> int:
    """Map a user-supplied cap (None = all available) to a worker count."""
    if threads is None:
        return min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS)
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads
