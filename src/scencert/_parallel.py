"""Validation of the ``--threads`` cap taken by the table, refinement and
Monte Carlo drivers.  All work runs in the calling thread: the cells and
runs are pure Python that holds the interpreter lock, so a pool only added
overhead.  The cap is still checked so that bad values are rejected, and
results never depend on it."""

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
