"""Regenerate the stored reference outputs in perfbench/reference/.

    python3 perfbench/make_references.py

Runs the reference operations of the ``grid``, ``limits`` and ``audit``
workloads once, in-process, at the default seed.  Only rerun it when a
change is meant to alter the certificates beyond the checks' tolerances.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import scencert.cli as cli  # noqa: E402
from checks import REFERENCE, _table, simulate_digest  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(op, out: Path) -> str:
    argv = [a.replace("{out}", str(out)).replace("{seed}", str(DEFAULT_SEED)) for a in op.argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{op.name} exited with {rc}")
    return stdout.getvalue()


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    work_dir = HERE.parent / ".perfbench-out"
    work_dir.mkdir(exist_ok=True)
    out = work_dir / "reference.tmp"
    grid, = WORKLOADS["grid"]
    run(grid, out)
    (REFERENCE / "grid.csv.gz").write_bytes(gzip.compress(out.read_bytes(), mtime=0))
    limits, = WORKLOADS["limits"]
    run(limits, out)
    (REFERENCE / "limits.csv").write_bytes(out.read_bytes())
    simulate, incremental = WORKLOADS["audit"]
    run(simulate, out)
    digest = simulate_digest(_table(out.read_text()))
    (REFERENCE / f"simulate-seed{DEFAULT_SEED}.json").write_text(json.dumps(digest, indent=1) + "\n")
    (REFERENCE / f"incremental-seed{DEFAULT_SEED}.csv").write_text(run(incremental, out))
    out.unlink()


if __name__ == "__main__":
    main()
