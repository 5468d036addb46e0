"""Every script under demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    # The warning rule of the CI step that runs the CLI at its size caps.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
