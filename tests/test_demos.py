"""Each demo script runs to completion against the current API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("wavelets", "whitenoise_rates", "histogram_posterior", "logdensity_mcmc")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"demo_{demo}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
