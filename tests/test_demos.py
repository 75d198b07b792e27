"""The demo scripts run against the current API and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multipack

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# pentagon_gallery.py is left out: it writes SVGs into demos/out/
@pytest.mark.parametrize("script", ["plane_solvers.py", "line_families.py", "degree_audit.py"])
def test_demo_runs(script, tmp_path):
    src = str(Path(multipack.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, capture_output=True, check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr.decode()
