"""The demo scripts run against the current API and exit 0."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import multipack

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# each script runs as a copy in tmp_path, so pentagon_gallery.py's SVGs land
# in tmp_path/out rather than in demos/out
@pytest.mark.parametrize(
    "script", ["plane_solvers.py", "line_families.py", "degree_audit.py", "pentagon_gallery.py"]
)
def test_demo_runs(script, tmp_path):
    src = str(Path(multipack.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    shutil.copy(DEMOS / script, tmp_path / script)
    result = subprocess.run(
        [sys.executable, str(tmp_path / script)],
        cwd=tmp_path, capture_output=True, check=False,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr.decode()
    if script == "pentagon_gallery.py":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["pentagon.svg", "square.svg"]
