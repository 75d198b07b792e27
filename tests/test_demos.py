"""The demo scripts and the README's library quickstart run against the current API."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# each script runs as a copy in tmp_path, so pentagon_gallery.py's SVGs land
# in tmp_path/out rather than in demos/out
@pytest.mark.parametrize(
    "script", ["plane_solvers.py", "line_families.py", "degree_audit.py", "pentagon_gallery.py"]
)
def test_demo_runs(script, tmp_path):
    shutil.copy(DEMOS / script, tmp_path / script)
    result = subprocess.run(
        [sys.executable, str(tmp_path / script)],
        cwd=tmp_path, capture_output=True, check=False, env=child_env(),
    )
    assert result.returncode == 0, result.stderr.decode()
    if script == "pentagon_gallery.py":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["pentagon.svg", "square.svg"]


def test_readme_quickstart_prints_its_commented_outputs(capsys):
    readme = (DEMOS.parent / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    commented = [(out, line.partition("#")[2].strip()) for out, line in zip(printed, prints) if "#" in line]
    assert commented == [("2 (0, 3)", "2 (0, 3)"), ("2", "2")]
