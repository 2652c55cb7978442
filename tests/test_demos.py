"""The six demos run cleanly and reproduce the tracked demos/output files byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"
TRACKED = sorted(p.name for p in (DEMOS / "output").iterdir())


def test_demos_reproduce_tracked_output(tmp_path):
    demos = tmp_path / "demos"
    demos.mkdir()
    scripts = sorted(DEMOS.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 6
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for script in scripts:
        shutil.copy(script, demos)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", script.name],
            cwd=demos, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), script.name
    written = sorted(p.name for p in (demos / "output").iterdir())
    assert written == TRACKED
    for name in TRACKED:
        assert (demos / "output" / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
