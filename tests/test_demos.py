"""Smoke test: the demo scripts and the README's quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "01_memory_dynamics.py",
        "02_fredholm_costate.py",
        "03_riccati_feedback.py",
        "04_three_routes.py",
        "05_state_space_operators.py",
        "README.md",
    ],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if script == "README.md":  # the library quick start, its one python block
        text = (ROOT / script).read_text()
        (block,) = [part.split("```")[0] for part in text.split("```python\n")[1:]]
        argv = [sys.executable, "-c", block]
    else:
        argv = [sys.executable, str(ROOT / "demos" / script)]
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
