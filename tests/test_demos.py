"""Smoke test: the demo scripts and the README's quick start run to completion,
and each demo prints the bytes recorded for this numpy and BLAS stack.

The demos' stdout digests sit in ``golden_digests.json`` next to the CLI
digests, under the same stack key, as ``demos/<script>``; on a stack with
none recorded the digest test skips.  BLAS threads are pinned to 1, as
for the CLI digests.  Record them for the current stack with

    PYTHONPATH=src python tests/test_demos.py --record
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import DIGESTS, THREADS, digest, stack

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_memory_dynamics.py",
    "02_fredholm_costate.py",
    "03_riccati_feedback.py",
    "04_three_routes.py",
    "05_state_space_operators.py",
]


@functools.cache
def run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **{var: "1" for var in THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if script == "README.md":  # the library quick start, its one python block
        text = (ROOT / script).read_text()
        (block,) = [part.split("```")[0] for part in text.split("```python\n")[1:]]
        argv = [sys.executable, "-c", block]
    else:
        argv = [sys.executable, str(ROOT / "demos" / script)]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script", DEMOS + ["README.md"])
def test_demo_runs(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script", DEMOS)
def test_demo_prints_recorded_bytes(script):
    recorded = json.loads(DIGESTS.read_text()).get(stack(), {})
    if f"demos/{script}" not in recorded:
        pytest.skip(f"no demo digests recorded for {stack()}")
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
    assert digest(proc.stdout.encode()) == recorded[f"demos/{script}"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    recorded = json.loads(DIGESTS.read_text())
    runs = recorded.setdefault(stack(), {})
    for script in DEMOS:
        proc = run(script)
        assert proc.returncode == 0, proc.stderr
        runs[f"demos/{script}"] = digest(proc.stdout.encode())
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
