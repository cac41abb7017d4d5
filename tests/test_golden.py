"""Golden digests of every CLI command's output.

Each command runs on four configs: the demo config, a copy that starts
at node 20 from a polynomial history whose value at tau equals the head,
a d=1 zero-kernel, zero-reference config whose fields are all +-0, and a
d=1, m=2, p=2 config with a node-table kernel and reference, drawn as
``conftest.seeded_plant`` draws them, on which a changed d=1 contraction
order in the Riccati sweeps shows.
The SHA-256 digest of every output file, of stdout and of stderr, and the
exit code, are compared with the digests recorded for this numpy and
BLAS stack in ``golden_digests.json``; on any other stack the test skips
and names the versions.  The ``demos/`` entries under the same key are the
demo scripts' stdout digests, which ``test_demos.py`` checks and records.
No output depends on scipy, which voltrack does not import.

All runs share one subprocess, which pins BLAS threads to 1.  Run this
file as a script to print the digests, or with ``--record`` to store them
for the current stack:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
DEMO = HERE.parent / "demos" / "configs" / "tracking.json"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configs() -> dict:
    demo = json.loads(DEMO.read_text())
    history = copy.deepcopy(demo)
    # value at tau = 20/100 = 0.2 is (1, 0), the head: no jump at tau
    history["initial_state"] = {
        "tau_index": 20,
        "head": [1.0, 0.0],
        "tail": {"type": "polynomial", "coefficients": [[0.6, 1.5, 2.5], [0.3, -2.0, 2.5]]},
    }
    scalar = {
        "dims": {"d": 1, "m": 1, "p": 1},
        "horizon": 1.0,
        "steps": 40,
        "A": [-0.5],
        "B": [1.0],
        "C": [1.0],
        "kernel": {"type": "zero"},
        "reference": {"type": "zero"},
        "initial_state": {"tau_index": 0, "head": [1.0]},
    }
    from conftest import seeded_plant  # here, so numpy loads after the thread pins

    _, plant, y = seeded_plant(1, 2, 40, seed=5, table=True)
    table = {
        "dims": {"d": 1, "m": 2, "p": 2},
        "horizon": 1.0,
        "steps": 40,
        "A": plant.A.ravel().tolist(),
        "B": plant.B.ravel().tolist(),
        "C": plant.C.ravel().tolist(),
        "kernel": {"type": "table", "values": plant.N.reshape(-1, 1).tolist()},
        "reference": {"type": "table", "values": y.values.tolist()},
        "initial_state": {"tau_index": 0, "head": [1.0]},
    }
    return {"demo": demo, "history": history, "scalar": scalar, "table": table}


def commands(name: str) -> dict:
    runs = {
        "simulate": ["simulate"],
        "synthesize_fredholm": ["synthesize", "--route", "fredholm"],
        "synthesize_riccati": ["synthesize", "--route", "riccati"],
        "synthesize_oracle": ["synthesize", "--route", "oracle"],
        "compare": ["compare"],
        "verify": ["verify"],
    }
    # convergence refuses a history start, since each grid would start at its own
    # tau, and a node table, which is sampled on one grid only
    if name not in ("history", "table"):
        runs["convergence"] = ["convergence", "--grids", "50,100,200"]
    return runs


def stack() -> str:
    """The numpy and BLAS versions the digests depend on."""
    import numpy as np

    try:  # older numpy has no dict form
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        blas = "BLAS unknown"
    return f"numpy {np.__version__} ({blas})"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all() -> dict:
    from voltrack.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            for run, argv in commands(name).items():
                outdir = Path(tmp) / name / run
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv + ["--config", str(path), "--out", str(outdir)])
                files = sorted(outdir.iterdir()) if outdir.is_dir() else []
                out[f"{name}/{run}"] = {
                    "exit": code,
                    "stdout": digest(stdout.getvalue().encode()),
                    "stderr": digest(stderr.getvalue().encode()),
                    "files": {f.name: digest(f.read_bytes()) for f in files},
                }
    return out


def test_cli_outputs_match_recorded_digests():
    src = str(HERE.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    recorded = json.loads(DIGESTS.read_text())
    if got["stack"] not in recorded:
        pytest.skip(f"no digests recorded for {got['stack']}")
    # the demos' stdout digests share the stack key; test_demos.py checks them
    want = {run: v for run, v in recorded[got["stack"]].items() if not run.startswith("demos/")}
    assert sorted(got["runs"]) == sorted(want)
    changed = differing(got["runs"], want)
    assert not changed, "outputs differ from the recorded digests: " + ", ".join(changed)


def differing(got: dict, want: dict) -> list[str]:
    """'run part' for each run's exit code, stdout, stderr or output file
    whose digest differs from ``want``, or that only one side has."""
    out = []
    for run in sorted(want):
        have, rec = got[run], want[run]
        out += [f"{run} {key}" for key in ("exit", "stdout", "stderr") if have[key] != rec[key]]
        names = sorted(set(have["files"]) | set(rec["files"]))
        out += [f"{run} {f}" for f in names if have["files"].get(f) != rec["files"].get(f)]
    return out


if __name__ == "__main__":
    os.environ.update({var: "1" for var in THREADS})  # before numpy loads BLAS
    result = {"stack": stack(), "runs": run_all()}
    if sys.argv[1:] == ["--record"]:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        old = recorded.get(result["stack"], {})
        demos = {run: v for run, v in old.items() if run.startswith("demos/")}
        recorded[result["stack"]] = {**demos, **result["runs"]}
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(result))
