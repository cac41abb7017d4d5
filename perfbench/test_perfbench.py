"""Tests of the benchmark itself; kept out of the library's test suite.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import WORKLOADS, instance_rng, plant_config  # noqa: E402


def _run_cli(argv: list[str]) -> int:
    from voltrack import cli

    return cli.main(argv)


def test_smoke_prints_every_metric_with_its_unit():
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_history", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_instances_follow_the_seed():
    for wl in WORKLOADS.values():
        a = wl.config(instance_rng(3, wl.name, 1), False)
        b = wl.config(instance_rng(3, wl.name, 1), False)
        c = wl.config(instance_rng(4, wl.name, 1), False)
        assert a == b and a != c
        assert "checkpoint_every" not in a


def test_history_head_meets_the_polynomial_history():
    cfg = plant_config(instance_rng(0, "t", 0), 2, 1, 1, 40, 8, jump=False)
    state = cfg["initial_state"]
    t = 8 / 40
    for coeffs, head in zip(state["tail"]["coefficients"], state["head"]):
        assert head == pytest.approx(sum(c * t**q for q, c in enumerate(coeffs)))


def test_synthesize_check_catches_a_nonzero_final_condition(tmp_path):
    cfg = plant_config(instance_rng(0, "t", 0), 2, 1, 1, 12, 3, jump=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert _run_cli(["synthesize", "--route", "riccati", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert workloads.check_synthesize(out, cfg) == ([], None)
    p1 = out / "p1.tsv"
    lines = p1.read_text().splitlines()
    lines[-1] = "\t".join(lines[-1].split("\t")[:-1] + ["1e-300"])
    p1.write_text("\n".join(lines) + "\n")
    problems, _ = workloads.check_synthesize(out, cfg)
    assert problems == ["p1.tsv: tau=T rows are not exactly 0"]


def test_verify_check_rejects_a_fail_verdict(tmp_path):
    (tmp_path / "verify.txt").write_text("PASS\tthreeway_agreement\t0.01\nFAIL\tx\t1\n")
    problems, three = workloads.check_verify(
        tmp_path, "PASS\tthreeway_agreement\t0.01\nFAIL\tx\t1\n"
    )
    assert three == 0.01
    assert problems == ["verdict not PASS: FAIL\tx\t1"]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: verify fails restart_reproducibility when the head is drawn "
    "independently of the history, so verify_history uses head = history(tau)",
)
def test_verify_passes_with_a_jump_history(tmp_path):
    cfg = plant_config(instance_rng(1, "verify_history", 0), 2, 1, 1, 60, 12, jump=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert _run_cli(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
