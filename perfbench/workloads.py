"""Seeded instance generators and output checks for the three workloads.

Every workload draws its plants from one family: an exponential memory
kernel, a cubic polynomial reference and the scaling of the test suite's
tracking instance (A ~ 0.6 N(0,1), G ~ 0.8 N(0,1), B and C ~ N(0,1)).
Instance ``i`` of a run is drawn from its own stream keyed by
(seed, workload, i), so a seed fixes every input and no instance is ever
filtered or re-drawn by outcome.  Configs omit ``checkpoint_every`` and
leave it to the CLI's default.

A workload is a :class:`Workload`: ``config`` builds the JSON config of
instance ``i``, ``argv`` the CLI arguments, and ``check`` inspects one
finished operation and returns (problems, threeway) where ``problems``
lists every failed output check and ``threeway`` is the largest pairwise
relative-L2 control discrepancy the command reported (None when the
command reports none).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HORIZON = 1.0
THREEWAY_TOL = 5e-2


def _normal(rng: random.Random, count: int, scale: float) -> list[float]:
    return [scale * rng.gauss(0.0, 1.0) for _ in range(count)]


def _cubic(rng: random.Random, channels: int, scale: float) -> list[list[float]]:
    return [_normal(rng, 4, scale) for _ in range(channels)]


def _poly_at(coeffs: list[float], t: float) -> float:
    return sum(c * t**q for q, c in enumerate(coeffs))


def plant_config(
    rng: random.Random, d: int, m: int, p: int, steps: int, tau_index: int, jump: bool
) -> dict:
    """One generated instance of the benchmark's plant family.

    With ``tau_index > 0`` the state carries a cubic polynomial history;
    its head equals the history's junction value unless ``jump`` is set,
    in which case the head is drawn independently of the history.
    """
    cfg = {
        "dims": {"d": d, "m": m, "p": p},
        "horizon": HORIZON,
        "steps": steps,
        "A": _normal(rng, d * d, 0.6),
        "B": _normal(rng, d * m, 1.0),
        "C": _normal(rng, p * d, 1.0),
        "kernel": {
            "type": "exponential",
            "terms": [{"matrix": _normal(rng, d * d, 0.8), "rate": 1.0}],
        },
        "reference": {"type": "polynomial", "coefficients": _cubic(rng, p, 0.5)},
        "control": {"type": "zero"},
        "tolerances": {"blowup": 1e8, "threeway": THREEWAY_TOL},
    }
    if tau_index == 0:
        cfg["initial_state"] = {"tau_index": 0, "head": _normal(rng, d, 1.0)}
        return cfg
    tail = _cubic(rng, d, 0.5)
    t_tau = tau_index * HORIZON / steps
    junction = [_poly_at(c, t_tau) for c in tail]
    head = _normal(rng, d, 1.0) if jump else junction
    cfg["initial_state"] = {
        "tau_index": tau_index,
        "head": head,
        "tail": {"type": "polynomial", "coefficients": tail},
    }
    return cfg


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _data_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split("\t") for line in lines[1:]]


def _count_data_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return fh.read().count(b"\n") - 1


def _tail_rows(path: Path, count: int) -> list[list[str]]:
    """The last ``count`` data rows of a TSV file, without splitting the rest."""
    lines = path.read_text().rstrip("\n").rsplit("\n", count)[1:]
    return [line.split("\t") for line in lines]


def check_verify(outdir: Path, stdout: str):
    problems = []
    report = outdir / "verify.txt"
    if not report.is_file():
        return ["verify.txt missing"], None
    file_lines = report.read_text().splitlines()
    out_lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not file_lines:
        problems.append("verify.txt has no verdict lines")
    if out_lines != file_lines:
        problems.append("stdout verdicts differ from verify.txt")
    threeway = None
    for line in file_lines:
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] != "PASS":
            problems.append(f"verdict not PASS: {line}")
        elif fields[1] == "threeway_agreement":
            threeway = float(fields[2])
    if threeway is None:
        problems.append("no threeway_agreement verdict")
    return problems, threeway


def check_convergence(outdir: Path, cfg: dict, grids: list[int]):
    table = outdir / "convergence.tsv"
    if not table.is_file():
        return ["convergence.tsv missing"], None
    rows = _data_rows(table)
    if [int(float(r[0])) for r in rows] != grids:
        return [f"expected one row per grid {grids}, got {len(rows)} rows"], None
    problems = []
    err_three = [float(r[2]) for r in rows]
    err_voc = [float(r[4]) for r in rows]
    if not all(math.isfinite(e) for e in err_three + err_voc):
        problems.append("non-finite error in convergence table")
    tol = cfg["tolerances"]["threeway"]
    if not err_three[-1] <= tol:
        problems.append(f"finest err_threeway {err_three[-1]:g} above tolerance {tol:g}")
    if not err_three[-1] < err_three[0]:
        problems.append("err_threeway did not shrink from the coarsest grid")
    return problems, err_three[-1]


SYNTH_FILES = ("control.tsv", "trajectory.tsv", "cost.txt", "p0.tsv", "d1.tsv", "m.tsv",
               "p1.tsv", "d2.tsv")


def check_synthesize(outdir: Path, cfg: dict):
    missing = [f for f in SYNTH_FILES if not (outdir / f).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"], None
    n, d = cfg["steps"], cfg["dims"]["d"]
    k = cfg["initial_state"]["tau_index"]
    tri = (n + 1) * (n + 2) // 2
    expected = {
        "control.tsv": n + 1 - k,
        "trajectory.tsv": n + 1,
        "p0.tsv": n + 1,
        "d1.tsv": n + 1,
        "m.tsv": n + 1,
        "p1.tsv": tri * d * d,
        "d2.tsv": tri * d,
    }
    problems = []
    for name, rows in expected.items():
        got = _count_data_rows(outdir / name)
        if got != rows:
            problems.append(f"{name}: {got} rows, expected {rows}")
    if problems:
        return problems, None
    t_final = float(_tail_rows(outdir / "p0.tsv", 1)[0][0])
    for name in ("p0.tsv", "d1.tsv", "m.tsv"):
        last = _tail_rows(outdir / name, 1)[0]
        if any(float(v) != 0.0 for v in last[1:]):
            problems.append(f"{name}: final-node row is not exactly 0")
    # long-format fields are written column by column in tau, so the
    # tau = T column is the last (n+1)*d*d (p1) or (n+1)*d (d2) rows
    for name, block in (("p1.tsv", (n + 1) * d * d), ("d2.tsv", (n + 1) * d)):
        for row in _tail_rows(outdir / name, block):
            if float(row[1]) != t_final or float(row[-1]) != 0.0:
                problems.append(f"{name}: tau=T rows are not exactly 0")
                break
    J = float((outdir / "cost.txt").read_text())
    if not (math.isfinite(J) and J >= 0.0):
        problems.append(f"cost {J!r} is not finite and >= 0")
    return problems, None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    sizes: dict
    config: Callable[[random.Random, bool], dict]
    argv: Callable[[Path, Path, bool], list[str]]
    check: Callable[[Path, str, dict, bool], tuple]


# smoke mode shrinks every workload to n ~ 20
def _grids(smoke: bool) -> list[int]:
    return [10, 20, 40] if smoke else [60, 120, 240]


def _verify_config(rng: random.Random, smoke: bool) -> dict:
    n = 20 if smoke else 120
    return plant_config(rng, 2, 1, 1, n, n // 5, jump=False)


def _ladder_config(rng: random.Random, smoke: bool) -> dict:
    return plant_config(rng, 2, 1, 1, _grids(smoke)[0], 0, jump=False)


def _synth_config(rng: random.Random, smoke: bool) -> dict:
    n = 20 if smoke else 240
    return plant_config(rng, 3, 2, 2, n, n // 4, jump=False)


HISTORY = "exponential kernel, cubic reference, cubic polynomial history, head = history(tau)"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify_history",
            family=HISTORY,
            sizes={"d": 2, "m": 1, "p": 1, "n": 120, "tau_index": 24},
            config=_verify_config,
            argv=lambda cfg, out, smoke: ["verify", "--config", str(cfg), "--out", str(out)],
            check=lambda out, stdout, cfg, smoke: check_verify(out, stdout),
        ),
        Workload(
            name="refine_ladder",
            family="exponential kernel, cubic reference, tau = 0",
            sizes={"d": 2, "m": 1, "p": 1, "grids": _grids(False), "tau_index": 0},
            config=_ladder_config,
            argv=lambda cfg, out, smoke: [
                "convergence", "--config", str(cfg), "--out", str(out),
                "--grids", ",".join(str(g) for g in _grids(smoke)),
            ],
            check=lambda out, stdout, cfg, smoke: check_convergence(out, cfg, _grids(smoke)),
        ),
        Workload(
            name="synth_fields",
            family=HISTORY,
            sizes={"d": 3, "m": 2, "p": 2, "n": 240, "tau_index": 60},
            config=_synth_config,
            argv=lambda cfg, out, smoke: [
                "synthesize", "--route", "riccati", "--config", str(cfg), "--out", str(out)
            ],
            check=lambda out, stdout, cfg, smoke: check_synthesize(out, cfg),
        ),
    )
}


def instance_rng(seed: int, workload: str, index: int) -> random.Random:
    """The independent stream of instance ``index`` of a run."""
    return random.Random(f"voltrack-perfbench:{seed}:{workload}:{index}")
