"""voltrack benchmark: drives the real CLI, one fresh process per operation.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from the root of a voltrack checkout; the CLI is imported from its
``src/``.  The load is a closed loop with one client: this process starts
one CLI child at a time, waits for it to exit (``os.wait4``, which also
gives the child's peak RSS) and checks its outputs before starting the
next.  Operations start until ``--seconds`` have passed; the one in flight
then finishes.  Children get every BLAS/OpenMP thread variable pinned to
``THREADS``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each instance twice, untraced and through
``traced_cli.py`` (alternating which goes first), and prints the
per-layer metrics, computed from the traced children's spans.  The first
instance also runs once under ``traced_cli.py --memory``, which gives the
``peak_mb`` metrics; its tracemalloc overhead keeps it out of every time.
``--smoke`` runs one tiny operation (n ~ 20) per workload in both modes
and checks that every metric of BENCHMARK.json prints with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and the environment record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, instance_rng  # noqa: E402

THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SPAWNS = 7
RUN_DEADLINE_S = 170.0
MB = 1e6

ENTRY = "import sys; from voltrack.cli import main; sys.exit(main())"
ENV_PROBE = """
import json, platform, numpy, scipy, voltrack
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"voltrack_file": voltrack.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

# stage name -> per-layer metric suffixes the benchmark reports for it
LAYER_STAGES = {
    "riccati.di_residual": ("calls", "self_s"),
    "riccati.solve_riccati": ("self_s", "peak_mb", "n_exponent"),
    "riccati.solve_tracking": ("self_s",),
    "riccati.closed_loop": ("self_s",),
    "qp.build_affine_map": ("self_s", "total_s", "n_exponent"),
    "qp.solve_qp": ("self_s",),
    "qp.gradient_check": ("self_s",),
    "model.simulate": ("calls", "self_s"),
    "model.fundamental_matrix": ("calls", "self_s"),
    "model.voc_solution": ("self_s",),
    "fredholm.resolvent": ("calls", "self_s"),
    "fredholm.synthesis_kernels": ("self_s",),
    "fredholm.solve_fredholm": ("calls",),
    "fredholm.build_kernel": ("calls",),
    "cli.main": ("self_s", "peak_mb"),
    "entry.import": ("self_s",),
}
SUFFIX_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "peak_mb": "MB",
                "n_exponent": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


class Bench:
    """One benchmark run in one checkout; owns its scratch directory."""

    def __init__(self, root: Path, tag: str):
        src = root / "src"
        if not (src / "voltrack" / "cli.py").is_file():
            raise BenchError(f"no voltrack source tree at {src}")
        self.src = src
        self.work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        for var in THREAD_VARS:
            self.env[var] = THREADS
        self.started = time.perf_counter()

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, argv: list[str], tag: str) -> dict:
        """Run one child to completion; returns wall time, rusage and output."""
        out_path, err_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        with out_path.open("wb") as out, err_path.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=self.work, env=self.env, stdout=out,
                stderr=err, stdin=subprocess.DEVNULL,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall": wall,
            "rss_mb": usage.ru_maxrss * 1024 / MB,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def environment(self) -> dict:
        res = self.spawn(["-c", ENV_PROBE], "env")
        if res["code"] != 0:
            raise BenchError(f"interpreter probe failed: {res['stderr'][-2000:]}")
        env = json.loads(res["stdout"].splitlines()[-1])
        if not Path(env["voltrack_file"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"voltrack imported from {env['voltrack_file']}, not {self.src}")
        env.pop("voltrack_file")
        env["nproc"] = os.cpu_count()
        env["threads"] = {var: THREADS for var in THREAD_VARS}
        return env

    def setup_times(self, count: int) -> list[float]:
        """Wall times of fresh ``voltrack --help`` children."""
        times = []
        for q in range(count):
            res = self.spawn(["-c", ENTRY, "--help"], f"help{q}")
            if res["code"] != 0 or "usage: voltrack" not in res["stdout"]:
                raise BenchError(f"voltrack --help failed: {res['stderr'][-2000:]}")
            times.append(res["wall"])
        return times

    def operation(self, wl, cfg: dict, i: int, smoke: bool, mode: str) -> dict:
        """Run instance ``i`` once in ``mode`` (plain|spans|memory); check outputs."""
        tag = f"op{i}{mode}"
        cfg_path = self.work / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = self.work / tag
        argv = wl.argv(cfg_path, outdir, smoke)
        spans_path = self.work / f"{tag}.spans.json"
        if mode == "plain":
            argv = ["-c", ENTRY] + argv
        else:
            flags = ["--memory"] if mode == "memory" else []
            argv = [str(HERE / "traced_cli.py")] + flags + [str(spans_path), str(i), "--"] + argv
        res = self.spawn(argv, tag)
        problems = []
        if res["code"] != 0:
            problems.append(f"exit code {res['code']}")
        if "Traceback" in res["stderr"]:
            problems.append("traceback on stderr")
        threeway = None
        if outdir.is_dir():
            found, threeway = wl.check(outdir, res["stdout"], cfg, smoke)
            problems += found
            res["output_bytes"] = sum(f.stat().st_size for f in outdir.iterdir())
        else:
            problems.append("no output directory")
        if mode != "plain":
            if spans_path.is_file():
                res["spans"] = json.loads(spans_path.read_text())["spans"]
            else:
                problems.append("no spans written")
        res["problems"] = problems
        res["threeway"] = threeway
        shutil.rmtree(outdir, ignore_errors=True)
        return res


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[float], ops: list[dict]) -> dict:
    """The bounded end-to-end metrics of BENCHMARK.json."""
    passed = sum(1 for op in ops if not op["problems"])
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_min": _metric(60.0 * passed / sum(op["wall"] for op in ops), "1/min"),
        "peak_rss_mb": _metric(max(op["rss_mb"] for op in ops), "MB"),
    }


def unbounded(ops: list[dict]) -> dict:
    """End-to-end figures printed on every run but reported without a bound.

    op_s_p50 is the median op wall time.  On a 2-core VM whose CPU speed
    drifts by about 15 %, its spread over ten runs reached 0.21 against
    the largest allowed bound of 0.25 (the median of 4-6 ops jumps
    between the host's fast and slow periods); ops_per_min, which
    averages the same walls, is the bounded latency figure.  failed_share
    is 0 on every workload and threeway_rel_max depends on the drawn
    plant, not on speed.
    """
    failed = sum(1 for op in ops if op["problems"])
    three = [op["threeway"] for op in ops if op["threeway"] is not None]
    return {
        "op_s_p50": _metric(statistics.median(op["wall"] for op in ops), "s"),
        "failed_share": _metric(failed / len(ops), "ratio"),
        # 0 when the command reports no three-way discrepancy (synthesize)
        "threeway_rel_max": _metric(max(three) if three else 0.0, "ratio"),
    }


def op_stage_stats(spans: list[list]) -> tuple[dict, float]:
    """Per-stage calls, self time, total time and peak bytes of one op.

    Also ``by_n``: self time per grid size, for the stages that take a
    grid.  Self time is a span's duration minus its children's.  The
    second value is the time the top-level spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for idx, (name, start, end, parent, _op, n, peak) in enumerate(spans):
        s = stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak": 0, "by_n": {}}
        )
        self_s = end - start - child_time[idx]
        s["calls"] += 1
        s["self_s"] += self_s
        s["total_s"] += end - start
        s["peak"] = max(s["peak"], peak)
        if n >= 0:
            s["by_n"][n] = s["by_n"].get(n, 0.0) + self_s
    top_s = sum(end - start for _n, start, end, parent, *_ in spans if parent < 0)
    return stats, top_s


def n_exponent(by_n: dict) -> float:
    """Exponent q of self time ~ n^q between the two largest grid sizes.

    For grids n and 2n this is log2 of the self-time ratio; 0.0 when the
    stage ran on fewer than two sizes in the op.
    """
    sizes = sorted(by_n)
    if len(sizes) < 2 or by_n[sizes[-2]] <= 0:
        return 0.0
    return math.log(by_n[sizes[-1]] / by_n[sizes[-2]]) / math.log(sizes[-1] / sizes[-2])


def per_layer(ops: dict) -> dict:
    """Per-layer metrics from the plain, spans and memory children of a run."""
    untraced, traced = ops["plain"], ops["spans"]
    timed = [(op, *op_stage_stats(op["spans"])) for op in traced if "spans" in op]
    per_op = [st for _op, st, _top in timed]
    per_mem = [op_stage_stats(op["spans"])[0] for op in ops["memory"] if "spans" in op]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak": 0, "by_n": {}}
    metrics = {}
    for stage, suffixes in LAYER_STAGES.items():
        rows = [st.get(stage, empty) for st in per_op]
        for suffix in suffixes:
            if suffix == "calls":
                value = statistics.mean(r["calls"] for r in rows) if rows else 0.0
            elif suffix == "peak_mb":
                value = max((st.get(stage, empty)["peak"] for st in per_mem), default=0) / MB
            elif suffix == "n_exponent":
                value = statistics.median(n_exponent(r["by_n"]) for r in rows) if rows else 0.0
            else:
                value = statistics.median(r[suffix] for r in rows) if rows else 0.0
            metrics[f"{stage}.{suffix}"] = _metric(value, SUFFIX_UNITS[suffix])
    metrics["cli.output_bytes"] = _metric(
        statistics.median(op.get("output_bytes", 0) for op in untraced), "bytes"
    )
    t_walls = [op["wall"] for op in traced]
    u_walls = [op["wall"] for op in untraced]
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(t_walls) / statistics.median(u_walls) - 1.0, "ratio"
    )
    gaps = [1.0 - top_s / op["wall"] for op, _st, top_s in timed]
    metrics["trace.unaccounted_frac"] = _metric(
        statistics.median(gaps) if gaps else 1.0, "ratio"
    )
    metrics.update(unbounded(untraced))
    all_ops = [op for group in ops.values() for op in group]
    metrics["failed_share"] = unbounded(all_ops)["failed_share"]
    return metrics


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_workload(bench: Bench, wl, seed: int, seconds: float, trace: bool, smoke: bool):
    """Closed loop over seeded instances; returns the ops run in each mode."""
    ops: dict = {"plain": [], "spans": [], "memory": []}
    t0 = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - t0 < seconds and not smoke):
        cfg = wl.config(instance_rng(seed, wl.name, i), smoke)
        modes = ("plain",)
        if trace:
            modes = ("plain", "spans") if i % 2 == 0 else ("spans", "plain")
            modes += ("memory",) if i == 0 else ()
        for mode in modes:
            op = bench.operation(wl, cfg, i, smoke, mode)
            ops[mode].append(op)
            for problem in op["problems"][:5]:
                print(f"op {i} {mode}: {problem}", flush=True)
        i += 1
    return ops


def _print_metrics(metrics: dict, counts: dict | None = None) -> None:
    for name, m in metrics.items():
        note = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")


def _result(ops: list[dict], metrics: dict) -> dict:
    failed = sum(1 for op in ops if op["problems"])
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    with Bench(root, workload) as bench:
        env = bench.environment()
        print("env: " + json.dumps(env, sort_keys=True))
        print(f"workload: {wl.name} ({wl.family}; {json.dumps(wl.sizes)})")
        print(f"load: closed loop, 1 client, seed {seed}, {seconds:g} s")
        setup = [] if trace else bench.setup_times(SETUP_SPAWNS)
        ops = run_workload(bench, wl, seed, seconds, trace, smoke=False)
    if trace:
        metrics = per_layer(ops)
        _print_metrics(metrics)
        for stage in ("riccati.solve_riccati", "qp.build_affine_map"):
            q = metrics[f"{stage}.n_exponent"]["value"]
            if q:
                print(f"cost in n: {stage} self time ~ n^{q:.2f} (expected n^3)")
    else:
        metrics = end_to_end(setup, ops["plain"])
        print("setup walls (s): " + " ".join(f"{t:.4f}" for t in setup))
        print("op walls (s): " + " ".join(f"{op['wall']:.4f}" for op in ops["plain"]))
        _print_metrics(metrics, {"setup_s": len(setup)})
        _print_metrics(unbounded(ops["plain"]), {"op_s_p50": len(ops["plain"])})
    return _result([op for group in ops.values() for op in group], metrics)


def smoke(root: Path) -> int:
    """One tiny op per workload in both modes; every metric must print."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing: list[str] = []
    ops: list[dict] = []
    with Bench(root, "smoke") as bench:
        print("env: " + json.dumps(bench.environment(), sort_keys=True))
        setup = bench.setup_times(1)
        for wl in WORKLOADS.values():
            wl_ops = run_workload(bench, wl, 0, 0.0, trace=True, smoke=True)
            metrics = end_to_end(setup, wl_ops["plain"])
            metrics.update(per_layer(wl_ops))
            print(f"[{wl.name}]")
            _print_metrics(metrics)
            ops += [op for group in wl_ops.values() for op in group]
            for name, unit in want.items():
                if metrics.get(name, {}).get("unit") != unit:
                    missing.append(f"{wl.name}: {name} [{unit}]")
    for line in missing:
        print(f"metric missing or wrong unit: {line}")
    result = _result(ops, {})
    result["correct"] = result["correct"] and not missing
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
