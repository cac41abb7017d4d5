"""Run voltrack's CLI in this process with a timing span around every stage.

usage: python3 perfbench/traced_cli.py [--memory] SPANS_JSON OP_ID -- <voltrack CLI arguments>

A stage is a public function defined in ``voltrack.model``, ``fredholm``,
``riccati`` or ``qp``, plus ``voltrack.cli.main``; the quadrature helper
``model.trapezoid_weights`` is not one (see ``NOT_STAGES``).  Every module attribute
that binds a stage (``cli.simulate``, ``qp.simulate``,
``fredholm.voc_solution``, ...) is replaced by one shared wrapper, so calls
made inside the library are counted as well as the CLI's own.  The import
of voltrack (with numpy and scipy) is the other top-level span.

Spans are kept in memory as (name, start, end, parent, op id, n, peak
bytes) and written to SPANS_JSON when the CLI returns.  ``n`` is the grid
size of the first TimeGrid argument, or -1.  With ``--memory``, tracemalloc
runs inside the top-level ``cli.main`` span and a span's peak bytes are the
largest traced footprint above the one it started with; otherwise they are
0.  tracemalloc about doubles the run time of this code, so the benchmark
takes self times only from runs without it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

import voltrack  # noqa: E402
from voltrack import cli, fredholm, model, qp, riccati  # noqa: E402

_T_IMPORTED = time.perf_counter()

STAGE_MODULES = (model, fredholm, riccati, qp)
# called once per time step (~80k times in one convergence op): a span
# around it would cost ~15 % of the op and its time belongs to the caller
NOT_STAGES = {"trapezoid_weights"}


class Tracer:
    """Span recorder; one per process, owned by :func:`run`."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, traced bytes at start, peak bytes]

    def enter(self, name: str, n: int) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        cur = 0
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], peak)
            tracemalloc.reset_peak()
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, n, 0])
        self.stack.append([len(self.spans) - 1, cur, cur])

    def exit(self) -> None:
        end = time.perf_counter()
        idx, start_bytes, peak = self.stack.pop()
        if tracemalloc.is_tracing():
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], peak)
        span = self.spans[idx]
        span[2] = end
        span[6] = peak - start_bytes

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = next((a.steps for a in args if isinstance(a, model.TimeGrid)), -1)
            self.enter(name, n)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


def _stages() -> dict:
    """Map each stage function to its span name, e.g. ``model.simulate``."""
    stages = {}
    for mod in STAGE_MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and name not in NOT_STAGES
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                stages[obj] = f"{short}.{name}"
    return stages


def install(tracer: Tracer) -> None:
    """Rebind every voltrack module attribute that holds a stage."""
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in _stages().items()}
    for modname, mod in list(sys.modules.items()):
        if modname != "voltrack" and not modname.startswith("voltrack."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def run(spans_path: str, op_id: int, memory: bool, argv: list[str]) -> int:
    tracer = Tracer(op_id)
    tracer.spans.append(["entry.import", _T0, _T_IMPORTED, -1, op_id, -1, 0])
    install(tracer)
    if memory:
        tracemalloc.start()
    tracer.enter("cli.main", -1)
    try:
        code = cli.main(argv)
    finally:
        tracer.exit()
        tracemalloc.stop()
        with open(spans_path, "w") as fh:
            json.dump({"version": voltrack.__version__, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    args = sys.argv[1:]
    memory = args[:1] == ["--memory"]
    args = args[1:] if memory else args
    if len(args) < 3 or args[2] != "--":
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(run(args[0], int(args[1]), memory, args[3:]))
