"""Batch front end: config-driven runs of the three synthesis routes.

Subcommands: simulate | synthesize | compare | convergence | verify.
Each route has one builder returning a record of its optimal pair, its
cost and the artifacts the reports read; `compare` and `verify` read one
cross-check record of all three, and `convergence` shares its report helpers.
Configs are JSON (nested key/value sections, matrices as row-major
lists); outputs are tab-delimited text with one header line and 17
significant digits, so identical configs give byte-identical files.
Exit codes: 0 success, 2 invalid input (the message names the field),
3 numerical failure (blow-up, singular solve, failed verify).
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import fredholm, qp, riccati
from .errors import BlowUpError, ConfigurationError, SingularSystemError
from .model import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    StateTrajectory,
    SystemSpec,
    TimeGrid,
    cost,
    exponential_kernel,
    extend_state,
    fundamental_matrix,
    simulate,
    voc_solution,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_FMT = "%.17g"
_CHUNK_ROWS = 20000  # rows formatted per write, so no whole-file string is built


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _require(cfg: dict, path: str):
    """The entry of section ``cfg`` named by the last component of ``path``.

    ``path`` is the field's full name (``dims.m``, ``kernel.terms[1].rate``),
    so a missing field is reported with the section it sits in.
    """
    key = path.rsplit(".", 1)[-1]
    if key not in cfg:
        raise ConfigurationError(f"config field '{path}' is missing")
    return cfg[key]


def _finite(arr: np.ndarray, key: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"field '{key}': values must be finite, not NaN or Infinity")
    return arr


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(raw, key: str) -> int:
    """An integer field; integral floats such as 100.0 are accepted."""
    if not _is_number(raw) or not float(raw).is_integer():
        raise ConfigurationError(f"field '{key}': expected an integer, got {raw!r}")
    return int(raw)


def _steps(raw, key: str) -> int:
    """A grid size: an integer of at least 2, and small enough that numpy can
    index the (steps + 1)^2 doubles of a node-pair field such as P1."""
    steps = _integer(raw, key)
    if steps < 2:
        raise ConfigurationError(f"field '{key}': grid needs at least 2 steps, got {steps}")
    if 8 * (steps + 1) ** 2 > np.iinfo(np.intp).max:
        raise ConfigurationError(f"field '{key}': grid too large for memory, got {steps} steps")
    return steps


def _positive(raw, key: str) -> float:
    if not _is_number(raw) or not 0 < raw < math.inf:
        raise ConfigurationError(f"field '{key}': must be a finite number > 0, got {raw!r}")
    return float(raw)


def _numbers(raw, key: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ConfigurationError(f"field '{key}': expected a flat list of numbers")
    for v in raw:
        if not _is_number(v):
            raise ConfigurationError(f"field '{key}': expected numbers, got {v!r}")
    return _finite(np.asarray(raw, dtype=float), key)


def _section(raw, key: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"field '{key}': expected an object, got {type(raw).__name__}")
    return raw


def _matrix(cfg: dict, key: str, rows: int, cols: int) -> np.ndarray:
    arr = _numbers(_require(cfg, key), key)
    if arr.size != rows * cols:
        raise ConfigurationError(
            f"field '{key}': expected {rows * cols} numbers (row-major {rows}x{cols}), "
            f"got {arr.size}"
        )
    return arr.reshape(rows, cols)


def _poly_values(coeffs, t: np.ndarray, channels: int, key: str) -> np.ndarray:
    """``channels`` polynomials on the nodes ``t``; one that overflows is refused."""
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigurationError(
            f"field '{key}': expected per-channel coefficient lists, got {coeffs!r}"
        )
    if len(coeffs) != channels:
        raise ConfigurationError(
            f"field '{key}': expected {channels} channel lists, got {len(coeffs)}"
        )
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):  # _finite names the field
        for ch in coeffs:
            acc = np.zeros_like(t)
            for q, c in enumerate(_numbers(ch, key)):
                acc += c * t**q
            cols.append(acc)
    return _finite(np.stack(cols, axis=1), key)


def _signal(spec, key: str, t, channels: int, kinds=("zero", "polynomial", "table")):
    """A signal of one of ``kinds`` with ``channels`` channels on the nodes ``t``.
    ``spec`` None is zero, so a caller that refuses null checks ``_section`` first."""
    kind = "zero" if spec is None else _section(spec, key).get("type", "zero")
    if kind not in kinds:
        raise ConfigurationError(
            f"field '{key}.type': expected one of {'|'.join(kinds)}, got {kind!r}"
        )
    if kind == "zero":
        return np.zeros((t.size, channels))
    if kind == "polynomial":
        coeffs = f"{key}.coefficients"
        return _poly_values(_require(spec, coeffs), t, channels, coeffs)
    table, rows = f"{key}.values", t.size
    raw = _require(spec, table)
    if not isinstance(raw, list) or len(raw) != rows or any(
        not isinstance(row, list) or len(row) != channels for row in raw
    ):
        raise ConfigurationError(
            f"field '{table}': expected a {rows}x{channels} node table of numbers"
        )
    return _numbers([v for row in raw for v in row], table).reshape(rows, channels)


class Instance:
    """A fully built run: grid, plant, signals, initial state, options."""

    def __init__(self, cfg: dict, n_override: int | None):
        dims = _section(_require(cfg, "dims"), "dims")
        self.d, self.m, self.p = dmp = [
            _integer(_require(dims, f"dims.{k}"), f"dims.{k}") for k in "dmp"
        ]
        for k, v in zip("dmp", dmp):
            if v < 1:
                raise ConfigurationError(f"field 'dims.{k}': must be positive, got {v}")
        if n_override is None:
            steps = _steps(_require(cfg, "steps"), "steps")
        else:
            steps = _steps(n_override, "--n")
        self.grid = TimeGrid(_positive(_require(cfg, "horizon"), "horizon"), steps)
        A = _matrix(cfg, "A", self.d, self.d)
        B = _matrix(cfg, "B", self.d, self.m)
        C = _matrix(cfg, "C", self.p, self.d)
        self.sys = SystemSpec(A, B, C, self._kernel(cfg), self.grid)
        self.reference = ReferenceSignal(
            _signal(cfg.get("reference"), "reference", self.grid.nodes, self.p)
        )
        self.state = self._initial_state(cfg.get("initial_state"), cfg, n_override is not None)
        self.cfg = cfg
        tol = _section(cfg.get("tolerances", {}), "tolerances")
        self.blowup = _positive(tol.get("blowup", 1e8), "tolerances.blowup")
        self.threeway_tol = _positive(tol.get("threeway", 5e-2), "tolerances.threeway")

    def _kernel(self, cfg: dict) -> np.ndarray:
        spec = _section(cfg.get("kernel", {"type": "zero"}), "kernel")
        if spec.get("type") == "exponential":
            raw_terms = _require(spec, "kernel.terms")
            if not isinstance(raw_terms, list) or not raw_terms:
                raise ConfigurationError(
                    "field 'kernel.terms': expected a non-empty list of objects, "
                    f"got {raw_terms!r}"
                )
            terms = []
            for q, term in enumerate(raw_terms):
                key = f"kernel.terms[{q}]"
                G = _matrix(_section(term, key), f"{key}.matrix", self.d, self.d)
                rate = _require(term, f"{key}.rate")
                if not _is_number(rate) or not 0 <= rate < math.inf:
                    raise ConfigurationError(
                        f"field '{key}.rate': must be a finite number >= 0"
                    )
                terms.append((G, rate))
            return exponential_kernel(self.grid, terms)
        kinds = ("zero", "exponential", "table")
        flat = _signal(spec, "kernel", self.grid.nodes, self.d * self.d, kinds)
        return flat.reshape(-1, self.d, self.d)

    def _initial_state(self, spec, cfg: dict, regrid: bool) -> InitialState:
        if spec is None:
            return InitialState(0, np.zeros(self.d))
        _section(spec, "initial_state")
        key, n = "initial_state.tau_index", self.grid.steps
        k = _integer(spec.get("tau_index", 0), key)
        # tau is a time: a grid size not from `steps` keeps it, at node k n / steps
        steps = _steps(_require(cfg, "steps"), "steps") if regrid and k > 0 else n
        if not 0 <= k < steps:
            raise ConfigurationError(f"field '{key}': must lie in 0..{steps - 1}, got {k}")
        if k * n % steps:
            raise ConfigurationError(
                f"field '{key}': node {k} of {steps} steps lies between nodes of {n}, "
                f"at {k * n / steps:g}"
            )
        k = k * n // steps
        head = _numbers(_require(spec, "initial_state.head"), "initial_state.head")
        if head.shape != (self.d,):
            raise ConfigurationError(
                f"field 'initial_state.head': expected {self.d} entries, got {head.tolist()!r}"
            )
        tail = _signal(spec.get("tail"), "initial_state.tail", self.grid.nodes[: k + 1], self.d)
        # a one-node tail has quadrature weight 0; checked, then dropped
        return InitialState(k, head, tail if k else None)

    def control(self) -> ControlSignal:
        spec = _section(self.cfg.get("control", {"type": "zero"}), "control")
        k = self.state.tau_index
        values = _signal(spec, "control", self.grid.nodes[k:], self.m, ("zero", "table"))
        return ControlSignal(k, values)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be an object")
    return cfg


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_rows(path: Path, header: list[str], rows) -> None:
    rows = np.asarray(rows, dtype=float)
    line = "\t".join([_FMT] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start : start + _CHUNK_ROWS].tolist()
            fh.write("".join(line % tuple(row) for row in chunk))


def _write_trajectory(path: Path, inst: Instance, w, u: ControlSignal) -> None:
    k = u.start_index
    header = (
        ["t"]
        + [f"w_{i+1}" for i in range(inst.d)]
        + [f"u_{i+1}" for i in range(inst.m)]
    )
    ufull = np.zeros((inst.grid.steps + 1, inst.m))
    ufull[k:] = u.values
    rows = np.column_stack([inst.grid.nodes, w.values, ufull])
    _write_rows(path, header, rows)


def _write_control(path: Path, inst: Instance, u: ControlSignal) -> None:
    header = ["t"] + [f"u_{i+1}" for i in range(inst.m)]
    rows = np.column_stack([inst.grid.nodes[u.start_index :], u.values])
    _write_rows(path, header, rows)


def _write_long_field(path: Path, nodes, field: np.ndarray, name: str) -> None:
    """Lower-triangular field in long format: s, tau, indices, value.

    Rows run over tau, then s <= tau, then the entry indices (row-major);
    ``field[i, j]`` is the entry array at (s_i, tau_j).  One tau column is
    formatted and written at a time, so memory stays at one column's text.
    """
    entry = field.shape[2:]
    node_txt = [_FMT % t for t in nodes.tolist()]
    index_txt = ["".join("\t" + _FMT % (k + 1.0) for k in idx) for idx in np.ndindex(entry)]
    with open(path, "w") as fh:
        fh.write("\t".join(["s", "tau", "i", "j"][: 2 + len(entry)] + [name]) + "\n")
        for j in range(field.shape[1]):
            ends = ["\t" + node_txt[j] + idx + "\t" + _FMT + "\n" for idx in index_txt]
            fmt = "".join(s + end for s in node_txt[: j + 1] for end in ends)
            fh.write(fmt % tuple(field[: j + 1, j].reshape(-1).tolist()))


def _check_finite(arr: np.ndarray, limit: float, what: str) -> None:
    if not np.all(np.isfinite(arr)) or np.abs(arr).max() > limit:
        raise BlowUpError(f"{what} exceeded the blow-up bound {limit:g}")


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def _record(inst: Instance, u: ControlSignal, w: StateTrajectory, **artifacts):
    """One route's optimal pair (u, w), its cost J, and the artifacts reports read."""
    J = cost(inst.sys, w, u, inst.reference)
    return SimpleNamespace(u=u, w=w, J=J, **artifacts)


def _costate(inst: Instance):
    """The Nystrom costate; it carries its kernel and reference, the kernel its Z."""
    kernel = fredholm.build_kernel(fundamental_matrix(inst.sys), inst.state.tau_index)
    return fredholm.solve_fredholm(kernel, inst.state, inst.reference)


def _route_fredholm(inst: Instance):
    p = _costate(inst)
    u = fredholm.optimal_control_fredholm(p)
    # report the plant response to the synthesized control so costs are
    # comparable across routes on the shared integrator
    w = simulate(inst.sys, inst.state, u)
    return _record(inst, u, w, p=p)


def _route_riccati(inst: Instance):
    ric = riccati.solve_riccati(inst.sys, blowup_limit=inst.blowup)
    trk = riccati.solve_tracking(ric, inst.reference)
    u, w = riccati.closed_loop(trk, inst.state)
    return _record(inst, u, w, trk=trk)  # trk carries its Riccati field


def _route_oracle(inst: Instance):
    dmap = qp.build_affine_map(inst.sys, inst.state)
    u = qp.solve_qp(dmap, inst.reference)
    w = simulate(inst.sys, inst.state, u)
    return _record(inst, u, w, dmap=dmap)


_ROUTES = {"fredholm": _route_fredholm, "riccati": _route_riccati, "oracle": _route_oracle}


def _route(flag: str | None, cfg: dict) -> str:
    """The synthesis route from --route, else the config's route."""
    route = flag or cfg.get("route")
    if route is None:
        raise ConfigurationError("field 'route': missing; pass --route or set it in the config")
    if not isinstance(route, str) or route not in _ROUTES:
        raise ConfigurationError(
            f"field 'route': expected one of {'|'.join(_ROUTES)}, got {route!r}"
        )
    return route


def _check_cross_start(inst: Instance) -> None:
    """Refuse a start too late for the commands that cross-check the routes."""
    if inst.state.tau_index > inst.grid.steps - 2:  # the DI stencil needs 3 nodes in [tau, T]
        raise ConfigurationError(
            "field 'initial_state.tau_index': compare and verify need a start node of at "
            f"most {inst.grid.steps - 2} of {inst.grid.steps} steps, got {inst.state.tau_index}"
        )


def _ladder(cfg: dict, grids: list[int]) -> list[tuple[Instance, ControlSignal]]:
    """The instance and control of every convergence grid."""
    return [(inst, inst.control()) for inst in (Instance(cfg, n) for n in grids)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _discrepancies(inst: Instance, controls: dict) -> list[tuple[str, float]]:
    """Relative L2 distance between the controls of each pair of routes."""
    w = inst.grid.weights(inst.state.tau_index)
    out = []
    for a, b in (("fredholm", "riccati"), ("fredholm", "oracle"), ("riccati", "oracle")):
        ua, ub = controls[a].values, controls[b].values
        num = math.sqrt(float(w @ ((ua - ub) ** 2).sum(axis=1)))
        den = math.sqrt(float(w @ (ub**2).sum(axis=1)))
        out.append((f"{a}_{b}", num / den if den > 0 else num))
    return out


def _final_conditions(fred, ricc, res) -> list[tuple[str, float]]:
    """Largest entry at T of every field whose final condition is exactly zero."""
    ric, trk, kt = ricc.trk.ric, ricc.trk, fred.p.kernel.ktilde
    return [
        ("P0(T) = 0", float(np.abs(ric.p0[-1]).max())),
        ("P1(.,T) = 0", float(np.abs(ric.p1[:, -1]).max())),
        ("d1(T) = 0", float(np.abs(trk.d1[-1]).max())),
        ("d2(.,T) = 0", float(np.abs(trk.d2[:, -1]).max())),
        ("M(T) = 0", abs(float(trk.m[-1]))),
        ("p(T) = 0", float(np.abs(fred.p.values[-1]).max())),
        ("K(T,.) = 0", float(np.abs(kt[-1]).max())),
        ("K(.,T) = 0", float(np.abs(kt[:, -1]).max())),
        ("R(T,.) = 0", float(np.abs(res.values[-1]).max())),
        ("R(.,T) = 0", float(np.abs(res.values[:, -1]).max())),
    ]


def _cross_check(inst: Instance) -> SimpleNamespace:
    """What `compare` and `verify` both read: the ``routes`` dict of one record
    per route, keyed as `_ROUTES`, the window-0 resolvent ``res``, the
    value ``W`` at the initial state and its relative ``gap`` to the Riccati
    cost, the DI report ``di`` of the Riccati pair, the pairwise control
    ``discrepancies`` and the ``final`` conditions."""
    recs = {name: build(inst) for name, build in _ROUTES.items()}
    fred, ricc = recs["fredholm"], recs["riccati"]
    res = fredholm.resolvent(fred.p.kernel)
    W = riccati.value_function(ricc.trk, inst.state)
    return SimpleNamespace(
        routes=recs,
        res=res,
        W=W,
        gap=abs(W - ricc.J) / (1.0 + abs(W)),
        di=riccati.di_residual(ricc.trk, ricc.w, ricc.u),
        discrepancies=_discrepancies(inst, {name: rec.u for name, rec in recs.items()}),
        final=_final_conditions(fred, ricc, res),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_simulate(inst: Instance, u: ControlSignal, outdir: Path) -> int:
    w = simulate(inst.sys, inst.state, u)
    _check_finite(w.values, inst.blowup, "trajectory")
    _write_trajectory(outdir / "trajectory.tsv", inst, w, u)
    return EXIT_OK


def run_synthesize(inst: Instance, route: str, outdir: Path) -> int:
    rec = _ROUTES[route](inst)
    _check_finite(rec.w.values, inst.blowup, "trajectory")
    _write_control(outdir / "control.tsv", inst, rec.u)
    _write_trajectory(outdir / "trajectory.tsv", inst, rec.w, rec.u)
    (outdir / "cost.txt").write_text((_FMT % rec.J) + "\n")
    if route == "riccati":
        ric, trk, nodes, d = rec.trk.ric, rec.trk, inst.grid.nodes, inst.d
        p0_cols = [f"p0_{a+1}{b+1}" for a in range(d) for b in range(d)]
        for name, cols, vals in (
            ("p0", p0_cols, ric.p0.reshape(-1, d * d)),
            ("d1", [f"d1_{a+1}" for a in range(d)], trk.d1),
            ("m", ["m"], trk.m),
        ):
            _write_rows(outdir / f"{name}.tsv", ["t"] + cols, np.column_stack([nodes, vals]))
        _write_long_field(outdir / "p1.tsv", nodes, ric.p1, "p1")
        _write_long_field(outdir / "d2.tsv", nodes, trk.d2, "d2")
    return EXIT_OK


def run_compare(inst: Instance, outdir: Path) -> int:
    cc = _cross_check(inst)
    values = [(f"cost_{name}", rec.J) for name, rec in cc.routes.items()]
    values += [("value_function", cc.W), ("value_vs_cost_rel", cc.gap)]
    values += [(f"discrepancy_{pair}", val) for pair, val in cc.discrepancies]
    values += [("di_slack_min", cc.di.min_slack), ("di_slack_max", cc.di.max_slack)]
    lines = ["tracking synthesis comparison report", ""]
    lines += [f"{name}\t" + _FMT % val for name, val in values]
    lines.append("")
    for name, val in cc.final:
        status = "pass" if val == 0.0 else "FAIL"
        lines.append(f"check\t{name}\t{status}\t" + _FMT % val)
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    bad = [name for name, val in values + cc.final if not math.isfinite(val)]
    if bad:
        print(f"numerical failure: not finite in the report: {', '.join(bad)}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run_convergence(ladder: list[tuple[Instance, ControlSignal]], outdir: Path) -> int:
    rows = []
    for inst, u in ladder:
        # only Z and the controls are read, so the Fredholm and oracle routes
        # skip the simulate run that gives their trajectory and cost
        p = _costate(inst)
        Z, controls = p.kernel.Z, {"fredholm": fredholm.optimal_control_fredholm(p)}
        del p  # the kernel goes before the Riccati sweep
        controls["riccati"] = _route_riccati(inst).u
        dmap = qp.build_affine_map(inst.sys, inst.state)
        controls["oracle"] = qp.solve_qp(dmap, inst.reference)
        three = max(val for _, val in _discrepancies(inst, controls))
        ws = simulate(inst.sys, inst.state, u)
        wv = voc_solution(Z, inst.state, u)
        voc_err = float(np.abs(ws.values - wv.values).max())
        rows.append([float(inst.grid.steps), inst.grid.h, three, math.nan, voc_err, math.nan])
    for q in range(1, len(rows)):
        ratio = math.log(rows[q][0] / rows[q - 1][0])
        for col in (2, 4):  # observed order of each error column, written next to it
            if rows[q][col] > 0:
                rows[q][col + 1] = math.log(rows[q - 1][col] / rows[q][col]) / ratio
    header = ["n", "h", "err_threeway", "order_threeway", "err_sim_voc", "order_sim_voc"]
    _write_rows(outdir / "convergence.tsv", header, rows)
    # an order is NaN where it is undefined; an error column must be finite
    bad = ", ".join(header[col] for col in (2, 4) if not all(math.isfinite(r[col]) for r in rows))
    if bad:
        print(f"numerical failure: not finite in the convergence table: {bad}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def run_verify(inst: Instance, outdir: Path) -> int:
    """Twelve checks as (name, value, bound) rows; a row passes when value <= bound."""
    grid, k = inst.grid, inst.state.tau_index
    cc = _cross_check(inst)
    fred, ricc, orac = (cc.routes[name] for name in ("fredholm", "riccati", "oracle"))
    ric, trk, kt = ricc.trk.ric, ricc.trk, fred.p.kernel.ktilde
    uF, uR, wR, jO = fred.u, ricc.u, ricc.w, orac.J
    kern = fredholm.synthesis_kernels(cc.res)
    uQH, _ = fredholm.apply_synthesis(kern, inst.state, inst.reference)
    # ten perturbed controls, drawn in turn, stepped and checked as one batch
    rng = np.random.default_rng(20260810)
    du = np.stack([0.5 * rng.standard_normal(uR.values.shape) for _ in range(10)], axis=-1)
    up = ControlSignal(k, uR.values[..., None] + du)
    perturbed = riccati.di_residual(trk, simulate(inst.sys, inst.state, up), up)
    mid = (k + grid.steps) // 2
    u2, _ = riccati.closed_loop(trk, extend_state(wR, mid))
    norms = fredholm.resolvent_norms(cc.res)
    sym = max(float(np.abs(ric.p0[j] - ric.p0[j].T).max()) for j in range(grid.steps + 1))
    den = max(float(np.abs(uF.values).max()), 1e-30)
    grad = qp.gradient_check(orac.dmap, inst.reference, orac.u, 1e-5)
    rows = [
        ("final_conditions_zero", max(v for _, v in cc.final), 0.0),
        ("kernel_symmetry", float(np.abs(kt - np.transpose(kt, (1, 0, 3, 2))).max()), 1e-10),
        ("p0_symmetry", sym, 1e-12),
        ("qh_route_matches_costate", float(np.abs(uQH.values - uF.values).max()) / den, 1e-8),
        ("threeway_agreement", max(v for _, v in cc.discrepancies), inst.threeway_tol),
        ("value_vs_cost", cc.gap, 1e-2),
        ("qp_gradient", grad, 1e-6 * (1.0 + abs(jO))),
        ("qp_discrete_optimality", max(jO - fred.J, jO - ricc.J), 1e-12 * (1.0 + abs(jO))),
        ("di_optimal_slack", max(cc.di.max_slack, -cc.di.min_slack), 5.0 * grid.h),
        ("di_perturbed_direction", max(0.0, -perturbed.min_slack), 1e-8),
        ("restart_reproducibility", float(np.abs(u2.values - uR.values[mid - k :]).max()), 1e-8),
        ("resolvent_uniform_bound", max(norms) / max(norms[0], 1e-30), 2.0),
    ]
    text = "".join(
        f"{'PASS' if value <= bound else 'FAIL'}\t{name}\t" + _FMT % value + "\n"
        for name, value, bound in rows
    )
    print(text, end="")
    (outdir / "verify.txt").write_text(text)
    return EXIT_OK if all(value <= bound for _, value, bound in rows) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _flag_number(text: str):
    """A number typed on the command line, or the text itself if it is none."""
    try:
        return float(text)
    except ValueError:
        return text


def _grid_sizes(flag: str | None, cfg: dict) -> list[int]:
    """Convergence grid sizes from ``--grids`` or the config's ``grids``: two or more,
    none repeated."""
    if flag is not None:
        key, raw = "--grids", [_flag_number(v) for v in flag.split(",") if v]
    else:
        key, raw = "grids", cfg.get("grids", [])
        if not isinstance(raw, list):
            raise ConfigurationError("field 'grids': expected a list of integers")
    grids = [_steps(v, key) for v in raw]
    if len(grids) < 2:
        raise ConfigurationError(
            f"field '{key}': convergence needs at least two grid sizes, got {grids}"
        )
    if len(set(grids)) != len(grids):
        raise ConfigurationError(f"field '{key}': grid sizes must not repeat, got {grids}")
    return grids


def _output_dir(flag: str | None, cfg: dict) -> tuple[str, Path]:
    """The directory from --out, else the config's output_dir, with the field's name."""
    if flag is not None:
        return "--out", Path(flag)
    raw = cfg.get("output_dir", ".")
    if not isinstance(raw, str):
        raise ConfigurationError(f"field 'output_dir': expected a path, got {raw!r}")
    return "output_dir", Path(raw)


def _created(key: str, outdir: Path) -> Path:
    """``outdir``, made if missing; a failure names the field ``key``."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"field '{key}': cannot create directory: {exc}") from exc
    return outdir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltrack",
        description="Quadratic tracking for linear plants with persistent memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "synthesize", "compare", "convergence", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON instance config")
        sp.add_argument("--out", default=None, help="output directory")
        if name != "convergence":  # its grid sizes come from --grids or grids
            sp.add_argument("--n", type=int, default=None, help="override grid steps")
        if name == "synthesize":
            sp.add_argument("--route", choices=tuple(_ROUTES))
        if name == "convergence":
            sp.add_argument(
                "--grids", default=None, help="comma-separated list of grid sizes"
            )
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "convergence":
        size_key = "--grids" if args.grids is not None else "grids"
    else:
        size_key = "--n" if args.n is not None else "steps"
    try:
        cfg = _load_config(args.config)
        out_key, outdir = _output_dir(args.out, cfg)
        # the whole config is validated before the output directory is made
        if args.command == "convergence":
            run = partial(run_convergence, _ladder(cfg, _grid_sizes(args.grids, cfg)))
        else:
            inst = Instance(cfg, args.n)
            if args.command == "simulate":
                run = partial(run_simulate, inst, inst.control())
            elif args.command == "synthesize":
                run = partial(run_synthesize, inst, _route(args.route, cfg))
            else:
                _check_cross_start(inst)
                run = partial(run_compare if args.command == "compare" else run_verify, inst)
        return run(_created(out_key, outdir))
    # LinAlgError subclasses ValueError, so it must be caught first
    except (BlowUpError, SingularSystemError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: field '{size_key}': grid too large for memory: {exc}", file=_sys.stderr)
        return EXIT_INVALID


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # shown warnings wait for the exit code: one that is not 0 has its one
    # message line only; an "error" filter still raises at the source
    with warnings.catch_warnings(record=True) as caught:
        code = _run(args)
    if code == EXIT_OK:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
