"""Memory-Riccati feedback synthesis and the value function.

The value of the tracking problem from state (head, tail) at time tau is

    W = <head, P0(tau) head> + 2 <head, int P1(s,tau) tail(s) ds>
        + int int <tail(s), P2(s,v,tau) tail(v)> dv ds
        + 2 <head, d1(tau)> + 2 int <tail(s), d2(s,tau)> ds + M(tau)

where (P0, P1, P2) solve a coupled backward system generalizing the
Riccati differential equation to plants with memory, and (d1, d2, M)
solve linear backward equations driven by the reference signal.  The
optimal control is the feedback

    u(tau) = -B* [ P0(tau) head + int_0^tau P1(s,tau) tail(s) ds + d1(tau) ].

The backward sweep is an explicit one-step scheme with a Heun
(predictor-corrector) pass, second order in h.  Only the current
P2 slice is kept while sweeping; slices are checkpointed every
``checkpoint_every`` steps and any other slice is rebuilt by a partial
re-sweep from the nearest checkpoint (the P2 update telescopes to a
trapezoid sum over stored P1 columns, so the rebuild is bit-identical
to the original sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .model import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    StateTrajectory,
    SystemSpec,
    TimeGrid,
    _node_derivative,
    _tail_forcing,
    trapezoid_weights,
)

__all__ = [
    "RiccatiField",
    "TrackingField",
    "DIReport",
    "solve_riccati",
    "solve_tracking",
    "feedback_control",
    "closed_loop",
    "value_function",
    "di_residual",
]


@dataclass(frozen=True)
class RiccatiField:
    """Backward-swept coefficients P0, P1 and checkpointed P2 slices.

    ``p0[j]`` is P0(tau_j); ``p1[i, j]`` is P1(s_i, tau_j) for i <= j
    (zero above the diagonal); ``checkpoints[j]`` holds the P2 slice at
    tau_j as a (j+1, j+1, d, d) array with entries P2(s_i, nu_l, tau_j).
    """

    sys: SystemSpec = field(repr=False)
    grid: TimeGrid
    p0: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)
    checkpoints: dict = field(repr=False)
    checkpoint_every: int

    def _g2(self, q: int, size: int) -> np.ndarray:
        """Slice derivative source at tau_q on the leading (size)^2 block.

        G2(s_i, nu_l, tau_q) = N*(tau_q - s_i) P1(nu_l, tau_q)
                               + P1*(s_i, tau_q) N(tau_q - nu_l)
                               - P1*(s_i, tau_q) BB* P1(nu_l, tau_q).
        """
        p1col = self.p1[:size, q]
        nrev = self.sys.N[q::-1][:size]
        bbt = self.sys.B @ self.sys.B.T
        t1 = np.einsum("iba,lbc->ilac", nrev, p1col)
        t2 = np.einsum("iba,lbc->ilac", p1col, nrev)
        t3 = np.einsum("iba,bc,lcd->ilad", p1col, bbt, p1col, optimize=True)
        return t1 + t2 - t3

    def p2_slice(self, j: int) -> np.ndarray:
        """P2 slice at node j, from a checkpoint or a partial re-sweep."""
        if j in self.checkpoints:
            return self.checkpoints[j]
        above = [c for c in self.checkpoints if c > j]
        if not above:
            raise ConfigurationError(f"node {j} outside the swept range")
        jc = min(above)
        h = self.grid.h
        S = self.checkpoints[jc][: j + 1, : j + 1].copy()
        for q in range(jc - 1, j - 1, -1):
            S += 0.5 * h * (self._g2(q + 1, j + 1) + self._g2(q, j + 1))
        return S

    def iter_p2_slices(self, start: int, stop: int):
        """Yield (j, slice) from node ``start`` down to ``stop`` inclusive.

        Stored checkpoints are yielded as-is; gaps between them are
        filled by the same trapezoid accumulation the sweep used, so
        every yielded slice matches the sweep bit for bit.  Treat the
        yielded arrays as read-only.
        """
        h = self.grid.h
        S = self.p2_slice(start)
        yield start, S
        for q in range(start - 1, stop - 1, -1):
            if q in self.checkpoints:
                S = self.checkpoints[q]
            else:
                blk = q + 1
                S = S[:blk, :blk] + 0.5 * h * (self._g2(q + 1, blk) + self._g2(q, blk))
            yield q, S


@dataclass(frozen=True)
class TrackingField:
    """Reference-driven coefficients d1, d2 and the scalar M.

    ``d1[j]`` is d1(tau_j), ``d2[i, j]`` is d2(s_i, tau_j) for i <= j,
    ``m[j]`` is M(tau_j).  All vanish identically when y = 0.
    """

    grid: TimeGrid
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DIReport:
    """Dissipation-inequality diagnostics along one trajectory.

    ``slack[i]`` is the running cost over [tau, t_i] plus the value at
    the node-i state minus the value at the initial state; the
    inequality direction is slack >= 0, with equality (up to O(h))
    exactly along the optimal pair.  ``pointwise[i]`` is the residual of
    the differential identity (running integrand plus the derivative of
    the node values), near zero only along the optimal pair.
    """

    start_index: int
    slack: np.ndarray
    pointwise: np.ndarray

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    @property
    def max_slack(self) -> float:
        return float(self.slack.max())

    @property
    def max_pointwise(self) -> float:
        return float(np.abs(self.pointwise).max())


def solve_riccati(
    sys: SystemSpec,
    grid: TimeGrid,
    checkpoint_every: int = 10,
    blowup_limit: float = 1e8,
) -> RiccatiField:
    """Backward sweep of the memory-Riccati system from tau = T.

    Final conditions P0(T) = 0, P1(., T) = 0, P2(., ., T) = 0 hold
    exactly; P0 is symmetrized after every step.  A node norm above
    ``blowup_limit`` aborts with :class:`BlowUpError`.
    """
    sys.check_grid(grid)
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint spacing must be >= 1")
    n, d, h = grid.steps, sys.d, grid.h
    A, N = sys.A, sys.N
    bbt = sys.B @ sys.B.T
    cc = sys.C.T @ sys.C
    p0 = np.zeros((n + 1, d, d))
    p1 = np.zeros((n + 1, n + 1, d, d))
    S = np.zeros((n + 1, n + 1, d, d))
    field_obj = RiccatiField(sys, grid, p0, p1, {}, checkpoint_every)
    field_obj.checkpoints[n] = np.zeros((n + 1, n + 1, d, d))

    def g0(P0c, trace):
        return A.T @ P0c + P0c @ A + trace + trace.T - P0c @ bbt @ P0c + cc

    def g1(P0c, p1col, nrev, s_row):
        # A* P1 + P0 N(tau-s) + P2(tau, s, tau) - P0 BB* P1, rows s = 0..size-1
        return (
            np.einsum("ab,ibc->iac", A.T, p1col)
            + np.einsum("ab,ibc->iac", P0c, nrev)
            + s_row
            - np.einsum("ab,bc,icd->iad", P0c, bbt, p1col, optimize=True)
        )

    for j in range(n - 1, -1, -1):
        p0c = p0[j + 1]
        p1c = p1[: j + 1, j + 1]  # rows s_0..s_j at tau_{j+1}
        nrev_c = N[j + 1 : 0 : -1][: j + 1]  # N(tau_{j+1} - s_i), i = 0..j
        trace_c = p1[j + 1, j + 1]
        g0c = g0(p0c, trace_c)
        g1c = g1(p0c, p1c, nrev_c, S[j + 1, : j + 1])
        g2c = field_obj._g2(j + 1, j + 1)

        # Euler predictor at tau_j
        p0p = p0c + h * g0c
        p1p = p1c + h * g1c
        trace_p = p1p[j]
        nrev_n = N[j::-1][: j + 1]
        s_row_p = S[j, : j + 1] + h * g2c[j, : j + 1]
        g0p = g0(p0p, trace_p)
        g1p = g1(p0p, p1p, nrev_n, s_row_p)

        # corrector
        new_p0 = p0c + 0.5 * h * (g0c + g0p)
        p0[j] = 0.5 * (new_p0 + new_p0.T)
        p1[: j + 1, j] = p1c + 0.5 * h * (g1c + g1p)
        g2f = field_obj._g2(j, j + 1)
        S[: j + 1, : j + 1] += 0.5 * h * (g2c[: j + 1, : j + 1] + g2f)

        nrm = max(np.abs(p0[j]).max(), np.abs(p1[: j + 1, j]).max())
        if not np.isfinite(nrm) or nrm > blowup_limit:
            raise BlowUpError(
                f"Riccati sweep exceeded node-norm bound {blowup_limit:g} at node {j}",
                node_index=j,
            )
        if j % checkpoint_every == 0:
            field_obj.checkpoints[j] = S[: j + 1, : j + 1].copy()
    return field_obj


def solve_tracking(
    sys: SystemSpec, grid: TimeGrid, ric: RiccatiField, y: ReferenceSignal
) -> TrackingField:
    """Backward sweep of the reference-driven equations for d1, d2, M."""
    sys.check_grid(grid)
    if ric.grid != grid:
        raise ConfigurationError("Riccati field was solved on a different grid")
    n, d, h = grid.steps, sys.d, grid.h
    A, N = sys.A, sys.N
    bbt = sys.B @ sys.B.T
    yv = y.values
    if yv.shape != (n + 1, sys.p):
        raise ConfigurationError("reference signal not sampled on this grid")
    cy = yv @ sys.C  # C* y(tau), row form
    d1 = np.zeros((n + 1, d))
    d2 = np.zeros((n + 1, n + 1, d))
    m = np.zeros(n + 1)

    def g1(q, vec, d2_diag):  # d1 source at tau_q
        return (A.T - ric.p0[q] @ bbt) @ vec + d2_diag - cy[q]

    def g2(q, vec, size):  # d2 source at tau_q, rows s_0..s_{size-1}
        return np.einsum("iba,b->ia", N[q::-1][:size], vec) - np.einsum(
            "iba,bc,c->ia", ric.p1[:size, q], bbt, vec, optimize=True
        )

    def mdot(vec, j):
        bd = sys.B.T @ vec
        return float(bd @ bd - yv[j] @ yv[j])

    for j in range(n - 1, -1, -1):
        d1c = d1[j + 1]
        g1c = g1(j + 1, d1c, d2[j + 1, j + 1])
        g2c = g2(j + 1, d1c, j + 1)
        d1p = d1c + h * g1c
        g1p = g1(j, d1p, d2[j, j + 1] + h * g2c[j])
        d1[j] = d1c + 0.5 * h * (g1c + g1p)
        d2[: j + 1, j] = d2[: j + 1, j + 1] + 0.5 * h * (g2c + g2(j, d1[j], j + 1))
        m[j] = m[j + 1] - 0.5 * h * (mdot(d1c, j + 1) + mdot(d1[j], j))
    return TrackingField(grid, d1, d2, m)


def feedback_control(
    ric: RiccatiField, trk: TrackingField, tau_index: int, xi: InitialState
) -> np.ndarray:
    """Feedback value u(tau) = -B*[P0 head + int P1(s,tau) tail(s) ds + d1]."""
    if xi.tau_index != tau_index:
        raise ConfigurationError("state node differs from the requested node")
    k = tau_index
    wt = trapezoid_weights(k + 1, ric.grid.h)
    hist = np.einsum("iab,ib,i->a", ric.p1[: k + 1, k], xi.tail, wt)
    return -ric.sys.B.T @ (ric.p0[k] @ xi.head + hist + trk.d1[k])


def closed_loop(
    sys: SystemSpec,
    grid: TimeGrid,
    ric: RiccatiField,
    trk: TrackingField,
    xi0: InitialState,
) -> tuple[ControlSignal, StateTrajectory]:
    """Simulate the plant forward under the running feedback law.

    At every node the control equals the feedback evaluated on the
    running history, with the new node solved implicitly together with
    the state update (one (d+m) x (d+m) solve per step), so restarting
    from any mid-run state reproduces the tail of the pair node for
    node.
    """
    sys.check_grid(grid)
    k, n, d, mdim, h = xi0.tau_index, grid.steps, sys.d, sys.m, grid.h
    A, B, N = sys.A, sys.B, sys.N
    w = np.zeros((n + 1, d))
    w[:k] = xi0.tail[:k]
    w[k] = xi0.head
    u = np.zeros((n + 1 - k, mdim))
    u[0] = feedback_control(ric, trk, k, xi0)
    f = _tail_forcing(sys, xi0, grid)
    wt_tail = trapezoid_weights(k + 1, h)
    # tail contribution to the feedback history, per future node
    tail_hist = np.einsum(
        "qiab,ib,i->qa", ric.p1[: k + 1, k:].transpose(1, 0, 2, 3), xi0.tail, wt_tail
    )
    step_lhs = np.zeros((d + mdim, d + mdim))
    step_lhs[:d, :d] = np.eye(d) - 0.5 * h * A - 0.25 * h * h * N[0]
    step_lhs[:d, d:] = -0.5 * h * B
    step_lhs[d:, d:] = np.eye(mdim)
    rhs = np.zeros(d + mdim)
    f_prev = A @ w[k] + f[0] + B @ u[0]
    for i in range(k, n):
        wts = trapezoid_weights(i + 2 - k, h)[: i + 1 - k]
        mem = np.einsum("jab,jb,j->a", N[i + 1 - k : 0 : -1], w[k : i + 1], wts)
        hist = tail_hist[i + 1 - k] + np.einsum(
            "jab,jb,j->a", ric.p1[k : i + 1, i + 1], w[k : i + 1], wts
        )
        step_lhs[d:, :d] = B.T @ (ric.p0[i + 1] + 0.5 * h * ric.p1[i + 1, i + 1])
        rhs[:d] = w[i] + 0.5 * h * (f_prev + mem + f[i + 1 - k])
        rhs[d:] = -B.T @ (hist + trk.d1[i + 1])
        sol = np.linalg.solve(step_lhs, rhs)
        w[i + 1] = sol[:d]
        u[i + 1 - k] = sol[d:]
        f_prev = (
            A @ w[i + 1]
            + mem
            + 0.5 * h * (N[0] @ w[i + 1])
            + B @ u[i + 1 - k]
            + f[i + 1 - k]
        )
    return ControlSignal(k, u), StateTrajectory(k, w)


def _value_form(
    ric: RiccatiField, trk: TrackingField, j: int, head: np.ndarray, tail: np.ndarray, S
) -> float:
    """The quadratic value form at node j for the state (head, tail) and P2 slice S."""
    wt = trapezoid_weights(j + 1, ric.grid.h)
    p1_tail = np.einsum("iab,ib,i->a", ric.p1[: j + 1, j], tail, wt)
    quad2 = np.einsum("i,ia,ilab,lb,l->", wt, tail, S, tail, wt, optimize=True)
    d2_tail = np.einsum("i,ia,ia->", wt, tail, trk.d2[: j + 1, j])
    return (
        head @ (ric.p0[j] @ head)
        + 2.0 * head @ p1_tail
        + quad2
        + 2.0 * head @ trk.d1[j]
        + 2.0 * d2_tail
        + trk.m[j]
    )


def value_function(
    ric: RiccatiField, trk: TrackingField, tau_index: int, omega: InitialState
) -> float:
    """Evaluate the quadratic value form at the state ``omega``."""
    if omega.tau_index != tau_index:
        raise ConfigurationError("state node differs from the requested node")
    k = tau_index
    return float(_value_form(ric, trk, k, omega.head, omega.tail, ric.p2_slice(k)))


def di_residual(
    sys: SystemSpec,
    grid: TimeGrid,
    ric: RiccatiField,
    trk: TrackingField,
    w: StateTrajectory,
    u: ControlSignal,
    y: ReferenceSignal,
) -> DIReport:
    """Dissipation diagnostics for an admissible pair (w, u).

    Evaluates the value function at the running state of every node
    (one backward pass over P2 slices) and reports the integral slack
    and the pointwise differential residual; see :class:`DIReport`.
    """
    k, n, h = u.start_index, grid.steps, grid.h
    nk = n - k + 1
    res = w.values[k:] @ sys.C.T - y.values[k:]
    g = (res * res).sum(axis=1) + (u.values * u.values).sum(axis=1)
    run = np.zeros(nk)
    run[1:] = np.cumsum(0.5 * h * (g[:-1] + g[1:]))
    vals = np.zeros(nk)
    for j, S in ric.iter_p2_slices(n, k):
        vals[j - k] = _value_form(ric, trk, j, w.values[j], w.values[: j + 1], S)
    slack = run + vals - vals[0]
    return DIReport(k, slack, g + _node_derivative(vals, h))
