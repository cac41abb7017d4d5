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
(predictor-corrector) pass, second order in h.  P2 is never stored:
P2(T) = 0 and its tau-derivative G2 depends on N and P1 alone, so a
slice is the trapezoid sum over tau_q >= tau of G2(., ., tau_q).  The
sweep reads only the two P2 rows its P1 update needs.  Step j sums the
row s = tau_j over q = j+1..n as two GEMMs, one per right factor,
P1(nu_l, tau_q) or N(tau_q - nu_l), so no G2 block is formed; the
predictor and corrector add the columns q = j+1 and q = j.  The value
form contracts P2 against a tail through x_q = int N(tau_q - s) tail(s)
ds and z_q = int P1(s, tau_q) tail(s) ds.  P1 is stored once,
tau-major, and the field's ``p1`` is a view of it.  Costs in n:
``solve_riccati`` O(n^3 d^3) time (see its notes) and O(n^2 d^2)
memory, ``di_residual`` O(n^2 d^2), ``value_function`` O(n (n-k) d^2).
The plant carries the grid its kernel is sampled on, and everything
after the sweeps reads the plant from the solved :class:`RiccatiField`,
the field and reference from the :class:`TrackingField`, and the node
tau from the state it is given.

Two costs outside the arithmetic are kept out of the sweeps.  The
three-factor contractions besides the P2 rows run in numpy's greedy
einsum order, written out as the matmul calls einsum itself would make,
so no step runs einsum's parser or planner: (P0 BB*) P1, and P1* (BB*
d1) or for a one-row product at d = 1 (P1* BB*) d1.  And the kernel
block each P2 row's second GEMM reads is copied into one workspace:
a block that grows every step would be mmap'd afresh each time, which
in a new process (every CLI run) cost ~12k page faults at n = 240,
d = 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, ConfigurationError
from .model import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    StateTrajectory,
    SystemSpec,
    _check_pair,
    _check_state,
    _columns,
    _history,
    _lag_gather,
    _node_derivative,
    _node_map,
    _start,
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


@dataclass(frozen=True, eq=False)
class RiccatiField:
    """Backward-swept coefficients P0 and P1 of the plant ``sys`` on its grid.

    ``p0[j]`` is P0(tau_j); ``p1[i, j]`` is P1(s_i, tau_j) for i <= j
    (zero above the diagonal).  P2 is never stored.  ``p1`` is a view of
    one tau-major array, so a reader whose einsum or matmul bits depend
    on operand strides copies its slice with ``np.ascontiguousarray``.
    """

    sys: SystemSpec = field(repr=False)
    p0: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class TrackingField:
    """Coefficients d1, d2 and the scalar M driven by the reference ``y``
    through the Riccati field ``ric``.

    ``d1[j]`` is d1(tau_j), ``d2[i, j]`` is d2(s_i, tau_j) for i <= j,
    ``m[j]`` is M(tau_j).  All vanish identically when y = 0.
    """

    ric: RiccatiField = field(repr=False)
    y: ReferenceSignal = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class DIReport:
    """Dissipation-inequality diagnostics along one trajectory.

    ``slack[i]`` is the running cost over [tau, t_i] plus the value at
    the node-i state minus the value at the initial state; the
    inequality direction is slack >= 0, with equality (up to O(h))
    exactly along the optimal pair.  ``pointwise[i]`` is the residual of
    the differential identity (running integrand plus the derivative of
    the node values), near zero only along the optimal pair.
    """

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


def solve_riccati(sys: SystemSpec, *, blowup_limit: float = 1e8) -> RiccatiField:
    """Backward sweep of the memory-Riccati system from tau = T.

    Final conditions P0(T) = 0, P1(., T) = 0, P2(., ., T) = 0 hold
    exactly; P0 is symmetrized after every step.  A node norm above
    ``blowup_limit`` aborts with :class:`BlowUpError`.

    Step j reads two P2 rows only: s = tau_{j+1}, carried from step j+1,
    and s = tau_j at tau_{j+1}, the trapezoid sum of G2(s_j, nu_l, tau_q)
    over q = j+1..n.  That sum is two GEMMs grouped by right factor,
    [w_q (N*(tau_q - s_j) - P1*(s_j, tau_q) BB*)] P1(nu_l, tau_q) and
    [w_q P1*(s_j, tau_q)] N(tau_q - nu_l), each a d x (n-j)d by
    (n-j)d x (j+1)d product; no G2 block is formed.  The predictor and
    corrector add the columns q = j+1 and q = j the same way.  O(n^3 d^3)
    time, about n^3 d^3 / 3 multiply-adds in BLAS-3; O(n^2 d^2) memory,
    one tau-major P1.

    The P0 BB* P1 product runs in a fixed order, (P0 BB*) P1, as a matmul
    pair; see the module notes.
    """
    if not blowup_limit > 0.0:  # so a NaN bound, which no norm exceeds, is refused too
        raise ConfigurationError(f"blowup_limit must be > 0, got {blowup_limit!r}")
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    A, N = sys.A, sys.N
    bbt = sys.B @ sys.B.T
    cc = sys.C.T @ sys.C
    p0 = np.zeros((n + 1, d, d))
    g2_sum = _G2Sums(N, bbt)
    p1 = g2_sum.pq.transpose(2, 0, 1, 3)  # the (s, tau, a, b) view of the one P1
    row_c = np.zeros((n, d, d))  # P2(tau_{j+1}, s_l, tau_{j+1}) as [l, a, c], l = 0..j
    one = np.ones(1)

    def p0_bbt_p1(P0c, p1col):
        # P0 BB* P1 as [i, a, d]: bc,ab->ac, then ac,icd->iad
        if d == 1:
            return _scalar_triple(P0c, bbt, p1col)
        pb = (bbt.T @ P0c.T).T
        size = p1col.shape[0]
        rows = pb @ p1col.transpose(1, 0, 2).reshape(d, size * d)
        return rows.reshape(d, size, d).transpose(1, 0, 2)

    def g0(P0c, trace):
        return A.T @ P0c + P0c @ A + trace + trace.T - P0c @ bbt @ P0c + cc

    def g1(P0c, p1col, nrev, s_row):
        # A* P1 + P0 N(tau-s) + P2(tau, s, tau) - P0 BB* P1, rows s = 0..size-1
        return (
            np.einsum("ab,ibc->iac", A.T, p1col)
            + np.einsum("ab,ibc->iac", P0c, nrev)
            + s_row
            - p0_bbt_p1(P0c, p1col)
        )

    for j in range(n - 1, -1, -1):
        p0c = p0[j + 1]
        p1c = p1[: j + 1, j + 1]  # rows s_0..s_j at tau_{j+1}
        nrev_c = N[j + 1 : 0 : -1][: j + 1]  # N(tau_{j+1} - s_i), i = 0..j
        trace_c = p1[j + 1, j + 1]
        g0c = g0(p0c, trace_c)
        g1c = g1(p0c, p1c, nrev_c, row_c[: j + 1])
        # P2(s_j, ., tau_{j+1}), and the G2 column at tau_{j+1} for the predictor
        row = g2_sum(j, j + 1, n, trapezoid_weights(n - j, h))
        g2c = g2_sum(j, j + 1, j + 1, one)

        # Euler predictor at tau_j
        p0p = p0c + h * g0c
        p1p = p1c + h * g1c
        trace_p = p1p[j]
        nrev_n = N[j::-1][: j + 1]
        g0p = g0(p0p, trace_p)
        g1p = g1(p0p, p1p, nrev_n, row + h * g2c)

        # corrector
        new_p0 = p0c + 0.5 * h * (g0c + g0p)
        p0[j] = 0.5 * (new_p0 + new_p0.T)
        p1[: j + 1, j] = p1c + 0.5 * h * (g1c + g1p)
        row_c[: j + 1] = row + 0.5 * h * (g2c + g2_sum(j, j, j, one))

        nrm = max(np.abs(p0[j]).max(), np.abs(p1[: j + 1, j]).max())
        if not np.isfinite(nrm) or nrm > blowup_limit:
            raise BlowUpError(
                f"Riccati sweep exceeded node-norm bound {blowup_limit:g} at node {j}",
                node_index=j,
            )
    return RiccatiField(sys, p0, p1)


class _G2Sums:
    """Weighted sums over tau_q of G2(s_j, nu_l, tau_q), l = 0..j, where

        G2 = N*(tau_q - s) P1(nu, tau_q) + P1*(s, tau_q) N(tau_q - nu)
             - P1*(s, tau_q) BB* P1(nu, tau_q)

    drives P2 backward from P2(T) = 0; it is read from the P1 columns in
    ``pq``.

    ``pq[q, a, l, b]`` is P1(s_l, tau_q)[a, b], tau-major, so the P1(nu_l,
    tau_q) factor of a sum, rows (q, a) by columns (l, b), is a 2-D view
    that BLAS reads in place.  ``ntz[q, b, l d + c]`` is N(tau_q - nu_l)[b,
    c], zero for l > q: the block-Toeplitz kernel as windows over one
    reversed, zero-padded row of N blocks.
    """

    def __init__(self, N: np.ndarray, bbt: np.ndarray):
        n, d = N.shape[0] - 1, N.shape[1]
        self.N, self.bbt = N, bbt
        self.pq = np.zeros((n + 1, d, n + 1, d))
        npad = np.zeros((d, 2 * n + 1, d))
        npad[:, : n + 1] = N[::-1].transpose(1, 0, 2)
        windows = sliding_window_view(npad.reshape(d, -1), (n + 1) * d, axis=1)
        self.ntz = windows[:, n * d :: -d].transpose(1, 0, 2)
        # the kernel block the second GEMM reads, d^2 (n-j)(j+1) doubles, is
        # copied into one workspace the size of the largest, so that no step
        # maps and faults in fresh pages for it
        self.work = np.empty(d * d * ((n + 1) ** 2 // 4))

    def __call__(self, j: int, q0: int, q1: int, wq: np.ndarray) -> np.ndarray:
        """The sum over q = q0..q1 of wq[q - q0] G2(s_j, nu_l, tau_q) as
        [l, a, c], grouped by right factor into two GEMMs over (q, b):
        [w_q (N*(tau_q - s_j) - P1*(s_j, tau_q) BB*)] P1(nu_l, tau_q) and
        [w_q P1*(s_j, tau_q)] N(tau_q - nu_l)."""
        d = self.N.shape[1]
        nq, cols = q1 + 1 - q0, (j + 1) * d
        x = self.pq[q0 : q1 + 1, :, j]  # [q, b, a] = P1(s_j, tau_q)[b, a]
        bx = (self.bbt.T @ x.transpose(1, 0, 2).reshape(d, nq * d)).reshape(d, nq, d)
        wq = wq[:, None, None]
        left_p1 = (wq * (self.N[q0 - j : q1 + 1 - j] - bx.transpose(1, 0, 2))).reshape(nq * d, d)
        left_n = (wq * x).reshape(nq * d, d)
        out = left_p1.T @ self.pq[q0 : q1 + 1, :, : j + 1].reshape(nq * d, cols)
        right_n = self.work[: nq * cols * d].reshape(nq, d, cols)
        right_n[...] = self.ntz[q0 : q1 + 1, :, :cols]
        out += left_n.T @ right_n.reshape(nq * d, cols)
        return out.reshape(d, j + 1, d).transpose(1, 0, 2)


def solve_tracking(ric: RiccatiField, y: ReferenceSignal) -> TrackingField:
    """Backward sweep of the reference-driven equations for d1, d2, M
    on the plant ``ric`` was solved for; the field keeps ``ric`` and
    ``y``.  O(n^2 d^2 + n p d): step j forms d2 rows 0..j from j + 1
    kernel and P1 blocks; d2 takes O(n^2 d) memory."""
    sys = ric.sys
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    A, N = sys.A, sys.N
    bbt = sys.B @ sys.B.T
    yv = y.window(n + 1, sys.p)
    cy = yv @ sys.C  # C* y(tau), row form
    d1 = np.zeros((n + 1, d))
    d2 = np.zeros((n + 1, n + 1, d))
    m = np.zeros(n + 1)

    def g1(q, vec, d2_diag):  # d1 source at tau_q
        return (A.T - ric.p0[q] @ bbt) @ vec + d2_diag - cy[q]

    def p1_bbt_vec(p1q, vec):
        # P1* BB* vec as [i, a]: c,bc->b, then b,iba->ia; for d = 1 a one-row
        # product pairs P1 with BB* first, as greedy einsum does
        if d == 1:
            if p1q.shape[0] == 1:
                return _scalar_triple(p1q[:, 0], bbt, vec)
            return _scalar_triple(bbt, vec, p1q[:, 0])
        bv = vec.reshape(1, d) @ bbt.T
        return (bv @ np.ascontiguousarray(p1q.transpose(1, 0, 2)).reshape(d, -1)).reshape(-1, d)

    def g2(q, vec, size):  # d2 source at tau_q, rows s_0..s_{size-1}
        return np.einsum("iba,b->ia", N[q::-1][:size], vec) - p1_bbt_vec(ric.p1[:size, q], vec)

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
    return TrackingField(ric, y, d1, d2, m)


def _scalar_triple(x, y, z):
    """A three-factor contraction at d = 1, bit for bit as einsum runs it
    when it pairs x with y first: no contracted index is wider than 1, so
    each pairwise step is a product, and the size-one sums einsum takes
    before the second product turn a -0 into +0."""
    return (x * y + 0.0) * (z + 0.0)


def feedback_control(trk: TrackingField, xi: InitialState) -> np.ndarray:
    """Feedback value u(tau) = -B*[P0 head + int P1(s,tau) tail(s) ds + d1]
    at the state's node tau; O(tau d^2 + d (d + m))."""
    ric, k = trk.ric, xi.tau_index
    _check_state(ric.sys, xi)
    hist = _history(np.ascontiguousarray(ric.p1[None, : k + 1, k]), xi.tail, ric.sys.grid.h)[0]
    return -ric.sys.B.T @ (ric.p0[k] @ xi.head + hist + trk.d1[k])


def closed_loop(trk: TrackingField, xi0: InitialState) -> tuple[ControlSignal, StateTrajectory]:
    """Simulate the plant forward under the running feedback law.

    At every node the control equals the feedback evaluated on the
    running history, with the new node solved implicitly together with
    the state update (one (d+m) x (d+m) solve per step), so restarting
    from any mid-run state reproduces the tail of the pair node for
    node.  O((n - tau) (n d^2 + (d + m)^3)): the memory and feedback
    sums take O((n - tau)^2 d^2), their tail parts O((n - tau) tau d^2).
    """
    ric = trk.ric
    sys = ric.sys
    _check_state(sys, xi0)
    k, n, d, mdim, h = xi0.tau_index, sys.grid.steps, sys.d, sys.m, sys.grid.h
    A, B, N = sys.A, sys.B, sys.N
    w = _start(xi0, n)
    # tail forcing and tail contribution to the feedback history, per future node
    f, tail_hist = _tail_contractions(ric, k, xi0.tail)
    u = np.zeros((n + 1 - k, mdim))
    u[0] = feedback_control(trk, xi0)
    step_lhs = np.zeros((d + mdim, d + mdim))
    step_lhs[:d, :d] = np.eye(d) - 0.5 * h * A - 0.25 * h * h * N[0]
    step_lhs[:d, d:] = -0.5 * h * B
    step_lhs[d:, d:] = np.eye(mdim)
    rhs = np.zeros(d + mdim)
    f_prev = A @ w[k] + f[0] + B @ u[0]
    # step i weighs nodes k..i by the first i + 1 - k of [h/2, h, ..., h]
    wts_all = np.full(n + 1 - k, h)
    wts_all[0] = 0.5 * h
    for i in range(k, n):
        wts = wts_all[: i + 1 - k]
        mem = np.einsum("jab,jb,j->a", N[i + 1 - k : 0 : -1], w[k : i + 1], wts)
        p1col = np.ascontiguousarray(ric.p1[k : i + 1, i + 1])
        hist = tail_hist[i + 1 - k] + np.einsum("jab,jb,j->a", p1col, w[k : i + 1], wts)
        step_lhs[d:, :d] = B.T @ (ric.p0[i + 1] + 0.5 * h * ric.p1[i + 1, i + 1])
        rhs[:d] = w[i] + 0.5 * h * (f_prev + mem + f[i + 1 - k])
        rhs[d:] = -B.T @ (hist + trk.d1[i + 1])
        sol = np.linalg.solve(step_lhs, rhs)
        w[i + 1] = sol[:d]
        u[i + 1 - k] = sol[d:]
        if i + 1 < n:  # no step reads the slope at the last node
            f_prev = (
                A @ w[i + 1]
                + mem
                + 0.5 * h * (N[0] @ w[i + 1])
                + B @ u[i + 1 - k]
                + f[i + 1 - k]
            )
    return ControlSignal(k, u), StateTrajectory(k, w)


def _tail_contractions(ric: RiccatiField, j: int, tail: np.ndarray) -> tuple:
    """x_q = int N(tau_q - s) tail(s) ds and z_q = int P1(s, tau_q) tail(s) ds,
    q = j..n, for the history ``tail[i]`` at s_i, i = 0..j; O((n-j) j d^2)."""
    h = ric.sys.grid.h
    p1 = np.ascontiguousarray(ric.p1[: j + 1, j:]).transpose(1, 0, 2, 3)
    return _history(_lag_gather(ric.sys.N, j), tail, h), _history(p1, tail, h)


def _value_form(trk: TrackingField, j: int, head, tail, x, z) -> float:
    """The quadratic value form at node j for the state (head, tail).

    ``x``, ``z`` are the tail's contractions (:func:`_tail_contractions`);
    the P2 double integral is exactly the trapezoid sum over q in [j, n]
    of 2 x_q.z_q - |B* z_q|^2.  O((n-j) d^2 + j d).  A trailing batch
    axis on the state and its contractions gives one value per column.
    """
    ric = trk.ric
    bz = _node_map(ric.sys.B.T, z)
    quad2 = ric.sys.grid.weights(j) @ (2.0 * (x * z).sum(axis=1) - (bz * bz).sum(axis=1))
    d2_tail = np.einsum("i,ia...,ia->...", ric.sys.grid.weights(0, j), tail, trk.d2[: j + 1, j])
    return (
        _dot(head, ric.p0[j] @ head)
        + _dot(2.0 * head, z[0])
        + quad2
        + _dot(2.0 * head, trk.d1[j])
        + 2.0 * d2_tail
        + trk.m[j]
    )


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over axis 0, one per batch column: each is the dot ``a @ b``
    of two vectors takes, bit for bit."""
    return (a.T[..., None, :] @ b.T[..., :, None])[..., 0, 0]


def value_function(trk: TrackingField, omega: InitialState) -> float:
    """Evaluate the quadratic value form at the state ``omega``, at its node k;
    O(n (n-k) d^2)."""
    k = omega.tau_index
    _check_state(trk.ric.sys, omega)
    x, z = _tail_contractions(trk.ric, k, omega.tail)
    return float(_value_form(trk, k, omega.head, omega.tail, x, z))


def di_residual(trk: TrackingField, w: StateTrajectory, u: ControlSignal) -> DIReport:
    """Dissipation diagnostics for an admissible pair (w, u) against the
    reference ``trk`` was solved for.

    Evaluates the value function at the running state of every node
    and reports the integral slack and the pointwise differential
    residual; see :class:`DIReport`.  The tail contractions are carried
    forward from node to node as prefix sums, one term per node, so the
    whole call is O(n^2 d^2).

    A batch of r pairs, as :func:`~voltrack.model.simulate` gives for a
    (nodes, m, r) control, runs in the same loop and gives ``slack`` and
    ``pointwise`` of shape (nodes, r); ``min_slack`` is then the least over
    every pair.  Without the batch axis every bit is that of one pair.
    """
    ric = trk.ric
    sys = ric.sys
    k, n, h = u.start_index, sys.grid.steps, sys.grid.h
    _check_pair(sys, w, k, u, batch=True)
    res = _node_map(sys.C, w.values[k:]) - _columns(trk.y.values[k:], u.values.shape[2:])
    g = (res * res).sum(axis=1) + (u.values * u.values).sum(axis=1)
    run = np.zeros_like(g)
    run[1:] = np.cumsum(0.5 * h * (g[:-1] + g[1:]), axis=0)
    wv = w.values
    # prefix sums over nodes i < j of the trapezoid terms of x_q and z_q, row q
    xs, zs = np.zeros_like(wv), np.zeros_like(wv)
    vals = np.zeros_like(g)
    for j in range(n + 1):
        tx = sys.N[: n - j + 1] @ wv[j]  # N(tau_q - s_j) w_j, q = j..n
        tz = np.ascontiguousarray(ric.p1[j, j:]) @ wv[j]  # P1(s_j, tau_q) w_j
        if j >= k:
            end = 0.5 * h if j else 0.0  # trapezoid weight of the node-j end point
            x, z = xs[j:] + end * tx, zs[j:] + end * tz
            vals[j - k] = _value_form(trk, j, wv[j], wv[: j + 1], x, z)
        inner = h if j else 0.5 * h  # its weight once later nodes exist
        xs[j:] += inner * tx
        zs[j:] += inner * tz
    slack = run + vals - vals[0]
    return DIReport(slack, g + _node_derivative(vals, h))
