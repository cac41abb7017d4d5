"""Plant model, grids, signals, and time integration.

The plant is a controlled linear Volterra integrodifferential equation

    w'(t) = A w(t) + int_tau^t N(t-s) w(s) ds + B u(t)
            + int_0^tau N(t-s) xi_tail(s) ds,      w(tau) = xi_head,

driven from an initial node ``tau`` with a finite history (the *tail*)
on [0, tau].  Everything lives on a uniform grid; all integrals are
composite trapezoid sums on that grid, and time stepping is one
implicit-trapezoid march, :func:`_march`, that keeps the new node inside
the memory sum with weight h/2 (a small d x d ``numpy.linalg.solve`` per
step, second order in h): :func:`simulate` runs it on the plant and
:func:`fundamental_matrix` on the adjoint plant, with Z(0) = I as a batch
of d columns.  Every integral of a kernel against a history, int_0^tau
F(., s) tail(s) ds with F the plant's N, the feedback's P1 or a synthesis
map, is the one quadrature :func:`_history`; every sum over a window that
slides with its node, [t_i, T] or [tau, t_i], is :func:`_window_sums`; and
every trajectory starts from :func:`_start`: the tail below tau, the head
at tau.  The plant carries the grid its kernel is sampled on, so no stage
takes a grid beside a plant; the fundamental matrix Z carries the plant
:func:`fundamental_matrix` solved it for, so :func:`voc_solution` and
every Fredholm stage built on Z read it from Z.  Every node, window start
and step count a stage takes is read through :func:`_node`, which refuses
a non-integer or a value off its range by name.  The package needs numpy
only: every dense solve, here and in the Nystrom and QP routes, is
``numpy.linalg.solve``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularSystemError

__all__ = [
    "TimeGrid",
    "SystemSpec",
    "InitialState",
    "ReferenceSignal",
    "ControlSignal",
    "StateTrajectory",
    "FundamentalMatrix",
    "exponential_kernel",
    "zero_kernel",
    "trapezoid_weights",
    "fundamental_matrix",
    "simulate",
    "voc_solution",
    "cost",
    "extend_state",
]


def trapezoid_weights(count: int, h: float) -> np.ndarray:
    """Composite-trapezoid weights for ``count`` uniformly spaced nodes.

    A single node (degenerate interval) gets weight zero.
    """
    if count < 1:
        raise ConfigurationError("weight count must be >= 1")
    if count == 1:
        return np.zeros(1)
    w = np.full(count, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _node(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """``value`` as an int if it is an integer (numpy's too: it has ``__index__``)
    in lo..hi; else a ConfigurationError naming ``name``, the range and the value."""
    node = operator.index(value) if hasattr(type(value), "__index__") else None
    if node is None or node < lo or (hi is not None and node > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigurationError(f"{name} must be an integer {span}, got {value!r}")
    return node


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*h, i = 0..steps, with h = horizon/steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise ConfigurationError("horizon must be finite and strictly positive")
        _node(self.steps, "steps", lo=2)

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Trapezoid weights on the sub-grid of nodes start..stop."""
        start = _node(start, "start", hi=self.steps)
        stop = _node(self.steps if stop is None else stop, "stop", lo=start, hi=self.steps)
        return trapezoid_weights(stop - start + 1, self.h)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Plant matrices and the memory kernel sampled on a grid.

    Attributes
    ----------
    A : (d, d) drift matrix.
    B : (d, m) input matrix.
    C : (p, d) output matrix.
    N : (steps+1, d, d) kernel samples, ``N[i] = N(t_i)``.
    grid : the grid N is sampled on; every stage runs on it.

    A and N(t) are not assumed to commute.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    N: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        for name in "ABCN":
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        A, B, C, N = self.A, self.B, self.C, self.N
        d = A.shape[0]
        if A.shape != (d, d):
            raise ConfigurationError("A must be square")
        if B.ndim != 2 or B.shape[0] != d:
            raise ConfigurationError("B must be d x m")
        if C.ndim != 2 or C.shape[1] != d:
            raise ConfigurationError("C must be p x d")
        if N.ndim != 3 or N.shape[1:] != (d, d):
            raise ConfigurationError("N must be sampled as (nodes, d, d)")
        if N.shape[0] != self.grid.steps + 1:
            raise ConfigurationError(
                f"kernel sampled on {N.shape[0]} nodes, grid has {self.grid.steps + 1}"
            )

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


def exponential_kernel(grid: TimeGrid, terms) -> np.ndarray:
    """Sample N(t) = sum_k G_k * exp(-lambda_k * t) on the grid.

    ``terms`` is an iterable of (G_k, lambda_k) with G_k a d x d array
    and lambda_k finite and >= 0.
    """
    terms = [(np.asarray(G, dtype=float), float(lam)) for G, lam in terms]
    if not terms:
        raise ConfigurationError("exponential kernel needs at least one term")
    d = terms[0][0].shape[0]
    out = np.zeros((grid.steps + 1, d, d))
    for G, lam in terms:
        if G.shape != (d, d):
            raise ConfigurationError("kernel term matrices must share one shape")
        if not 0.0 <= lam < np.inf:
            raise ConfigurationError(f"kernel rates must be finite and >= 0, got {lam!r}")
        out += np.exp(-lam * grid.nodes)[:, None, None] * G
    return out


def zero_kernel(grid: TimeGrid, d: int) -> np.ndarray:
    """Zero memory kernel (memoryless plant) sampled on the grid."""
    return np.zeros((grid.steps + 1, d, d))


@dataclass(frozen=True, eq=False)
class InitialState:
    """State (head, tail) at grid node ``tau_index``.

    ``head`` is the value at t_tau; ``tail`` holds node values on
    t_0..t_tau.  The tail is an arbitrary grid function; it need not be a
    trajectory of the plant, and its own value at the junction node is
    kept separate from the head (no continuity is assumed).  When
    ``tau_index == 0`` the state is the head alone and the tail entry is
    ignored (its quadrature weight is zero).
    """

    tau_index: int
    head: np.ndarray
    tail: np.ndarray | None = None

    def __post_init__(self):
        head = np.asarray(self.head, dtype=float).reshape(-1)
        object.__setattr__(self, "head", head)
        _node(self.tau_index, "tau_index")
        if self.tail is None:
            tail = np.zeros((self.tau_index + 1, head.size))
        else:
            tail = np.asarray(self.tail, dtype=float)
        object.__setattr__(self, "tail", tail)
        if tail.shape != (self.tau_index + 1, head.size):
            raise ConfigurationError(
                f"tail must cover nodes 0..{self.tau_index} with d={head.size}"
            )

    @property
    def d(self) -> int:
        return self.head.size


@dataclass(frozen=True, eq=False)
class ReferenceSignal:
    """Reference output samples y_i on every grid node 0..n."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ConfigurationError("reference values must be (nodes, p)")
        object.__setattr__(self, "values", v)

    def window(self, nodes: int, p: int, start: int = 0) -> np.ndarray:
        """Samples on nodes start..nodes-1 of a grid of ``nodes`` nodes and
        ``p`` outputs.  Every stage that meets a reference reads it here, so
        a signal sampled on another grid is refused, not broadcast."""
        if self.values.shape != (nodes, p):
            raise ConfigurationError("reference signal not sampled on this grid")
        return self.values[start:]


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Control samples u_i on grid nodes start_index..n, (nodes, m[, r]).

    An optional trailing axis holds r controls side by side, which
    :func:`simulate` steps as one batch.
    """

    start_index: int
    values: np.ndarray

    def __post_init__(self):
        _node(self.start_index, "start_index")
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (2, 3):
            raise ConfigurationError("control values must be (nodes, m[, r])")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zero(grid: TimeGrid, m: int, start_index: int = 0) -> "ControlSignal":
        k = _node(start_index, "start_index", hi=grid.steps)
        return ControlSignal(k, np.zeros((grid.steps + 1 - k, m)))


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Node values w_i on 0..n, (nodes, d[, r]); nodes below start_index
    hold the tail.  An optional trailing axis holds r trajectories side by
    side, as :func:`simulate` returns for a batch of r controls."""

    start_index: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (2, 3):
            raise ConfigurationError("trajectory values must be (nodes, d[, r])")
        _node(self.start_index, "start_index", hi=v.shape[0] - 1)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Samples Z_i = Z(t_i) of the adjoint-kernel fundamental matrix of the
    plant ``sys`` on its grid."""

    sys: SystemSpec = field(repr=False)
    values: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# internals shared by the integrators
# ---------------------------------------------------------------------------


def _lag_gather(N: np.ndarray, j: int) -> np.ndarray:
    """N(t_q - s_i) for q = j..n and i = 0..j, shape (n-j+1, j+1, d, d)."""
    return N[np.subtract.outer(np.arange(j, N.shape[0]), np.arange(j + 1))]


def _history(F: np.ndarray, tail: np.ndarray, h: float) -> np.ndarray:
    """int_0^tau F(q, s) tail(s) ds, (rows, d), for every row q of the kernel
    ``F`` (rows, tau+1, d, d'): the trapezoid sum over the nodes of ``tail``."""
    return np.einsum("qiab,ib,i->qa", F, tail, trapezoid_weights(tail.shape[0], h))


def _window_sums(spec: str, F: np.ndarray, v: np.ndarray, h: float, ahead: bool) -> np.ndarray:
    """Row i: the trapezoid sum of ``np.einsum(spec, F[lag], v[q], weights)``
    over the nodes q of the window of node i of ``v``, [t_i, T] with lag
    q - i if ``ahead``, else [t_0, t_i] with lag i - q.  The one-node
    window's row stays the +0.0 it is allocated as (an einsum over its zero
    weight could give -0.0).  A ``v`` with a block per node (ndim > 2)
    runs einsum's optimized pairwise path, a vector per node the plain one:
    each is the order its callers' bits were recorded with."""
    n = v.shape[0]
    size = dict(zip(spec.replace(",", "")[: F.ndim + v.ndim], F.shape + v.shape))
    out = np.zeros((n,) + tuple(size[c] for c in spec.split("->")[1]))
    for i in range(n - 1) if ahead else range(1, n):
        lags, nodes = (F[: n - i], v[i:]) if ahead else (F[i::-1], v[: i + 1])
        wts = trapezoid_weights(len(nodes), h)
        out[i] = np.einsum(spec, lags, nodes, wts, optimize=v.ndim > 2)
    return out


def _start(xi: InitialState, n: int) -> np.ndarray:
    """Nodes 0..n of a trajectory from ``xi``: tail below tau, head at tau."""
    k = xi.tau_index
    w = np.zeros((n + 1, xi.d))
    w[:k] = xi.tail[:k]
    w[k] = xi.head
    return w


def _tail_forcing(sys: SystemSpec, xi: InitialState) -> np.ndarray:
    """f(t_i) = int_0^tau N(t_i - s) tail(s) ds for i = tau..n.

    Returns an array of shape (n - tau + 1, d); zero when tau_index == 0.
    The tail's own junction value enters at s = tau (weight h/2).
    """
    return _history(_lag_gather(sys.N, xi.tau_index), xi.tail, sys.grid.h)


def _check_state(sys: SystemSpec, xi: InitialState) -> None:
    """Refuse a state of another dimension than the plant's, or past its last node."""
    if xi.d != sys.d or xi.tau_index > sys.grid.steps:
        raise ConfigurationError(
            f"state with d={xi.d} at node {xi.tau_index} is off the plant "
            f"(d={sys.d}, nodes 0..{sys.grid.steps})"
        )


def _check_control(
    sys: SystemSpec, xi: InitialState, u: ControlSignal, batch: bool = False
) -> None:
    """Refuse a state off the plant, a control off its window, and a batch unless ``batch``."""
    _check_state(sys, xi)
    _check_window(sys, xi.tau_index, u, batch)


def _check_pair(
    sys: SystemSpec,
    w: StateTrajectory,
    k: int,
    u: ControlSignal | None = None,
    batch: bool = False,
) -> None:
    """Refuse a trajectory not sampled on the plant's nodes 0..n with its d,
    or whose window does not hold node k; with a control ``u``, refuse one
    off its window from k.  A batch is refused unless ``batch``, and then
    ``w`` must carry the batch axis of ``u``."""
    if u is not None:
        _check_window(sys, k, u, batch)
    if w.values.ndim > 2 and not batch:
        raise ConfigurationError("this stage takes one trajectory, not a batch")
    n = sys.grid.steps
    shape = (n + 1, sys.d) + (() if u is None else u.values.shape[2:])
    if w.values.shape != shape or not w.start_index <= k <= n:
        raise ConfigurationError(
            f"trajectory {w.values.shape} from node {w.start_index} does not fit the plant "
            f"(d={sys.d}, nodes 0..{n}) on the window from node {k}"
        )


def _check_window(sys: SystemSpec, k: int, u: ControlSignal, batch: bool) -> None:
    """Refuse a control that does not cover nodes k..n from node k, and a batch unless ``batch``."""
    if u.start_index != k:
        raise ConfigurationError(
            f"control window starts at node {u.start_index}, state sits at node {k}"
        )
    if u.values.shape[:2] != (sys.grid.steps + 1 - k, sys.m):
        raise ConfigurationError("control values do not cover nodes tau..n")
    if u.values.ndim > 2 and not batch:
        raise ConfigurationError("this stage takes one control, not a batch")


def _columns(a: np.ndarray, batch: tuple) -> np.ndarray:
    """``a`` with a unit axis for each ``batch`` axis, so that it broadcasts
    against arrays that hold one column per batch member."""
    return a.reshape(a.shape + (1,) * len(batch))


def _node_map(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x_i at every node i of ``x`` (nodes, k[, r]), taken as the row
    products x_i* M*: without a batch axis this is ``x @ M.T``."""
    return np.swapaxes(np.swapaxes(x, 1, -1) @ M.T, 1, -1)


def _node_derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/dt of node samples along axis 0.

    Centred differences inside, one-sided 3-point stencils at both ends.
    """
    if v.shape[0] < 3:
        raise ConfigurationError("the derivative stencil needs at least three nodes")
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return dv


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _march(
    A: np.ndarray, N: np.ndarray, h: float, w: np.ndarray, k: int, f: np.ndarray, Bu: np.ndarray
) -> None:
    """Step ``w`` (nodes, d, ...) in place from node k by the implicit
    trapezoid rule for w' = A w + int_tau^t N(t-s) w(s) ds + f + Bu, the
    forcings f and Bu sampled on nodes k..n and added in that order.
    Trailing axes of ``w`` are a batch, stepped together."""
    M = np.eye(A.shape[0]) - 0.5 * h * A - 0.25 * h * h * N[0]
    try:  # numpy's solve fails only at an exactly zero pivot: refuse it before step one
        np.linalg.solve(M, M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"implicit step matrix is singular: {exc}") from exc
    f_prev = A @ w[k] + f[0] + Bu[0]  # memory over [tau, tau] is empty
    last = w.shape[0] - 1
    # step i weighs nodes k..i by the first i + 1 - k of [h/2, h, ..., h, h/2]
    wts = trapezoid_weights(last + 1 - k, h)
    for i in range(k, last):
        mem = np.einsum("jab,jb...,j->a...", N[i + 1 - k : 0 : -1], w[k : i + 1], wts[: i + 1 - k])
        rhs = w[i] + 0.5 * h * (f_prev + mem + f[i + 1 - k] + Bu[i + 1 - k])
        w[i + 1] = np.linalg.solve(M, rhs)
        if i + 1 < last:  # no step reads the slope at the last node
            f_prev = A @ w[i + 1] + mem + 0.5 * h * (N[0] @ w[i + 1]) + f[i + 1 - k] + Bu[i + 1 - k]


def fundamental_matrix(sys: SystemSpec) -> FundamentalMatrix:
    """Solve Z'(t) = A* Z(t) + int_0^t N*(t-s) Z(s) ds, Z(0) = I.

    Z is the adjoint-kernel fundamental matrix; the forward flow of the
    plant is its transpose, w(t) = Z*(t) w(0) for the free system.  It is
    :func:`simulate`'s march on the adjoint plant (A*, N*), unforced, with
    the d columns of Z(0) = I as a batch.  Second-order accurate in h.
    O(n^2 d^3): step i sums i + 1 memory products of d x d matrices.
    """
    Z = np.zeros((sys.grid.steps + 1, sys.d, sys.d))
    Z[0] = np.eye(sys.d)
    zero = np.zeros_like(Z)
    _march(sys.A.T, np.transpose(sys.N, (0, 2, 1)), sys.grid.h, Z, 0, zero, zero)
    return FundamentalMatrix(sys, Z)


def simulate(sys: SystemSpec, xi: InitialState, u: ControlSignal) -> StateTrajectory:
    """Time-step the plant from node tau with control u.

    The returned trajectory is extended to [0, tau) by the tail of the
    initial state; its value at the junction node is the head.
    O((n - tau) (n d^2 + d^3 + m d)): memory sums O((n - tau)^2 d^2), tail
    forcing O((n - tau) tau d^2), one d x d solve a step.

    A control with a batch axis, (nodes, m, r), gives the r trajectories
    from the same state as one (nodes, d, r) trajectory, stepped in one
    loop: each step's solve takes the r right-hand sides together.  Without
    the axis every bit is that of one run; a batch column agrees with its
    own run to round-off, since its sums run in another order.
    """
    _check_control(sys, xi, u, batch=True)
    k, n, batch = xi.tau_index, sys.grid.steps, u.values.shape[2:]
    w = np.empty((n + 1, sys.d) + batch)
    w[...] = _columns(_start(xi, n), batch)
    f = _columns(_tail_forcing(sys, xi), batch)
    _march(sys.A, sys.N, sys.grid.h, w, k, f, _node_map(sys.B, u.values))
    return StateTrajectory(k, w)


def voc_solution(Z: FundamentalMatrix, xi: InitialState, u: ControlSignal) -> StateTrajectory:
    """Variation-of-constants evaluation of the trajectory of the plant
    ``Z`` was solved for, on its grid.

    w(t) = Z*(t-tau) head + int_tau^t Z*(t-r) [f(r) + B u(r)] dr with f
    the tail forcing; agrees with :func:`simulate` to O(h^2).
    O((n - tau) (n d^2 + m d)): the convolutions take O((n - tau)^2 d^2)
    and the tail forcing O((n - tau) tau d^2).
    """
    sys = Z.sys
    _check_control(sys, xi, u)
    k, n, Zv = xi.tau_index, sys.grid.steps, Z.values
    w = _start(xi, n)
    g = _tail_forcing(sys, xi) + u.values @ sys.B.T
    conv = _window_sums("qba,qb,q->a", Zv, g, sys.grid.h, ahead=False)
    for i in range(k + 1, n + 1):
        w[i] = Zv[i - k].T @ xi.head + conv[i - k]
    return StateTrajectory(k, w)


def cost(sys: SystemSpec, w: StateTrajectory, u: ControlSignal, y: ReferenceSignal) -> float:
    """Trapezoid value of int_tau^T ||C w - y||^2 + ||u||^2 dt, tau the
    control window's start.  One pair only: a batch axis is refused."""
    k = u.start_index
    _check_pair(sys, w, k, u)
    wts = sys.grid.weights(k)
    res = w.values[k:] @ sys.C.T - y.window(sys.grid.steps + 1, sys.p, k)
    return float(wts @ ((res * res).sum(axis=1) + (u.values * u.values).sum(axis=1)))


def extend_state(w: StateTrajectory, r: int) -> InitialState:
    """Finite-memory state (w_r, w restricted to 0..r) at node r of one trajectory."""
    if w.values.ndim > 2:
        raise ConfigurationError("this stage takes one trajectory, not a batch")
    r = _node(r, "r", lo=w.start_index, hi=w.values.shape[0] - 1)
    return InitialState(r, w.values[r].copy(), w.values[: r + 1].copy())
