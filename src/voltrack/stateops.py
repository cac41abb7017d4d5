"""Finite-memory state-space operators and discretized operator identities.

The running pair (current value, history) is represented as an element
of R^d x L^2(0, tau; R^d) with the history indexed by age: tail(s) is
the value at time tau - s, so a domain element satisfies tail(0) = head.
On this space the plant is the transport realization

    head' = A head + int_0^tau N(s) tail(s) ds + B u,
    tail' = -D_s tail,   tail(0) = head,

and the feedback synthesis becomes a differential identity for the
quadratic form of the Riccati operator and a linear identity for the
tracking element.  Both identities are checked here as discretized
residuals: quadratures are trapezoid sums, the age derivative D_s uses
second-order difference stencils, and the tau-derivative is a finite
difference across the neighboring nodes with the test elements
re-sampled from their smooth generators at each node.  The P2 block of
the Riccati operator acts through the tail contractions of
:mod:`voltrack.riccati`, so no P2 slice is ever formed.  The plant
carries the grid its kernel is sampled on; the Riccati and tracking
operators and their residuals read the plant from the solved field, the
Riccati field and reference from the tracking field, and the node from
the element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .model import (
    SystemSpec,
    TimeGrid,
    _check_state,
    _history,
    _lag_gather,
    _node_derivative,
    trapezoid_weights,
)
from .riccati import RiccatiField, TrackingField, _tail_contractions

__all__ = [
    "StateElement",
    "make_domain_element",
    "state_operator",
    "riccati_operator",
    "tracking_element",
    "state_inner",
    "riccati_operator_residual",
    "tracking_operator_residual",
]


@dataclass(frozen=True, eq=False)
class StateElement:
    """Element (head, tail) of the age-indexed state space at one node.

    ``tail[i]`` is the history value at age s_i = i h, i = 0..tau_index.
    Elements produced by :func:`make_domain_element` keep their smooth
    generator so they can be re-sampled at neighboring nodes.
    """

    tau_index: int
    head: np.ndarray
    tail: np.ndarray = field(repr=False)
    seed: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        head = np.asarray(self.head, dtype=float).reshape(-1)
        tail = np.asarray(self.tail, dtype=float)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        if self.tau_index < 0:
            raise ConfigurationError("tau_index must be >= 0")
        if tail.shape != (self.tau_index + 1, head.size):
            raise ConfigurationError("tail must cover ages 0..tau with d channels")

    @property
    def d(self) -> int:
        return self.head.size


def make_domain_element(seed: Callable, tau_index: int, grid: TimeGrid) -> StateElement:
    """Sample a smooth generator on ages 0..tau; tail(0) = head holds
    by construction.  A scalar generator gives a d = 1 element."""
    if not 0 <= tau_index <= grid.steps:
        raise ConfigurationError(f"node {tau_index} is off the grid (nodes 0..{grid.steps})")
    rows = [np.atleast_1d(seed(s)) for s in grid.nodes[: tau_index + 1]]
    for i, row in enumerate(rows):
        if row.shape != rows[0].shape:
            name = getattr(seed, "__qualname__", repr(seed))
            raise ConfigurationError(
                f"generator {name} returns shape {row.shape} at node {i}, {rows[0].shape} at node 0"
            )
    tail = np.asarray(rows, dtype=float)
    return StateElement(tau_index, tail[0].copy(), tail, seed=seed)


def state_operator(sys: SystemSpec, elem: StateElement) -> StateElement:
    """Action of the transport generator: memory-coupled head, -D_s tail."""
    _check_state(sys, elem)
    k, h = elem.tau_index, sys.grid.h
    head = sys.A @ elem.head + _history(sys.N[None, : k + 1], elem.tail, h)[0]
    return StateElement(k, head, -_node_derivative(elem.tail, h))


def riccati_operator(ric: RiccatiField, elem: StateElement) -> StateElement:
    """Action of the block operator [P0, P1-row; P1-col, P2] on an element,
    at the element's node.

    The age-indexed convention reverses the stored fields: the tail
    couplings use P1(tau - s, tau) and P2(tau - s, tau - v, tau).  The P2
    action at time s is the trapezoid sum over q in [j, n] of
    N*(tau_q - s) z_q + P1*(s, tau_q)(x_q - BB* z_q), with x_q, z_q the
    tail contractions of :mod:`voltrack.riccati`; O((n-j) j d^2).
    """
    _check_state(ric.sys, elem)
    j = elem.tau_index
    x, z = _tail_contractions(ric, j, elem.tail[::-1])
    wq = ric.sys.grid.weights(j)[:, None]
    p1 = np.ascontiguousarray(ric.p1[: j + 1, j:])
    p2_tail = np.einsum("qiba,qb->ia", _lag_gather(ric.sys.N, j), wq * z)
    p2_tail += np.einsum("iqba,qb->ia", p1, wq * (x - z @ ric.sys.B @ ric.sys.B.T))
    head = ric.p0[j] @ elem.head + z[0]
    tail = np.einsum("iba,b->ia", p1[::-1, 0], elem.head) + p2_tail[::-1]
    return StateElement(j, head, tail)


def tracking_element(trk: TrackingField, tau_index: int) -> StateElement:
    """The pair (d1(tau), d2(tau - ., tau)) as an age-indexed element."""
    j, n = tau_index, trk.ric.sys.grid.steps
    if not 0 <= j <= n:
        raise ConfigurationError(f"node {j} is off the plant (nodes 0..{n})")
    return StateElement(j, trk.d1[j].copy(), trk.d2[j::-1, j].copy())


def state_inner(grid: TimeGrid, a: StateElement, b: StateElement) -> float:
    """Inner product: head dot head plus the trapezoid tail pairing."""
    if a.tau_index != b.tau_index:
        raise ConfigurationError("elements live at different nodes")
    if a.d != b.d:
        raise ConfigurationError(f"elements have different d ({a.d} and {b.d})")
    wt = trapezoid_weights(a.tau_index + 1, grid.h)
    return float(a.head @ b.head + np.einsum("i,ia,ia->", wt, a.tail, b.tail))


def _tau_derivative(ric: RiccatiField, j: int, f: Callable[[int], float]) -> float:
    """Finite difference of f(node) across nodes j-1 and j+1.

    Central inside the grid, one-sided at tau = 0 and tau = T.
    """
    lo, hi = max(j - 1, 0), min(j + 1, ric.sys.grid.steps)
    return (f(hi) - f(lo)) / (ric.sys.grid.nodes[hi] - ric.sys.grid.nodes[lo])


def _resample(elem: StateElement, j: int, grid: TimeGrid) -> StateElement:
    if elem.seed is None:
        raise ConfigurationError(
            "the tau-derivative needs generator-backed elements; "
            "build them with make_domain_element"
        )
    return make_domain_element(elem.seed, j, grid)


def riccati_operator_residual(ric: RiccatiField, omega: StateElement, xi: StateElement) -> float:
    """Residual of the operator form of the feedback-synthesis identity.

    Evaluates d/dtau <Omega, P Xi> + <A Omega, P Xi> + <P Omega, A Xi>
    - <B* P Omega, B* P Xi> + <C Omega, C Xi> with the tau-derivative
    across the neighboring nodes; first-order small in h.  ``omega`` and
    ``xi`` are re-sampled from their generators at the node of ``xi`` and
    its neighbors.
    """
    sys, grid, j = ric.sys, ric.sys.grid, xi.tau_index
    _check_state(sys, omega)
    _check_state(sys, xi)

    def quad(c: int) -> float:
        om = _resample(omega, c, grid)
        xc = _resample(xi, c, grid)
        return state_inner(grid, om, riccati_operator(ric, xc))

    dterm = _tau_derivative(ric, j, quad)

    om = _resample(omega, j, grid)
    xc = _resample(xi, j, grid)
    p_om = riccati_operator(ric, om)
    p_xc = riccati_operator(ric, xc)
    a_om = state_operator(sys, om)
    a_xc = state_operator(sys, xc)
    total = (
        dterm
        + state_inner(grid, a_om, p_xc)
        + state_inner(grid, p_om, a_xc)
        - float((sys.B.T @ p_om.head) @ (sys.B.T @ p_xc.head))
        + float((sys.C @ om.head) @ (sys.C @ xc.head))
    )
    return abs(total)


def tracking_operator_residual(trk: TrackingField, xi: StateElement) -> float:
    """Residual of the operator form of the tracking equations.

    Checks d/dtau <d(tau), Xi> = -<d(tau), (A - B B* P) Xi> + <y, C Xi>
    at the node of ``xi`` with the same node-based tau-derivative;
    first-order small.
    """
    ric, j = trk.ric, xi.tau_index
    sys, grid = ric.sys, ric.sys.grid
    _check_state(sys, xi)

    def pair(c: int) -> float:
        return state_inner(grid, tracking_element(trk, c), _resample(xi, c, grid))

    dterm = _tau_derivative(ric, j, pair)

    xc = _resample(xi, j, grid)
    dj = tracking_element(trk, j)
    a_xc = state_operator(sys, xc)
    p_head = riccati_operator(ric, xc).head
    rhs = (
        -state_inner(grid, dj, a_xc)
        + float(dj.head @ (sys.B @ (sys.B.T @ p_head)))
        + float(trk.y.values[j] @ (sys.C @ xc.head))
    )
    return abs(dterm - rhs)
