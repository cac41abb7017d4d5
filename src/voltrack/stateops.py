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
residuals at a node j, on test elements sampled from smooth generators:
quadratures are trapezoid sums, and both the age derivative D_s and the
tau-derivative take :func:`voltrack.model._node_derivative`'s stencil,
central inside the grid and three-point one-sided at its ends, so the
residuals are second-order small inside the grid.  The P2 block of the
Riccati operator acts through the tail contractions of
:mod:`voltrack.riccati`, so no P2 slice is ever formed.  The plant
carries the grid its kernel is sampled on; the Riccati and tracking
operators and their residuals read the plant from the solved field, and
the Riccati field and reference from the tracking field.
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
    _index,
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
    """

    tau_index: int
    head: np.ndarray
    tail: np.ndarray = field(repr=False)

    def __post_init__(self):
        head = np.asarray(self.head, dtype=float).reshape(-1)
        tail = np.asarray(self.tail, dtype=float)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)
        _index(self.tau_index, "tau_index")
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
    _index(tau_index, "node")
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
    return StateElement(tau_index, tail[0].copy(), tail)


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


def _tau_derivative(grid: TimeGrid, j: int, f: Callable[[int], float]) -> float:
    """d/dtau of f(node) at node j: the node derivative over the three
    nodes around j, one-sided at tau = 0 and tau = T."""
    lo = min(max(j - 1, 0), grid.steps - 2)
    return float(_node_derivative(np.array([f(c) for c in range(lo, lo + 3)]), grid.h)[j - lo])


def riccati_operator_residual(ric: RiccatiField, omega: Callable, xi: Callable, j: int) -> float:
    """Residual of the operator form of the feedback-synthesis identity.

    Evaluates d/dtau <Omega, P Xi> + <A Omega, P Xi> + <P Omega, A Xi>
    - <B* P Omega, B* P Xi> + <C Omega, C Xi> at node j, with Omega and
    Xi sampled from the generators ``omega`` and ``xi`` at j and at the
    nodes the tau-derivative reads.  Second-order small in h inside the
    grid; at tau = T the tau-derivative is the three-point one-sided one.
    Like the tracking residual, it needs j >= 2 for the age derivative.
    """
    sys, grid = ric.sys, ric.sys.grid

    def quad(c: int) -> float:
        om_c = make_domain_element(omega, c, grid)
        return state_inner(grid, om_c, riccati_operator(ric, make_domain_element(xi, c, grid)))

    om, xc = make_domain_element(omega, j, grid), make_domain_element(xi, j, grid)
    p_om = riccati_operator(ric, om)  # refuses an element off the plant
    p_xc = riccati_operator(ric, xc)
    total = (
        _tau_derivative(grid, j, quad)
        + state_inner(grid, state_operator(sys, om), p_xc)
        + state_inner(grid, p_om, state_operator(sys, xc))
        - float((sys.B.T @ p_om.head) @ (sys.B.T @ p_xc.head))
        + float((sys.C @ om.head) @ (sys.C @ xc.head))
    )
    return abs(total)


def tracking_operator_residual(trk: TrackingField, xi: Callable, j: int) -> float:
    """Residual of the operator form of the tracking equations.

    Checks d/dtau <d(tau), Xi> = -<d(tau), (A - B B* P) Xi> + <y, C Xi>
    at node j, Xi sampled from the generator ``xi``, with the same
    tau-derivative: second-order small inside the grid and at tau = T.
    """
    ric = trk.ric
    sys, grid = ric.sys, ric.sys.grid

    def pair(c: int) -> float:
        return state_inner(grid, tracking_element(trk, c), make_domain_element(xi, c, grid))

    xc = make_domain_element(xi, j, grid)
    p_head = riccati_operator(ric, xc).head  # refuses an element off the plant
    dj = tracking_element(trk, j)
    rhs = (
        -state_inner(grid, dj, state_operator(sys, xc))
        + float(dj.head @ (sys.B @ (sys.B.T @ p_head)))
        + float(trk.y.values[j] @ (sys.C @ xc.head))
    )
    return abs(_tau_derivative(grid, j, pair) - rhs)
