"""Finite-memory state-space operators and discretized operator identities.

The running pair (current value, history) in R^d x L^2(0, tau; R^d) is a
:class:`voltrack.model.InitialState`, its tail in time order like every
state of the package, so a domain element satisfies tail(tau) = head.  In
the age s = tau - t the plant is the transport realization

    head' = A head + int_0^tau N(s) tail(tau - s) ds + B u,
    tail' = -D_s tail,   tail at age 0 = head,

and D_s = -D_t makes the tail's generator +D_t in time order.  The
feedback synthesis becomes a differential identity for the quadratic form
of the Riccati operator and a linear identity for the tracking element.
Both are checked here as discretized residuals at a node j, on test
elements sampled from smooth generators: quadratures are trapezoid sums,
and D_t and the tau-derivative take :func:`voltrack.model._node_derivative`'s
stencil, central inside the grid and three-point one-sided at its ends, so
the residuals are second-order small inside the grid.  The P2 block of the
Riccati operator acts through the tail contractions of
:mod:`voltrack.riccati`, so no P2 slice is ever formed.  The plant carries
the grid its kernel is sampled on; the operators and residuals read the
plant from the solved field, and the Riccati field and reference from the
tracking field.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .model import (
    InitialState,
    SystemSpec,
    TimeGrid,
    _check_state,
    _history,
    _lag_gather,
    _node,
    _node_derivative,
    trapezoid_weights,
)
from .riccati import RiccatiField, TrackingField, _tail_contractions

__all__ = [
    "make_domain_element",
    "state_operator",
    "riccati_operator",
    "tracking_element",
    "state_inner",
    "riccati_operator_residual",
    "tracking_operator_residual",
]


def make_domain_element(seed: Callable, tau_index: int, grid: TimeGrid) -> InitialState:
    """Sample a smooth generator of the age at ages 0..tau, stored in time
    order; tail(tau) = head holds by construction.  A scalar generator
    gives a d = 1 element."""
    _node(tau_index, "tau_index", hi=grid.steps)
    rows = [np.atleast_1d(seed(s)) for s in grid.nodes[: tau_index + 1]]
    for i, row in enumerate(rows):
        if row.shape != rows[0].shape:
            name = getattr(seed, "__qualname__", repr(seed))
            raise ConfigurationError(
                f"generator {name} returns shape {row.shape} at node {i}, {rows[0].shape} at node 0"
            )
    tail = np.ascontiguousarray(np.asarray(rows, dtype=float)[::-1])
    return InitialState(tau_index, tail[-1].copy(), tail)


def state_operator(sys: SystemSpec, elem: InitialState) -> InitialState:
    """Action of the transport generator at a node >= 2: memory-coupled head, D_t tail."""
    _check_state(sys, elem)
    k, h = _node(elem.tau_index, "state_operator's elem.tau_index", lo=2), sys.grid.h
    head = sys.A @ elem.head + _history(sys.N[None, k::-1], elem.tail, h)[0]
    return InitialState(k, head, _node_derivative(elem.tail, h))


def riccati_operator(ric: RiccatiField, elem: InitialState) -> InitialState:
    """Action of the block operator [P0, P1-row; P1-col, P2] on an element,
    at the element's node.

    The tail couplings use P1(s, tau) and P2(s, v, tau).  The P2 action at
    time s is the trapezoid sum over q in [j, n] of
    N*(tau_q - s) z_q + P1*(s, tau_q)(x_q - BB* z_q), with x_q, z_q the
    tail contractions of :mod:`voltrack.riccati`; O((n-j) j d^2).
    """
    _check_state(ric.sys, elem)
    j = elem.tau_index
    x, z = _tail_contractions(ric, j, elem.tail)
    wq = ric.sys.grid.weights(j)[:, None]
    p1 = np.ascontiguousarray(ric.p1[: j + 1, j:])
    tail = np.einsum("qiba,qb->ia", _lag_gather(ric.sys.N, j), wq * z)
    tail += np.einsum("iqba,qb->ia", p1, wq * (x - z @ ric.sys.B @ ric.sys.B.T))
    tail += np.einsum("iba,b->ia", p1[:, 0], elem.head)
    return InitialState(j, ric.p0[j] @ elem.head + z[0], tail)


def tracking_element(trk: TrackingField, tau_index: int) -> InitialState:
    """The pair (d1(tau), d2(., tau)) on nodes 0..tau as an element."""
    j = _node(tau_index, "tau_index", hi=trk.ric.sys.grid.steps)
    return InitialState(j, trk.d1[j].copy(), trk.d2[: j + 1, j].copy())


def state_inner(grid: TimeGrid, a: InitialState, b: InitialState) -> float:
    """Inner product: head dot head plus the trapezoid tail pairing."""
    if a.tau_index != b.tau_index:
        raise ConfigurationError("elements live at different nodes")
    if a.d != b.d:
        raise ConfigurationError(f"elements have different d ({a.d} and {b.d})")
    wt = trapezoid_weights(a.tau_index + 1, grid.h)
    return float(a.head @ b.head + np.einsum("i,ia,ia->", wt, a.tail, b.tail))


def _tau_derivative(grid: TimeGrid, j: int, f: Callable[[int], float], fj: float) -> float:
    """d/dtau of f(node) at node j >= 1, whose value there is ``fj``: the node
    derivative over the three nodes around j, one-sided at tau = T."""
    lo = min(j - 1, grid.steps - 2)
    vals = np.array([fj if c == j else f(c) for c in range(lo, lo + 3)])
    return float(_node_derivative(vals, grid.h)[j - lo])


def riccati_operator_residual(ric: RiccatiField, omega: Callable, xi: Callable, j: int) -> float:
    """Residual of the operator form of the feedback-synthesis identity.

    Evaluates d/dtau <Omega, P Xi> + <A Omega, P Xi> + <P Omega, A Xi>
    - <B* P Omega, B* P Xi> + <C Omega, C Xi> at node j, with Omega and
    Xi sampled from the generators ``omega`` and ``xi`` at j and at the
    nodes the tau-derivative reads.  Second-order small in h inside the
    grid; at tau = T the tau-derivative is the three-point one-sided one.
    Like the tracking residual, it takes j in 2..n and refuses any other first.
    """
    sys, grid = ric.sys, ric.sys.grid
    _node(j, "j", lo=2, hi=grid.steps)

    def quad(c: int) -> float:
        om_c = make_domain_element(omega, c, grid)
        return state_inner(grid, om_c, riccati_operator(ric, make_domain_element(xi, c, grid)))

    om, xc = make_domain_element(omega, j, grid), make_domain_element(xi, j, grid)
    p_om = riccati_operator(ric, om)  # refuses an element off the plant
    p_xc = riccati_operator(ric, xc)
    total = (
        _tau_derivative(grid, j, quad, state_inner(grid, om, p_xc))
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
    _node(j, "j", lo=2, hi=grid.steps)

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
    return abs(_tau_derivative(grid, j, pair, state_inner(grid, dj, xc)) - rhs)
