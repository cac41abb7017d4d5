"""Independent ground truth: direct transcription to a least-squares problem.

The discrete tracking cost is a quadratic in the stacked control nodes,

    J(u) = sum_i w_i ( ||(G u + g)_i - y_i||^2 + ||u_i||^2 ),

with g the zero-control response of the plant integrator and G its
unit-impulse responses.  From a zero state the integrator is
shift-invariant, so the impulse at node k + r gives the node-(k+1)
response moved down r - 1 blocks: G takes 2m impulse runs (nodes k and
k + 1 per input channel), O(m n^2 d^2) in all, not one run per node.
The minimizer solves the SPD normal equations by one dense LU (numpy's
LAPACK ``gesv``); the trapezoid weights w match the cost used everywhere
else, so the oracle's optimality is exact on the shared grid, not merely
asymptotic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularSystemError
from .model import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    SystemSpec,
    _check_state,
    simulate,
)

__all__ = [
    "DiscreteAffineMap",
    "build_affine_map",
    "solve_qp",
    "qp_cost",
    "qp_gradient",
    "gradient_check",
]


@dataclass(frozen=True, eq=False)
class DiscreteAffineMap:
    """Stacked control-to-output map of the discretized plant.

    ``G @ u_stacked + g`` equals the stacked output C w of the
    integrator driven by u from the frozen initial state; ``weights``
    are the trapezoid weights of the cost window.
    """

    start_index: int
    p: int
    m: int
    G: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_affine_map(sys: SystemSpec, xi: InitialState) -> DiscreteAffineMap:
    """Assemble (G, g) from 2m + 1 integrator runs.

    g is the zero-control run from xi.  Column block r of G is the output
    response to a unit impulse at node k + r, run from the zero state at
    node k.  From that state the run is shift-invariant: the tail forcing
    is zero, the step matrix is fixed, the lag N(t_i - t_j) depends on
    i - j only, and every memory weight after node k is h.  An impulse at
    node k + r (r >= 1) keeps the state exactly zero through node
    k + r - 1, so from there on it repeats the node-(k+1) run step by
    step, with the same nonzero terms in every sum and only exact zeros
    added.  Its column is therefore the node-(k+1) column moved down
    r - 1 blocks and cut at node n, bit for bit.  The head column (node k)
    needs a run of its own: node k carries the end-point weight h/2 and
    the impulse enters the first step's start slope.  Cost O(m n^2 d^2)
    for the runs plus O(n^2 p m) to fill G, against O(m n^3 d^2) for one
    run per node and channel.  A state off the plant is refused first.
    """
    _check_state(sys, xi)
    k, grid = xi.tau_index, sys.grid
    nk = grid.steps + 1 - k
    m, p = sys.m, sys.p
    g_traj = simulate(sys, xi, ControlSignal.zero(grid, m, k))
    g_vec = (g_traj.values[k:] @ sys.C.T).reshape(-1)
    zero_state = InitialState(k, np.zeros(sys.d))

    def response(q: int, a: int) -> np.ndarray:
        uvals = np.zeros((nk, m))
        uvals[q, a] = 1.0
        run = simulate(sys, zero_state, ControlSignal(k, uvals))
        return (run.values[k:] @ sys.C.T).reshape(-1)

    G = np.zeros((nk * p, nk * m))
    for a in range(m):
        G[:, a] = response(0, a)
        if nk > 1:
            col = response(1, a)
            for r in range(1, nk):
                G[r * p :, r * m + a] = col[p : p + (nk - r) * p]
    return DiscreteAffineMap(k, p, m, G, g_vec, grid.weights(k))


def _weight_vectors(dmap: DiscreteAffineMap) -> tuple[np.ndarray, np.ndarray]:
    wp = np.repeat(dmap.weights, dmap.p)
    wm = np.repeat(dmap.weights, dmap.m)
    return wp, wm


def _target(dmap: DiscreteAffineMap, y: ReferenceSignal) -> np.ndarray:
    """The stacked reference on the map's window; one sampled on another
    grid is refused."""
    k = dmap.start_index
    return y.window(k + dmap.weights.size, dmap.p, k).reshape(-1)


def _stacked(dmap: DiscreteAffineMap, u: ControlSignal) -> np.ndarray:
    """The stacked control; one off the map's window or inputs is refused."""
    k, nk = dmap.start_index, dmap.weights.size
    if u.start_index != k or u.values.shape != (nk, dmap.m):
        raise ConfigurationError(
            f"control {u.values.shape} from node {u.start_index} is off the map's window "
            f"({nk} nodes from node {k}, m={dmap.m})"
        )
    return u.values.reshape(-1)


def qp_cost(dmap: DiscreteAffineMap, y: ReferenceSignal, u: ControlSignal) -> float:
    """Weighted discrete cost of a stacked control; O((n - tau)^2 p m) for
    the product with G."""
    wp, wm = _weight_vectors(dmap)
    uv = _stacked(dmap, u)
    r = dmap.G @ uv + dmap.g - _target(dmap, y)
    return float(wp @ (r * r) + wm @ (uv * uv))


def qp_gradient(
    dmap: DiscreteAffineMap, y: ReferenceSignal, u: ControlSignal
) -> np.ndarray:
    """Analytic gradient of :func:`qp_cost` with respect to the stacked u;
    O((n - tau)^2 p m) for the products with G and G*."""
    wp, wm = _weight_vectors(dmap)
    uv = _stacked(dmap, u)
    r = dmap.G @ uv + dmap.g - _target(dmap, y)
    return 2.0 * (dmap.G.T @ (wp * r) + wm * uv)


def solve_qp(dmap: DiscreteAffineMap, y: ReferenceSignal) -> ControlSignal:
    """Minimize the discrete cost via the SPD normal equations.

    Forming H = G* W G costs O(n^3 p m^2) and its dense LU O(n^3 m^3).  A
    NaN or inf in the system and an exactly zero pivot both raise
    :class:`SingularSystemError`.
    """
    wp, wm = _weight_vectors(dmap)
    with np.errstate(invalid="ignore", over="ignore"):  # the check below reports it
        H = dmap.G.T @ (wp[:, None] * dmap.G)
        H[np.diag_indices_from(H)] += wm
        rhs = -dmap.G.T @ (wp * (dmap.g - _target(dmap, y)))
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise SingularSystemError("QP normal equations have non-finite entries")
    try:
        sol = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise SingularSystemError(f"QP normal equations are singular: {exc}") from exc
    return ControlSignal(dmap.start_index, sol.reshape(-1, dmap.m))


def gradient_check(
    dmap: DiscreteAffineMap, y: ReferenceSignal, u: ControlSignal, eps: float
) -> float:
    """Max gap between central differences of the cost and the gradient:
    two :func:`qp_cost` calls per control entry, O((n - tau)^3 p m^2)."""
    if not 0.0 < eps < np.inf:  # a NaN eps fails this test too
        raise ConfigurationError(f"eps must be a finite number > 0, got {eps!r}")
    grad = qp_gradient(dmap, y, u)
    worst = 0.0
    base = u.values.copy()
    for idx in range(base.size):
        q, a = divmod(idx, dmap.m)
        plus_minus = []
        for sign in (1.0, -1.0):
            base[q, a] += sign * eps
            plus_minus.append(qp_cost(dmap, y, ControlSignal(dmap.start_index, base)))
            base[q, a] -= sign * eps
        fd = (plus_minus[0] - plus_minus[1]) / (2.0 * eps)
        worst = max(worst, abs(fd - grad[idx]))
    return worst
