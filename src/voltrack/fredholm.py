"""Costate synthesis via a Fredholm integral equation of the second kind.

The optimal control is u(t) = -B* p(t) where the costate p solves

    p(t) + int_tau^T Ktilde(t,r) B B* p(r) dr = Y(t),

with the tracking kernel Ktilde(t,r) = int_{max(t,r)}^T Z(s-t) C*C Z*(s-r) ds
and a forcing Y built from the free response and the reference signal.
The equation is discretized by the Nystrom method with trapezoid weights
and solved by one dense LU (numpy's LAPACK ``gesv``, O(n^3 d^3)); the
resolvent kernel R re-expresses the solution as p = Y - R Y and feeds the
synthesis kernels Q0/Q1/Q2 (costate) and H0/H1/H2 (trajectory).
``resolvent_norms`` gives the largest block norm of R on every window
[t_kk, T] from the window-0 resolvent alone: each later window is a
rank-2d Woodbury downdate of the one before, O(n^3 d^3) in all, and each
norm is screened in one pass over the node-major matrix of the downdates.
The window from node k has one kernel, ``build_kernel(Z, k)``.

Every stage builds on the one before it, and each artifact carries what
it was built from: the plant carries the grid its kernel is sampled on,
Z carries the plant ``fundamental_matrix`` solved it for, the tracking
kernel carries Z, and the costate, the resolvent and the synthesis maps
carry the tracking kernel; the costate also carries the reference it was
solved for.  So no stage after ``fundamental_matrix`` takes the plant or
the grid again, and no stage after ``build_kernel`` takes Z: the forcing
is built from the kernel, the state and the reference.

Discrete conventions
--------------------
All quadratures share the grid's trapezoid weights, so the Q/H route
reproduces the Nystrom costate to round-off; every sum over a window that
slides with its node is ``model._window_sums``.  The y-kernels Q2 and H2 are
stored in quadrature-absorbed form (node weights folded in): the jump of
1(s-t) Z(s-t) at s = t is handled by splitting the trapezoid at the node,
where the left limit is zero, so the sample at the jump node carries
weight h/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SingularSystemError
from .model import (
    ControlSignal,
    FundamentalMatrix,
    InitialState,
    ReferenceSignal,
    StateTrajectory,
    _check_pair,
    _check_state,
    _history,
    _lag_gather,
    _node,
    _node_derivative,
    _start,
    _window_sums,
    trapezoid_weights,
    voc_solution,
)

__all__ = [
    "TrackingKernel",
    "CostateTrajectory",
    "ResolventKernel",
    "SynthesisKernels",
    "build_kernel",
    "build_forcing",
    "solve_fredholm",
    "resolvent",
    "resolvent_norms",
    "optimal_control_fredholm",
    "synthesis_kernels",
    "apply_synthesis",
    "costate_residual",
]


@dataclass(frozen=True, eq=False)
class TrackingKernel:
    """Ktilde samples on the node pairs of [tau, T]^2, built from ``Z``.

    ``ktilde[i, j]`` is the d x d value at (t_{k+i}, t_{k+j}); the rows
    and columns at T vanish and ktilde(t, r) = ktilde(r, t)^T.
    """

    start_index: int
    ktilde: np.ndarray = field(repr=False)
    Z: FundamentalMatrix = field(repr=False)


@dataclass(frozen=True, eq=False)
class CostateTrajectory:
    """Costate samples p_i on nodes tau..T; p(T) = 0.

    ``kernel``, the tracking kernel the costate was solved from, holds tau;
    ``y`` is the reference it was solved for.
    """

    values: np.ndarray = field(repr=False)
    kernel: TrackingKernel = field(repr=False)
    y: ReferenceSignal = field(repr=False)


@dataclass(frozen=True, eq=False)
class ResolventKernel:
    """Resolvent samples R(t_i, r_j; tau) on [tau, T]^2 node pairs.

    ``kernel``, the tracking kernel the resolvent was solved from, holds tau.
    """

    values: np.ndarray = field(repr=False)
    kernel: TrackingKernel = field(repr=False)

    @property
    def max_norm(self) -> float:
        """Largest spectral norm of a d x d block of R."""
        return _max_block_norm(self.values.transpose(0, 2, 1, 3))


def _max_block_norm(X: np.ndarray, node: int | None = None) -> float:
    """Largest spectral norm over the d x d blocks X[i, :, j, :] of the
    node-major matrix ``X`` (i, d, j, d), a view that needs no copy.

    Bitwise equal to ``np.linalg.norm(X, axis=(1, 3), ord=2).max()`` with
    an SVD on few blocks: ||M||_2 <= ||M||_F, so a block whose Frobenius
    norm lies below L (1 - 1e-12), L the spectral norm of the block with
    the largest Frobenius norm, cannot hold the maximum; the margin covers
    the rounding of both norms.  The Frobenius norms are taken on X scaled
    by its largest magnitude, so squares neither underflow nor overflow.
    All-zero and non-finite X skip the screen; with a ``node``, a NaN or
    an inf raises :class:`SingularSystemError` naming the window from that
    node instead (the SVD would not converge).
    """
    if X.size == 0:
        return 0.0
    scale = np.abs(X).max()
    if node is not None and not scale < np.inf:
        raise SingularSystemError(
            f"resolvent on the window from node {node} has non-finite entries"
        )
    if not 0.0 < scale < np.inf:
        return float(np.linalg.norm(X, axis=(1, 3), ord=2).max())
    scaled = X / scale
    fro = np.sqrt(np.einsum("iajb,iajb->ij", scaled, scaled))
    i, j = np.unravel_index(np.argmax(fro), fro.shape)
    # L <= ||M||_F; the min keeps the top block when L overflows to inf
    top = min(np.linalg.norm(X[i, :, j, :], ord=2) / scale, fro[i, j])
    ii, jj = np.nonzero(fro >= top * (1.0 - 1e-12))
    return float(np.linalg.norm(X[ii, :, jj, :], axis=(1, 2), ord=2).max())


@dataclass(frozen=True, eq=False)
class SynthesisKernels:
    """Discrete Q/H synthesis maps for a fixed starting node.

    q0, q1, h0, h1 hold plain node samples (applied with trapezoid
    weights); q2 and h2 are stored weighted, i.e. with the s-quadrature
    over [tau, T] (including the diagonal-jump split) already folded in.
    ``kernel``, the tracking kernel the maps were built from, holds tau.
    """

    kernel: TrackingKernel = field(repr=False)
    q0: np.ndarray = field(repr=False)
    q1: np.ndarray = field(repr=False)
    q2: np.ndarray = field(repr=False)
    h0: np.ndarray = field(repr=False)
    h1: np.ndarray = field(repr=False)
    h2: np.ndarray = field(repr=False)


def build_kernel(Z: FundamentalMatrix, start_index: int = 0) -> TrackingKernel:
    """Assemble Ktilde(t,r) = int_{max(t,r)}^T Z(s-t) C*C Z*(s-r) ds.

    Trapezoid quadrature on Z's grid; assembled one lag diagonal at a
    time so the whole table costs O(n^2) matrix products.  Ktilde does not
    depend on tau: window k is window 0's lower-right block, bit for bit.
    """
    sys = Z.sys
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    k = _node(start_index, "start_index", hi=n)
    nk = n - k + 1
    Zv = Z.values
    CC = sys.C.T @ sys.C
    ZCC = Zv @ CC  # Z(u) C*C, batched over u
    ktilde = np.zeros((nk, nk, d, d))
    for lag in range(nk):
        m = nk - lag  # pairs (i, j) with i - j = lag, i = k+lag .. n
        G = np.matmul(ZCC[:m], np.transpose(Zv[lag : lag + m], (0, 2, 1)))
        cum = np.cumsum(G, axis=0)
        # row i has n-i = (m-1) - t quadrature panels, t the along-diagonal index
        arr = h * cum - 0.5 * h * G - 0.5 * h * G[0]
        block = arr[::-1]
        rows = lag + np.arange(m)
        ktilde[rows, np.arange(m)] = block
        if lag > 0:
            ktilde[np.arange(m), rows] = np.transpose(block, (0, 2, 1))
    ktilde[-1, :] = 0.0  # empty integration range at t = T and r = T
    ktilde[:, -1] = 0.0
    return TrackingKernel(k, ktilde, Z)


def build_forcing(kernel: TrackingKernel, xi: InitialState, y: ReferenceSignal) -> np.ndarray:
    """Forcing Y(t) = int_t^T Z(s-t) C* [C Y0(s) - y(s)] ds, (n - tau + 1, d).

    Z and tau are the kernel's; Y0 is the free response of Z's plant from
    the initial state (head propagated by Z* plus the tail-driven
    convolution term).  A state at another node than the kernel's is
    refused.  O((n - tau) (n d^2 + m d)): Y0 and the sums for Y take
    O((n - tau)^2 d^2) each, the tail term of Y0 O((n - tau) tau d^2).
    """
    Z, sys, k = kernel.Z, kernel.Z.sys, kernel.start_index
    if xi.tau_index != k:
        raise ConfigurationError(f"state node {xi.tau_index} differs from the kernel node {k}")
    y0 = voc_solution(Z, xi, ControlSignal.zero(sys.grid, sys.m, k)).values[k:]
    v = (y0 @ sys.C.T - y.window(sys.grid.steps + 1, sys.p, k)) @ sys.C  # C*(C Y0 - y)
    return _window_sums("qab,qb,q->a", Z.values, v, sys.grid.h, ahead=True)


def _kernel_bbt(kernel: TrackingKernel) -> np.ndarray:
    """Ktilde BB* blocks on the kernel's window."""
    B = kernel.Z.sys.B
    bbt = B @ B.T
    return np.einsum("ijab,bc->ijac", kernel.ktilde, bbt)


def _nystrom_solve(kb: np.ndarray, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + Ktilde BB* W) x = rhs by one dense LU, O(n^3 d^3).

    ``kb`` holds the Ktilde BB* blocks of one window and ``w`` its
    trapezoid weights.  A NaN or inf in the system or in the solution and
    an exactly zero pivot raise :class:`SingularSystemError`; unchecked,
    LAPACK would return NaNs for the first and numpy raises ``LinAlgError``
    on the last.
    """
    nk, d = kb.shape[0], kb.shape[2]
    big = (kb * w[None, :, None, None]).transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
    big[np.diag_indices_from(big)] += 1.0
    if not (np.isfinite(big).all() and np.isfinite(rhs).all()):
        raise SingularSystemError("Nystrom system has non-finite entries")
    try:
        sol = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Nystrom matrix is singular: {exc}") from exc
    if not np.isfinite(sol).all():
        raise SingularSystemError("Nystrom solve produced non-finite values")
    return sol


def solve_fredholm(
    kernel: TrackingKernel, xi: InitialState, y: ReferenceSignal
) -> CostateTrajectory:
    """Nystrom solve of p + int_tau^T Ktilde(t,r) BB* p(r) dr = Y, with Y
    the :func:`build_forcing` of the state ``xi`` and the reference ``y``.

    Cost O(n^3 d^3) for the dense LU, after O(n^2 d^3) to form Ktilde BB*.
    A non-finite system or solution or a zero pivot raises
    :class:`SingularSystemError`.
    """
    rhs = build_forcing(kernel, xi, y).reshape(-1)
    sol = _nystrom_solve(_kernel_bbt(kernel), kernel.Z.sys.grid.weights(kernel.start_index), rhs)
    return CostateTrajectory(sol.reshape(-1, kernel.ktilde.shape[2]), kernel, y)


def resolvent(kernel: TrackingKernel) -> ResolventKernel:
    """Resolvent R solving R(t,r) + int Ktilde(t,v) BB* R(v,r) dv = Ktilde(t,r) BB*.

    One dense factorization serves all n d column right-hand sides, so the
    cost is O(n^3 d^3) in all.  A non-finite system or solution or a zero
    pivot raises :class:`SingularSystemError`.
    """
    kb = _kernel_bbt(kernel)
    nk, d = kb.shape[0], kb.shape[2]
    rhs = kb.transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
    sol = _nystrom_solve(kb, kernel.Z.sys.grid.weights(kernel.start_index), rhs)
    return ResolventKernel(sol.reshape(nk, d, nk, d).transpose(0, 2, 1, 3), kernel)


def resolvent_norms(R: ResolventKernel) -> list[float]:
    """``max_norm`` of the resolvent on every window [t_kk, T], kk = k..n-1,
    k the start node of the window-0 resolvent ``R``.

    Entry 0 is ``R.max_norm``.  Each later window comes from the one before
    by a rank-2d downdate, with no dense solve of its own.  Going from
    [t_i, T] to [t_{i+1}, T] moves the trapezoid weights of the window's
    first two nodes J from (h/2, h) to (0, h/2), a change c = -h/2 on J of
    I + Ktilde BB* W.  By Woodbury, with X the (node d) x (node d) matrix
    of R,

        X <- X - c X[:, J] (I + c X[J, J])^-1 X[J, :],

    and a zero weight decouples node i, so the rows and columns of the
    later nodes are the next window's resolvent.  This is the discrete
    form of the Bellman-Krein identity d/dtau R(t,s;tau) = R(t,tau;tau)
    R(tau,s;tau).  Each window costs one 2d x 2d solve and one rank-2d
    product, O(n^3 d^3) over the sweep, plus O(n^3 d^2) for the Frobenius
    screens of the block norms, one pass each over X's (i, d, j, d) view.
    The entries agree with a fresh solve per window to round-off.  By the
    determinant lemma det(I + c X[J, J]) is det of the next window's
    Nystrom matrix over this one's, so a zero pivot there raises
    :class:`SingularSystemError`, as the per-window solve does for the
    singular window; so does a NaN or an inf, naming the window's node.
    """
    nk, d, k = R.values.shape[0], R.values.shape[2], R.kernel.start_index
    c = -0.5 * R.kernel.Z.sys.grid.h
    X = R.values.transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
    norms = [_max_block_norm(X.reshape(nk, d, nk, d), k)] if nk > 1 else []
    with np.errstate(all="ignore"):  # an overflowing downdate is refused as non-finite
        for size in range(nk - 1, 1, -1):  # node count of the next window
            try:
                gain = np.linalg.solve(np.eye(2 * d) + c * X[: 2 * d, : 2 * d], X[: 2 * d, d:])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(f"Nystrom matrix is singular: {exc}") from exc
            X = X[d:, d:] - c * (X[d:, : 2 * d] @ gain)
            norms.append(_max_block_norm(X.reshape(size, d, size, d), k + nk - size))
    return norms


def optimal_control_fredholm(p: CostateTrajectory) -> ControlSignal:
    """u(t) = -B* p(t), node by node, B the input matrix of p's plant."""
    return ControlSignal(p.kernel.start_index, -(p.values @ p.kernel.Z.sys.B))


def _row_weight_matrix(nk: int, h: float) -> np.ndarray:
    """W[i, q] = trapezoid weight of node q on the window [t_i, T] (0 for q < i)."""
    W = np.zeros((nk, nk))
    for i in range(nk):
        W[i, i:] = trapezoid_weights(nk - i, h)
    return W


def synthesis_kernels(R: ResolventKernel) -> SynthesisKernels:
    """Assemble the Q and H kernels of the closed-form optimal pair.

    The costate splits as p = Q0 head + int Q1 tail + int Q2 y and the
    optimal trajectory as w = H0 head + int H1 tail + int H2 y; all six
    maps are built from the resolvent with the shared trapezoid weights,
    so applying them reproduces the Nystrom solve to round-off.  The start
    node is the resolvent's; Ktilde, Z and the plant are read from the
    tracking kernel ``R`` was solved from.  O((n - tau)^3 d^2 p) for the
    y-maps Q2 and H2, O((n - tau)^2 (tau + 1) d^3) for the others, and
    O((n - tau) ((n - tau) (d + p) + tau d) d) memory.
    """
    kernel, Z = R.kernel, R.kernel.Z
    k, ktilde = kernel.start_index, kernel.ktilde
    sys, grid, Zv = Z.sys, Z.sys.grid, Z.values
    n, d, h = grid.steps, sys.d, grid.h
    nk = n - k + 1
    bbt = sys.B @ sys.B.T
    rw = R.values * grid.weights(k)[None, :, None, None]

    # costate maps
    q0 = ktilde[:, 0] - np.einsum("ijab,jbc->iac", rw, ktilde[:, 0], optimize=True)
    # E(t_s, t_v) = int_tau^{t_s} Z*(t_s - r) N(r - t_v) dr, v = 0..tau
    Zt, NT = np.transpose(Zv, (0, 2, 1)), _lag_gather(sys.N, k)
    e_tail = _window_sums("rab,rvbc,r->vac", Zt, NT, h, ahead=False)
    ZCC = Zv @ (sys.C.T @ sys.C)
    q1a = _window_sums("sab,svbc,s->vac", ZCC, e_tail, h, ahead=True)
    q1 = q1a - np.einsum("ijab,jvbc->ivac", rw, q1a, optimize=True)
    rowW = _row_weight_matrix(nk, h)
    zc = Zv[:nk] @ sys.C.T  # Z(s-t) C*, by lag
    q2a = np.zeros((nk, nk, d, sys.p))
    for i in range(nk):
        q2a[i, i:] = rowW[i, i:, None, None] * zc[: nk - i]
    q2 = -q2a + np.einsum("iqab,qjbc->ijac", rw, q2a, optimize=True)

    # trajectory maps: substitute u = -B* p into the variation of constants
    zt2 = np.zeros((nk, nk, d, d))
    for i in range(nk):
        zt2[i, : i + 1] = np.transpose(Zv[i::-1], (0, 2, 1))
    lowW = rowW[::-1, ::-1]  # weights on [t_0, t_i]; trapezoid weights are symmetric
    prop = np.einsum("iq,iqab,bc->iqac", lowW, zt2, bbt, optimize=True)
    h0 = np.transpose(Zv[:nk], (0, 2, 1)) - np.einsum(
        "iqab,qbc->iac", prop, q0, optimize=True
    )
    h1 = e_tail - np.einsum("iqab,qvbc->ivac", prop, q1, optimize=True)
    h2 = -np.einsum("iqab,qjbc->ijac", prop, q2, optimize=True)
    return SynthesisKernels(kernel, q0, q1, q2, h0, h1, h2)


def apply_synthesis(
    kernels: SynthesisKernels, xi: InitialState, y: ReferenceSignal
) -> tuple[ControlSignal, StateTrajectory]:
    """Evaluate the optimal pair (u, w) from the Q/H maps at the state's
    node, which must be the maps' own.  O((n - tau) ((n - tau) p
    + (tau + 1) d + m) d): the y-maps take O((n - tau)^2 d p), the tail
    maps O((n - tau) tau d^2).
    """
    k, sys = kernels.kernel.start_index, kernels.kernel.Z.sys
    _check_state(sys, xi)
    if xi.tau_index != k:
        raise ConfigurationError(f"state node {xi.tau_index} differs from the synthesis node {k}")
    yk = y.window(sys.grid.steps + 1, sys.p, k)

    def apply(head_map, tail_map, y_map):  # head_map head + int tail_map tail + int y_map y
        return (
            np.einsum("iab,b->ia", head_map, xi.head)
            + _history(tail_map, xi.tail, sys.grid.h)
            + np.einsum("ijab,jb->ia", y_map, yk)
        )

    u = -(apply(kernels.q0, kernels.q1, kernels.q2) @ sys.B)
    wvals = apply(kernels.h0, kernels.h1, kernels.h2)
    full = _start(xi, k + wvals.shape[0] - 1)
    full[k:] = wvals
    return ControlSignal(k, u), StateTrajectory(k, full)


def costate_residual(p: CostateTrajectory, wplus: StateTrajectory) -> float:
    """Max-node residual of the costate differential equation of p's plant.

    Checks p' = -A* p - int_t^T N*(s-t) p(s) ds - C*(C w - y), y the
    reference p was solved for, with a second-order difference p'; the
    residual shrinks at least linearly in h; a NaN at any node gives NaN.
    O((n - tau)^2 d^2 + n p d).
    """
    sys = p.kernel.Z.sys
    k, h = p.kernel.start_index, sys.grid.h
    _check_pair(sys, wplus, k)
    pv = p.values
    dp = _node_derivative(pv, h)
    mem = _window_sums("sba,sb,s->a", sys.N, pv, h, ahead=True)
    outer = (wplus.values[k:] @ sys.C.T - p.y.values[k:]) @ sys.C
    rhs = -(sys.A.T @ pv[..., None])[..., 0] - mem - outer
    return float(np.abs(dp - rhs).max())
