"""The Fredholm route's windowed trapezoid sums keep the bits of their own loops.

``model._window_sums`` is the one sliding-window quadrature behind
``voc_solution``, ``build_forcing``, the tail convolution and the Q1 map of
``synthesis_kernels``, and the memory term of ``costate_residual``.  The
``reference_*`` functions below are the loops those stages ran before they
shared it; every array must match them byte for byte, signed zeros included.
"""

import numpy as np
import pytest

from conftest import make_tracking_instance, seeded_plant, signed_zero_plant
from voltrack import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    build_forcing,
    build_kernel,
    costate_residual,
    fundamental_matrix,
    optimal_control_fredholm,
    resolvent,
    solve_fredholm,
    synthesis_kernels,
    trapezoid_weights,
    voc_solution,
)
from voltrack.fredholm import _kernel_bbt, _nystrom_solve, _row_weight_matrix
from voltrack.model import _lag_gather, _node_derivative, _start, _tail_forcing

N_STEPS = 20


def reference_voc_solution(Z, xi, u):
    sys = Z.sys
    k, n, h = xi.tau_index, sys.grid.steps, sys.grid.h
    Zv = Z.values
    w = _start(xi, n)
    g = _tail_forcing(sys, xi) + u.values @ sys.B.T
    for i in range(k + 1, n + 1):
        wts = trapezoid_weights(i - k + 1, h)
        w[i] = Zv[i - k].T @ xi.head + np.einsum(
            "qba,qb,q->a", Zv[i - k :: -1][: i - k + 1], g[: i - k + 1], wts
        )
    return w


def reference_build_forcing(kernel, xi, y):
    Z, sys, k = kernel.Z, kernel.Z.sys, kernel.start_index
    n, h = sys.grid.steps, sys.grid.h
    y0 = reference_voc_solution(Z, xi, ControlSignal.zero(sys.grid, sys.m, k))[k:]
    v = (y0 @ sys.C.T - y.values[k:]) @ sys.C
    nk = n - k + 1
    Zv = Z.values
    out = np.zeros((nk, sys.d))
    for il in range(nk - 1):
        wts = trapezoid_weights(nk - il, h)
        out[il] = np.einsum("qab,qb,q->a", Zv[: nk - il], v[il:], wts)
    return out


def reference_costate(kernel, xi, y):
    rhs = reference_build_forcing(kernel, xi, y).reshape(-1)
    sol = _nystrom_solve(_kernel_bbt(kernel), kernel.Z.sys.grid.weights(kernel.start_index), rhs)
    return sol.reshape(-1, kernel.Z.sys.d)


def reference_tail_convolution(Z, k):
    sys, Zv = Z.sys, Z.values
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    nk = n - k + 1
    NT = _lag_gather(sys.N, k)
    E = np.zeros((nk, k + 1, d, d))
    for il in range(1, nk):
        wts = trapezoid_weights(il + 1, h)
        Zrev = np.transpose(Zv[il::-1], (0, 2, 1))
        E[il] = np.einsum("rab,rvbc,r->vac", Zrev, NT[: il + 1], wts, optimize=True)
    return E


def reference_synthesis_kernels(R):
    """(q0, q1, q2, h0, h1, h2) as ``synthesis_kernels`` built them with its
    own tail-convolution and Q1 loops."""
    kernel, Z = R.kernel, R.kernel.Z
    k, ktilde = kernel.start_index, kernel.ktilde
    sys, grid, Zv = Z.sys, Z.sys.grid, Z.values
    n, d, h = grid.steps, sys.d, grid.h
    nk = n - k + 1
    bbt = sys.B @ sys.B.T
    rw = R.values * grid.weights(k)[None, :, None, None]
    q0 = ktilde[:, 0] - np.einsum("ijab,jbc->iac", rw, ktilde[:, 0], optimize=True)
    e_tail = reference_tail_convolution(Z, k)
    q1a = np.zeros((nk, k + 1, d, d))
    ZCC = Zv @ (sys.C.T @ sys.C)
    for il in range(nk - 1):
        wts = trapezoid_weights(nk - il, h)
        q1a[il] = np.einsum("sab,svbc,s->vac", ZCC[: nk - il], e_tail[il:], wts, optimize=True)
    q1 = q1a - np.einsum("ijab,jvbc->ivac", rw, q1a, optimize=True)
    rowW = _row_weight_matrix(nk, h)
    zc = Zv[:nk] @ sys.C.T
    q2a = np.zeros((nk, nk, d, sys.p))
    for i in range(nk):
        q2a[i, i:] = rowW[i, i:, None, None] * zc[: nk - i]
    q2 = -q2a + np.einsum("iqab,qjbc->ijac", rw, q2a, optimize=True)
    zt2 = np.zeros((nk, nk, d, d))
    for i in range(nk):
        zt2[i, : i + 1] = np.transpose(Zv[i::-1], (0, 2, 1))
    lowW = rowW[::-1, ::-1]
    prop = np.einsum("iq,iqab,bc->iqac", lowW, zt2, bbt, optimize=True)
    h0 = np.transpose(Zv[:nk], (0, 2, 1)) - np.einsum("iqab,qbc->iac", prop, q0, optimize=True)
    h1 = e_tail - np.einsum("iqab,qvbc->ivac", prop, q1, optimize=True)
    h2 = -np.einsum("iqab,qjbc->ijac", prop, q2, optimize=True)
    return q0, q1, q2, h0, h1, h2


def reference_costate_residual(p, wplus):
    sys = p.kernel.Z.sys
    k, n, h = p.kernel.start_index, sys.grid.steps, sys.grid.h
    pv = p.values
    nk = n - k + 1
    dp = _node_derivative(pv, h)
    res = 0.0
    outer = (wplus.values[k:] @ sys.C.T - p.y.values[k:]) @ sys.C
    for il in range(nk):
        wts = trapezoid_weights(nk - il, h)
        mem = np.einsum("sba,sb,s->a", sys.N[: nk - il], pv[il:], wts)
        rhs = -sys.A.T @ pv[il] - mem - outer[il]
        res = max(res, float(np.abs(dp[il] - rhs).max()))
    return res


def _state(d, k, seed):
    rng = np.random.default_rng(seed)
    tail = rng.normal(size=(k + 1, d))
    return InitialState(k, tail[-1] + 0.1, tail)


def window_case(name):
    """(sys, xi, y) for one case: the fixed instance from node ``tau``, a
    seeded plant (d, m, exponential or table kernel) from ``tau``, or a
    signed-zero plant whose head and reference hold exact and negative zeros."""
    n = N_STEPS
    plant, tau = name.rsplit("_tau", 1)
    k = n if tau == "n" else int(tau)
    if plant == "fixed":
        _, sys, xi, y = make_tracking_instance(n, k)
        return sys, xi, y
    if plant.startswith("seeded"):
        _, d, m, kind = plant.split("_")
        _, sys, y = seeded_plant(int(d[1:]), int(m[1:]), n, 3, kind == "table")
        return sys, _state(sys.d, k, 5), y
    sys = signed_zero_plant(plant, n)
    xi = InitialState(k, [0.0, -0.0], np.zeros((k + 1, 2)) if k else None)
    y = np.sin(np.arange(n + 1.0))[:, None]
    y[::3] = -0.0
    return sys, xi, ReferenceSignal(y)


WINDOW_CASES = (
    [f"fixed_tau{k}" for k in (0, 5, N_STEPS - 1, N_STEPS)]
    + [
        f"seeded_d{d}_m{m}_{kind}_tau{k}"
        for d in (1, 2, 3)
        for m in (1, 2)
        for kind in ("exp", "table")
        for k in (0, 7, "n")
    ]
    + [f"{plant}_tau{k}" for plant in ("zero", "nilpotent", "negative_zeros") for k in (0, 7)]
)


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_window_sums_keep_the_bits_of_the_old_loops(case):
    sys, xi, y = window_case(case)
    k, n = xi.tau_index, sys.grid.steps
    Z = fundamental_matrix(sys)
    u = ControlSignal(k, np.cos(np.arange((n + 1 - k) * sys.m)).reshape(-1, sys.m))
    assert_same_bytes(voc_solution(Z, xi, u).values, reference_voc_solution(Z, xi, u))

    kernel = build_kernel(Z, k)
    assert_same_bytes(build_forcing(kernel, xi, y), reference_build_forcing(kernel, xi, y))
    p = solve_fredholm(kernel, xi, y)
    assert_same_bytes(p.values, reference_costate(kernel, xi, y))

    R = resolvent(kernel)
    maps = synthesis_kernels(R)
    for name, expected in zip(("q0", "q1", "q2", "h0", "h1", "h2"), reference_synthesis_kernels(R)):
        assert_same_bytes(getattr(maps, name), expected)

    if n - k >= 2:  # the costate derivative stencil needs three nodes
        w = voc_solution(Z, xi, optimal_control_fredholm(p))
        assert_same_bytes(costate_residual(p, w), reference_costate_residual(p, w))
