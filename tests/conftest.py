import math
import os

import numpy as np
import pytest
from hypothesis import settings

from voltrack import (
    InitialState,
    ReferenceSignal,
    SystemSpec,
    TimeGrid,
    exponential_kernel,
    trapezoid_weights,
    zero_kernel,
)

# CI (GitHub Actions sets CI) draws the same examples on every run and keeps
# no example database, so a property cannot pass on one run and fail the next
settings.register_profile("ci", derandomize=True, database=None, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# smooth generators of the test elements of the finite-memory residuals
OMEGA_SEED = lambda t: np.array([math.sin(1.0 + 2.0 * t), math.cos(0.5 + t)])
XI_SEED = lambda t: np.array([0.7 * math.exp(-t), 0.3 + t * t])


def make_tracking_instance(n: int, tau_index: int = 0):
    """The fixed d=2, m=1, p=1 instance used throughout the suite.

    Exponential memory kernel N(t) = G exp(-t) with a seeded G, smooth
    reference, horizon T = 1.  The draw order is fixed so every grid
    sees the same plant.
    """
    rng = np.random.default_rng(12345)
    A = 0.6 * rng.normal(size=(2, 2))
    G = 0.8 * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 1))
    C = rng.normal(size=(1, 2))
    grid = TimeGrid(1.0, n)
    sys = SystemSpec(A, B, C, exponential_kernel(grid, [(G, 1.0)]), grid)
    y = ReferenceSignal(
        (0.8 * np.sin(2.0 * np.pi * grid.nodes) + 0.3 * (1.0 - grid.nodes))[:, None]
    )
    if tau_index == 0:
        xi = InitialState(0, [0.9, -0.4])
    else:
        t = grid.nodes[: tau_index + 1]
        tail = np.stack([0.9 * np.cos(1.5 * t), -0.4 + 0.7 * t], axis=1)
        xi = InitialState(tau_index, tail[-1] + [0.05, -0.02], tail)
    return grid, sys, xi, y


def seeded_plant(d, m, n, seed, table):
    """A seeded plant with p = 2 outputs and a reference; ``table`` gives it
    an explicit node table N instead of an exponential kernel.  C and N are
    scaled up so that the P1 BB* P1 products are not lost in rounding next
    to the N P1 ones, which makes a changed contraction order show."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, n)
    A, B, C = 0.6 * rng.normal(size=(d, d)), rng.normal(size=(d, m)), 2.0 * rng.normal(size=(2, d))
    if table:
        N = rng.normal(size=(n + 1, d, d))
    else:
        N = exponential_kernel(grid, [(2.0 * rng.normal(size=(d, d)), 1.0)])
    y = ReferenceSignal(rng.normal(size=(n + 1, 2)))
    return grid, SystemSpec(A, B, C, N, grid), y


def signed_zero_plant(name, n=30):
    """Plants whose products and sums meet exact and negative zeros."""
    grid = TimeGrid(1.0, n)
    A = {
        "diag_memoryless": np.diag([-0.7, 0.4]),
        "zero": np.zeros((2, 2)),
        "diag": np.diag([-0.5, 0.3]),
        "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "negative_zeros": np.array([[-0.0, 0.5], [-0.3, -0.0]]),
    }[name]
    N = zero_kernel(grid, 2)
    if name == "diag":
        N = exponential_kernel(grid, [(np.diag([0.8, -1.2]), 1.0)])
    if name == "negative_zeros":
        N = np.random.default_rng(4).normal(size=(n + 1, 2, 2))
        N[:, 0, 1] = N[::2, 1, 0] = -0.0
    return SystemSpec(A, [[1.0], [0.0]], [[1.0, 0.0]], N, grid)


BATCH_CASES = ["tau0", "tau13", "d3m2", "table"]


def batch_case(name: str, n: int = 40):
    """(sys, xi, y) for the plants the batch-axis tests run on: the fixed
    instance from node 0 and from node 13, a seeded d = 3, m = 2 plant from
    node 7 with a random history, and a node-table kernel at d = 3, m = 2."""
    if name.startswith("tau"):
        _, sys, xi, y = make_tracking_instance(n, int(name[3:]))
        return sys, xi, y
    _, sys, y = seeded_plant(3, 2, n, 5, name == "table")
    rng = np.random.default_rng(9)
    if name == "table":
        return sys, InitialState(0, rng.normal(size=3)), y
    tail = rng.normal(size=(8, 3))
    return sys, InitialState(7, tail[-1], tail), y


def scalar_memoryless(n: int, a: float = 0.0, b: float = 1.0, c: float = 1.0):
    """d = m = p = 1 plant without memory (classical tracking limit)."""
    grid = TimeGrid(1.0, n)
    sys = SystemSpec([[a]], [[b]], [[c]], zero_kernel(grid, 1), grid)
    return grid, sys


def rel_l2(grid: TimeGrid, k: int, a: np.ndarray, b: np.ndarray) -> float:
    w = grid.weights(k)
    num = math.sqrt(float(w @ ((a - b) ** 2).sum(axis=1)))
    den = math.sqrt(float(w @ (b**2).sum(axis=1)))
    return num / den if den > 0 else num


def p2_slice(ric, j: int) -> np.ndarray:
    """P2(s_i, nu_l, tau_j), i, l <= j: the trapezoid sum over q in [j, n] of

    G2(s_i, nu_l, tau_q) = N*(tau_q - s_i) P1(nu_l, tau_q)
                           + P1*(s_i, tau_q) N(tau_q - nu_l)
                           - P1*(s_i, tau_q) BB* P1(nu_l, tau_q);

    O((n-j) j^2 d^3), the explicit slice the library never forms.
    """
    bbt = ric.sys.B @ ric.sys.B.T
    S = np.zeros((j + 1, j + 1) + ric.p0.shape[1:])
    for q, wt in enumerate(ric.sys.grid.weights(j), start=j):
        p1col, nrev = ric.p1[: j + 1, q], ric.sys.N[q::-1][: j + 1]
        t1 = np.einsum("iba,lbc->ilac", nrev, p1col)
        t3 = np.einsum("iba,bc,lcd->ilad", p1col, bbt, p1col, optimize=True)
        S += wt * (t1 + t1.transpose(1, 0, 3, 2) - t3)
    return S


def p2_reference_value(trk, j: int, head, tail) -> float:
    """The value form at node j with its P2 double integral taken over the
    explicitly built slice ``p2_slice(trk.ric, j)``: the reference the
    library's tail contractions must reproduce."""
    ric = trk.ric
    wt = trapezoid_weights(j + 1, ric.sys.grid.h)
    p1_tail = np.einsum("iab,ib,i->a", ric.p1[: j + 1, j], tail, wt)
    quad2 = np.einsum("i,ia,ilab,lb,l->", wt, tail, p2_slice(ric, j), tail, wt, optimize=True)
    d2_tail = np.einsum("i,ia,ia->", wt, tail, trk.d2[: j + 1, j])
    return float(
        head @ (ric.p0[j] @ head)
        + 2.0 * head @ p1_tail
        + quad2
        + 2.0 * head @ trk.d1[j]
        + 2.0 * d2_tail
        + trk.m[j]
    )


@pytest.fixture
def tracking_instance_100():
    return make_tracking_instance(100)
