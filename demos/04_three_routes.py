"""Three independent routes to the same optimal control.

The direct quadratic minimization (assembled from unit impulse
responses), the costate integral equation, and the memory-Riccati
feedback are three numerically independent constructions.  Under grid
refinement their controls converge to each other; the table below shows
the pairwise control discrepancies and their empirical orders.
"""

import math

import numpy as np

from voltrack import (
    InitialState,
    ReferenceSignal,
    SystemSpec,
    TimeGrid,
    build_affine_map,
    build_kernel,
    closed_loop,
    cost,
    exponential_kernel,
    fundamental_matrix,
    optimal_control_fredholm,
    simulate,
    solve_fredholm,
    solve_qp,
    solve_riccati,
    solve_tracking,
)

rng = np.random.default_rng(7)
A = 0.6 * rng.normal(size=(2, 2))
G = 0.8 * rng.normal(size=(2, 2))
B = rng.normal(size=(2, 1))
C = rng.normal(size=(1, 2))


def routes(n):
    grid = TimeGrid(1.0, n)
    sys = SystemSpec(A, B, C, exponential_kernel(grid, [(G, 1.0)]), grid)
    y = ReferenceSignal(np.sin(2.0 * np.pi * grid.nodes)[:, None])
    xi = InitialState(0, [1.0, 0.0])
    p = solve_fredholm(build_kernel(fundamental_matrix(sys), 0), xi, y)
    uF = optimal_control_fredholm(p)
    ric = solve_riccati(sys)
    trk = solve_tracking(ric, y)
    uR, _ = closed_loop(trk, xi)
    uO = solve_qp(build_affine_map(sys, xi), y)
    wts = grid.weights(0)

    def rel(a, b):
        return math.sqrt(wts @ ((a - b) ** 2).sum(1)) / math.sqrt(wts @ (b**2).sum(1))

    costs = tuple(
        cost(sys, simulate(sys, xi, u), u, y) for u in (uO, uF, uR)
    )
    return (
        rel(uO.values, uF.values),
        rel(uO.values, uR.values),
        rel(uF.values, uR.values),
        costs,
    )


print(f"{'n':>5} {'qp-fredholm':>12} {'qp-riccati':>12} {'fred-riccati':>13}")
prev = None
for n in (50, 100, 200):
    of, orr, fr, costs = routes(n)
    print(f"{n:>5} {of:>12.3e} {orr:>12.3e} {fr:>13.3e}")
    if prev is not None:
        orders = [math.log2(p / c) for p, c in zip(prev, (of, orr, fr))]
        print(f"{'':>5} orders: " + "  ".join(f"{o:.2f}" for o in orders))
    prev = (of, orr, fr)
print("\ncosts at n=200 (oracle, fredholm, riccati):",
      "  ".join(f"{c:.8f}" for c in costs))
print("the oracle cost is the exact discrete minimum, hence the smallest")
