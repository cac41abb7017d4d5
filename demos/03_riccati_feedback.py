"""Feedback synthesis through the memory-Riccati sweep.

With memory, the single Riccati matrix of the classical regulator
becomes a triple (P0, P1, P2) plus reference-driven terms (d1, d2, M):
the optimal control is a feedback on the current value AND the whole
history.  This script checks the classical limit (no memory: P0 solves
the usual Riccati equation, P1 = P2 = 0), runs the closed loop on a
memory plant, and verifies the value function, the dissipation
inequality, and the restart (semigroup) property.
"""

import math

import numpy as np

from voltrack import (
    ControlSignal,
    InitialState,
    ReferenceSignal,
    SystemSpec,
    TimeGrid,
    closed_loop,
    cost,
    di_residual,
    exponential_kernel,
    extend_state,
    simulate,
    solve_riccati,
    solve_tracking,
    value_function,
    zero_kernel,
)

# --- classical limit ------------------------------------------------------
grid = TimeGrid(1.0, 200)
sys0 = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
ric0 = solve_riccati(sys0)
print("classical limit (no memory): P0(0) =", f"{ric0.p0[0, 0, 0]:.6f}",
      " tanh(1) =", f"{math.tanh(1.0):.6f}")
print("memory block |P1| stays zero:", np.abs(ric0.p1).max())

# --- memory plant ----------------------------------------------------------
rng = np.random.default_rng(7)
n = 100
grid = TimeGrid(1.0, n)
A = 0.6 * rng.normal(size=(2, 2))
G = 0.8 * rng.normal(size=(2, 2))
sys = SystemSpec(A, rng.normal(size=(2, 1)), rng.normal(size=(1, 2)),
                 exponential_kernel(grid, [(G, 1.0)]), grid)
y = ReferenceSignal(np.sin(2.0 * np.pi * grid.nodes)[:, None])
xi = InitialState(0, [1.0, 0.0])

ric = solve_riccati(sys)
trk = solve_tracking(ric, y)
u, w = closed_loop(trk, xi)
J = cost(sys, w, u, y)
W = value_function(trk, xi)
print(f"\nclosed-loop cost {J:.8f} vs value function {W:.8f} "
      f"(gap {abs(J - W):.1e})")

# dissipation: along the optimal pair the inequality is an equality
rep = di_residual(trk, w, u)
print(f"optimal-pair slack in [{rep.min_slack:.2e}, {rep.max_slack:.2e}]")
du = 0.5 * rng.standard_normal(u.values.shape)
up = ControlSignal(0, u.values + du)
repp = di_residual(trk, simulate(sys, xi, up), up)
print(f"perturbed-pair slack in [{repp.min_slack:.2e}, {repp.max_slack:.2e}] "
      "(nonnegative: energy is dissipated)")

# restart: the feedback law is a genuine state feedback on (value, history)
mid = n // 2
u2, w2 = closed_loop(trk, extend_state(w, mid))
print(f"restart at t = 0.5: control tail reproduced to "
      f"{np.abs(u2.values - u.values[mid:]).max():.1e}")
