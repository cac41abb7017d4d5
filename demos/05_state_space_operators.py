"""The synthesis as a differential system on a finite-memory state space.

In the age of the history the plant is a transport equation with a
boundary coupling, on states held as InitialStates with their tail in
time order.  The feedback synthesis becomes an operator identity for the
quadratic form <Omega, P(tau) Xi> plus a linear identity for the
tracking element.  Both are checked here as discretized residuals at a
node, on test elements sampled from smooth generators of the age;
inside the grid the residuals fall at second order as the grid refines.
"""

import math

import numpy as np

from voltrack import (
    SystemSpec,
    ReferenceSignal,
    TimeGrid,
    exponential_kernel,
    make_domain_element,
    riccati_operator,
    riccati_operator_residual,
    solve_riccati,
    solve_tracking,
    state_inner,
    tracking_operator_residual,
)

rng = np.random.default_rng(7)
A = 0.6 * rng.normal(size=(2, 2))
G = 0.8 * rng.normal(size=(2, 2))
B = rng.normal(size=(2, 1))
C = rng.normal(size=(1, 2))

omega_seed = lambda t: np.array([math.sin(1.0 + 2.0 * t), math.cos(0.5 + t)])
xi_seed = lambda t: np.array([0.7 * math.exp(-t), 0.3 + t * t])

print("operator-identity residuals at tau = 0.5")
print(f"{'n':>5} {'riccati-op':>12} {'tracking-op':>12} {'P-symmetry':>12}")
for n in (50, 100, 200):
    grid = TimeGrid(1.0, n)
    sys = SystemSpec(A, B, C, exponential_kernel(grid, [(G, 1.0)]), grid)
    y = ReferenceSignal(np.sin(2.0 * np.pi * grid.nodes)[:, None])
    ric = solve_riccati(sys)
    trk = solve_tracking(ric, y)
    j = n // 2
    om = make_domain_element(omega_seed, j, grid)
    xe = make_domain_element(xi_seed, j, grid)
    r1 = riccati_operator_residual(ric, omega_seed, xi_seed, j)
    r2 = tracking_operator_residual(trk, xi_seed, j)
    # the Riccati operator is selfadjoint in the state inner product
    sym = abs(
        state_inner(grid, om, riccati_operator(ric, xe))
        - state_inner(grid, riccati_operator(ric, om), xe)
    )
    print(f"{n:>5} {r1:>12.3e} {r2:>12.3e} {sym:>12.1e}")
print("\nresiduals shrink by ~4x per doubling; the operator stays symmetric")
