"""Integrating a plant with persistent memory.

The plant is w'(t) = A w + int_0^t N(t-s) w(s) ds + B u: the derivative
feels the entire past through the convolution kernel N.  This script
integrates a scalar plant whose kernel is constant, so the dynamics
reduce to w'' = w and the exact solution is cosh(t); it then
cross-validates the time stepper against the variation-of-constants
formula on a nonsymmetric two-dimensional plant.
"""

import math

import numpy as np

from voltrack import (
    ControlSignal,
    InitialState,
    SystemSpec,
    TimeGrid,
    exponential_kernel,
    fundamental_matrix,
    simulate,
    voc_solution,
)

# --- scalar plant with constant memory kernel: w(t) = cosh(t) ------------
print("scalar plant, N(t) = 1: exact solution cosh(t)")
print(f"{'n':>6} {'w(1)':>18} {'error':>12}")
for n in (50, 100, 200, 400):
    grid = TimeGrid(1.0, n)
    sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], np.ones((n + 1, 1, 1)), grid)
    w = simulate(sys, InitialState(0, [1.0]), ControlSignal.zero(grid, 1))
    err = abs(w.values[-1, 0] - math.cosh(1.0))
    print(f"{n:>6} {w.values[-1, 0]:>18.12f} {err:>12.3e}")

# --- two integrators, one trajectory -------------------------------------
# The variation-of-constants form pushes the state through the
# fundamental matrix Z (which solves the adjoint-kernel equation); it
# must agree with direct time stepping to second order in h.
print("\nnonsymmetric d=2 plant with exponential kernel: stepper vs closed form")
rng = np.random.default_rng(42)
A = 0.6 * rng.normal(size=(2, 2))
G = 0.8 * rng.normal(size=(2, 2))
print(f"{'n':>6} {'max node gap':>14} {'ratio':>8}")
prev = None
for n in (50, 100, 200, 400):
    grid = TimeGrid(1.0, n)
    sys = SystemSpec(A, [[0.0], [1.0]], [[1.0, 0.0]], exponential_kernel(grid, [(G, 1.0)]), grid)
    xi = InitialState(0, [0.5, -0.3])
    u = ControlSignal(0, np.sin(5.0 * grid.nodes)[:, None])
    Z = fundamental_matrix(sys)
    gap = np.abs(
        simulate(sys, xi, u).values - voc_solution(Z, xi, u).values
    ).max()
    ratio = "" if prev is None else f"{prev / gap:7.2f}"
    print(f"{n:>6} {gap:>14.3e} {ratio:>8}")
    prev = gap
print("\nratios near 4 confirm second-order agreement")
