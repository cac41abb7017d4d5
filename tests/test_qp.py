import ast
import sys as _sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_tracking_instance
from voltrack import (
    ControlSignal,
    InitialState,
    SystemSpec,
    TimeGrid,
    build_affine_map,
    cost,
    exponential_kernel,
    fredholm,
    gradient_check,
    qp,
    qp_cost,
    qp_gradient,
    riccati,
    simulate,
    solve_qp,
)


def reference_affine_map(sys, xi):
    """(G, g) with one integrator run per node and channel: the direct build."""
    k, grid = xi.tau_index, sys.grid
    nk = grid.steps + 1 - k
    m, p = sys.m, sys.p
    g_traj = simulate(sys, xi, ControlSignal.zero(grid, m, k))
    g = (g_traj.values[k:] @ sys.C.T).reshape(-1)
    zero_state = InitialState(k, np.zeros(sys.d))
    G = np.zeros((nk * p, nk * m))
    uvals = np.zeros((nk, m))
    for q in range(nk):
        for a in range(m):
            uvals[q, a] = 1.0
            col = simulate(sys, zero_state, ControlSignal(k, uvals))
            G[:, q * m + a] = (col.values[k:] @ sys.C.T).reshape(-1)
            uvals[q, a] = 0.0
    return G, g


def random_plant(d, m, p, n, seed, table=False):
    """A seeded plant; ``table`` gives it an explicit node table N."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, n)
    A = 0.5 * rng.normal(size=(d, d))
    B = rng.normal(size=(d, m))
    C = rng.normal(size=(p, d))
    if table:
        N = 0.4 * rng.normal(size=(n + 1, d, d))
    else:
        N = exponential_kernel(grid, [(0.6 * rng.normal(size=(d, d)), 1.5)])
    return grid, SystemSpec(A, B, C, N, grid)


def random_state(d, k, seed, jump):
    """A state at node k with a smooth tail; ``jump`` moves the head off tail(tau)."""
    rng = np.random.default_rng(seed)
    tail = np.cos(np.outer(np.arange(k + 1) / 7.0, rng.uniform(0.5, 2.0, size=d)))
    head = tail[-1] + (rng.normal(size=d) if jump else 0.0)
    return InitialState(k, head, tail)


def _tracking_case(n, k):
    grid, sys, xi, _ = make_tracking_instance(n, k)
    return grid, sys, xi


SHIFT_CASES = {
    "k0": lambda: _tracking_case(60, 0),
    "k12_jump_head": lambda: _tracking_case(60, 12),
    "m2_p2_k0": lambda: (*random_plant(3, 2, 2, 30, 5), InitialState(0, [0.3, -0.2, 0.5])),
    "m2_p2_table_k9": lambda: (
        *random_plant(3, 2, 2, 40, 6, table=True),
        random_state(3, 9, 7, jump=False),
    ),
    "m2_p2_table_k9_jump_head": lambda: (
        *random_plant(3, 2, 2, 40, 6, table=True),
        random_state(3, 9, 8, jump=True),
    ),
    "window_nk2": lambda: (*random_plant(3, 2, 2, 30, 9), random_state(3, 29, 10, jump=True)),
    "window_nk3": lambda: (*random_plant(3, 2, 2, 30, 9), random_state(3, 28, 10, jump=True)),
}


@pytest.fixture(scope="module")
def qp_setup():
    grid, sys, xi, y = make_tracking_instance(60)
    dmap = build_affine_map(sys, xi)
    return grid, sys, xi, y, dmap


class TestBuildAffineMap:
    def test_zero_input_matrix(self):
        grid, sys, xi, _ = make_tracking_instance(30)
        sys0 = SystemSpec(sys.A, np.zeros((2, 1)), sys.C, sys.N, sys.grid)
        dmap = build_affine_map(sys0, xi)
        assert np.abs(dmap.G).max() == 0.0

    def test_zero_state_offset(self):
        grid, sys, _, _ = make_tracking_instance(30)
        dmap = build_affine_map(sys, InitialState(0, np.zeros(2)))
        assert np.abs(dmap.g).max() == 0.0

    def test_superposition(self, qp_setup):
        grid, sys, xi, _, dmap = qp_setup
        rng = np.random.default_rng(17)
        u = ControlSignal(0, rng.normal(size=(61, 1)))
        stacked = (simulate(sys, xi, u).values @ sys.C.T).reshape(-1)
        assert np.abs(dmap.G @ u.values.reshape(-1) + dmap.g - stacked).max() < 1e-12


class TestShiftConstruction:
    @pytest.mark.parametrize("case", sorted(SHIFT_CASES))
    def test_matches_one_run_per_column(self, case):
        grid, sys, xi = SHIFT_CASES[case]()
        dmap = build_affine_map(sys, xi)
        G, g = reference_affine_map(sys, xi)
        assert np.array_equal(dmap.G, G)
        assert np.array_equal(dmap.g, g)

    @pytest.mark.parametrize("k", [0, 11, 28, 29])
    def test_integrator_runs(self, monkeypatch, k):
        calls = []

        def counting_simulate(*args):
            calls.append(args[1].tau_index)
            return simulate(*args)

        monkeypatch.setattr(qp, "simulate", counting_simulate)
        grid, sys = random_plant(3, 2, 2, 30, 11)
        build_affine_map(sys, random_state(3, k, 12, jump=True))
        assert calls == [k] * (2 * sys.m + 1)

    def test_single_node_window(self):
        # tau = T: only the head column exists, so one impulse run per channel
        grid, sys = random_plant(3, 2, 2, 30, 13)
        xi = random_state(3, 30, 14, jump=True)
        dmap = build_affine_map(sys, xi)
        G, g = reference_affine_map(sys, xi)
        assert dmap.G.shape == (2, 2)
        assert np.array_equal(dmap.G, G) and np.array_equal(dmap.g, g)


@pytest.mark.parametrize("route", [qp, riccati, fredholm], ids=lambda m: m.__name__.split(".")[-1])
def test_route_imports_nothing_from_the_other_routes(route):
    # the cross-check is only independent if no route shares code with another;
    # all three share the plant model, the history quadrature included
    allowed = {"numpy"} | set(_sys.stdlib_module_names)
    tree = ast.parse(Path(route.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in {"model", "errors"}, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in allowed, ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in allowed, ast.unparse(node)


class TestSolveQP:
    def test_zero_output_matrix(self):
        grid, sys, xi, y = make_tracking_instance(30)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        u = solve_qp(build_affine_map(sys0, xi), y)
        assert np.abs(u.values).max() == 0.0

    def test_zero_input_matrix(self):
        grid, sys, xi, y = make_tracking_instance(30)
        sys0 = SystemSpec(sys.A, np.zeros((2, 1)), sys.C, sys.N, sys.grid)
        u = solve_qp(build_affine_map(sys0, xi), y)
        assert np.abs(u.values).max() == 0.0

    def test_stationarity_by_finite_differences(self, qp_setup):
        grid, sys, xi, y, dmap = qp_setup
        u = solve_qp(dmap, y)
        j0 = qp_cost(dmap, y, u)
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(10):
            direction = rng.standard_normal(u.values.shape)
            direction /= np.abs(direction).max()
            jp = qp_cost(dmap, y, ControlSignal(0, u.values + eps * direction))
            jm = qp_cost(dmap, y, ControlSignal(0, u.values - eps * direction))
            deriv = (jp - jm) / (2.0 * eps)
            assert abs(deriv) <= 1e-6 * (1.0 + abs(j0))

    def test_matches_model_cost(self, qp_setup):
        grid, sys, xi, y, dmap = qp_setup
        u = solve_qp(dmap, y)
        w = simulate(sys, xi, u)
        assert abs(qp_cost(dmap, y, u) - cost(sys, w, u, y)) < 1e-12

    def test_oracle_optimality(self, qp_setup):
        grid, sys, xi, y, dmap = qp_setup
        u = solve_qp(dmap, y)
        j_star = qp_cost(dmap, y, u)
        rng = np.random.default_rng(29)
        for _ in range(50):
            up = ControlSignal(0, u.values + 0.3 * rng.standard_normal(u.values.shape))
            assert j_star <= qp_cost(dmap, y, up)


class TestGradientCheck:
    def test_near_zero_at_minimizer(self, qp_setup):
        grid, sys, xi, y, dmap = qp_setup
        u = solve_qp(dmap, y)
        j0 = qp_cost(dmap, y, u)
        assert np.abs(qp_gradient(dmap, y, u)).max() <= 1e-10 * (1.0 + abs(j0))
        assert gradient_check(dmap, y, u, 1e-5) <= 1e-8

    def test_quadratic_exactness_everywhere(self, qp_setup):
        # central differences are exact for quadratics, up to roundoff
        grid, sys, xi, y, dmap = qp_setup
        rng = np.random.default_rng(31)
        u = ControlSignal(0, rng.normal(size=(61, 1)))
        assert gradient_check(dmap, y, u, 1e-4) < 1e-7

    def test_halving_eps_hits_roundoff_floor(self, qp_setup):
        grid, sys, xi, y, dmap = qp_setup
        rng = np.random.default_rng(37)
        u = ControlSignal(0, rng.normal(size=(61, 1)))
        e1 = gradient_check(dmap, y, u, 1e-3)
        e2 = gradient_check(dmap, y, u, 5e-4)
        assert max(e1, e2) < 1e-7
