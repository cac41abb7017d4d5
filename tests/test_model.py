import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    BATCH_CASES,
    batch_case,
    make_tracking_instance,
    seeded_plant,
    signed_zero_plant,
)
from voltrack import (
    ConfigurationError,
    ControlSignal,
    InitialState,
    ReferenceSignal,
    SingularSystemError,
    StateTrajectory,
    SystemSpec,
    TimeGrid,
    build_kernel,
    cost,
    di_residual,
    exponential_kernel,
    extend_state,
    fundamental_matrix,
    simulate,
    state_operator,
    tracking_element,
    trapezoid_weights,
    voc_solution,
    zero_kernel,
)
from voltrack.model import _start, _tail_forcing

COSH1 = math.cosh(1.0)


def scalar_system(grid, a=0.0, kernel_value=None):
    if kernel_value is None:
        N = zero_kernel(grid, 1)
    else:
        N = np.full((grid.steps + 1, 1, 1), kernel_value)
    return SystemSpec([[a]], [[1.0]], [[1.0]], N, grid)


class TestTimeGrid:
    def test_nodes_and_spacing(self):
        grid = TimeGrid(2.0, 4)
        assert grid.h == 0.5
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 10)
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 1)
        # unrefused, these grids warn or fail only once .nodes is read
        for horizon in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="horizon must be finite"):
                TimeGrid(horizon, 4)
        with pytest.raises(ConfigurationError, match="steps must be an integer >= 2, got 4.0"):
            TimeGrid(1.0, 4.0)

    def test_degenerate_window_weight_is_zero(self):
        grid = TimeGrid(1.0, 4)
        assert grid.weights(4).tolist() == [0.0]


GRID4 = TimeGrid(1.0, 4)


def plant_with(**bad):
    """A d = 2, m = p = 1 plant on GRID4 with the fields ``bad`` swapped in."""
    parts = {"A": np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2)), "N": np.zeros((5, 2, 2))}
    return SystemSpec(**{**parts, **bad}, grid=GRID4)


REFUSALS = {
    "weights_no_node": (lambda: trapezoid_weights(0, 0.1), "weight count must be >= 1"),
    "window_before_0": (lambda: GRID4.weights(-1), "start must be an integer in 0..4, got -1"),
    "window_reversed": (lambda: GRID4.weights(3, 2), "stop must be an integer in 3..4, got 2"),
    "window_past_n": (lambda: GRID4.weights(0, 5), "stop must be an integer in 0..4, got 5"),
    "A_not_square": (lambda: plant_with(A=np.ones((2, 3))), "A must be square"),
    "B_rows": (lambda: plant_with(B=np.ones((3, 1))), "B must be d x m"),
    "C_cols": (lambda: plant_with(C=np.ones((1, 3))), "C must be p x d"),
    "N_entry": (lambda: plant_with(N=np.zeros((5, 2))), "N must be sampled as (nodes, d, d)"),
    "kernel_no_terms": (
        lambda: exponential_kernel(GRID4, []),
        "exponential kernel needs at least one term",
    ),
    "kernel_shapes": (
        lambda: exponential_kernel(GRID4, [(np.eye(2), 1.0), (np.eye(3), 1.0)]),
        "kernel term matrices must share one shape",
    ),
    # unrefused, a NaN rate gives an all-NaN kernel, and an infinite one a NaN
    # at t = 0 with a RuntimeWarning
    "rate_negative": (lambda: exponential_kernel(GRID4, [(np.eye(2), -1.0)]), "finite and >= 0"),
    "rate_nan": (lambda: exponential_kernel(GRID4, [(np.eye(2), math.nan)]), "finite and >= 0"),
    "rate_inf": (lambda: exponential_kernel(GRID4, [(np.eye(2), math.inf)]), "finite and >= 0"),
    "state_node_negative": (
        lambda: InitialState(-1, [1.0, 2.0], np.zeros((0, 2))),
        "tau_index must be an integer >= 0, got -1",
    ),
    # unrefused, simulate fails inside numpy: "'float' object cannot be
    # interpreted as an integer"
    "state_node_float": (
        lambda: InitialState(4.0, [1.0, 2.0], np.zeros((5, 2))),
        "tau_index must be an integer >= 0, got 4.0",
    ),
    "state_tail_shape": (
        lambda: InitialState(2, [1.0, 2.0], np.zeros((2, 2))),
        "tail must cover nodes 0..2 with d=2",
    ),
    "reference_1d": (lambda: ReferenceSignal(np.zeros(5)), "reference values must be (nodes, p)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_constructor_refuses(case):
    build, message = REFUSALS[case]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build()


def test_numpy_integer_node_is_a_node():
    assert InitialState(np.int64(4), [1.0, 2.0], np.zeros((5, 2))).tau_index == 4


class TestSystemSpec:
    def test_kernel_on_another_grid_is_refused(self):
        # N must be sampled on the plant's own grid: 12 nodes for 10 steps
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ConfigurationError, match="kernel sampled on 12 nodes, grid has 11"):
            SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(TimeGrid(1.0, 11), 1), grid)

    def test_plants_compare_and_hash_by_identity(self):
        # array fields have no single truth value, so records holding arrays
        # are equal only to themselves
        _, a, _, _ = make_tracking_instance(10)
        _, b, _, _ = make_tracking_instance(10)
        assert (a == b) is False
        assert a == a
        assert len({a, b}) == 2


class TestFundamentalMatrix:
    def test_starts_at_identity(self):
        grid, sys, _, _ = make_tracking_instance(40)
        Z = fundamental_matrix(sys)
        np.testing.assert_array_equal(Z.values[0], np.eye(2))

    def test_zero_dynamics(self):
        grid = TimeGrid(1.0, 50)
        Z = fundamental_matrix(scalar_system(grid))
        np.testing.assert_allclose(Z.values[:, 0, 0], 1.0, atol=1e-14)

    def test_cosh_oracle(self):
        # N constant = 1 turns Z' = int Z into Z'' = Z, so Z(t) = cosh(t)
        grid = TimeGrid(1.0, 200)
        Z = fundamental_matrix(scalar_system(grid, kernel_value=1.0))
        assert abs(Z.values[-1, 0, 0] - COSH1) < 1e-4
        np.testing.assert_allclose(Z.values[:, 0, 0], np.cosh(grid.nodes), atol=1e-4)

    def test_memoryless_matches_expm(self):
        grid, sys, _, _ = make_tracking_instance(200)
        sys0 = SystemSpec(sys.A, sys.B, sys.C, zero_kernel(grid, 2), grid)
        Z = fundamental_matrix(sys0)
        exact = expm(sys.A.T * 1.0)
        assert np.abs(Z.values[-1] - exact).max() < 1e-4


class TestSimulate:
    def test_no_dynamics_constant(self):
        grid = TimeGrid(1.0, 60)
        sys = scalar_system(grid)
        w = simulate(sys, InitialState(0, [3.5]), ControlSignal.zero(grid, 1))
        np.testing.assert_allclose(w.values[:, 0], 3.5, atol=1e-14)

    @pytest.mark.parametrize("a", [-0.8, 0.6])
    def test_scalar_exponential(self, a):
        grid = TimeGrid(1.0, 200)
        sys = scalar_system(grid, a=a)
        w = simulate(sys, InitialState(0, [1.0]), ControlSignal.zero(grid, 1))
        np.testing.assert_allclose(w.values[:, 0], np.exp(a * grid.nodes), atol=5e-6)

    def test_cosh_oracle(self):
        grid = TimeGrid(1.0, 200)
        sys = scalar_system(grid, kernel_value=1.0)
        w = simulate(sys, InitialState(0, [1.0]), ControlSignal.zero(grid, 1))
        assert abs(w.values[-1, 0] - COSH1) < 1e-4

    def test_control_window_mismatch(self):
        grid, sys, xi, _ = make_tracking_instance(40)
        with pytest.raises(ConfigurationError):
            simulate(sys, xi, ControlSignal(3, np.zeros((38, 1))))

    def test_forcing_absorbed_by_control(self):
        # an additive forcing F equals the control column response:
        # simulate with u+F (B = I) minus simulate with u is the
        # Z*-convolution of F
        grid = TimeGrid(1.0, 120)
        rng = np.random.default_rng(3)
        A = 0.5 * rng.normal(size=(2, 2))
        G = 0.6 * rng.normal(size=(2, 2))
        sys = SystemSpec(A, np.eye(2), [[1.0, 0.0]], exponential_kernel(grid, [(G, 2.0)]), grid)
        xi = InitialState(0, [0.4, -1.0])
        F = np.stack([np.sin(3 * grid.nodes), grid.nodes**2], axis=1)
        u = ControlSignal(0, np.stack([np.cos(grid.nodes), 0.1 * grid.nodes], axis=1))
        uf = ControlSignal(0, u.values + F)
        w_base = simulate(sys, xi, u)
        w_forced = simulate(sys, xi, uf)
        Z = fundamental_matrix(sys)
        extra = voc_solution(Z, InitialState(0, [0.0, 0.0]), ControlSignal(0, F))
        err = np.abs(w_forced.values - w_base.values - extra.values).max()
        assert err < 5e-4


def test_singular_step_matrix_raises_before_the_first_step():
    # h = 1/2 and A = 4 I make the implicit step matrix I - h/2 A exactly zero
    grid = TimeGrid(1.0, 2)
    sys = SystemSpec(4.0 * np.eye(2), [[0.0], [1.0]], [[1.0, 0.0]], zero_kernel(grid, 2), grid)
    xi = InitialState(0, [1.0, 0.0])
    with pytest.raises(SingularSystemError, match="implicit step matrix is singular"):
        simulate(sys, xi, ControlSignal.zero(grid, 1))
    with pytest.raises(SingularSystemError, match="implicit step matrix is singular"):
        fundamental_matrix(sys)


class TestVocSolution:
    def test_collapses_to_fundamental_flow(self):
        grid, sys, _, _ = make_tracking_instance(80)
        Z = fundamental_matrix(sys)
        xi = InitialState(0, [1.0, -2.0])
        w = voc_solution(Z, xi, ControlSignal.zero(grid, 1))
        expect = np.einsum("qba,b->qa", Z.values, xi.head)
        assert np.abs(w.values - expect).max() < 1e-13

    def test_pure_integrator(self):
        grid = TimeGrid(1.0, 100)
        sys = scalar_system(grid)
        Z = fundamental_matrix(sys)
        u = ControlSignal(0, np.ones((101, 1)))
        w = voc_solution(Z, InitialState(0, [0.0]), u)
        np.testing.assert_allclose(w.values[:, 0], grid.nodes, atol=1e-13)

    @pytest.mark.parametrize("tau_index", [0, 25])
    def test_cross_validates_simulate(self, tau_index):
        grid, sys, xi, _ = make_tracking_instance(100, tau_index=tau_index)
        Z = fundamental_matrix(sys)
        t = grid.nodes[tau_index:]
        u = ControlSignal(tau_index, np.sin(5.0 * t)[:, None])
        ws = simulate(sys, xi, u)
        wv = voc_solution(Z, xi, u)
        assert np.abs(ws.values - wv.values).max() < 2e-4

    def test_second_order_agreement(self):
        errs = []
        for n in (100, 200):
            grid, sys, xi, _ = make_tracking_instance(n)
            Z = fundamental_matrix(sys)
            u = ControlSignal(0, np.sin(5.0 * grid.nodes)[:, None])
            ws = simulate(sys, xi, u)
            wv = voc_solution(Z, xi, u)
            errs.append(np.abs(ws.values - wv.values).max())
        assert errs[0] / errs[1] > 3.5


class TestCost:
    def test_zero_output_and_control(self):
        grid, sys, xi, _ = make_tracking_instance(50)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        u = ControlSignal.zero(grid, 1)
        w = simulate(sys0, xi, u)
        y = ReferenceSignal(np.zeros((51, 1)))
        assert cost(sys0, w, u, y) == 0.0

    def test_constant_integrand(self):
        grid = TimeGrid(1.0, 64)
        sys = scalar_system(grid)
        w = simulate(sys, InitialState(0, [1.0]), ControlSignal.zero(grid, 1))
        y = ReferenceSignal(np.zeros((65, 1)))
        assert abs(cost(sys, w, ControlSignal.zero(grid, 1), y) - 1.0) < 1e-12

    def test_matches_direct_summation(self):
        grid, sys, xi, y = make_tracking_instance(60)
        rng = np.random.default_rng(11)
        u = ControlSignal(0, rng.normal(size=(61, 1)))
        w = simulate(sys, xi, u)
        # independent node-by-node reference sum
        h = grid.h
        total = 0.0
        for i in range(61):
            wgt = h * (0.5 if i in (0, 60) else 1.0)
            res = sys.C @ w.values[i] - y.values[i]
            total += wgt * (float(res @ res) + float(u.values[i] @ u.values[i]))
        assert abs(cost(sys, w, u, y) - total) < 1e-12

    def test_nonnegative_and_zero_iff(self):
        grid = TimeGrid(1.0, 30)
        sys = scalar_system(grid)
        y = ReferenceSignal(np.zeros((31, 1)))
        u = ControlSignal.zero(grid, 1)
        w = simulate(sys, InitialState(0, [0.0]), u)
        assert cost(sys, w, u, y) == 0.0
        bump = np.zeros((31, 1))
        bump[15] = 1.0
        assert cost(sys, w, ControlSignal(0, bump), y) > 0.0


class TestExtendState:
    def test_identity_at_start(self):
        grid, sys, xi, _ = make_tracking_instance(50, tau_index=10)
        u = ControlSignal.zero(grid, 1, 10)
        w = simulate(sys, xi, u)
        back = extend_state(w, 10)
        np.testing.assert_array_equal(back.head, xi.head)
        np.testing.assert_array_equal(back.tail[:10], xi.tail[:10])
        # the junction value is taken from the trajectory (= head)
        np.testing.assert_array_equal(back.tail[10], xi.head)

    def test_endpoint(self):
        grid, sys, xi, _ = make_tracking_instance(40)
        w = simulate(sys, xi, ControlSignal.zero(grid, 1))
        end = extend_state(w, 40)
        np.testing.assert_array_equal(end.head, w.values[40])
        assert end.tail.shape == (41, 2)

    def test_head_is_node_value(self):
        grid, sys, xi, _ = make_tracking_instance(40)
        u = ControlSignal(0, np.cos(grid.nodes)[:, None])
        w = simulate(sys, xi, u)
        mid = extend_state(w, 17)
        np.testing.assert_array_equal(mid.head, w.values[17])

    def test_out_of_range(self):
        grid, sys, xi, _ = make_tracking_instance(40, tau_index=5)
        w = simulate(sys, xi, ControlSignal.zero(grid, 1, 5))
        with pytest.raises(ConfigurationError):
            extend_state(w, 3)

    def test_resimulation_reproduces_tail(self):
        grid, sys, xi, _ = make_tracking_instance(80)
        u = ControlSignal(0, np.sin(4.0 * grid.nodes)[:, None])
        w = simulate(sys, xi, u)
        mid = 35
        xi2 = extend_state(w, mid)
        u2 = ControlSignal(mid, u.values[mid:])
        w2 = simulate(sys, xi2, u2)
        assert np.abs(w2.values - w.values).max() < 1e-12


def reference_simulate(sys, xi, u):
    """Node values of one run by the single-trajectory loop that the batched
    ``simulate`` generalizes."""
    k, n, h = xi.tau_index, sys.grid.steps, sys.grid.h
    w = _start(xi, n)
    f = _tail_forcing(sys, xi)
    Bu = u.values @ sys.B.T
    M = np.eye(sys.d) - 0.5 * h * sys.A - 0.25 * h * h * sys.N[0]
    f_prev = sys.A @ w[k] + f[0] + Bu[0]
    for i in range(k, n):
        wts = trapezoid_weights(i + 2 - k, h)[: i + 1 - k]
        mem = np.einsum("jab,jb,j->a", sys.N[i + 1 - k : 0 : -1], w[k : i + 1], wts)
        rhs = w[i] + 0.5 * h * (f_prev + mem + f[i + 1 - k] + Bu[i + 1 - k])
        w[i + 1] = np.linalg.solve(M, rhs)
        f_prev = (
            sys.A @ w[i + 1]
            + mem
            + 0.5 * h * (sys.N[0] @ w[i + 1])
            + f[i + 1 - k]
            + Bu[i + 1 - k]
        )
    return w


def reference_fundamental_matrix(sys):
    """Z by the adjoint loop that ``fundamental_matrix`` ran before it went
    onto ``simulate``'s march."""
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    At = sys.A.T
    Nt = np.transpose(sys.N, (0, 2, 1))
    Z = np.zeros((n + 1, d, d))
    Z[0] = np.eye(d)
    M = np.eye(d) - 0.5 * h * At - 0.25 * h * h * Nt[0]
    f_prev = At.copy()  # A* Z_0 + empty memory sum
    for i in range(n):
        w = trapezoid_weights(i + 2, h)[: i + 1]
        mem = np.einsum("jab,jbc,j->ac", Nt[i + 1 : 0 : -1], Z[: i + 1], w)
        rhs = Z[i] + 0.5 * h * (f_prev + mem)
        Z[i + 1] = np.linalg.solve(M, rhs)
        f_prev = At @ Z[i + 1] + mem + 0.5 * h * (Nt[0] @ Z[i + 1])
    return Z


def _workload_plant(name):
    """The demo config's plant, or seed-7 instance 0 of a benchmark workload."""
    import importlib.util
    import json
    import sys as python_sys

    from voltrack.cli import Instance

    root = Path(__file__).resolve().parents[1]
    if name == "demo":
        return Instance(json.loads((root / "demos/configs/tracking.json").read_text()), None).sys
    workloads = python_sys.modules.get("workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("workloads", root / "perfbench/workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        python_sys.modules["workloads"] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    cfg = workloads.WORKLOADS[name].config(workloads.instance_rng(7, name, 0), False)
    return Instance(cfg, None).sys


FUNDAMENTAL_PLANTS = (
    ["demo", "verify_history", "refine_ladder", "synth_fields"]
    + [f"seeded_d{d}_m{m}_{kind}" for d in (1, 2, 3) for m in (1, 2) for kind in ("exp", "table")]
    + ["diag_memoryless", "zero", "diag", "nilpotent", "negative_zeros"]
)


@pytest.mark.parametrize("name", FUNDAMENTAL_PLANTS)
def test_fundamental_matrix_keeps_the_bits_of_its_own_loop(name):
    # Z is simulate's march on the adjoint plant with Z(0) = I as a batch of
    # d columns; the batched memory sum is the same contraction as Z's own
    if name.startswith("seeded"):
        _, d, m, kind = name.split("_")
        _, sys, _ = seeded_plant(int(d[1:]), int(m[1:]), 40, 11, kind == "table")
    elif name in ("demo", "verify_history", "refine_ladder", "synth_fields"):
        sys = _workload_plant(name)
    else:
        sys = signed_zero_plant(name)
    Z = fundamental_matrix(sys)
    assert Z.values.tobytes() == reference_fundamental_matrix(sys).tobytes()


def random_controls(sys, xi, r, seed=0):
    """(nodes, m, r) controls on the state's window."""
    shape = (sys.grid.steps + 1 - xi.tau_index, sys.m, r)
    return np.random.default_rng(seed).standard_normal(shape)


class TestBatchedSimulate:
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_one_control_keeps_its_bits(self, case):
        sys, xi, _ = batch_case(case)
        u = ControlSignal(xi.tau_index, random_controls(sys, xi, 1)[..., 0])
        w = simulate(sys, xi, u)
        assert w.values.shape == (sys.grid.steps + 1, sys.d)
        assert w.values.tobytes() == reference_simulate(sys, xi, u).tobytes()

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_batch_columns_match_single_runs(self, case):
        sys, xi, _ = batch_case(case)
        k, controls = xi.tau_index, random_controls(sys, xi, 5)
        w = simulate(sys, xi, ControlSignal(k, controls))
        assert w.values.shape == (sys.grid.steps + 1, sys.d, 5)
        for c in range(5):
            single = simulate(sys, xi, ControlSignal(k, controls[..., c])).values
            assert np.abs(w.values[..., c] - single).max() <= 1e-13
            assert w.values[: k + 1, :, c].tobytes() == single[: k + 1].tobytes()

    @pytest.mark.parametrize("shape", [(29, 1, 3), (27, 1, 3), (28, 2, 3), (28, 3)])
    def test_control_off_the_plant_is_refused(self, shape):
        # the window has 28 nodes and m = 1; the batch axis is the third
        _, sys, xi, _ = make_tracking_instance(40, 13)
        with pytest.raises(ConfigurationError, match="control values do not cover"):
            simulate(sys, xi, ControlSignal(13, np.zeros(shape)))

    def test_only_one_batch_axis_and_only_simulate_takes_it(self):
        _, sys, xi, _ = make_tracking_instance(40)
        with pytest.raises(ConfigurationError, match=r"\(nodes, m\[, r\]\)"):
            ControlSignal(0, np.zeros((41, 1, 2, 2)))
        with pytest.raises(ConfigurationError, match=r"\(nodes, d\[, r\]\)"):
            StateTrajectory(0, np.zeros((41, 2, 2, 2)))
        with pytest.raises(ConfigurationError, match="not a batch"):
            voc_solution(fundamental_matrix(sys), xi, ControlSignal(0, np.zeros((41, 1, 2))))
        one_u = ControlSignal.zero(sys.grid, 1)
        batch_u = ControlSignal(0, np.zeros((41, 1, 3)))
        batch_w = simulate(sys, xi, batch_u)
        with pytest.raises(ConfigurationError, match="one trajectory, not a batch"):
            extend_state(batch_w, 5)
        with pytest.raises(ConfigurationError, match="one trajectory, not a batch"):
            cost(sys, batch_w, one_u, make_tracking_instance(40)[3])
        with pytest.raises(ConfigurationError, match="one control, not a batch"):
            cost(sys, simulate(sys, xi, one_u), batch_u, make_tracking_instance(40)[3])


@pytest.fixture(scope="module")
def stages_at_n20():
    """Each stage that takes a reference, with its other inputs built on the
    fixed instance at n = 20, the reference, and the instance's tracking
    field."""
    from voltrack import (
        apply_synthesis,
        build_affine_map,
        build_forcing,
        build_kernel,
        qp_cost,
        resolvent,
        solve_fredholm,
        solve_qp,
        solve_riccati,
        solve_tracking,
        synthesis_kernels,
    )

    _, sys, xi, y = make_tracking_instance(20)
    kernel = build_kernel(fundamental_matrix(sys), 0)
    maps = synthesis_kernels(resolvent(kernel))
    dmap = build_affine_map(sys, xi)
    ric = solve_riccati(sys)
    u = ControlSignal.zero(sys.grid, 1)
    w = simulate(sys, xi, u)
    stages = {
        "build_forcing": lambda r: build_forcing(kernel, xi, r),
        "solve_fredholm": lambda r: solve_fredholm(kernel, xi, r),
        "apply_synthesis": lambda r: apply_synthesis(maps, xi, r),
        "solve_qp": lambda r: solve_qp(dmap, r),
        "qp_cost": lambda r: qp_cost(dmap, r, u),
        "cost": lambda r: cost(sys, w, u, r),
        "solve_tracking": lambda r: solve_tracking(ric, r),
    }
    return stages, y, solve_tracking(ric, y)


@pytest.mark.parametrize(
    "stage",
    [
        "build_forcing",
        "solve_fredholm",
        "apply_synthesis",
        "solve_qp",
        "qp_cost",
        "cost",
        "solve_tracking",
    ],
)
@pytest.mark.parametrize("cut", ["one_node", "one_node_short", "extra_output"])
def test_reference_off_the_grid_is_refused(stages_at_n20, stage, cut):
    # a one-node signal would broadcast as a constant through the einsums and
    # the stacked residuals; every stage refuses it with one message
    stages, y, _ = stages_at_n20
    bad = {
        "one_node": y.values[:1],
        "one_node_short": y.values[:-1],
        "extra_output": np.hstack([y.values, y.values]),
    }[cut]
    stages[stage](y)  # the reference on the grid runs
    with pytest.raises(ConfigurationError, match="reference signal not sampled on this grid"):
        stages[stage](ReferenceSignal(bad))


@pytest.mark.parametrize(
    "stage",
    [
        "simulate",
        "voc_solution",
        "build_affine_map",
        "feedback_control",
        "closed_loop",
        "value_function",
        "apply_synthesis",
    ],
)
@pytest.mark.parametrize(
    "state",
    [
        InitialState(0, [1.0, 2.0, 3.0]),
        InitialState(3, [1.0], np.ones((4, 1))),
        InitialState(21, [1.0, 2.0], np.ones((22, 2))),
        InitialState(22, [1.0, 2.0], np.ones((23, 2))),
    ],
    ids=["d3", "d1_with_tail", "past_node_n", "two_past_node_n"],
)
def test_state_off_the_plant_is_refused(stages_at_n20, stage, state):
    # unchecked, each stage fails inside numpy instead: a broadcast error, an
    # index error or negative dimensions, depending on the stage and the state
    from voltrack import (
        apply_synthesis,
        build_affine_map,
        build_kernel,
        closed_loop,
        feedback_control,
        resolvent,
        synthesis_kernels,
        value_function,
    )

    _, sys, xi, y = make_tracking_instance(20)
    trk = stages_at_n20[2]
    maps = synthesis_kernels(resolvent(build_kernel(fundamental_matrix(sys), 0)))

    def on_window(x):  # a zero control on the state's window, empty past node n
        return ControlSignal(x.tau_index, np.zeros((max(21 - x.tau_index, 0), 1)))

    stages = {
        "simulate": lambda x: simulate(sys, x, on_window(x)),
        "voc_solution": lambda x: voc_solution(fundamental_matrix(sys), x, on_window(x)),
        "build_affine_map": lambda x: build_affine_map(sys, x),
        "feedback_control": lambda x: feedback_control(trk, x),
        "closed_loop": lambda x: closed_loop(trk, x),
        "value_function": lambda x: value_function(trk, x),
        "apply_synthesis": lambda x: apply_synthesis(maps, x, y),
    }
    stages[stage](xi)  # the fixed instance's own state runs
    message = (
        f"state with d={state.d} at node {state.tau_index} is off the plant (d=2, nodes 0..20)"
    )
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        stages[stage](state)


@pytest.mark.parametrize(
    "stage, cut",
    [
        (stage, cut)
        for stage in ("cost", "di_residual", "costate_residual")
        for cut in ("d3", "nodes15", "control_nodes10")
        if (stage, cut) != ("costate_residual", "control_nodes10")  # it takes no control
    ],
)
def test_pair_off_the_plant_is_refused(stages_at_n20, stage, cut):
    # unchecked, a trajectory of another d fails in a matmul, and a cut
    # trajectory or control in a broadcast, inside numpy
    from voltrack import build_kernel, costate_residual, di_residual, solve_fredholm

    _, sys, xi, y = make_tracking_instance(20)
    trk = stages_at_n20[2]
    p = solve_fredholm(build_kernel(fundamental_matrix(sys), 0), xi, y)
    u = ControlSignal.zero(sys.grid, 1)
    w = simulate(sys, xi, u)
    stages = {
        "cost": lambda w, u: cost(sys, w, u, y),
        "di_residual": lambda w, u: di_residual(trk, w, u),
        "costate_residual": lambda w, u: costate_residual(p, w),
    }
    stages[stage](w, u)  # the plant's own pair runs
    off_plant = "does not fit the plant (d=2, nodes 0..20)"
    bad_w, bad_u, message = {
        "d3": (StateTrajectory(0, np.ones((21, 3))), u, off_plant),
        "nodes15": (StateTrajectory(0, w.values[:15]), u, off_plant),
        "control_nodes10": (w, ControlSignal(0, u.values[:10]), "control values do not cover"),
    }[cut]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        stages[stage](bad_w, bad_u)


NODE_REFUSALS = {
    "build_kernel_float": (
        lambda c: build_kernel(c.Z, 2.0),
        "start_index must be an integer in 0..20, got 2.0",
    ),
    "extend_state_float": (lambda c: extend_state(c.w, 2.0), "r must be an integer in 0..20, got 2.0"),
    "tracking_element_float": (
        lambda c: tracking_element(c.trk, 2.0),
        "tau_index must be an integer in 0..20, got 2.0",
    ),
    "weights_float": (lambda c: c.grid.weights(2.0), "start must be an integer in 0..20, got 2.0"),
    "zero_control_float": (
        lambda c: ControlSignal.zero(c.grid, 1, 2.0),
        "start_index must be an integer in 0..20, got 2.0",
    ),
    "zero_control_negative": (
        lambda c: ControlSignal.zero(c.grid, 1, -1),
        "start_index must be an integer in 0..20, got -1",
    ),
    "control_negative": (
        lambda c: ControlSignal(-1, c.u.values),
        "start_index must be an integer >= 0, got -1",
    ),
    "cost_float_control": (
        lambda c: cost(c.sys, c.w, ControlSignal(0.0, c.u.values), c.y),
        "start_index must be an integer >= 0, got 0.0",
    ),
    "di_residual_float_control": (
        lambda c: di_residual(c.trk, c.w, ControlSignal(0.0, c.u.values)),
        "start_index must be an integer >= 0, got 0.0",
    ),
    "simulate_float_control": (
        lambda c: simulate(c.sys, c.xi, ControlSignal(0.0, c.u.values)),
        "start_index must be an integer >= 0, got 0.0",
    ),
    "trajectory_float_start": (
        lambda c: StateTrajectory(2.0, c.w.values),
        "start_index must be an integer in 0..20, got 2.0",
    ),
    "state_operator_node_1": (
        lambda c: state_operator(c.sys, InitialState(1, [1.0, 2.0], np.ones((2, 2)))),
        "state_operator's elem.tau_index must be an integer >= 2, got 1",
    ),
}


@pytest.mark.parametrize("case", NODE_REFUSALS)
def test_node_off_its_range_is_refused_by_name(stages_at_n20, case):
    # unchecked, a float node fails inside numpy (TypeError, IndexError) or,
    # where it equals an integer, runs; so do a negative control start and a
    # zero control from node -1; state_operator at node 1 named no node
    grid, sys, xi, y = make_tracking_instance(20)
    u = ControlSignal.zero(grid, 1)
    w, Z, trk = simulate(sys, xi, u), fundamental_matrix(sys), stages_at_n20[2]
    c = SimpleNamespace(grid=grid, sys=sys, xi=xi, y=y, u=u, w=w, Z=Z, trk=trk)
    call, message = NODE_REFUSALS[case]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call(c)
