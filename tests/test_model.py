import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import BATCH_CASES, batch_case, make_tracking_instance
from voltrack import (
    ConfigurationError,
    ControlSignal,
    InitialState,
    ReferenceSignal,
    SingularSystemError,
    StateTrajectory,
    SystemSpec,
    TimeGrid,
    cost,
    exponential_kernel,
    extend_state,
    fundamental_matrix,
    simulate,
    trapezoid_weights,
    voc_solution,
    zero_kernel,
)
from voltrack.model import _start, _step_matrix, _tail_forcing

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

    def test_degenerate_window_weight_is_zero(self):
        grid = TimeGrid(1.0, 4)
        assert grid.weights(4).tolist() == [0.0]


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
    M = _step_matrix(sys.A, sys.N[0], h)
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


@pytest.fixture(scope="module")
def stages_at_n20():
    """Each stage that takes a reference, with its other inputs built on the
    fixed instance at n = 20."""
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
    return stages, y


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
    stages, y = stages_at_n20
    bad = {
        "one_node": y.values[:1],
        "one_node_short": y.values[:-1],
        "extra_output": np.hstack([y.values, y.values]),
    }[cut]
    stages[stage](y)  # the reference on the grid runs
    with pytest.raises(ConfigurationError, match="reference signal not sampled on this grid"):
        stages[stage](ReferenceSignal(bad))
