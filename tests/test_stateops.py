import functools
import math
import re

import numpy as np
import pytest

from conftest import OMEGA_SEED, XI_SEED, make_tracking_instance
from voltrack import (
    ConfigurationError,
    ControlSignal,
    InitialState,
    ReferenceSignal,
    SystemSpec,
    TimeGrid,
    extend_state,
    make_domain_element,
    riccati_operator,
    riccati_operator_residual,
    simulate,
    solve_riccati,
    solve_tracking,
    state_inner,
    state_operator,
    tracking_element,
    tracking_operator_residual,
    value_function,
)

@pytest.fixture
def riccati_operator_calls(monkeypatch):
    # the residuals look riccati_operator up in stateops at each call
    import voltrack.stateops

    calls = []

    def counted(ric, elem):
        calls.append(elem.tau_index)
        return riccati_operator(ric, elem)

    monkeypatch.setattr(voltrack.stateops, "riccati_operator", counted)
    return calls


@functools.cache
def solved_fields(n):
    _, sys, _, y = make_tracking_instance(n)
    ric = solve_riccati(sys)
    return ric, solve_tracking(ric, y)


@pytest.fixture(scope="module")
def operator_setup():
    grid, sys, _, y = make_tracking_instance(100)
    ric = solve_riccati(sys)
    trk = solve_tracking(ric, y)
    return grid, sys, y, ric, trk


class TestMakeDomainElement:
    def test_constant_generator(self):
        grid, _, _, _ = make_tracking_instance(40)
        elem = make_domain_element(lambda t: np.array([2.0, -1.0]), 10, grid)
        np.testing.assert_array_equal(elem.head, [2.0, -1.0])
        assert np.abs(elem.tail - np.array([2.0, -1.0])).max() == 0.0

    def test_polynomial_generator(self):
        grid, _, _, _ = make_tracking_instance(40)
        v = np.array([0.5, 1.5])
        elem = make_domain_element(lambda t: (1.0 + t) * v, 12, grid)
        np.testing.assert_array_equal(elem.tail[-1], v)
        np.testing.assert_array_equal(elem.head, v)

    def test_junction_exact_for_random_smooth(self):
        grid, _, _, _ = make_tracking_instance(40)
        elem = make_domain_element(OMEGA_SEED, 20, grid)
        assert np.abs(elem.tail[-1] - elem.head).max() == 0.0


class TestOperatorActions:
    def test_riccati_operator_symmetry(self, operator_setup):
        grid, sys, _, ric, _ = operator_setup
        j = 50
        om = make_domain_element(OMEGA_SEED, j, grid)
        xe = make_domain_element(XI_SEED, j, grid)
        lhs = state_inner(grid, om, riccati_operator(ric, xe))
        rhs = state_inner(grid, riccati_operator(ric, om), xe)
        assert abs(lhs - rhs) <= 1e-10

    def test_memory_term_consistency(self, operator_setup):
        # the head action on a trajectory-backed element reproduces the
        # plant right-hand side to second order
        errs = []
        for n in (100, 200):
            grid, sys, xi, _ = make_tracking_instance(n)
            u = ControlSignal(0, np.sin(3.0 * grid.nodes)[:, None])
            w = simulate(sys, xi, u)
            j = n // 2
            act = state_operator(sys, extend_state(w, j))
            rhs = act.head + sys.B @ u.values[j]
            h = grid.h
            wdot = (w.values[j + 1] - w.values[j - 1]) / (2.0 * h)
            errs.append(np.abs(rhs - wdot).max())
        assert errs[0] / errs[1] > 3.0

    @pytest.mark.parametrize(
        "stage, node",
        [
            ("state_operator", 1),
            ("riccati_operator_residual", 0),
            ("riccati_operator_residual", 1),
            ("tracking_operator_residual", 0),
            ("tracking_operator_residual", 1),
        ],
    )
    def test_tail_derivative_needs_three_nodes(
        self, operator_setup, riccati_operator_calls, stage, node
    ):
        # each stage names the node it refuses and its range; the residuals
        # refuse it before any operator action runs
        grid, sys, _, ric, trk = operator_setup
        needs = f"j must be an integer in 2..100, got {node}"
        call, message = {
            "state_operator": (
                lambda: state_operator(sys, make_domain_element(OMEGA_SEED, node, grid)),
                f"state_operator's elem.tau_index must be an integer >= 2, got {node}",
            ),
            "riccati_operator_residual": (
                lambda: riccati_operator_residual(ric, OMEGA_SEED, XI_SEED, node),
                needs,
            ),
            "tracking_operator_residual": (
                lambda: tracking_operator_residual(trk, XI_SEED, node),
                needs,
            ),
        }[stage]
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call()
        assert riccati_operator_calls == []

    @pytest.mark.parametrize("n", [40, 100, 200])
    @pytest.mark.parametrize("at", ["0", "1", "n/3", "n/2", "n"])
    def test_value_form_is_the_state_space_quadratic_form(self, n, at):
        # value_function and the state-space operators read one state type,
        # tail in time order; a reversed tail misses by ~3e-4 at every n
        ric, trk = solved_fields(n)
        j = {"0": 0, "1": 1, "n/3": n // 3, "n/2": n // 2, "n": n}[at]
        grid = ric.sys.grid
        om = make_domain_element(OMEGA_SEED, j, grid)
        value = value_function(trk, om)
        form = (
            state_inner(grid, om, riccati_operator(ric, om))
            + 2.0 * state_inner(grid, tracking_element(trk, j), om)
            + trk.m[j]
        )
        assert abs(value - form) <= 1e-12 * (1.0 + abs(value))


class TestRiccatiOperatorResidual:
    def test_zero_output_matrix_exact(self):
        _, sys, _, _ = make_tracking_instance(60)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        ric = solve_riccati(sys0)
        assert riccati_operator_residual(ric, OMEGA_SEED, XI_SEED, 30) == 0.0

    def test_any_node_second_order(self):
        # the tau-derivative differences the neighboring nodes, so the
        # residual exists at every node, here tau = 0.33, and falls at second
        # order; a Riccati sweep without its P0/P1 corrector reads 2.00
        res = {}
        for n in (100, 200):
            _, sys, _, _ = make_tracking_instance(n)
            j = 33 * n // 100
            res[n] = riccati_operator_residual(solve_riccati(sys), OMEGA_SEED, XI_SEED, j)
        assert math.isfinite(res[100])
        assert res[100] / res[200] >= 3.5

    def test_horizon_endpoint_first_order(self):
        # at tau = T the three-point one-sided derivative must balance the
        # output term.  The ratio 21 at 50 -> 100 is pre-asymptotic: the
        # orders over 50 -> 100 -> 200 -> 400 are 4.40, 1.78 and 1.05, so
        # only first order is pinned here
        res = {}
        for n in (50, 100):
            _, sys, _, _ = make_tracking_instance(n)
            res[n] = riccati_operator_residual(solve_riccati(sys), OMEGA_SEED, XI_SEED, n)
        assert res[50] / res[100] >= 1.8

    def test_refinement_drops_residual(self):
        # second order at tau = T/2; the corrector-free sweep reads 2.12
        res = {}
        for n in (40, 80):
            _, sys, _, _ = make_tracking_instance(n)
            res[n] = riccati_operator_residual(solve_riccati(sys), OMEGA_SEED, XI_SEED, n // 2)
        assert res[40] / res[80] >= 3.5


def test_residuals_reuse_the_operator_action_at_their_node(riccati_operator_calls):
    # the tau-derivative takes the value at node j from the residual, so the
    # Riccati residual acts at j twice and at j -/+ 1 once each, and the
    # tracking residual acts at j once
    ric, trk = solved_fields(40)
    riccati_operator_residual(ric, OMEGA_SEED, XI_SEED, 20)
    assert sorted(riccati_operator_calls) == [19, 20, 20, 21]
    riccati_operator_calls.clear()
    tracking_operator_residual(trk, XI_SEED, 20)
    assert riccati_operator_calls == [20]


class TestTrackingOperatorResidual:
    def test_zero_reference_exact(self, operator_setup):
        _, _, _, ric, _ = operator_setup
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        assert tracking_operator_residual(trk0, XI_SEED, 50) == 0.0

    def test_horizon_endpoint_second_order(self):
        # the three-point one-sided tau-derivative at tau = T is second order
        res = {}
        for n in (50, 100):
            _, sys, _, y = make_tracking_instance(n)
            trk = solve_tracking(solve_riccati(sys), y)
            res[n] = tracking_operator_residual(trk, XI_SEED, n)
        assert res[50] / res[100] >= 3.5

    def test_refinement_drops_residual(self):
        res = {}
        for n in (40, 80):
            _, sys, _, y = make_tracking_instance(n)
            trk = solve_tracking(solve_riccati(sys), y)
            res[n] = tracking_operator_residual(trk, XI_SEED, n // 2)
        assert res[40] / res[80] >= 3.5


@pytest.fixture(scope="module")
def fields_at_n20():
    _, sys, _, y = make_tracking_instance(20)
    ric = solve_riccati(sys)
    return sys, ric, solve_tracking(ric, y)


@pytest.mark.parametrize(
    "stage",
    [
        "state_operator",
        "riccati_operator",
        "riccati_operator_residual",
        "tracking_operator_residual",
    ],
)
@pytest.mark.parametrize("element", ["d3", "node25", "node2.0"])
def test_element_off_the_plant_is_refused(fields_at_n20, stage, element):
    # unchecked, each stage fails inside numpy on each input.  The
    # operators take an element, which node 25 needs a finer grid for; the
    # residuals take a generator and a node, and sample on the plant's grid
    sys, ric, trk = fields_at_n20
    grid40 = TimeGrid(1.0, 40)
    call = {
        "state_operator": lambda f, j: state_operator(sys, make_domain_element(f, j, grid40)),
        "riccati_operator": lambda f, j: riccati_operator(ric, make_domain_element(f, j, grid40)),
        "riccati_operator_residual": lambda f, j: riccati_operator_residual(ric, OMEGA_SEED, f, j),
        "tracking_operator_residual": lambda f, j: tracking_operator_residual(trk, f, j),
    }[stage]
    call(XI_SEED, np.int64(5))  # an input on the plant runs, at a numpy integer node too
    off_plant = "state with d={} at node {} is off the plant (d=2, nodes 0..20)"
    seed, node, message = {
        "d3": (lambda t: np.array([1.0, t, t * t]), 5, off_plant.format(3, 5)),
        "node25": (XI_SEED, 25, off_plant.format(2, 25)),
        "node2.0": (XI_SEED, 2.0, "tau_index must be an integer in 0..40, got 2.0"),
    }[element]
    if stage.endswith("_residual") and element != "d3":  # the residual refuses its node first
        message = f"j must be an integer in 2..20, got {node}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call(seed, node)


def test_tracking_element_off_the_plant_is_refused(fields_at_n20):
    _, _, trk = fields_at_n20
    assert tracking_element(trk, 20).tau_index == 20
    for node in (21, 25, -1):
        message = f"tau_index must be an integer in 0..20, got {node}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            tracking_element(trk, node)


def test_state_inner_refuses_elements_of_different_d():
    grid = TimeGrid(1.0, 20)
    a = InitialState(3, np.ones(2), np.ones((4, 2)))
    b = InitialState(3, np.ones(3), np.ones((4, 3)))
    with pytest.raises(ConfigurationError, match=r"elements have different d \(2 and 3\)"):
        state_inner(grid, a, b)


def test_state_inner_refuses_elements_at_different_nodes():
    grid = TimeGrid(1.0, 20)
    a = InitialState(3, np.ones(2), np.ones((4, 2)))
    b = InitialState(4, np.ones(2), np.ones((5, 2)))
    with pytest.raises(ConfigurationError, match="elements live at different nodes"):
        state_inner(grid, a, b)


@pytest.mark.parametrize("node", [21, 25, -1, 4.0])
def test_domain_element_off_the_grid_is_refused(node):
    grid = TimeGrid(1.0, 20)
    assert make_domain_element(XI_SEED, np.int64(20), grid).tau_index == 20
    # unchecked, a float node fails inside numpy on a slice
    message = f"tau_index must be an integer in 0..20, got {node}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make_domain_element(XI_SEED, node, grid)



def test_generator_changing_length_is_refused():
    # numpy's "inhomogeneous shape" ValueError named neither the generator nor the node
    def widening(t):
        return np.ones(1 if t < 0.1 else 2)

    grid = TimeGrid(1.0, 20)
    with pytest.raises(
        ConfigurationError,
        match=r"generator .*widening returns shape \(2,\) at node 2, \(1,\) at node 0",
    ):
        make_domain_element(widening, 5, grid)


@pytest.mark.parametrize("node", [0, 3, 20])
def test_scalar_generator_gives_a_one_channel_element(node):
    grid = TimeGrid(1.0, 20)
    elem = make_domain_element(math.cos, node, grid)
    assert elem.d == 1
    assert elem.tail.shape == (node + 1, 1)
    np.testing.assert_array_equal(elem.tail[:, 0], np.cos(grid.nodes[: node + 1])[::-1])
    np.testing.assert_array_equal(elem.head, [1.0])
