import math
import re

import numpy as np
import pytest

from conftest import make_tracking_instance
from voltrack import (
    ConfigurationError,
    ControlSignal,
    ReferenceSignal,
    StateElement,
    SystemSpec,
    TimeGrid,
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
)

OMEGA_SEED = lambda t: np.array([math.sin(1.0 + 2.0 * t), math.cos(0.5 + t)])
XI_SEED = lambda t: np.array([0.7 * math.exp(-t), 0.3 + t * t])


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
        np.testing.assert_array_equal(elem.tail[0], v)
        np.testing.assert_array_equal(elem.head, v)

    def test_junction_exact_for_random_smooth(self):
        grid, _, _, _ = make_tracking_instance(40)
        elem = make_domain_element(OMEGA_SEED, 20, grid)
        assert np.abs(elem.tail[0] - elem.head).max() == 0.0


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
            from voltrack import StateElement

            elem = StateElement(j, w.values[j].copy(), w.values[j::-1].copy())
            act = state_operator(sys, elem)
            rhs = act.head + sys.B @ u.values[j]
            h = grid.h
            wdot = (w.values[j + 1] - w.values[j - 1]) / (2.0 * h)
            errs.append(np.abs(rhs - wdot).max())
        assert errs[0] / errs[1] > 3.0

    def test_tail_derivative_needs_three_nodes(self, operator_setup):
        grid, sys, _, _, _ = operator_setup
        elem = make_domain_element(OMEGA_SEED, 1, grid)
        with pytest.raises(ConfigurationError):
            state_operator(sys, elem)


class TestRiccatiOperatorResidual:
    def test_zero_output_matrix_exact(self):
        grid, sys, _, _ = make_tracking_instance(60)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        ric = solve_riccati(sys0)
        om = make_domain_element(OMEGA_SEED, 30, grid)
        xe = make_domain_element(XI_SEED, 30, grid)
        assert riccati_operator_residual(ric, om, xe) == 0.0

    def test_any_node_first_order(self):
        # the tau-derivative differences the neighboring nodes, so the
        # residual exists at every node, here tau = 0.33, and falls at first order
        res = {}
        for n in (100, 200):
            grid, sys, _, _ = make_tracking_instance(n)
            ric = solve_riccati(sys)
            j = 33 * n // 100
            om = make_domain_element(OMEGA_SEED, j, grid)
            xe = make_domain_element(XI_SEED, j, grid)
            res[n] = riccati_operator_residual(ric, om, xe)
        assert math.isfinite(res[100])
        assert res[100] / res[200] >= 1.8

    def test_horizon_endpoint_first_order(self):
        # at tau = T the one-sided derivative must balance the output
        # term; the imbalance shrinks linearly with h
        res = {}
        for n in (50, 100):
            grid, sys, _, _ = make_tracking_instance(n)
            ric = solve_riccati(sys)
            om = make_domain_element(OMEGA_SEED, n, grid)
            xe = make_domain_element(XI_SEED, n, grid)
            res[n] = riccati_operator_residual(ric, om, xe)
        assert res[50] / res[100] >= 1.8

    def test_refinement_drops_residual(self):
        res = {}
        for n in (40, 80):
            grid, sys, _, _ = make_tracking_instance(n)
            ric = solve_riccati(sys)
            j = n // 2
            om = make_domain_element(OMEGA_SEED, j, grid)
            xe = make_domain_element(XI_SEED, j, grid)
            res[n] = riccati_operator_residual(ric, om, xe)
        assert res[40] / res[80] >= 1.8


class TestTrackingOperatorResidual:
    def test_zero_reference_exact(self, operator_setup):
        grid, sys, _, ric, _ = operator_setup
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        xe = make_domain_element(XI_SEED, 50, grid)
        res = tracking_operator_residual(trk0, xe)
        assert res == 0.0

    def test_horizon_endpoint_first_order(self):
        res = {}
        for n in (50, 100):
            grid, sys, _, y = make_tracking_instance(n)
            ric = solve_riccati(sys)
            trk = solve_tracking(ric, y)
            xe = make_domain_element(XI_SEED, n, grid)
            res[n] = tracking_operator_residual(trk, xe)
        assert res[50] / res[100] >= 1.8

    def test_refinement_drops_residual(self):
        res = {}
        for n in (40, 80):
            grid, sys, _, y = make_tracking_instance(n)
            ric = solve_riccati(sys)
            trk = solve_tracking(ric, y)
            j = n // 2
            xe = make_domain_element(XI_SEED, j, grid)
            res[n] = tracking_operator_residual(trk, xe)
        assert res[40] / res[80] >= 1.8


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
@pytest.mark.parametrize("element", ["d3", "node25"])
def test_element_off_the_plant_is_refused(fields_at_n20, stage, element):
    # unchecked, each stage fails inside numpy on either element
    sys, ric, trk = fields_at_n20
    grid = sys.grid
    call = {
        "state_operator": lambda e: state_operator(sys, e),
        "riccati_operator": lambda e: riccati_operator(ric, e),
        "riccati_operator_residual": lambda e: riccati_operator_residual(
            ric, make_domain_element(OMEGA_SEED, 5, grid), e
        ),
        "tracking_operator_residual": lambda e: tracking_operator_residual(trk, e),
    }[stage]
    call(make_domain_element(XI_SEED, 5, grid))  # an element on the plant runs
    bad = {
        "d3": make_domain_element(lambda t: np.array([1.0, t, t * t]), 5, grid),
        "node25": make_domain_element(XI_SEED, 25, TimeGrid(1.0, 40)),
    }[element]
    message = f"state with d={bad.d} at node {bad.tau_index} is off the plant (d=2, nodes 0..20)"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call(bad)


def test_tracking_element_off_the_plant_is_refused(fields_at_n20):
    _, _, trk = fields_at_n20
    assert tracking_element(trk, 20).tau_index == 20
    for node in (21, 25, -1):
        with pytest.raises(ConfigurationError, match=rf"node {node} is off the plant"):
            tracking_element(trk, node)


def test_state_inner_refuses_elements_of_different_d():
    grid = TimeGrid(1.0, 20)
    a = StateElement(3, np.ones(2), np.ones((4, 2)))
    b = StateElement(3, np.ones(3), np.ones((4, 3)))
    with pytest.raises(ConfigurationError, match=r"elements have different d \(2 and 3\)"):
        state_inner(grid, a, b)


def test_state_inner_refuses_elements_at_different_nodes():
    grid = TimeGrid(1.0, 20)
    a = StateElement(3, np.ones(2), np.ones((4, 2)))
    b = StateElement(4, np.ones(2), np.ones((5, 2)))
    with pytest.raises(ConfigurationError, match="elements live at different nodes"):
        state_inner(grid, a, b)


def test_element_tail_off_its_node_is_refused():
    with pytest.raises(ConfigurationError, match="tail must cover ages 0..tau with d channels"):
        StateElement(3, [1.0, 2.0], np.zeros((3, 2)))


@pytest.mark.parametrize("stage", ["riccati", "tracking"])
def test_residual_needs_generator_backed_elements(operator_setup, stage):
    # the tau-derivative re-samples its elements at the neighbouring nodes
    grid, _, _, ric, trk = operator_setup
    plain = StateElement(50, XI_SEED(grid.nodes[50]), [XI_SEED(s) for s in grid.nodes[:51]])
    backed = make_domain_element(OMEGA_SEED, 50, grid)
    with pytest.raises(ConfigurationError, match="needs generator-backed elements"):
        if stage == "riccati":
            riccati_operator_residual(ric, backed, plain)
        else:
            tracking_operator_residual(trk, plain)


def test_negative_node_element_is_refused():
    # unchecked, an empty tail fits node -1 and the operators fail later on
    # their trapezoid weights
    with pytest.raises(ConfigurationError, match="tau_index must be >= 0"):
        StateElement(-1, [1.0, 2.0], np.zeros((0, 2)))


@pytest.mark.parametrize("node", [21, 25, -1])
def test_domain_element_off_the_grid_is_refused(node):
    grid = TimeGrid(1.0, 20)
    assert make_domain_element(XI_SEED, 20, grid).tau_index == 20
    with pytest.raises(ConfigurationError, match=rf"node {node} is off the grid \(nodes 0\.\.20\)"):
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
    np.testing.assert_array_equal(elem.tail[:, 0], np.cos(grid.nodes[: node + 1]))
    np.testing.assert_array_equal(elem.head, [1.0])
