"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  The fixed instance is d=2, m=1, p=1 with exponential
memory kernel, smooth reference, T=1 (see conftest).
"""

import math
import time

import numpy as np
import pytest

from conftest import OMEGA_SEED, XI_SEED, make_tracking_instance, p2_slice, rel_l2
from voltrack import (
    ControlSignal,
    InitialState,
    build_affine_map,
    build_kernel,
    closed_loop,
    cost,
    di_residual,
    extend_state,
    fundamental_matrix,
    gradient_check,
    optimal_control_fredholm,
    qp_cost,
    resolvent,
    riccati_operator_residual,
    simulate,
    solve_fredholm,
    solve_qp,
    solve_riccati,
    solve_tracking,
    synthesis_kernels,
    tracking_operator_residual,
    value_function,
)

def _solve_all_routes(n):
    grid, sys, xi, y = make_tracking_instance(n)
    t0 = time.perf_counter()
    Z = fundamental_matrix(sys)
    kernel = build_kernel(Z, 0)
    p = solve_fredholm(kernel, xi, y)
    uF = optimal_control_fredholm(p)
    ric = solve_riccati(sys)
    trk = solve_tracking(ric, y)
    uR, wR = closed_loop(trk, xi)
    dmap = build_affine_map(sys, xi)
    uO = solve_qp(dmap, y)
    elapsed = time.perf_counter() - t0
    return dict(
        grid=grid, sys=sys, xi=xi, y=y, Z=Z, kernel=kernel, p=p,
        uF=uF, ric=ric, trk=trk, uR=uR, wR=wR, dmap=dmap, uO=uO,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def routes_100():
    return _solve_all_routes(100)


@pytest.fixture(scope="module")
def routes_200():
    return _solve_all_routes(200)


def _pairwise(sol):
    grid = sol["grid"]
    vals = {
        ("oracle", "fredholm"): rel_l2(grid, 0, sol["uO"].values, sol["uF"].values),
        ("oracle", "riccati"): rel_l2(grid, 0, sol["uO"].values, sol["uR"].values),
        ("fredholm", "riccati"): rel_l2(grid, 0, sol["uF"].values, sol["uR"].values),
    }
    return vals


def test_criterion_1_three_way_agreement(routes_100, routes_200):
    d100 = max(_pairwise(routes_100).values())
    d200 = max(_pairwise(routes_200).values())
    order = math.log2(d100 / d200)
    assert d100 <= 5e-2
    assert d200 <= 2.5e-2
    assert order >= 1.0
    assert routes_100["elapsed"] <= 60.0
    assert routes_200["elapsed"] <= 60.0
    print(
        f"\ncriterion 1 PASS: three-way agreement {d100:.3e} (n=100), "
        f"{d200:.3e} (n=200), order {order:.2f}, "
        f"runtimes {routes_100['elapsed']:.1f}s/{routes_200['elapsed']:.1f}s"
    )


def test_criterion_2_classical_limit():
    from conftest import scalar_memoryless

    grid, sys = scalar_memoryless(200)
    ric = solve_riccati(sys)
    err = abs(ric.p0[0, 0, 0] - math.tanh(1.0))
    p1max = np.abs(ric.p1).max()
    p2max = np.abs(p2_slice(ric, 0)).max()
    assert err <= 1e-3
    assert p1max <= 1e-10
    assert p2max <= 1e-10
    print(
        f"\ncriterion 2 PASS: P0(0) err {err:.2e} vs tanh(1), "
        f"P1 max {p1max:.1e}, P2 max {p2max:.1e}"
    )


def test_criterion_3_value_function_consistency(routes_200):
    sol = routes_200
    grid, sys, xi, y = sol["grid"], sol["sys"], sol["xi"], sol["y"]
    W = value_function(sol["trk"], xi)
    J = cost(sys, sol["wR"], sol["uR"], y)
    rel = abs(W - J) / (1.0 + abs(W))
    assert rel <= 1e-2
    exact = True
    nodes = range(0, 201, 10)
    for j in nodes:
        omega = InitialState(j, np.zeros(2), np.zeros((j + 1, 2)))
        exact = exact and (
            value_function(sol["trk"], omega) == sol["trk"].m[j]
        )
    assert exact
    print(
        f"\ncriterion 3 PASS: |W - J|/(1+|W|) = {rel:.2e}; "
        f"W == M(tau) exactly at all {len(nodes)} nodes tau = 0, 0.05, ..., 1"
    )


def test_criterion_4_final_conditions_exact(routes_100):
    sol = routes_100
    R = resolvent(sol["kernel"])
    kern = synthesis_kernels(R)
    kern_T = synthesis_kernels(resolvent(build_kernel(sol["Z"], 100)))
    values = {
        "P0(T)": np.abs(sol["ric"].p0[-1]).max(),
        "P1(.,T)": np.abs(sol["ric"].p1[:, -1]).max(),
        "P2(.,.,T)": np.abs(p2_slice(sol["ric"], 100)).max(),
        "d1(T)": np.abs(sol["trk"].d1[-1]).max(),
        "d2(.,T)": np.abs(sol["trk"].d2[:, -1]).max(),
        "M(T)": abs(sol["trk"].m[-1]),
        "p(T)": np.abs(sol["p"].values[-1]).max(),
        "K(T,.)": np.abs(sol["kernel"].ktilde[-1]).max(),
        "K(.,T)": np.abs(sol["kernel"].ktilde[:, -1]).max(),
        "R(T,.)": np.abs(R.values[-1]).max(),
        "R(.,T)": np.abs(R.values[:, -1]).max(),
        "Q0(T)": np.abs(kern.q0[-1]).max(),
    }
    for name, val in values.items():
        assert val == 0.0, f"{name} not identically zero: {val}"
    np.testing.assert_array_equal(kern_T.h0[0], np.eye(2))
    print("\ncriterion 4 PASS: all final conditions identically zero; H0(T,T) = I")


def test_criterion_5_dissipation_inequality(routes_100):
    sol = routes_100
    grid, sys, xi, y = sol["grid"], sol["sys"], sol["xi"], sol["y"]
    rep = di_residual(sol["trk"], sol["wR"], sol["uR"])
    opt_slack = max(rep.max_slack, -rep.min_slack)
    assert opt_slack <= 5.0 * grid.h
    rng = np.random.default_rng(99)
    worst = np.inf
    for _ in range(100):
        du = 0.5 * rng.standard_normal(sol["uR"].values.shape)
        up = ControlSignal(0, sol["uR"].values + du)
        wp = simulate(sys, xi, up)
        repp = di_residual(sol["trk"], wp, up)
        worst = min(worst, repp.min_slack)
        assert repp.min_slack >= -1e-8
    print(
        f"\ncriterion 5 PASS: optimal slack {opt_slack:.2e} <= 5h = {5*grid.h:.2e}; "
        f"min slack over 100 perturbations {worst:.2e} >= -1e-8"
    )


def test_criterion_6_semigroup_restart(routes_100):
    sol = routes_100
    grid, sys = sol["grid"], sol["sys"]
    mid = 50
    xi_mid = extend_state(sol["wR"], mid)
    u2, w2 = closed_loop(sol["trk"], xi_mid)
    err = np.abs(u2.values - sol["uR"].values[mid:]).max()
    assert err <= 1e-8
    print(f"\ncriterion 6 PASS: restart control discrepancy {err:.2e} <= 1e-8")


def test_criterion_7_operator_identities():
    taus = (0.2, 0.3, 0.5, 0.6, 0.8)
    res_r, res_t = {}, {}
    for n in (50, 100, 200):
        _, sys, _, y = make_tracking_instance(n)
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, y)
        for tau in taus:
            j = round(tau * n)
            res_r[(n, tau)] = riccati_operator_residual(ric, OMEGA_SEED, XI_SEED, j)
            res_t[(n, tau)] = tracking_operator_residual(trk, XI_SEED, j)
    worst = np.inf
    # second order inside the grid: a ratio >= 3.5 per halving of h (order
    # >= 1.8); a Riccati sweep without its P0/P1 corrector reads 0.48-2.10
    for tau in taus:
        for lo, hi in ((50, 100), (100, 200)):
            worst = min(worst, res_r[(lo, tau)] / res_r[(hi, tau)])
            worst = min(worst, res_t[(lo, tau)] / res_t[(hi, tau)])
            assert res_r[(lo, tau)] / res_r[(hi, tau)] >= 3.5
            assert res_t[(lo, tau)] / res_t[(hi, tau)] >= 3.5
    print(
        f"\ncriterion 7 PASS: operator residuals drop >= {worst:.2f}x per "
        f"doubling, uniformly over {len(taus)} interior nodes"
    )


def test_criterion_8_oracle_integrity(routes_100):
    sol = routes_100
    grid, sys, xi, y = sol["grid"], sol["sys"], sol["xi"], sol["y"]
    jO = qp_cost(sol["dmap"], y, sol["uO"])
    grad = gradient_check(sol["dmap"], y, sol["uO"], 1e-5)
    assert grad <= 1e-6 * (1.0 + abs(jO))
    wO = simulate(sys, xi, sol["uO"])
    jO_model = cost(sys, wO, sol["uO"], y)
    jF = cost(sys, simulate(sys, xi, sol["uF"]), sol["uF"], y)
    jR = cost(sys, sol["wR"], sol["uR"], y)
    assert jO_model <= jF + 1e-12 * (1 + abs(jF))
    assert jO_model <= jR + 1e-12 * (1 + abs(jR))
    print(
        f"\ncriterion 8 PASS: gradient {grad:.2e}; "
        f"QP cost {jO_model:.8f} <= fredholm {jF:.8f}, riccati {jR:.8f}"
    )


def test_criterion_9_kernel_structure_invariants(routes_100):
    sol = routes_100
    grid, kernel, ric = sol["grid"], sol["kernel"], sol["ric"]
    ksym = np.abs(kernel.ktilde - np.transpose(kernel.ktilde, (1, 0, 3, 2))).max()
    assert ksym <= 1e-10
    psym = max(np.abs(ric.p0[j] - ric.p0[j].T).max() for j in range(101))
    assert psym <= 1e-10
    base = resolvent(kernel).max_norm
    worst = base
    for k in range(1, 100):
        worst = max(worst, resolvent(kernel.restrict(k)).max_norm)
    assert worst <= 2.0 * base
    print(
        f"\ncriterion 9 PASS: kernel symmetry {ksym:.1e}, P0 symmetry {psym:.1e}, "
        f"resolvent sweep max/base = {worst / base:.3f} <= 2"
    )
