import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad, solve_ivp

from conftest import (
    BATCH_CASES,
    batch_case,
    make_tracking_instance,
    p2_reference_value,
    p2_slice,
    scalar_memoryless,
    seeded_plant,
    signed_zero_plant,
)
from voltrack import (
    BlowUpError,
    ConfigurationError,
    ControlSignal,
    InitialState,
    ReferenceSignal,
    RiccatiField,
    SystemSpec,
    TimeGrid,
    build_kernel,
    closed_loop,
    cost,
    di_residual,
    exponential_kernel,
    extend_state,
    feedback_control,
    fundamental_matrix,
    make_domain_element,
    optimal_control_fredholm,
    resolvent,
    riccati_operator,
    simulate,
    solve_fredholm,
    solve_riccati,
    solve_tracking,
    synthesis_kernels,
    trapezoid_weights,
    value_function,
    zero_kernel,
)
from voltrack.fredholm import _kernel_bbt, _nystrom_solve
from voltrack.model import _node_derivative, _tail_forcing
from voltrack.riccati import _G2Sums, _tail_contractions

TANH1 = math.tanh(1.0)


def reference_sweep(sys, y):
    """(P0, P1, d1, d2, M) from the sweep that builds a whole G2 block for
    the corrector and lets einsum search a contraction order every step."""
    n, d, h = sys.grid.steps, sys.d, sys.grid.h
    A, N = sys.A, sys.N
    bbt = sys.B @ sys.B.T
    cc = sys.C.T @ sys.C
    p0 = np.zeros((n + 1, d, d))
    p1 = np.zeros((n + 1, n + 1, d, d))
    nt = np.ascontiguousarray(N.transpose(1, 2, 0))
    pt = np.zeros((d, d, n + 1, n + 1))
    row_c = np.zeros((d, d, n))

    def g0(P0c, trace):
        return A.T @ P0c + P0c @ A + trace + trace.T - P0c @ bbt @ P0c + cc

    def g1(P0c, p1col, nrev, s_row):
        return (
            np.einsum("ab,ibc->iac", A.T, p1col)
            + np.einsum("ab,ibc->iac", P0c, nrev)
            + s_row
            - np.einsum("ab,bc,icd->iad", P0c, bbt, p1col, optimize=True)
        )

    def g2_rows(i, q0):
        p1i, p1l = pt[:, :, q0:, i], pt[:, :, q0:, : i + 1]
        nl = sliding_window_view(nt[:, :, ::-1], i + 1, axis=2)[:, :, n - q0 :: -1]
        return (
            np.einsum("baq,bcql->acql", nt[:, :, q0 - i : n + 1 - i], p1l)
            + np.einsum("baq,bcql->acql", p1i, nl)
            - np.einsum("baq,bc,cdql->adql", p1i, bbt, p1l, optimize=True)
        )

    for j in range(n - 1, -1, -1):
        p0c = p0[j + 1]
        p1c = p1[: j + 1, j + 1]
        g0c = g0(p0c, p1[j + 1, j + 1])
        g1c = g1(p0c, p1c, N[j + 1 : 0 : -1][: j + 1], row_c[:, :, : j + 1].transpose(2, 0, 1))
        g2c = g2_rows(j, j + 1)
        steps = 0.5 * h * (g2c[:, :, 1:] + g2c[:, :, :-1])
        row = np.zeros((d, d, j + 1))
        for q in range(n - j - 2, -1, -1):
            row += steps[:, :, q]
        p0p = p0c + h * g0c
        p1p = p1c + h * g1c
        g0p = g0(p0p, p1p[j])
        g1p = g1(p0p, p1p, N[j::-1][: j + 1], (row + h * g2c[:, :, 0]).transpose(2, 0, 1))
        new_p0 = p0c + 0.5 * h * (g0c + g0p)
        p0[j] = 0.5 * (new_p0 + new_p0.T)
        p1[: j + 1, j] = p1c + 0.5 * h * (g1c + g1p)
        pt[:, :, j, : j + 1] = p1[: j + 1, j].transpose(1, 2, 0)
        row_c[:, :, : j + 1] = row + 0.5 * h * (g2c[:, :, 0] + g2_rows(j, j)[:, :, 0])

    yv = y.values
    cy = yv @ sys.C
    d1 = np.zeros((n + 1, d))
    d2 = np.zeros((n + 1, n + 1, d))
    m = np.zeros(n + 1)

    def t1(q, vec, d2_diag):
        return (A.T - p0[q] @ bbt) @ vec + d2_diag - cy[q]

    def t2(q, vec, size):
        return np.einsum("iba,b->ia", N[q::-1][:size], vec) - np.einsum(
            "iba,bc,c->ia", p1[:size, q], bbt, vec, optimize=True
        )

    def mdot(vec, j):
        bd = sys.B.T @ vec
        return float(bd @ bd - yv[j] @ yv[j])

    for j in range(n - 1, -1, -1):
        d1c = d1[j + 1]
        t1c = t1(j + 1, d1c, d2[j + 1, j + 1])
        t2c = t2(j + 1, d1c, j + 1)
        t1p = t1(j, d1c + h * t1c, d2[j, j + 1] + h * t2c[j])
        d1[j] = d1c + 0.5 * h * (t1c + t1p)
        d2[: j + 1, j] = d2[: j + 1, j + 1] + 0.5 * h * (t2c + t2(j, d1[j], j + 1))
        m[j] = m[j + 1] - 0.5 * h * (mdot(d1c, j + 1) + mdot(d1[j], j))
    return p0, p1, d1, d2, m


def reference_di_residual(trk, w, u):
    """(slack, pointwise) of one pair by the single-pair loop and value form
    that the batched ``di_residual`` generalizes."""
    ric = trk.ric
    sys = ric.sys
    k, n, h = u.start_index, sys.grid.steps, sys.grid.h
    nk = n - k + 1

    def value_form(j, head, tail, x, z):
        bz = z @ sys.B
        quad2 = sys.grid.weights(j) @ (2.0 * (x * z).sum(axis=1) - (bz * bz).sum(axis=1))
        d2_tail = np.einsum("i,ia,ia->", sys.grid.weights(0, j), tail, trk.d2[: j + 1, j])
        return (
            head @ (ric.p0[j] @ head)
            + 2.0 * head @ z[0]
            + quad2
            + 2.0 * head @ trk.d1[j]
            + 2.0 * d2_tail
            + trk.m[j]
        )

    res = w.values[k:] @ sys.C.T - trk.y.values[k:]
    g = (res * res).sum(axis=1) + (u.values * u.values).sum(axis=1)
    run = np.zeros(nk)
    run[1:] = np.cumsum(0.5 * h * (g[:-1] + g[1:]))
    wv = w.values
    xs, zs = np.zeros_like(wv), np.zeros_like(wv)
    vals = np.zeros(nk)
    for j in range(n + 1):
        tx = sys.N[: n - j + 1] @ wv[j]
        tz = np.ascontiguousarray(ric.p1[j, j:]) @ wv[j]  # the layout of a contiguous P1
        if j >= k:
            end = 0.5 * h if j else 0.0
            vals[j - k] = value_form(j, wv[j], wv[: j + 1], xs[j:] + end * tx, zs[j:] + end * tz)
        inner = h if j else 0.5 * h
        xs[j:] += inner * tx
        zs[j:] += inner * tz
    return run + vals - vals[0], g + _node_derivative(vals, h)


@pytest.fixture(scope="module")
def solved_feedback():
    """Riccati route on the fixed instance at n = 100."""
    grid, sys, xi, y = make_tracking_instance(100)
    ric = solve_riccati(sys)
    trk = solve_tracking(ric, y)
    u, w = closed_loop(trk, xi)
    return grid, sys, xi, y, ric, trk, u, w


class TestSolveRiccati:
    def test_final_conditions_exact(self, solved_feedback):
        _, _, _, _, ric, _, _, _ = solved_feedback
        assert np.abs(ric.p0[-1]).max() == 0.0
        assert np.abs(ric.p1[:, -1]).max() == 0.0
        assert np.abs(p2_slice(ric, 100)).max() == 0.0

    def test_tanh_oracle(self):
        grid, sys = scalar_memoryless(200)
        ric = solve_riccati(sys)
        assert abs(ric.p0[0, 0, 0] - TANH1) < 1e-3
        np.testing.assert_allclose(
            ric.p0[:, 0, 0], np.tanh(1.0 - grid.nodes), atol=1e-4
        )
        assert np.abs(ric.p1).max() <= 1e-12
        assert np.abs(p2_slice(ric, 0)).max() <= 1e-12

    def test_memoryless_matches_classical_riccati(self):
        # with N = 0 the sweep must reproduce the matrix Riccati ODE
        grid, sys, _, _ = make_tracking_instance(200)
        sys0 = SystemSpec(sys.A, sys.B, sys.C, zero_kernel(grid, 2), grid)
        ric = solve_riccati(sys0)
        assert np.abs(ric.p1).max() <= 1e-12
        bbt = sys.B @ sys.B.T
        cc = sys.C.T @ sys.C

        def rhs(_t, pf):
            P = pf.reshape(2, 2)
            dP = -(sys.A.T @ P + P @ sys.A - P @ bbt @ P + cc)
            return (-dP).reshape(-1)  # integrate backward in sigma = T - t

        sol = solve_ivp(
            rhs, (0.0, 1.0), np.zeros(4), rtol=1e-10, atol=1e-12, dense_output=True
        )
        exact0 = sol.sol(1.0).reshape(2, 2)
        assert np.abs(ric.p0[0] - exact0).max() < 1e-4

    def test_symmetries(self, solved_feedback):
        _, _, _, _, ric, _, _, _ = solved_feedback
        worst = max(np.abs(ric.p0[j] - ric.p0[j].T).max() for j in range(101))
        assert worst <= 1e-12
        for j in (0, 35, 70):
            S = p2_slice(ric, j)
            assert np.abs(S - np.transpose(S, (1, 0, 3, 2))).max() <= 1e-10

    def test_contraction_matches_p2_slice_form(self, solved_feedback):
        # the value form contracts P2 through the stored P1 columns; it must
        # equal the quadratic form of the explicitly built P2 slice
        grid, _, _, _, ric, trk, _, w = solved_feedback
        for j in (17, 42, 83):
            omega = extend_state(w, j)
            W = value_function(trk, omega)
            ref = p2_reference_value(trk, j, omega.head, omega.tail)
            assert abs(W - ref) <= 1e-13 * abs(ref)

    def test_blowup_guard(self):
        grid = TimeGrid(1.0, 60)
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        with pytest.raises(BlowUpError):
            solve_riccati(sys, blowup_limit=1e-3)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
    def test_blowup_limit_must_be_positive(self, limit):
        # no norm exceeds a NaN bound, so unchecked it would switch the guard off
        grid = TimeGrid(1.0, 10)
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        with pytest.raises(ConfigurationError, match="blowup_limit must be > 0"):
            solve_riccati(sys, blowup_limit=limit)


    @pytest.mark.parametrize("n", [2, 3, 40])
    @pytest.mark.parametrize("table", [False, True], ids=["exponential", "table"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_matches_reference(self, d, m, n, table):
        # the P2 rows sum over q in BLAS order, the reference one term at a
        # time; every field stays within 1e-13 of its largest entry (the
        # gaps measured are below 1e-15).  d = 1 runs eight plants, as the
        # contraction orders fixed for d = 1 show in a few plants only
        for seed in range(8 if d == 1 else 1):
            grid, sys, y = seeded_plant(d, m, n, 100 * seed + 10 * d + m, table)
            ric = solve_riccati(sys, blowup_limit=np.inf)
            trk = solve_tracking(ric, y)
            got = (ric.p0, ric.p1, trk.d1, trk.d2, trk.m)
            ref = reference_sweep(sys, y)
            for name, a, b in zip(("p0", "p1", "d1", "d2", "m"), got, ref):
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), (name, seed)

    @pytest.mark.parametrize("table", [False, True], ids=["exponential", "table"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_p2_row_gemms_match_trapezoid_of_g2_block(self, d, table):
        # the two GEMMs of a P2 row against the trapezoid sum, term by term,
        # of a G2 block built here entry by entry from the stored P1
        n = 40
        grid, sys, _ = seeded_plant(d, 2, n, seed=3, table=table)
        ric = solve_riccati(sys, blowup_limit=np.inf)
        N, h, bbt = sys.N, grid.h, sys.B @ sys.B.T
        sums = _G2Sums(N, bbt)
        sums.pq[...] = ric.p1.transpose(1, 2, 0, 3)
        for j in (0, 13, 27, n - 2, n - 1):
            block = np.zeros((n + 1 - j, j + 1, d, d))  # q = j..n
            for q in range(j, n + 1):
                ps = ric.p1[j, q]
                for l in range(j + 1):
                    pn = ric.p1[l, q]
                    block[q - j, l] = N[q - j].T @ pn + ps.T @ N[q - l] - ps.T @ bbt @ pn
            want = np.zeros((j + 1, d, d))
            for q in range(n - j - 1, 0, -1):
                want += 0.5 * h * (block[q] + block[q + 1])
            got = sums(j, j + 1, n, trapezoid_weights(n - j, h))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), j
            for q in (j, j + 1):  # the corrector's and the predictor's column
                col = sums(j, q, q, np.ones(1))
                assert np.abs(col - block[q - j]).max() <= 1e-13 * np.abs(block[q - j]).max(), (j, q)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_einsum_parse_per_step(self, monkeypatch, d):
        # an optimized einsum runs einsum_path's parser and planner on every
        # call, an explicit path included; the sweeps write their contraction
        # orders out as matmul pairs and must not call it at all
        from numpy._core import einsumfunc

        calls = []
        real = einsumfunc.einsum_path

        def counting(*operands, **kwargs):
            calls.append(kwargs.get("optimize"))
            return real(*operands, **kwargs)

        monkeypatch.setattr(einsumfunc, "einsum_path", counting)
        monkeypatch.setattr(np, "einsum_path", counting)
        grid, sys, y = seeded_plant(d, 1, 60, seed=7, table=False)
        solve_tracking(solve_riccati(sys), y)
        assert calls == []

    def test_first_sweep_of_a_process_reuses_pages(self):
        # every CLI run is a fresh process, where growing kernel blocks that
        # each get fresh mmap'd pages cost ~12k more minor faults at n = 240,
        # d = 3 than one reused workspace (~1.3k); this counts faults, not time
        tests = Path(__file__).parent
        probe = (
            "import resource\n"
            "import numpy as np\n"
            "from conftest import seeded_plant\n"
            "from voltrack import solve_riccati\n"
            "grid, plant, _ = seeded_plant(3, 2, 240, seed=7, table=False)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "solve_riccati(plant, blowup_limit=np.inf)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 35_000

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_p1_is_stored_once(self, d):
        # P1 takes (n+1)^2 d^2 doubles; with the kernel-block workspace, a
        # quarter of that, the sweep's traced peak is 1.38-1.42 of them at
        # n = 120, and a second copy of P1 in another layout takes it to 2.4
        n = 120
        _, plant, _ = seeded_plant(d, 2, n, seed=7, table=False)
        solve_riccati(plant)  # one-time allocations stay out of the measured call
        tracemalloc.start()
        try:
            solve_riccati(plant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + 1) ** 2 * d * d * 8


class TestSolveTracking:
    def test_zero_reference_zero_fields(self, solved_feedback):
        grid, sys, _, _, ric, _, _, _ = solved_feedback
        trk = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        assert np.abs(trk.d1).max() == 0.0
        assert np.abs(trk.d2).max() == 0.0
        assert np.abs(trk.m).max() == 0.0

    def test_final_conditions_exact(self, solved_feedback):
        _, _, _, _, _, trk, _, _ = solved_feedback
        assert np.abs(trk.d1[-1]).max() == 0.0
        assert np.abs(trk.d2[:, -1]).max() == 0.0
        assert trk.m[-1] == 0.0

    def test_carries_its_riccati_field_and_reference(self, solved_feedback):
        # the consumers read both from the field, so none can pair it with
        # another plant's Riccati field or another reference
        _, _, _, y, ric, trk, _, _ = solved_feedback
        assert trk.ric is ric and trk.y is y
        assert repr(trk) == "TrackingField()"

    def test_uncontrolled_scalar_oracle(self):
        # B = 0, A = 0, C = 1, N = 0: d2 = 0 and d1(tau) = -int_tau^T y
        grid, sys = scalar_memoryless(150, b=0.0)
        ric = solve_riccati(sys)
        y = np.sin(2.0 * np.pi * grid.nodes)[:, None]
        trk = solve_tracking(ric, ReferenceSignal(y))
        assert np.abs(trk.d2).max() == 0.0
        h = grid.h
        cums = np.concatenate([[0.0], np.cumsum(0.5 * h * (y[1:, 0] + y[:-1, 0]))])
        expect = -(cums[-1] - cums)
        np.testing.assert_allclose(trk.d1[:, 0], expect, atol=1e-13)


class TestFeedbackControl:
    def test_zero_state_zero_reference(self, solved_feedback):
        grid, sys, _, _, ric, _, _, _ = solved_feedback
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        xi0 = InitialState(40, np.zeros(2), np.zeros((41, 2)))
        u = feedback_control(trk0, xi0)
        assert np.abs(u).max() == 0.0

    def test_horizon_limit_is_zero(self, solved_feedback):
        grid, _, _, _, ric, trk, _, w = solved_feedback
        u = feedback_control(trk, extend_state(w, 100))
        assert np.abs(u).max() == 0.0

    def test_tanh_gain(self):
        grid, sys = scalar_memoryless(200)
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, ReferenceSignal(np.zeros((201, 1))))
        u0 = feedback_control(trk, InitialState(0, [1.0]))
        assert abs(u0[0] + TANH1) < 1e-3

    def test_perfect_square_around_minimizer(self, solved_feedback):
        # the stage form ||u - fb||^2 - ||fb||^2 grows by exactly
        # ||delta||^2 when the feedback value is perturbed by delta
        grid, sys, xi, y, ric, trk, _, _ = solved_feedback
        fb = feedback_control(trk, xi)

        def form(u):
            return float((u - fb) @ (u - fb) - fb @ fb)

        rng = np.random.default_rng(13)
        for _ in range(20):
            delta = rng.standard_normal(1)
            lhs = form(fb + delta) - form(fb)
            assert abs(lhs - float(delta @ delta)) < 1e-12


class TestClosedLoop:
    def test_zero_problem(self, solved_feedback):
        grid, sys, _, _, ric, _, _, _ = solved_feedback
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        u, w = closed_loop(trk0, InitialState(0, np.zeros(2)))
        assert np.abs(u.values).max() == 0.0
        assert np.abs(w.values).max() == 0.0

    def test_agrees_with_fredholm_route(self):
        diffs = []
        for n in (100, 200):
            grid, sys, xi, y = make_tracking_instance(n)
            ric = solve_riccati(sys)
            trk = solve_tracking(ric, y)
            uR, _ = closed_loop(trk, xi)
            p = solve_fredholm(build_kernel(fundamental_matrix(sys), 0), xi, y)
            uF = optimal_control_fredholm(p)
            diffs.append(np.abs(uR.values - uF.values).max())
        assert diffs[0] < 5e-3
        assert diffs[0] / diffs[1] >= 1.8

    def test_three_routes_agree_from_mid_horizon_state(self):
        # a nontrivial tail exercises the history couplings of all three
        # routes at once
        from voltrack import build_affine_map, solve_qp
        from conftest import rel_l2

        n, k = 80, 30
        grid, sys, xi, y = make_tracking_instance(n, tau_index=k)
        p = solve_fredholm(build_kernel(fundamental_matrix(sys), k), xi, y)
        uF = optimal_control_fredholm(p)
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, y)
        uR, wR = closed_loop(trk, xi)
        uO = solve_qp(build_affine_map(sys, xi), y)
        assert rel_l2(grid, k, uF.values, uR.values) < 5e-3
        assert rel_l2(grid, k, uO.values, uR.values) < 2e-2
        W = value_function(trk, xi)
        J = cost(sys, wR, uR, y)
        assert abs(W - J) / (1.0 + abs(W)) < 1e-2

    def test_restart_reproduces_tail(self, solved_feedback):
        grid, sys, _, _, ric, trk, u, w = solved_feedback
        mid = 50
        u2, w2 = closed_loop(trk, extend_state(w, mid))
        assert np.abs(u2.values - u.values[mid:]).max() < 1e-12
        assert np.abs(w2.values[mid:] - w.values[mid:]).max() < 1e-12

    def test_feedback_matches_along_run(self, solved_feedback):
        grid, sys, _, _, ric, trk, u, w = solved_feedback
        for j in (0, 30, 77):
            ufb = feedback_control(trk, extend_state(w, j))
            assert np.abs(ufb - u.values[j]).max() < 1e-12


class TestValueFunction:
    def test_zero_state_returns_m(self, solved_feedback):
        grid, sys, _, _, ric, trk, _, _ = solved_feedback
        for j in range(0, 101, 5):
            omega = InitialState(j, np.zeros(2), np.zeros((j + 1, 2)))
            assert value_function(trk, omega) == trk.m[j]

    def test_zero_problem_zero_value(self, solved_feedback):
        grid, sys, _, _, ric, _, _, _ = solved_feedback
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        omega = InitialState(60, np.zeros(2), np.zeros((61, 2)))
        assert value_function(trk0, omega) == 0.0

    def test_matches_closed_loop_cost(self, solved_feedback):
        grid, sys, xi, y, ric, trk, u, w = solved_feedback
        W = value_function(trk, xi)
        J = cost(sys, w, u, y)
        assert abs(W - J) / (1.0 + abs(W)) < 1e-3

    def test_bellman_concatenation(self, solved_feedback):
        # any spliced control costs at least the value, with equality
        # only for the optimal splice
        grid, sys, xi, y, ric, trk, u, w = solved_feedback
        W = value_function(trk, xi)
        rng = np.random.default_rng(4)
        mid = 40
        for _ in range(5):
            u_head = u.values[: mid + 1] + 0.5 * rng.standard_normal((mid + 1, 1))
            w_head = simulate(
                sys, xi, ControlSignal(0, np.vstack([u_head, np.zeros((100 - mid, 1))]))
            )
            u_tail, w_tail = closed_loop(trk, extend_state(w_head, mid))
            spliced_u = ControlSignal(0, np.vstack([u_head[:-1], u_tail.values]))
            spliced_w = simulate(sys, xi, spliced_u)
            J = cost(sys, spliced_w, spliced_u, y)
            assert J >= W - 1e-6
        J_opt = cost(sys, w, u, y)
        assert abs(J_opt - W) / (1 + abs(W)) < 1e-3


class TestDIResidual:
    def test_optimal_pair_near_equality(self, solved_feedback):
        grid, sys, xi, y, ric, trk, u, w = solved_feedback
        rep = di_residual(trk, w, u)
        assert max(rep.max_slack, -rep.min_slack) <= 5.0 * grid.h
        assert rep.max_pointwise <= 0.5

    def test_perturbed_controls_respect_direction(self, solved_feedback):
        grid, sys, xi, y, ric, trk, u, w = solved_feedback
        rng = np.random.default_rng(21)
        for _ in range(20):
            du = 0.5 * rng.standard_normal(u.values.shape)
            up = ControlSignal(0, u.values + du)
            wp = simulate(sys, xi, up)
            rep = di_residual(trk, wp, up)
            assert rep.min_slack >= -1e-8

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_one_pair_keeps_its_bits(self, case):
        sys, xi, y = batch_case(case)
        trk = solve_tracking(solve_riccati(sys), y)
        u, w = closed_loop(trk, xi)
        up = ControlSignal(u.start_index, u.values + 0.5)
        for pair in ((u, w), (up, simulate(sys, xi, up))):
            rep = di_residual(trk, pair[1], pair[0])
            slack, pointwise = reference_di_residual(trk, pair[1], pair[0])
            assert rep.slack.tobytes() == slack.tobytes()
            assert rep.pointwise.tobytes() == pointwise.tobytes()

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_batch_columns_match_single_pairs(self, case):
        sys, xi, y = batch_case(case)
        trk = solve_tracking(solve_riccati(sys), y)
        u, _ = closed_loop(trk, xi)
        k = u.start_index
        du = 0.5 * np.random.default_rng(4).standard_normal(u.values.shape + (4,))
        up = ControlSignal(k, u.values[..., None] + du)
        rep = di_residual(trk, simulate(sys, xi, up), up)
        assert rep.slack.shape == rep.pointwise.shape == (sys.grid.steps + 1 - k, 4)
        singles = []
        for c in range(4):
            uc = ControlSignal(k, up.values[..., c])
            single = di_residual(trk, simulate(sys, xi, uc), uc)
            assert np.abs(rep.slack[:, c] - single.slack).max() <= 1e-13
            assert np.abs(rep.pointwise[:, c] - single.pointwise).max() <= 1e-13
            singles.append(single.min_slack)
        assert rep.min_slack == pytest.approx(min(singles), abs=1e-13)

    def test_zero_problem_zero_slack(self, solved_feedback):
        grid, sys, _, _, ric, _, _, _ = solved_feedback
        trk0 = solve_tracking(ric, ReferenceSignal(np.zeros((101, 1))))
        u0 = ControlSignal.zero(grid, 1)
        w0 = simulate(sys, InitialState(0, np.zeros(2)), u0)
        rep = di_residual(trk0, w0, u0)
        assert np.abs(rep.slack).max() == 0.0
        assert rep.max_pointwise == 0.0


class TestTailContraction:
    def test_value_forms_match_p2_slice_reference(self):
        # d=3, m=2, k>0 and a tabulated kernel: value_function and the
        # di_residual node values equal the explicit-slice quadratic form,
        # and the solved field stores nothing of P2's size
        n, k, d = 40, 12, 3
        rng = np.random.default_rng(2024)
        grid = TimeGrid(1.0, n)
        N = 0.8 * rng.normal(size=(n + 1, d, d)) * np.exp(-grid.nodes)[:, None, None]
        A, B, C = 0.6 * rng.normal(size=(d, d)), rng.normal(size=(d, 2)), rng.normal(size=(2, d))
        sys = SystemSpec(A, B, C, N, grid)
        y = ReferenceSignal(np.stack([np.sin(2.0 * np.pi * grid.nodes), grid.nodes**2], axis=1))
        t = grid.nodes[: k + 1]
        tail = np.stack([np.cos(t), 0.5 - t, t * t], axis=1)
        xi = InitialState(k, tail[-1], tail)
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, y)
        u = ControlSignal(k, 0.3 * rng.normal(size=(n + 1 - k, 2)))
        w = simulate(sys, xi, u)
        rep = di_residual(trk, w, u)
        # slack = running cost + value(node) - value(tau), so the node values are
        # recovered from it up to the common value at tau
        res = w.values[k:] @ sys.C.T - y.values[k:]
        g = (res * res).sum(axis=1) + (u.values * u.values).sum(axis=1)
        run = np.concatenate([[0.0], np.cumsum(0.5 * grid.h * (g[:-1] + g[1:]))])
        nodes = (k, k + 1, (k + n) // 2, n - 1, n)
        ref = {j: p2_reference_value(trk, j, w.values[j], w.values[: j + 1]) for j in nodes}
        scale = max(abs(v) for v in ref.values())
        for j in nodes:
            W = value_function(trk, extend_state(w, j))
            assert abs(W - ref[j]) <= 1e-13 * scale
            assert abs(rep.slack[j - k] - run[j - k] + ref[k] - ref[j]) <= 1e-13 * scale
        stored = [
            name
            for name, val in vars(ric).items()
            if isinstance(val, np.ndarray) and name != "p1" and val.size > (n + 1) * d * d
        ]
        assert stored == []

    @pytest.mark.parametrize(
        "k, jump", [(0, False), (12, False), (12, True)], ids=["tau0", "continuous", "jump"]
    )
    def test_one_history_quadrature_bitwise(self, k, jump):
        # the plant's tail forcing, the value form's x_q, the feedback law and
        # the closed loop's first control all take int_0^tau F(., s) tail(s) ds
        # through one quadrature, so they agree bit for bit
        n = 60
        grid, sys, xi, y = make_tracking_instance(n, k)
        if k and not jump:
            xi = InitialState(k, xi.tail[-1], xi.tail)
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, y)
        f = _tail_forcing(sys, xi)
        assert np.array_equal(f, _tail_contractions(ric, k, xi.tail)[0])
        if k == 0:
            assert f.shape == (n + 1, 2) and np.array_equal(f, np.zeros((n + 1, 2)))
        u, _ = closed_loop(trk, xi)
        assert np.array_equal(u.values[0], feedback_control(trk, xi))


def smooth_table_plant(n):
    """d = 3, m = 2, p = 2 with the kernel given as a node table of the
    smooth, non-exponential N(t) = G1 cos 3t + G2 t^2, started at t = 1/4."""
    rng = np.random.default_rng(31)
    A, B, C = 0.6 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    G1, G2 = 0.8 * rng.normal(size=(3, 3)), 0.5 * rng.normal(size=(3, 3))
    grid = TimeGrid(1.0, n)
    t = grid.nodes
    N = np.cos(3.0 * t)[:, None, None] * G1 + (t * t)[:, None, None] * G2
    y = ReferenceSignal(np.stack([np.sin(2.0 * t), 0.5 - t * t], axis=1))
    return SystemSpec(A, B, C, N, grid), y, n // 4


def tracking_plant(n):
    """The fixed d = 2, m = 1 instance with its exponential kernel, from t = 1/5."""
    _, sys, _, y = make_tracking_instance(n)
    return sys, y, n // 5


# max-entry errors at n = 60 / 120 / 240 of Q0(tau,tau) - P0(tau),
# Q1(tau,.) - P1(.,tau) and int Q2(tau,r) y(r) dr - d1(tau)
FIELD_IDENTITY_ERRORS = {
    "tracking": [
        (4.09e-4, 1.50e-4, 1.64e-4),
        (9.95e-5, 3.71e-5, 4.09e-5),
        (2.45e-5, 9.22e-6, 1.02e-5),
    ],
    "smooth_table": [
        (3.89e-4, 1.34e-4, 1.19e-4),
        (9.78e-5, 3.35e-5, 2.94e-5),
        (2.45e-5, 8.38e-6, 7.32e-6),
    ],
}


@pytest.fixture(scope="module", params=["tracking", "smooth_table"])
def field_identity_errors(request):
    """(identity errors, transposed-P1 error) per grid for one plant."""
    plant = {"tracking": tracking_plant, "smooth_table": smooth_table_plant}[request.param]
    errors, transposed = [], []
    for n in (60, 120, 240):
        sys, y, k = plant(n)
        maps = synthesis_kernels(resolvent(build_kernel(fundamental_matrix(sys), k)))
        ric = solve_riccati(sys)
        trk = solve_tracking(ric, y)
        p1 = ric.p1[: k + 1, k]
        errors.append(
            (
                np.abs(maps.q0[0] - ric.p0[k]).max(),
                np.abs(maps.q1[0] - p1).max(),
                np.abs(np.einsum("jab,jb->a", maps.q2[0], y.values[k:]) - trk.d1[k]).max(),
            )
        )
        transposed.append(np.abs(maps.q1[0] - p1.transpose(0, 2, 1)).max())
    return request.param, np.array(errors), transposed


class TestFieldIdentities:
    """The Fredholm costate p = Q0 head + int Q1 tail + int Q2 y and the
    Riccati feedback p = P0 head + int P1 tail + d1 are one map of the state,
    so at the start node tau their fields agree to O(h^2)."""

    def test_errors_are_pinned(self, field_identity_errors):
        name, errors, _ = field_identity_errors
        np.testing.assert_allclose(errors, FIELD_IDENTITY_ERRORS[name], rtol=0.02)

    def test_second_order(self, field_identity_errors):
        _, errors, _ = field_identity_errors
        assert (np.log2(errors[:-1] / errors[1:]) >= 1.8).all()

    def test_transposed_p1_does_not_match(self, field_identity_errors):
        # a transpose bug in either route would not pass as round-off
        _, errors, transposed = field_identity_errors
        assert min(transposed) >= 1e-2
        assert min(transposed) >= 1000.0 * errors[-1, 1]


def every_node_p0_error(sys):
    """Largest |S(tau_j, tau_j; tau_j) - P0(tau_j)| over every node j, with
    S = (I + Ktilde BB* W_j)^-1 Ktilde solved afresh on the window from node
    j.  The resolvent is R = S BB*; S is compared because BB* is singular
    when m < d."""
    kernel = build_kernel(fundamental_matrix(sys), 0)
    kb, d, p0 = _kernel_bbt(kernel), sys.d, solve_riccati(sys).p0
    worst = 0.0
    for j in range(sys.grid.steps + 1):
        first_column = kernel.ktilde[j:, j].reshape(-1, d)  # Ktilde(., tau_j) on the window
        S = _nystrom_solve(kb[j:, j:], sys.grid.weights(j), first_column)[:d]
        worst = max(worst, np.abs(S - p0[j]).max())
    return worst


# max-entry errors at n = 30 / 60 / 120; both kernels are smooth (a random
# node table converges at order ~1.2 only)
EVERY_NODE_P0_ERRORS = {
    "tracking": (2.496e-3, 6.032e-4, 1.482e-4),
    "seeded_d3_m2": (8.544e-3, 2.144e-3, 5.361e-4),
}


@pytest.mark.parametrize("name", sorted(EVERY_NODE_P0_ERRORS))
def test_p0_is_the_fredholm_operator_at_every_node(name):
    plant = {
        "tracking": lambda n: make_tracking_instance(n)[1],
        "seeded_d3_m2": lambda n: seeded_plant(3, 2, n, 4, False)[1],
    }[name]
    errors = np.array([every_node_p0_error(plant(n)) for n in (30, 60, 120)])
    np.testing.assert_allclose(errors, EVERY_NODE_P0_ERRORS[name], rtol=0.02)
    assert (np.log2(errors[:-1] / errors[1:]) >= 1.8).all()


def chain_fields(sys, terms, y=None):
    """P0, P1, d1, d2, M, Pi and delta on the plant's nodes from the exact reference for
    an exponential kernel N(t) = sum_r G_r exp(-lambda_r t): the linear chain
    trick.  With z_r(t) = int_0^t exp(-lambda_r (t - s)) w(s) ds, the state
    x = (w, z_1..z_R) obeys an ordinary LQ tracking problem with value
    x* Pi x + 2 x* delta + mu.  From zero at T, DOP853 integrates

        -Pi' = A* Pi + Pi A - Pi BB* Pi + C* C,
        -delta' = (A - BB* Pi)* delta - C* y,    -mu' = |y|^2 - |B* delta|^2,

    for the reference ``y(t)`` (its p outputs; None is zero).  Then P0 =
    Pi_00, P1(s, tau) = sum_r Pi_0r(tau) exp(-lambda_r (tau - s)), d1 =
    delta_0, d2(s, tau) = sum_r exp(-lambda_r (tau - s)) delta_r(tau) and
    M = mu; Pi and delta are returned whole, for the chain's value form."""
    d, nodes = sys.d, sys.grid.nodes
    D = d * (1 + len(terms))
    A = np.zeros((D, D))
    A[:d, :d] = sys.A
    for r, (G, lam) in enumerate(terms, start=1):
        A[:d, r * d : (r + 1) * d] = G
        A[r * d : (r + 1) * d, :d] = np.eye(d)
        A[r * d : (r + 1) * d, r * d : (r + 1) * d] = -lam * np.eye(d)
    B = np.zeros((D, sys.m))
    B[:d] = sys.B
    C = np.zeros((sys.p, D))
    C[:, :d] = sys.C
    bbt = B @ B.T
    T = nodes[-1]
    if y is None:
        y = lambda t: np.zeros(sys.p)  # noqa: E731

    def rhs(sigma, flat):  # d/d sigma, sigma = T - tau
        P, delta = flat[: D * D].reshape(D, D), flat[D * D : -1]
        yt = y(T - sigma)
        dP = A.T @ P + P @ A - P @ bbt @ P + C.T @ C
        ddelta = (A - bbt @ P).T @ delta - C.T @ yt
        dmu = yt @ yt - (B.T @ delta) @ (B.T @ delta)
        return np.concatenate([dP.reshape(-1), ddelta, [dmu]])

    sol = solve_ivp(
        rhs, (0.0, T), np.zeros(D * D + D + 1), method="DOP853", rtol=1e-12, atol=1e-14,
        t_eval=T - nodes[::-1],
    )
    assert sol.success, sol.message
    flat = sol.y.T[::-1]  # at tau_j
    Pi, delta = flat[:, : D * D].reshape(-1, D, D), flat[:, D * D : -1]
    lag = nodes[None, :] - nodes[:, None]  # [i, j] = tau_j - s_i
    p1 = np.zeros((nodes.size, nodes.size, d, d))
    d2 = np.zeros((nodes.size, nodes.size, d))
    for r, (_, lam) in enumerate(terms, start=1):
        decay = np.where(lag >= 0.0, np.exp(-lam * np.maximum(lag, 0.0)), 0.0)
        p1 += decay[:, :, None, None] * Pi[None, :, :d, r * d : (r + 1) * d]
        d2 += decay[:, :, None] * delta[None, :, r * d : (r + 1) * d]
    return Pi[:, :d, :d], p1, delta[:, :d], d2, flat[:, -1], Pi, delta


def chain_plant(n, rate_zero):
    """The fixed instance's plant, kernel G exp(-t), and its kernel terms;
    ``rate_zero`` adds a second term of rate 0."""
    grid, sys, _, _ = make_tracking_instance(n)
    terms = [(sys.N[0], 1.0)]  # N(0) = G
    if not rate_zero:
        return sys, terms
    terms.append((np.array([[0.3, -0.2], [0.1, 0.4]]), 0.0))
    return SystemSpec(sys.A, sys.B, sys.C, exponential_kernel(grid, terms), grid), terms


# max-entry errors of P0 and P1 against the chain reference at n = 60 / 120 / 240
CHAIN_ERRORS = {
    "one_term": [(6.179e-4, 1.365e-4), (1.521e-4, 3.363e-5), (3.774e-5, 8.344e-6)],
    "rate_zero": [(5.762e-4, 1.041e-4), (1.419e-4, 2.582e-5), (3.519e-5, 6.443e-6)],
}


@pytest.mark.parametrize("name", sorted(CHAIN_ERRORS))
def test_p0_and_p1_converge_to_the_chain_reference(name):
    errors = []
    for n in (60, 120, 240):
        sys, terms = chain_plant(n, name == "rate_zero")
        ric = solve_riccati(sys)
        p0, p1 = chain_fields(sys, terms)[:2]
        errors.append((np.abs(ric.p0 - p0).max(), np.abs(ric.p1 - p1).max()))
    errors = np.array(errors)
    np.testing.assert_allclose(errors, CHAIN_ERRORS[name], rtol=0.02)
    assert (np.log2(errors[:-1] / errors[1:]) >= 1.9).all()


def chain_reference(t):
    """``make_tracking_instance``'s reference in closed form."""
    return np.array([0.8 * np.sin(2.0 * np.pi * t) + 0.3 * (1.0 - t)])


# max-entry errors of d1, d2 and M against the chain reference at n = 60 / 120 / 240
CHAIN_TRACKING_ERRORS = {
    "one_term": [
        (4.490e-4, 1.081e-4, 2.176e-4),
        (1.122e-4, 2.708e-5, 5.446e-5),
        (2.803e-5, 6.772e-6, 1.363e-5),
    ],
    "rate_zero": [
        (4.521e-4, 4.798e-5, 2.180e-4),
        (1.129e-4, 1.203e-5, 5.455e-5),
        (2.822e-5, 3.010e-6, 1.365e-5),
    ],
}


@pytest.mark.parametrize("name", sorted(CHAIN_TRACKING_ERRORS))
def test_d1_d2_and_m_converge_to_the_chain_reference(name):
    errors = []
    for n in (60, 120, 240):
        sys, terms = chain_plant(n, name == "rate_zero")
        trk = solve_tracking(solve_riccati(sys), make_tracking_instance(n)[3])
        _, _, d1, d2, m, _, _ = chain_fields(sys, terms, chain_reference)
        pairs = ((trk.d1, d1), (trk.d2, d2), (trk.m, m))
        errors.append([np.abs(got - want).max() for got, want in pairs])
    errors = np.array(errors)
    np.testing.assert_allclose(errors, CHAIN_TRACKING_ERRORS[name], rtol=0.02)
    assert (np.log2(errors[:-1] / errors[1:]) >= 1.9).all()


def chain_tail(t):
    """The history of ``make_tracking_instance`` with tau > 0, in closed form."""
    return np.array([0.9 * np.cos(1.5 * t), -0.4 + 0.7 * t])


# |value_function - (x* Pi x + 2 x* delta + mu)| against the chain reference at
# tau = T/4 and T/2 (columns), n = 60 / 120 / 240 (rows)
CHAIN_VALUE_ERRORS = {
    "one_term": [(1.96e-4, 7.40e-4), (4.62e-5, 1.84e-4), (1.12e-5, 4.57e-5)],
    "rate_zero": [(2.59e-4, 7.56e-4), (6.23e-5, 1.88e-4), (1.53e-5, 4.69e-5)],
}


@pytest.mark.parametrize("name", sorted(CHAIN_VALUE_ERRORS))
def test_value_form_converges_to_the_chain_reference(name):
    # the P2 value form on a history: the chain state is x = (head, z_1..z_R),
    # z_r = int_0^tau exp(-lambda_r (tau - s)) tail(s) ds, here by quad
    errors = []
    for n in (60, 120, 240):
        sys, terms = chain_plant(n, name == "rate_zero")
        trk = solve_tracking(solve_riccati(sys), make_tracking_instance(n)[3])
        _, _, _, _, mu, Pi, delta = chain_fields(sys, terms, chain_reference)
        row = []
        for j in (n // 4, n // 2):
            tau = sys.grid.nodes[j]
            z = [
                quad(lambda s: np.exp(-lam * (tau - s)) * chain_tail(s)[a], 0.0, tau)[0]
                for _, lam in terms
                for a in range(sys.d)
            ]
            x = np.concatenate([chain_tail(tau), z])
            want = x @ Pi[j] @ x + 2.0 * x @ delta[j] + mu[j]
            tail = np.array([chain_tail(t) for t in sys.grid.nodes[: j + 1]])
            row.append(abs(value_function(trk, InitialState(j, chain_tail(tau), tail)) - want))
        errors.append(row)
    errors = np.array(errors)
    np.testing.assert_allclose(errors, CHAIN_VALUE_ERRORS[name], rtol=0.02)
    assert (np.log2(errors[:-1] / errors[1:]) >= 1.9).all()


P1_READER_CASES = (
    [f"fixed-tau{k}" for k in (0, 5, 18)]
    + [
        f"seeded-d{d}m{m}-{kind}-tau{k}"
        for d in (1, 2, 3)
        for m in (1, 2)
        for kind in ("exponential", "table")
        for k in (0, 7)
    ]
    + [
        f"{name}-tau{k}"
        for name in ("diag_memoryless", "zero", "diag", "nilpotent", "negative_zeros")
        for k in (0, 7)
    ]
)


def p1_reader_case(case):
    """(sys, xi, y): the fixed instance at n = 20, a seeded plant at n = 20
    with a random history, or a signed-zero plant at n = 30 with a sine
    reference."""
    name, k = case.rsplit("-tau", 1)
    k = int(k)
    if name == "fixed":
        _, sys, xi, y = make_tracking_instance(20, k)
        return sys, xi, y
    rng = np.random.default_rng(k + 1)
    if name.startswith("seeded"):
        d, m = int(name[8]), int(name[10])
        _, sys, y = seeded_plant(d, m, 20, 10 * d + m, name.endswith("table"))
    else:
        sys = signed_zero_plant(name)
        y = ReferenceSignal(np.sin(np.arange(sys.grid.steps + 1.0))[:, None])
    tail = rng.normal(size=(k + 1, sys.d))
    return sys, InitialState(k, tail[-1] + 0.1, tail), y


def p1_reader_outputs(ric, xi, y):
    """Every output that reads P1 after the sweep: the tracking fields, the
    feedback value and the closed loop from ``xi`` and restarted mid-run,
    the value function at two nodes, di_residual of one pair and of a
    3-column batch, and riccati_operator at two nodes."""
    sys = ric.sys
    n, k, d = sys.grid.steps, xi.tau_index, sys.d
    trk = solve_tracking(ric, y)
    u, w = closed_loop(trk, xi)
    mid = extend_state(w, (k + n) // 2)
    u_mid, w_mid = closed_loop(trk, mid)
    one = di_residual(trk, w, u)
    du = 0.01 * np.random.default_rng(2).normal(size=u.values.shape + (3,))
    ub = ControlSignal(k, u.values[..., None] + du)
    batch = di_residual(trk, simulate(sys, xi, ub), ub)
    seed = lambda t: np.cos((1.0 + np.arange(d)) * t)
    ops = [riccati_operator(ric, make_domain_element(seed, j, sys.grid)) for j in (k, n // 2)]
    return {
        "d1": trk.d1,
        "d2": trk.d2,
        "m": trk.m,
        "feedback": feedback_control(trk, xi),
        "closed_loop_u": u.values,
        "closed_loop_w": w.values,
        "restart_feedback": feedback_control(trk, mid),
        "restart_u": u_mid.values,
        "restart_w": w_mid.values,
        "value": np.array([value_function(trk, xi), value_function(trk, mid)]),
        "di_slack": one.slack,
        "di_pointwise": one.pointwise,
        "batch_di_slack": batch.slack,
        "batch_di_pointwise": batch.pointwise,
        **{f"op{i}_{part}": getattr(op, part) for i, op in enumerate(ops) for part in ("head", "tail")},
    }


@pytest.mark.parametrize("case", P1_READER_CASES)
def test_p1_readers_keep_their_bits_on_a_contiguous_p1(case):
    # the field's p1 is a strided view of the sweep's tau-major array; each
    # reader copies the slice it contracts, so every output is the one a
    # contiguous P1 gives, signed zeros included
    sys, xi, y = p1_reader_case(case)
    ric = solve_riccati(sys, blowup_limit=np.inf)
    assert not ric.p1.flags.c_contiguous
    flat = RiccatiField(ric.sys, ric.p0, np.ascontiguousarray(ric.p1))
    got, ref = p1_reader_outputs(ric, xi, y), p1_reader_outputs(flat, xi, y)
    for name in ref:
        assert got[name].tobytes() == ref[name].tobytes(), name
