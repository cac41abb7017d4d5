import inspect
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_tracking_instance, seeded_plant
from voltrack import (
    ConfigurationError,
    ControlSignal,
    CostateTrajectory,
    InitialState,
    ReferenceSignal,
    ResolventKernel,
    SingularSystemError,
    SynthesisKernels,
    SystemSpec,
    TimeGrid,
    TrackingKernel,
    apply_synthesis,
    build_forcing,
    build_kernel,
    cost,
    costate_residual,
    fundamental_matrix,
    optimal_control_fredholm,
    resolvent,
    resolvent_norms,
    simulate,
    solve_fredholm,
    synthesis_kernels,
    trapezoid_weights,
    voc_solution,
    zero_kernel,
)


def test_no_stage_takes_the_plant_or_the_grid():
    # The plant carries the grid its kernel is sampled on, Z and the Riccati
    # field carry the plant, and every later artifact carries one of them, so
    # a stage that took a grid beside any of these could be handed one that
    # disagrees.  Only functions that take no plant take a grid: the kernel
    # samplers, the zero control and the state-space elements.
    from voltrack import fredholm, model, qp, riccati, stateops

    def public(mod):
        return [
            fn
            for name, fn in vars(mod).items()
            if not name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
        ]

    def kinds(fn):
        out = set()
        for name, param in inspect.signature(fn, eval_str=True).parameters.items():
            if param.annotation is inspect.Parameter.empty:
                assert fn in grid_only, (fn.__name__, name)
            out |= {param.annotation, *typing.get_args(param.annotation)}
        return out

    carriers = {
        SystemSpec,
        model.FundamentalMatrix,
        riccati.RiccatiField,
        riccati.TrackingField,
        TrackingKernel,
        CostateTrajectory,
        ResolventKernel,
        SynthesisKernels,
    }
    grid_only = [
        model.exponential_kernel,
        model.zero_kernel,
        ControlSignal.zero,
        stateops.make_domain_element,
        stateops.state_inner,
    ]
    stages = [fn for mod in (model, fredholm, riccati, qp, stateops) for fn in public(mod)]
    assert len(stages) >= 35
    assert {fn for fn in stages + [ControlSignal.zero] if TimeGrid in kinds(fn)} == set(grid_only)
    for fn in grid_only:
        assert not kinds(fn) & carriers, fn.__name__
    # after fundamental_matrix no stage takes the plant either, and after
    # build_kernel no Fredholm stage takes Z: the forcing comes from the kernel
    for fn in [model.voc_solution] + public(fredholm):
        assert not kinds(fn) & {SystemSpec, TimeGrid}, fn.__name__
    takes_z = {fn for fn in public(fredholm) if model.FundamentalMatrix in kinds(fn)}
    assert takes_z == {fredholm.build_kernel}


@pytest.fixture(scope="module")
def solved_instance():
    """Fully assembled Fredholm route on the fixed instance, tau = 0."""
    grid, sys, xi, y = make_tracking_instance(100)
    Z = fundamental_matrix(sys)
    kernel = build_kernel(Z, 0)
    forcing = build_forcing(kernel, xi, y)
    p = solve_fredholm(kernel, xi, y)
    return grid, sys, xi, y, Z, kernel, forcing, p


@pytest.fixture(scope="module")
def solved_with_tail():
    """Same plant restarted mid-horizon with a nontrivial tail."""
    grid, sys, xi, y = make_tracking_instance(80, tau_index=30)
    Z = fundamental_matrix(sys)
    kernel = build_kernel(Z, 30)
    R = resolvent(kernel)
    kern = synthesis_kernels(R)
    return grid, sys, xi, y, Z, kernel, R, kern


@pytest.fixture(scope="module")
def unstable_drift():
    """A plant whose drift A has eigenvalues with real part above 2."""
    grid, sys, xi, y = make_tracking_instance(60, tau_index=5)
    sys = SystemSpec(sys.A + 2.0 * np.eye(2), sys.B, sys.C, sys.N, sys.grid)
    Z = fundamental_matrix(sys)
    return grid, sys, xi, y, Z, build_kernel(Z, 5)


@pytest.fixture(scope="module")
def rank_deficient_bbt():
    """d = 3 with m = 2 inputs, so BB* is singular."""
    grid, sys, y = seeded_plant(3, 2, 60, 4, False)
    Z = fundamental_matrix(sys)
    return grid, sys, None, y, Z, build_kernel(Z, 12)


class TestBuildKernel:
    def test_final_rows_are_zero(self, solved_instance):
        _, _, _, _, _, kernel, _, _ = solved_instance
        assert np.abs(kernel.ktilde[-1]).max() == 0.0
        assert np.abs(kernel.ktilde[:, -1]).max() == 0.0

    def test_zero_output_matrix(self):
        grid, sys, _, _ = make_tracking_instance(40)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        Z = fundamental_matrix(sys0)
        kernel = build_kernel(Z, 0)
        assert np.abs(kernel.ktilde).max() == 0.0

    def test_transpose_symmetry(self, solved_instance):
        _, _, _, _, _, kernel, _, _ = solved_instance
        sym = np.abs(kernel.ktilde - np.transpose(kernel.ktilde, (1, 0, 3, 2))).max()
        assert sym < 1e-13

    def test_matches_direct_quadrature(self, solved_instance):
        # recompute a few entries with an explicit trapezoid sum
        grid, sys, _, _, Z, kernel, _, _ = solved_instance
        cc = sys.C.T @ sys.C
        h = grid.h
        rng = np.random.default_rng(5)
        for i, j in zip(rng.integers(0, 100, 6), rng.integers(0, 100, 6)):
            lo = max(i, j)
            wts = trapezoid_weights(100 - lo + 1, h)
            ref = np.zeros((2, 2))
            for q, s in enumerate(range(lo, 101)):
                ref += wts[q] * Z.values[s - i] @ cc @ Z.values[s - j].T
            assert np.abs(kernel.ktilde[i, j] - ref).max() < 1e-13

    def test_start_off_the_window_is_refused(self, solved_instance):
        Z = solved_instance[4]
        for start in (-1, 101):
            message = f"start_index must be an integer in 0..100, got {start}"
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                build_kernel(Z, start)

    def test_window_is_the_lower_right_block_of_window_0(self, solved_with_tail):
        # Ktilde does not depend on tau: the window from node k is a slice
        Z, late = solved_with_tail[4], solved_with_tail[5]  # late starts at node 30 of 80
        full = build_kernel(Z, 0).ktilde
        assert late.ktilde.tobytes() == full[30:, 30:].tobytes()
        assert build_kernel(Z, 80).ktilde.tobytes() == full[80:, 80:].tobytes()


class TestBuildForcing:
    def test_zero_data_zero_forcing(self):
        grid, sys, _, _ = make_tracking_instance(40)
        kernel = build_kernel(fundamental_matrix(sys), 0)
        forcing = build_forcing(
            kernel, InitialState(0, [0.0, 0.0]), ReferenceSignal(np.zeros((41, 1)))
        )
        assert np.abs(forcing).max() == 0.0

    def test_vanishes_at_horizon(self, solved_instance):
        _, _, _, _, _, _, forcing, _ = solved_instance
        assert forcing.shape == (101, 2)
        assert np.abs(forcing[-1]).max() == 0.0

    def test_hand_integrated_constant_case(self):
        # A = 0, N = 0, C = 1, head = 1, y = 0: Y(t) = T - t
        grid = TimeGrid(1.0, 100)
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = build_kernel(fundamental_matrix(sys), 0)
        forcing = build_forcing(
            kernel, InitialState(0, [1.0]), ReferenceSignal(np.zeros((101, 1)))
        )
        np.testing.assert_allclose(forcing[:, 0], 1.0 - grid.nodes, atol=1e-12)

    def test_refuses_a_state_at_another_node(self, solved_instance):
        grid, _, _, y, _, kernel, _, _ = solved_instance
        xi = InitialState(30, [0.9, -0.4], np.zeros((31, 2)))
        msg = "state node 30 differs from the kernel node 0"
        with pytest.raises(ConfigurationError, match=msg):
            build_forcing(kernel, xi, y)
        with pytest.raises(ConfigurationError, match=msg):
            solve_fredholm(kernel, xi, y)


class TestSolveFredholm:
    def test_zero_input_matrix_returns_forcing(self):
        grid, sys, xi, y = make_tracking_instance(50)
        sys0 = SystemSpec(sys.A, np.zeros((2, 1)), sys.C, sys.N, sys.grid)
        Z = fundamental_matrix(sys0)
        kernel = build_kernel(Z, 0)
        p = solve_fredholm(kernel, xi, y)
        np.testing.assert_array_equal(p.values, build_forcing(kernel, xi, y))

    def test_zero_forcing_zero_costate(self, solved_instance):
        grid, _, _, _, _, kernel, _, _ = solved_instance
        zero = ReferenceSignal(np.zeros((101, 1)))
        p = solve_fredholm(kernel, InitialState(0, [0.0, 0.0]), zero)
        assert np.abs(p.values).max() == 0.0

    def test_costate_carries_its_kernel_and_reference(self, solved_instance):
        _, _, _, y, _, kernel, _, p = solved_instance
        assert p.kernel is kernel and p.y is y

    def test_plugback_residual(self, solved_instance):
        grid, sys, _, _, _, kernel, forcing, p = solved_instance
        w = grid.weights(0)
        bbt = sys.B @ sys.B.T
        lhs = p.values + np.einsum(
            "ijab,bc,jc,j->ia", kernel.ktilde, bbt, p.values, w, optimize=True
        )
        assert np.abs(lhs - forcing).max() < 1e-10

    def test_final_costate_exactly_zero(self, solved_instance):
        *_, p = solved_instance
        assert np.abs(p.values[-1]).max() == 0.0


class TestResolvent:
    def test_zero_kernel_zero_resolvent(self):
        grid, sys, _, _ = make_tracking_instance(40)
        sys0 = SystemSpec(sys.A, sys.B, np.zeros((1, 2)), sys.N, sys.grid)
        Z = fundamental_matrix(sys0)
        R = resolvent(build_kernel(Z, 0))
        assert np.abs(R.values).max() == 0.0

    def test_final_rows_zero(self, solved_instance):
        grid, _, _, _, _, kernel, _, _ = solved_instance
        R = resolvent(kernel)
        assert np.abs(R.values[-1]).max() == 0.0
        assert np.abs(R.values[:, -1]).max() == 0.0

    def test_two_term_neumann_with_remainder_bound(self):
        # scale the output matrix down so the integral operator is small
        grid, sys, _, _ = make_tracking_instance(40)
        sys_small = SystemSpec(sys.A, sys.B, 0.3 * sys.C, sys.N, sys.grid)
        Z = fundamental_matrix(sys_small)
        kernel = build_kernel(Z, 0)
        R = resolvent(kernel)
        w = grid.weights(0)
        bbt = sys_small.B @ sys_small.B.T
        nk, d = 41, 2
        L = np.einsum("ijab,bc->ijac", kernel.ktilde, bbt)
        Lbig = L.transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
        LWbig = (L * w[None, :, None, None]).transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
        Rbig = R.values.transpose(0, 2, 1, 3).reshape(nk * d, nk * d)
        two_term = Lbig - LWbig @ Lbig
        remainder = np.linalg.norm(Rbig - two_term, 2)
        q = np.linalg.norm(LWbig, 2)
        assert q < 0.5  # genuinely a small-kernel regime
        assert remainder <= q * q * np.linalg.norm(Rbig, 2) * (1.0 + 1e-12)

    def test_uniform_bound_over_tau_sweep(self, solved_instance):
        grid, _, _, _, _, kernel, _, _ = solved_instance
        base = resolvent(kernel).max_norm
        worst = base
        for k in range(5, 100, 5):
            worst = max(worst, resolvent(build_kernel(kernel.Z, k)).max_norm)
        assert worst <= 2.0 * base


def unscreened_max_norm(values):
    """One SVD per block: the reference the screened ``max_norm`` must equal bitwise."""
    if values.size == 0:
        return 0.0
    return float(np.linalg.norm(values, axis=(2, 3), ord=2).max())


def outcome(call):
    """The exact bits of the float ``call()`` returns, or the error it raises."""
    try:
        return call().hex()
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


@st.composite
def block_arrays(draw):
    """(i, j, d, d) arrays: general finite, rank-one, with tied blocks, or all zero."""
    i, j, d = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "rank_one", "tied", "zero"]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if kind == "zero":
        return np.zeros((i, j, d, d))
    if kind == "rank_one":  # ||M||_F = ||M||_2, the screen's tightest case
        factor = st.floats(-1e150, 1e150)
        a = draw(arrays(np.float64, (i, j, d), elements=factor))
        b = draw(arrays(np.float64, (i, j, d), elements=factor))
        return a[..., :, None] * b[..., None, :]
    values = draw(arrays(np.float64, (i, j, d, d), elements=finite))
    if kind == "tied" and values.size:
        # copies, negations and transposes share the spectral norm exactly
        block = values[0, 0]
        for q, (r, c) in enumerate(np.ndindex(i, j)):
            if draw(st.booleans()):
                values[r, c] = (block, -block, block.T)[q % 3]
    return values


class TestMaxNorm:
    @settings(max_examples=300, deadline=None, database=None)
    @given(block_arrays())
    def test_screen_equals_one_svd_per_block(self, values):
        R = ResolventKernel(values, None)
        assert outcome(lambda: R.max_norm) == outcome(lambda: unscreened_max_norm(values))

    @pytest.mark.parametrize("magnitude", [1e-300, 5e-163, 1e-162, 1e170, 1e300])
    def test_squares_out_of_range(self, magnitude):
        # squared entries under- or overflow; near 1e-162 they are subnormal and
        # keep a few bits, enough to misorder unscaled Frobenius norms
        for seed in range(5):
            values = magnitude * np.random.default_rng(seed).standard_normal((6, 6, 3, 3))
            R = ResolventKernel(values, None)
            assert R.max_norm.hex() == unscreened_max_norm(values).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_as_unscreened(self, bad):
        values = np.random.default_rng(3).standard_normal((5, 4, 2, 2))
        values[2, 1, 0, 1] = bad
        R = ResolventKernel(values, None)
        assert outcome(lambda: R.max_norm) == outcome(lambda: unscreened_max_norm(values))

    @pytest.mark.parametrize(
        "instance", ["solved_instance", "solved_with_tail", "unstable_drift", "rank_deficient_bbt"]
    )
    def test_sweep_equals_per_window_resolvents(self, instance, request):
        # the downdates round otherwise than a fresh solve per window; the
        # largest relative gap on these four plants is 2.1e-15
        grid, _, _, _, _, kernel, *_ = request.getfixturevalue(instance)
        k = kernel.start_index
        R0 = resolvent(kernel)
        norms = resolvent_norms(R0)
        assert len(norms) == grid.steps - k
        assert norms[0].hex() == R0.max_norm.hex()
        for i, val in enumerate(norms):
            R = resolvent(build_kernel(kernel.Z, k + i))
            assert R.max_norm.hex() == unscreened_max_norm(R.values).hex()
            assert abs(val - R.max_norm) <= 1e-12 * R.max_norm

    def test_sweep_solves_nothing_larger_than_2d(self, solved_with_tail, monkeypatch):
        # after the window-0 resolvent it is given, each window is one 2d x 2d
        # solve; a fresh solve per window would be (nodes d) x (nodes d)
        R = solved_with_tail[6]
        shapes = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        resolvent_norms(R)
        nk = R.values.shape[0]
        assert shapes == [(4, 4)] * (nk - 2)

    def test_sweep_on_the_last_windows(self):
        # two nodes: one entry and no downdate; one node: no window at all
        _, sys, _, _ = make_tracking_instance(10)
        kernel = build_kernel(fundamental_matrix(sys), 9)
        assert resolvent_norms(resolvent(kernel)) == [resolvent(kernel).max_norm]
        assert resolvent_norms(resolvent(build_kernel(kernel.Z, 10))) == []


class TestOptimalControl:
    def test_zero_costate(self, solved_instance):
        *_, p = solved_instance
        p0 = type(p)(np.zeros((101, 2)), p.kernel, p.y)
        u = optimal_control_fredholm(p0)
        assert np.abs(u.values).max() == 0.0

    def test_zero_input_matrix(self):
        grid, sys, xi, y = make_tracking_instance(50)
        sys0 = SystemSpec(sys.A, np.zeros((2, 1)), sys.C, sys.N, sys.grid)
        p = solve_fredholm(build_kernel(fundamental_matrix(sys0), 0), xi, y)
        assert np.abs(p.values).max() > 0.0
        u = optimal_control_fredholm(p)
        assert np.abs(u.values).max() == 0.0

    def test_beats_random_perturbations(self, solved_instance):
        grid, sys, xi, y, Z, _, _, p = solved_instance
        u = optimal_control_fredholm(p)
        w = simulate(sys, xi, u)
        j_opt = cost(sys, w, u, y)
        rng = np.random.default_rng(7)
        for _ in range(100):
            du = 0.2 * rng.standard_normal(u.values.shape)
            up = ControlSignal(0, u.values + du)
            jp = cost(sys, simulate(sys, xi, up), up, y)
            assert j_opt <= jp


class TestSynthesisKernels:
    def test_costate_route_agreement(self, solved_instance):
        grid, sys, xi, y, Z, kernel, forcing, p = solved_instance
        R = resolvent(kernel)
        kern = synthesis_kernels(R)
        u_qh, w_qh = apply_synthesis(kern, xi, y)
        u_p = optimal_control_fredholm(p)
        scale = np.abs(u_p.values).max()
        assert np.abs(u_qh.values - u_p.values).max() / scale < 1e-8
        w_voc = voc_solution(Z, xi, u_p)
        assert np.abs(w_qh.values - w_voc.values).max() < 1e-10

    def test_costate_route_agreement_with_tail(self, solved_with_tail):
        grid, sys, xi, y, Z, kernel, R, kern = solved_with_tail
        p = solve_fredholm(kernel, xi, y)
        u_p = optimal_control_fredholm(p)
        u_qh, _ = apply_synthesis(kern, xi, y)
        scale = np.abs(u_p.values).max()
        assert np.abs(u_qh.values - u_p.values).max() / scale < 1e-8

    def test_final_node_values(self, solved_instance):
        grid, sys, xi, y, Z, kernel, _, _ = solved_instance
        R = resolvent(kernel)
        kern = synthesis_kernels(R)
        assert np.abs(kern.q0[-1]).max() == 0.0  # Q0 vanishes at the horizon

    def test_horizon_start_degenerates(self):
        # tau = T: the only node is the horizon itself
        grid, sys, _, _ = make_tracking_instance(40)
        Z = fundamental_matrix(sys)
        kernel = build_kernel(Z, 40)
        R = resolvent(kernel)
        kern = synthesis_kernels(R)
        np.testing.assert_array_equal(kern.h0[0], np.eye(2))
        assert np.abs(kern.h1).max() == 0.0
        assert np.abs(kern.h2).max() == 0.0

    def test_substituted_tail_kernel_form_agrees(self, solved_with_tail):
        # the inner convolution can also be written with the integration
        # variable shifted by the tail age; both node sums must coincide
        grid, sys, xi, _, Z, _, _, kern = solved_with_tail
        k, h, d = 30, grid.h, 2
        cc = sys.C.T @ sys.C
        rng = np.random.default_rng(2)
        for il, nu in zip(rng.integers(0, 50, 4), rng.integers(0, 31, 4)):
            i = k + int(il)
            direct = np.zeros((d, d))
            wts_out = trapezoid_weights(80 - i + 1, h)
            for qs, s in enumerate(range(i, 81)):
                inner = np.zeros((d, d))
                wts_in = trapezoid_weights(s - k + 1, h)
                for qr, r in enumerate(range(k, s + 1)):
                    inner += wts_in[qr] * Z.values[s - r].T @ sys.N[r - nu]
                direct += wts_out[qs] * Z.values[s - i] @ cc @ inner
            shifted = np.zeros((d, d))
            for qs, s in enumerate(range(i, 81)):
                inner = np.zeros((d, d))
                wts_in = trapezoid_weights(s - k + 1, h)
                for qm, mu in enumerate(range(k - nu, s - nu + 1)):
                    inner += wts_in[qm] * Z.values[s - nu - mu].T @ sys.N[mu]
                shifted += wts_out[qs] * Z.values[s - i] @ cc @ inner
            assert np.abs(direct - shifted).max() < 1e-14


class TestApplySynthesis:
    def test_zero_data(self, solved_with_tail):
        grid, sys, xi, _, _, _, _, kern = solved_with_tail
        zero_xi = InitialState(30, np.zeros(2), np.zeros((31, 2)))
        zero_y = ReferenceSignal(np.zeros((81, 1)))
        u, w = apply_synthesis(kern, zero_xi, zero_y)
        assert np.abs(u.values).max() == 0.0
        assert np.abs(w.values).max() == 0.0

    def test_initial_node_is_head(self, solved_with_tail):
        grid, sys, xi, y, _, _, _, kern = solved_with_tail
        _, w = apply_synthesis(kern, xi, y)
        np.testing.assert_allclose(w.values[30], xi.head, atol=1e-14)

    def test_closed_loop_consistency(self, solved_with_tail):
        grid, sys, xi, y, _, _, _, kern = solved_with_tail
        u, w = apply_synthesis(kern, xi, y)
        w_sim = simulate(sys, xi, u)
        assert np.abs(w.values - w_sim.values).max() < 2e-4

    def test_linearity(self, solved_with_tail):
        grid, sys, _, _, _, _, _, kern = solved_with_tail
        rng = np.random.default_rng(9)
        xa = InitialState(30, rng.normal(size=2), rng.normal(size=(31, 2)))
        xb = InitialState(30, rng.normal(size=2), rng.normal(size=(31, 2)))
        ya = ReferenceSignal(rng.normal(size=(81, 1)))
        yb = ReferenceSignal(rng.normal(size=(81, 1)))
        alpha = 0.73
        xc = InitialState(
            30, alpha * xa.head + xb.head, alpha * xa.tail + xb.tail
        )
        yc = ReferenceSignal(alpha * ya.values + yb.values)
        ua, wa = apply_synthesis(kern, xa, ya)
        ub, wb = apply_synthesis(kern, xb, yb)
        uc, wc = apply_synthesis(kern, xc, yc)
        assert np.abs(uc.values - alpha * ua.values - ub.values).max() < 1e-11
        assert np.abs(wc.values - alpha * wa.values - wb.values).max() < 1e-11

    def test_refuses_a_state_at_another_node(self, solved_with_tail):
        grid, sys, xi, y, _, _, _, kern = solved_with_tail
        msg = "state node 0 differs from the synthesis node 30"
        with pytest.raises(ConfigurationError, match=msg):
            apply_synthesis(kern, InitialState(0, xi.head), y)


class TestDiscreteOptimality:
    def test_qp_gradient_scales_second_order(self):
        # the discretized cost gradient at the synthesized control
        # (computed by the transcription oracle) vanishes at O(h^2)
        from voltrack import build_affine_map
        from voltrack.qp import qp_gradient

        grads = []
        for n in (100, 200):
            grid, sys, xi, y = make_tracking_instance(n)
            p = solve_fredholm(build_kernel(fundamental_matrix(sys), 0), xi, y)
            u = optimal_control_fredholm(p)
            dmap = build_affine_map(sys, xi)
            grads.append(np.abs(qp_gradient(dmap, y, u)).max())
        assert grads[0] < 1e-3
        assert grads[0] / grads[1] >= 3.0


class TestCostateResidual:
    def test_zero_case(self):
        grid, sys, _, _ = make_tracking_instance(40)
        from voltrack import CostateTrajectory, StateTrajectory

        y = ReferenceSignal(np.zeros((41, 1)))
        pz = CostateTrajectory(np.zeros((41, 2)), build_kernel(fundamental_matrix(sys)), y)
        w = StateTrajectory(0, np.zeros((41, 2)))
        assert costate_residual(pz, w) == 0.0

    def test_convergence_under_refinement(self):
        errs = []
        for n in (100, 200):
            grid, sys, xi, y = make_tracking_instance(n)
            Z = fundamental_matrix(sys)
            p = solve_fredholm(build_kernel(Z, 0), xi, y)
            u = optimal_control_fredholm(p)
            w = voc_solution(Z, xi, u)
            errs.append(costate_residual(p, w))
        assert errs[0] / errs[1] >= 1.8

    @pytest.mark.parametrize("node", [0, 10])
    def test_nan_costate_gives_nan(self, node):
        # a NaN row must reach the max; Python's max(0.0, nan) is 0.0, which
        # would report 0.0426 here for node 10 and the clean 0.0474 for node 0
        from voltrack import CostateTrajectory

        _, sys, xi, y = make_tracking_instance(20)
        Z = fundamental_matrix(sys)
        p = solve_fredholm(build_kernel(Z, 0), xi, y)
        w = voc_solution(Z, xi, optimal_control_fredholm(p))
        values = p.values.copy()
        values[node, 0] = np.nan
        assert np.isnan(costate_residual(CostateTrajectory(values, p.kernel, p.y), w))


class TestSingularNystromMatrix:
    def test_zero_pivot_raises_in_solve_and_resolvent(self):
        # d = 1, B = 1, h = 1/4: Ktilde(t_0, t_0) BB* w_0 = -8 * 1/8 = -1 exactly,
        # so I + Ktilde BB* W has an all-zero first column
        grid = TimeGrid(1.0, 4)
        ktilde = np.zeros((5, 5, 1, 1))
        ktilde[0, 0] = -8.0
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = TrackingKernel(0, ktilde, fundamental_matrix(sys))
        xi, y = InitialState(0, [1.0]), ReferenceSignal(np.zeros((5, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised at the pivot, not warned
            with pytest.raises(SingularSystemError, match="Nystrom matrix is singular"):
                solve_fredholm(kernel, xi, y)
            with pytest.raises(SingularSystemError, match="Nystrom matrix is singular"):
                resolvent(kernel)

    def test_singular_later_window_raises_in_the_sweep(self):
        # d = 1, B = 1, h = 1/2: Ktilde(t_1, t_1) = -4 gives node 1 the row
        # 1 - 4 w_1, which is -1 on [t_0, T] (w_1 = h) and 0 on [t_1, T]
        # (w_1 = h/2): window 0 is regular, window 1 singular
        grid = TimeGrid(1.0, 2)
        ktilde = np.zeros((3, 3, 1, 1))
        ktilde[1, 1] = -4.0
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = TrackingKernel(0, ktilde, fundamental_matrix(sys))
        R = resolvent(kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="Nystrom matrix is singular"):
                resolvent(TrackingKernel(1, ktilde[1:, 1:], kernel.Z))
            with pytest.raises(SingularSystemError, match="Nystrom matrix is singular"):
                resolvent_norms(R)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_raises_in_solve_and_resolvent(self, bad):
        grid = TimeGrid(1.0, 4)
        ktilde = np.zeros((5, 5, 1, 1))
        ktilde[1, 2] = bad
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = TrackingKernel(0, ktilde, fundamental_matrix(sys))
        xi, y = InitialState(0, [1.0]), ReferenceSignal(np.zeros((5, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before LAPACK sees it
            with pytest.raises(SingularSystemError, match="non-finite entries"):
                solve_fredholm(kernel, xi, y)
            with pytest.raises(SingularSystemError, match="non-finite entries"):
                resolvent(kernel)

    def test_overflowing_solution_raises_in_resolvent(self):
        # d = 1, B = 1, h = 1/4, window [t_2, T]: node 2's row of the Nystrom
        # matrix is (0, 2^-902, 0) and node 3's (2^-903, 1, 0), so the matrix
        # is regular and finite but its inverse overflows
        grid = TimeGrid(1.0, 4)
        ktilde = np.zeros((3, 3, 1, 1))
        ktilde[0, 0] = -8.0
        ktilde[0, 1] = ktilde[1, 0] = 2.0**-900
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = TrackingKernel(2, ktilde, fundamental_matrix(sys))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="produced non-finite values"):
                resolvent(kernel)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_raises_in_the_sweep(self, solved_with_tail, bad):
        # the SVD of a block norm does not converge on it; the sweep names
        # the window instead, here window 0 from the kernel's node 30
        R = solved_with_tail[6]
        values = R.values.copy()
        values[2, 1, 0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="window from node 30 has non-finite"):
                resolvent_norms(ResolventKernel(values, R.kernel))

    def test_overflowing_downdate_names_its_window(self):
        # d = 1, h = 1/4, c = -1/8: X[J, J] = 8 (1 - 2^-52) I leaves the pivot
        # I + c X[J, J] = 2^-52 I, so window 0 is finite and the downdate to
        # window 1 multiplies 1e150 entries by a 2^52 1e150 gain
        grid = TimeGrid(1.0, 4)
        sys = SystemSpec([[0.0]], [[1.0]], [[1.0]], zero_kernel(grid, 1), grid)
        kernel = TrackingKernel(0, np.zeros((5, 5, 1, 1)), fundamental_matrix(sys))
        X = np.zeros((5, 5))
        X[:2, 2:] = X[2:, :2] = 1e150
        X[0, 0] = X[1, 1] = 8.0 * (1.0 - 2.0**-52)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="window from node 1 has non-finite"):
                resolvent_norms(ResolventKernel(X[:, :, None, None], kernel))
