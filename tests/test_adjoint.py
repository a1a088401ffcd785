import numpy as np
import pytest

from malctrl.adjoint import (DivergenceError, adjoint_rhs, hamiltonian,
                             integrate_backward)
from malctrl.dynamics import integrate_forward
from malctrl.graphs import NetworkGraph
from malctrl.model import (GAMMA_L, IH, IL, LAM_F, LAM_H, LAM_L, LAM_S, RF, S,
                           ControlTrajectory, ModelInstance, ModelParams)
from malctrl.objective import objective, running_cost
from malctrl.sweep import control_update

from helpers import TWO_NODE, random_graph

SINGLE = NetworkGraph([[0]])


def small_instance(seed=2, n=5, horizon=4.0, steps=200, mode="paper"):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, 0.7)
    initial = np.zeros((n, 4))
    initial[:, S] = 1.0
    initial[0] = (0.0, 1.0, 0.0, 0.0)
    initial[1] = (0.0, 0.0, 1.0, 0.0)
    params = ModelParams.from_scalars(n, 0.3, 0.15, horizon, delta=(0.05, 1.5),
                                      gamma_high=(0.05, 1.5), gamma_low=(0.05, 1.5))
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=steps, adjoint_mode=mode)


class TestHamiltonian:

    def test_zero_costate_collapses_to_running_cost(self):
        rng = np.random.default_rng(1)
        state = rng.dirichlet(np.ones(5), size=2)[:, :4]
        control = rng.random((2, 3))
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        h = hamiltonian(state, control, np.zeros((2, 4)), params, TWO_NODE)
        assert h == running_cost(state, control)

    def test_disease_free_state_zero_control_any_costate(self):
        # nothing recovers, nothing spreads: every drift term carries a state
        # factor that is zero, and the recovery credit is zero, so H = 0
        state = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        control = np.zeros((2, 3))
        costate = np.random.default_rng(3).normal(size=(2, 4))
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        assert hamiltonian(state, control, costate, params, TWO_NODE) == 0.0

    def test_all_zero_stored_state_reduces_to_recovery_credit(self):
        # with every stored compartment at zero the derived recover-complete
        # term is the only survivor: H = -N
        state = np.zeros((2, 4))
        costate = np.random.default_rng(4).normal(size=(2, 4))
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        assert hamiltonian(state, np.zeros((2, 3)), costate, params, TWO_NODE) == -2.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["state", "control", "costate"])
    def test_non_finite_input_named(self, arg, value):
        args = {"state": np.full((2, 4), 0.2), "control": np.full((2, 3), 0.2),
                "costate": np.ones((2, 4))}
        args[arg][1, 1] = value
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value}"):
            hamiltonian(**args, params=params, graph=TWO_NODE)


# (function, argument, wrong shape) on the two-node graph; running_cost takes
# N from its state, so there a state with another row count names the control
WRONG_SHAPES = ([(function, arg, shape) for function in ("adjoint_rhs", "hamiltonian")
                 for arg, shape in (("state", (3, 4)), ("state", (2, 3)), ("control", (2, 2)),
                                    ("control", (3, 3)), ("costate", (1, 4)), ("costate", (2, 5)))]
                + [("running_cost", "state", (2, 3)), ("running_cost", "state", (1, 2, 4)),
                   ("running_cost", "control", (3, 3)), ("running_cost", "control", (2, 2))])


class TestSnapshotShapes:

    @pytest.mark.parametrize("function, arg, shape", WRONG_SHAPES,
                             ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_wrong_shape_named(self, function, arg, shape):
        args = {"state": np.full((2, 4), 0.2), "control": np.full((2, 3), 0.2),
                "costate": np.ones((2, 4))}
        args[arg] = np.full(shape, 0.2)
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        calls = {"adjoint_rhs": lambda: adjoint_rhs(**args, params=params, graph=TWO_NODE),
                 "hamiltonian": lambda: hamiltonian(**args, params=params, graph=TWO_NODE),
                 "running_cost": lambda: running_cost(args["state"], args["control"])}
        with pytest.raises(ValueError,
                           match=rf"^sizes disagree: {arg} has shape \({shape[0]}, "):
            calls[function]()


class TestPointwiseMinimality:

    def test_clamped_update_minimizes_hamiltonian(self):
        rng = np.random.default_rng(7)
        n = 6
        graph = random_graph(rng, n, 0.6)
        params = ModelParams.from_scalars(n, 0.4, 0.2, 1.0, delta=(0.1, 0.8),
                                          gamma_high=(0.1, 1.0), gamma_low=(0.1, 0.6))
        lo, hi = params.lower, params.upper
        grid = np.array([0.0, 1.0])
        for _ in range(25):
            state = rng.dirichlet(np.ones(5), size=n)[:, :4]
            costate = rng.normal(scale=3.0, size=(n, 4))
            from malctrl.model import AdjointTrajectory, StateTrajectory
            st_traj = StateTrajectory(grid, np.stack([state, state]))
            ad_traj = AdjointTrajectory(grid, np.stack([costate, np.zeros_like(costate)]))
            best = control_update(st_traj, ad_traj, params).controls[0]
            h_best = hamiltonian(state, best, costate, params, graph)
            for _ in range(40):
                candidate = lo + (hi - lo) * rng.random((n, 3))
                h_cand = hamiltonian(state, candidate, costate, params, graph)
                assert h_best <= h_cand + 1e-9


class TestAdjointRhs:

    def test_zero_costate_zero_infection(self):
        state = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        control = np.random.default_rng(5).random((2, 3))
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        d = adjoint_rhs(state, control, np.zeros((2, 4)), params, TWO_NODE)
        np.testing.assert_array_equal(d[:, LAM_S], 0.0)
        np.testing.assert_array_equal(d[:, LAM_H], -1.0)
        np.testing.assert_array_equal(d[:, LAM_L], 0.0)
        np.testing.assert_array_equal(d[:, LAM_F], 0.0)

    def test_isolated_node_hand_value(self):
        # gamma_h = 0.5, lam_h = 2, lam_f = 1: d lam_h = -1 + 0.5 * (2 - 1)
        state = np.array([[0.2, 0.3, 0.1, 0.2]])
        control = np.array([[0.0, 0.5, 0.0]])
        costate = np.array([[0.0, 2.0, 0.0, 1.0]])
        params = ModelParams.from_scalars(1, 0.4, 0.2, 1.0)
        d = adjoint_rhs(state, control, costate, params, SINGLE)
        assert d[0, LAM_H] == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("wrong", ["state", "control", "costate"])
    def test_argument_for_another_graph_rejected(self, wrong):
        args = {"state": np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                "control": np.zeros((2, 3)), "costate": np.zeros((2, 4))}
        args[wrong] = args[wrong][:1]
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        with pytest.raises(ValueError, match="sizes disagree"):
            adjoint_rhs(args["state"], args["control"], args["costate"], params, TWO_NODE)

    def test_consistent_mode_matches_hamiltonian_gradient(self):
        # central differences of H in each state coordinate reproduce the
        # negated costate drift in consistent mode, the published drift minus 1
        rng = np.random.default_rng(12)
        n = 4
        graph = random_graph(rng, n, 0.8)
        params = ModelParams.from_scalars(n, 0.35, 0.15, 1.0)
        state = rng.dirichlet(np.ones(5), size=n)[:, :4] * 0.9
        control = rng.random((n, 3))
        costate = rng.normal(size=(n, 4))
        want = 1.0 - adjoint_rhs(state, control, costate, params, graph)
        h = 1e-6
        for i in range(n):
            for c in range(4):
                up, dn = state.copy(), state.copy()
                up[i, c] += h
                dn[i, c] -= h
                grad = (hamiltonian(up, control, costate, params, graph)
                        - hamiltonian(dn, control, costate, params, graph)) / (2 * h)
                assert grad == pytest.approx(want[i, c], abs=1e-4)


class TestIntegrateBackward:

    def test_disease_free_closed_form(self):
        # no infection, controls pinned to zero, and no edges (with links and
        # susceptible neighbors the costate coupling term stays active even
        # disease-free): lam_h(t) = T - t, everything else zero
        graph = NetworkGraph(np.zeros((2, 2), dtype=int))
        initial = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        params = ModelParams.from_scalars(2, 0.5, 0.2, 3.0)
        inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                             time_steps=60)
        control = inst.constant_control(0.0, 0.0, 0.0)
        states = integrate_forward(inst, control)
        adj = integrate_backward(states, control, inst)
        assert adj.costates.shape == (61, 2, 4)
        assert not adj.costates[-1].any()
        expected = np.broadcast_to((3.0 - adj.time_grid)[:, None], (61, 2))
        np.testing.assert_allclose(adj.costates[:, :, LAM_H], expected, atol=1e-12)
        assert not adj.costates[:, :, LAM_S].any()
        assert not adj.costates[:, :, LAM_L].any()
        assert not adj.costates[:, :, LAM_F].any()

    def test_terminal_condition_bitwise_zero(self):
        inst = small_instance()
        control = inst.constant_control(0.4, 0.3, 0.2)
        states = integrate_forward(inst, control)
        adj = integrate_backward(states, control, inst)
        assert (adj.costates[-1] == 0.0).all()

    def test_paper_mode_patch_costate_identically_zero(self):
        inst = small_instance(mode="paper")
        control = inst.constant_control(0.4, 0.3, 0.2)
        states = integrate_forward(inst, control)
        adj = integrate_backward(states, control, inst)
        assert (adj.costates[:, :, LAM_F] == 0.0).all()

    def test_grid_refinement(self):
        # backward pass on a 10x finer grid agrees within 1e-4 in max norm
        coarse_inst = small_instance(steps=100)
        fine_inst = small_instance(steps=1000)
        c_fine = fine_inst.constant_control(0.4, 0.3, 0.2)
        st_fine = integrate_forward(fine_inst, c_fine)
        adj_fine = integrate_backward(st_fine, c_fine, fine_inst)
        c_coarse = coarse_inst.constant_control(0.4, 0.3, 0.2)
        st_coarse = integrate_forward(coarse_inst, c_coarse)
        adj_coarse = integrate_backward(st_coarse, c_coarse, coarse_inst)
        diff = np.abs(adj_coarse.costates - adj_fine.costates[::10]).max()
        assert diff <= 1e-4

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_bad_control_rate_rejected(self, rate):
        inst = small_instance()
        control = inst.constant_control(0.5, 0.5, 0.5)
        states = integrate_forward(inst, control)
        control.controls[5, 3, GAMMA_L] = rate
        with pytest.raises(ValueError, match="control gamma_low must be finite and non-negative"):
            integrate_backward(states, control, inst)

    def test_stacks_rejected(self):
        inst = small_instance()
        control = inst.constant_control(0.5, 0.5, 0.5)
        states = integrate_forward(inst, control)
        stacked_control = ControlTrajectory(control.time_grid, np.stack([control.controls] * 2))
        stacked_states = integrate_forward(inst, stacked_control)
        for args in ((stacked_states, control), (states, stacked_control),
                     (stacked_states, stacked_control)):
            with pytest.raises(ValueError, match="one state trajectory"):
                integrate_backward(*args, inst)

    def test_nan_state_rejected(self):
        inst = small_instance()
        control = inst.constant_control(0.5, 0.5, 0.5)
        states = integrate_forward(inst, control)
        states.states[5, 3, IH] = np.nan
        with pytest.raises(ValueError, match="outside"):
            integrate_backward(states, control, inst)

    def test_divergence_guard(self):
        # disease-free forward state is constant, but the costate coupling
        # through susceptible neighbors grows like exp(beta_high * (T - t))
        # in reverse time; beta_high * T = 50 overflows the 1e12 guard
        initial = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        params = ModelParams.from_scalars(2, 5.0, 0.0, 10.0)
        inst = ModelInstance(graph=TWO_NODE, params=params, initial_state=initial,
                             time_steps=100)
        control = inst.constant_control(0.0, 0.0, 0.0)
        states = integrate_forward(inst, control)
        with pytest.raises(DivergenceError):
            integrate_backward(states, control, inst)


def gradient_error(inst, u, windows):
    """Relative error of the costate gradient of J against central differences.

    Each window ``(node, control, t_start, t_end)`` perturbs one control of
    one node on the grid points of [t_start, t_end).
    """
    grid, dt = inst.time_grid(), inst.dt
    control = ControlTrajectory(grid, u)
    states = integrate_forward(inst, control)
    lam, x = integrate_backward(states, control, inst).costates, states.states
    drift_sensitivity = -np.stack([lam[..., LAM_F] * x[..., RF],
                                   (lam[..., LAM_H] - lam[..., LAM_F]) * x[..., IH],
                                   (lam[..., LAM_L] - lam[..., LAM_F]) * x[..., IL]], axis=-1)
    w = np.full(inst.time_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    h = 1e-5
    g_an, g_fd = [], []
    for i, c, t_start, t_end in windows:
        m = np.arange(round(t_start / dt), round(t_end / dt))
        phi = drift_sensitivity[:, i, c]
        g_an.append((w[m] * u[m, i, c] + 0.5 * dt * (phi[m] + phi[m + 1])).sum())
        j = []
        for step in (h, -h):
            v = u.copy()
            v[m, i, c] += step
            perturbed = ControlTrajectory(grid, v)
            j.append(objective(integrate_forward(inst, perturbed), perturbed).total)
        g_fd.append((j[0] - j[1]) / (2 * h))
    g_an, g_fd = np.array(g_an), np.array(g_fd)
    return np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd)


class TestGradientCheck:

    def test_consistent_mode_gradient_matches_finite_differences(self):
        # piecewise-constant control perturbations: the costate-based gradient
        # matches central differences of the objective within 1e-3 relative
        inst = small_instance(seed=3, horizon=5.0, steps=500, mode="consistent")
        rng = np.random.default_rng(31)
        u = 0.4 + 0.2 * rng.random((inst.time_steps + 1, inst.node_count, 3))
        windows = [(0, 0, 0.5, 1.0), (0, 1, 1.0, 1.8), (1, 2, 2.0, 3.0),
                   (2, 1, 0.4, 1.4), (4, 2, 1.2, 2.2), (3, 1, 3.0, 4.2)]
        assert gradient_error(inst, u, windows) <= 1e-3

    def test_consistent_mode_gradient_error_is_second_order(self):
        # the costates solve the continuous equations, not the adjoint of the
        # discrete scheme: under a smooth control their gradient misses
        # central differences of J by O(dt^2), a fourfold drop per halving
        phase = np.random.default_rng(0).uniform(0.0, 2 * np.pi, (5, 3))
        windows = [(0, 0, 0.5, 1.0), (0, 1, 1.0, 1.8), (1, 2, 2.0, 3.0), (2, 1, 0.4, 1.4),
                   (4, 2, 1.2, 2.2), (3, 0, 3.0, 4.0), (3, 1, 3.2, 4.2), (2, 2, 0.6, 1.6)]
        errors = []
        for steps in (50, 100, 200):
            inst = small_instance(seed=13, horizon=5.0, steps=steps, mode="consistent")
            t = inst.time_grid()[:, None, None]
            errors.append(gradient_error(inst, 0.4 + 0.2 * (0.5 + 0.5 * np.sin(0.9 * t + phase)),
                                         windows))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.abs(ratios - 4.0).max() <= 0.1, f"errors {errors}, ratios {ratios}"
