import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.adjoint import DivergenceError, adjoint_rhs, integrate_backward
from malctrl.dynamics import integrate_forward
from malctrl.graphs import NetworkGraph
from malctrl.model import (GAMMA_L, IH, LAM_F, LAM_H, LAM_L, LAM_S, ControlTrajectory,
                           ModelInstance, ModelParams, StateTrajectory)

from helpers import (TWO_NODE, bad_rate_message, gradient_error, hamiltonian, random_graph,
                     running_cost, small_instance)

SINGLE = NetworkGraph([[0]])


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


# (argument, wrong shape) of adjoint_rhs on the two-node graph
WRONG_SHAPES = [pytest.param(arg, shape, id=f"adjoint_rhs-{arg}-{shape[0]}x{shape[1]}")
                for arg, shape in (("state", (3, 4)), ("state", (2, 3)), ("control", (2, 2)),
                                   ("control", (3, 3)), ("costate", (1, 4)), ("costate", (2, 5)))]


class TestSnapshotShapes:

    @pytest.mark.parametrize("arg, shape", WRONG_SHAPES)
    def test_wrong_shape_named(self, arg, shape):
        args = {"state": np.full((2, 4), 0.2), "control": np.full((2, 3), 0.2),
                "costate": np.ones((2, 4))}
        args[arg] = np.full(shape, 0.2)
        params = ModelParams.from_scalars(2, 0.5, 0.2, 1.0)
        with pytest.raises(ValueError, match=rf"^{arg} must be an array of shape \(2, \d\),"
                                             rf" got shape \({shape[0]}, "):
            adjoint_rhs(**args, params=params, graph=TWO_NODE)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3),
           shapes=st.lists(st.none() | st.tuples(st.integers(0, 4), st.integers(0, 5)),
                           min_size=3, max_size=3))
    def test_accepts_exactly_matching_shapes(self, n, shapes):
        # None draws the matching shape, so both outcomes come up often
        expected = [(n, 4), (n, 3), (n, 4)]
        drawn = [shape or want for shape, want in zip(shapes, expected)]
        arrays = [np.zeros(shape, dtype=int) for shape in drawn]
        mismatched = [name for name, shape, want in zip(("state", "control", "costate"),
                                                        drawn, expected) if shape != want]
        params, graph = ModelParams.from_scalars(n, 0.5, 0.2, 1.0), NetworkGraph(np.zeros((n, n)))
        if mismatched:
            with pytest.raises(ValueError, match=f"^{mismatched[0]} must be an array of shape"):
                adjoint_rhs(*arrays, params, graph)
        else:
            d = adjoint_rhs(*arrays, params, graph)
            assert (d.shape, d.dtype) == ((n, 4), np.float64)


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
        with pytest.raises(ValueError, match=rf"^{wrong} must be an array of shape \(2, \d\),"
                                             r" got shape \(1, \d\)$"):
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
        with pytest.raises(ValueError, match=bad_rate_message("gamma_low", rate)):
            integrate_backward(states, control, inst)

    def test_stacks_rejected(self):
        inst = small_instance()
        control = inst.constant_control(0.5, 0.5, 0.5)
        states = integrate_forward(inst, control)
        stacked_control = ControlTrajectory(control.time_grid, np.stack([control.controls] * 2))
        stacked_states = StateTrajectory(states.time_grid, np.stack([states.states] * 2))
        message = "state_traj must be an array of shape (201, 5, 4), got shape (2, 201, 5, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate_backward(stacked_states, control, inst)
        for args in ((states, stacked_control), (stacked_states, stacked_control)):
            with pytest.raises(ValueError,
                               match=r"^control must be an array of shape \(201, 5, 3\)"):
                integrate_backward(*args, inst)

    def test_nan_state_rejected(self):
        inst = small_instance()
        control = inst.constant_control(0.5, 0.5, 0.5)
        states = integrate_forward(inst, control)
        states.states[5, 3, IH] = np.nan
        with pytest.raises(ValueError, match="^state_traj must be finite, got nan$"):
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


class TestGradientCheck:

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
