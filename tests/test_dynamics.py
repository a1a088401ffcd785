import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.dynamics import (StepTooLargeError, _forward_steps, _reduced_rhs,
                              ctmc_simulate, integrate_forward)
from malctrl.experiments import build_case_instance
from malctrl.graphs import canonical_graph
from malctrl.model import (DELTA, GAMMA_H, GAMMA_L, IH, IL, RF, S, ControlTrajectory,
                           ModelParams, TRAJECTORY_TOL, r_complete, seed_initial_state,
                           validate_states)

from helpers import TWO_NODE, bad_rate_message, make_instance, random_graph


def ode_rhs(state, control, params, graph):
    """All five compartment derivatives per node, shape (N, 5): the integrated
    four of _reduced_rhs plus the patch flow delta * RF into RC."""
    reduced = _reduced_rhs(state, control, params.beta_high, params.beta_low, graph.adjacency)
    return np.concatenate([reduced, (control[:, DELTA] * state[:, RF])[:, None]], axis=1)


def naive_rhs(state, control, beta_high, beta_low, adjacency):
    """Independent per-node evaluation of the five coupled equations."""
    n = state.shape[0]
    out = np.zeros((n, 5))
    for i in range(n):
        pressure_h = sum(adjacency[i, j] * state[j, IH] for j in range(n))
        pressure_l = sum(adjacency[i, j] * state[j, IL] for j in range(n))
        new_h = beta_high * state[i, S] * pressure_h
        new_l = beta_low * state[i, S] * pressure_l
        out[i, 0] = -new_h - new_l
        out[i, 1] = new_h - control[i, GAMMA_H] * state[i, IH]
        out[i, 2] = new_l - control[i, GAMMA_L] * state[i, IL]
        out[i, 3] = (control[i, GAMMA_H] * state[i, IH]
                     + control[i, GAMMA_L] * state[i, IL]
                     - control[i, DELTA] * state[i, RF])
        out[i, 4] = control[i, DELTA] * state[i, RF]
    return out


class TestOdeRhs:

    def test_disease_free_equilibrium(self):
        params = ModelParams.from_scalars(2, 0.5, 0.25, 1.0)
        state = np.array([[1.0, 0, 0, 0], [0.3, 0, 0, 0]])
        control = np.zeros((2, 3))
        assert not ode_rhs(state, control, params, TWO_NODE).any()

    def test_two_node_hand_values(self):
        # node 0 fully susceptible, node 1 infected-high, beta_high = 0.5
        params = ModelParams.from_scalars(2, 0.5, 0.0, 1.0)
        state = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        control = np.zeros((2, 3))
        d = ode_rhs(state, control, params, TWO_NODE)
        assert d[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert d[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert not d[1].any()

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(5)
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.004, 0.002, 1.0)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(5), size=60)
            state = raw[:, :4]
            control = rng.random((60, 3))
            got = ode_rhs(state, control, params, graph)
            want = naive_rhs(state, control, 0.004, 0.002, graph.adjacency)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestIntegrateForward:

    def test_zero_infection_is_invariant(self):
        inst = make_instance(TWO_NODE, 0.5, 0.25, 4.0)
        control = inst.constant_control(0.8, 0.5, 0.3)
        traj = integrate_forward(inst, control)
        np.testing.assert_array_equal(traj.states[-1], traj.states[0])

    def test_fine_euler_oracle(self):
        # RK4 at dt matches a 100x finer explicit-Euler reference within 1e-4
        rng = np.random.default_rng(2)
        graph = random_graph(rng, 5, 0.6)
        initial = np.zeros((5, 4))
        initial[:, S] = 1.0
        initial[0] = (0.0, 1.0, 0.0, 0.0)
        initial[1] = (0.0, 0.0, 1.0, 0.0)
        inst = make_instance(graph, 0.4, 0.2, 2.0, initial=initial, time_steps=40)
        control = inst.constant_control(0.6, 0.5, 0.4)
        traj = integrate_forward(inst, control)

        fine = 100
        x = initial.copy()
        h = inst.dt / fine
        for _ in range(inst.time_steps * fine):
            x = x + h * _reduced_rhs(x, control.controls[0], 0.4, 0.2, graph.adjacency)
        assert np.abs(traj.states[-1] - x).max() <= 1e-4

    def test_normalization_and_monotonicity(self):
        graph = canonical_graph()
        initial = seed_initial_state(graph, 57, 2, 1)
        inst = make_instance(graph, 0.004, 0.002, 12.0, initial=initial, time_steps=300)
        traj = integrate_forward(inst, inst.constant_control(0.5, 0.4, 0.2))
        assert traj.states.shape == (301, 60, 4)
        validate_states(traj.states, tol=TRAJECTORY_TOL)
        totals = traj.full_states().sum(axis=2)
        assert np.abs(totals - 1.0).max() <= 1e-6
        s = traj.states[:, :, S]
        rc = r_complete(traj.states)
        assert (np.diff(s, axis=0) <= 1e-12).all()
        assert (np.diff(rc, axis=0) >= -1e-12).all()

    def test_control_off_the_grid_rejected(self):
        # one grid point a single ulp away: the objective would refuse the
        # resulting trajectory, so the forward pass and the jump process refuse
        # the control up front
        initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        inst = make_instance(TWO_NODE, 0.1, 0.05, 1.0, initial=initial, time_steps=10)
        control = inst.constant_control(0.2, 0.2, 0.2)
        control.time_grid[5] = np.nextafter(control.time_grid[5], 1.0)
        with pytest.raises(ValueError, match="^trajectories must share an identical time grid$"):
            integrate_forward(inst, control)
        with pytest.raises(ValueError, match="^trajectories must share an identical time grid$"):
            ctmc_simulate(inst, control, rng_seed=0, num_runs=1)

    def test_control_shape_checked(self):
        # a one-node control would broadcast to all 60 nodes; a control on the
        # wrong number of grid points, without its node axis or stacked with
        # another is refused too
        inst = build_case_instance(1, canonical_graph())
        controls = inst.constant_control(*inst.control_rates).controls
        for bad in (controls[:, :1], controls[:-1], controls[:, 0], np.stack([controls] * 2)):
            message = f"control must be an array of shape {controls.shape}, got shape {bad.shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                integrate_forward(inst, ControlTrajectory(inst.time_grid(), bad))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_bad_control_rate_rejected(self, rate):
        # one bad entry on case 1 (grid point 5, node 3): NaN would give NaN
        # states, which no range check compares false on
        inst = build_case_instance(1, canonical_graph())
        bad = inst.constant_control(*inst.control_rates)
        bad.controls[5, 3, GAMMA_H] = rate
        with pytest.raises(ValueError, match=bad_rate_message("gamma_high", rate)):
            integrate_forward(inst, bad)

    def test_step_too_large_detected(self):
        # beta far beyond the stability limit at this step size
        initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
        inst = make_instance(TWO_NODE, 500.0, 0.0, 1.0, initial=initial, time_steps=4)
        with pytest.raises(StepTooLargeError):
            integrate_forward(inst, inst.constant_control(0, 0, 0))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_instances_stay_normalized(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        graph = random_graph(rng, n, 0.5)
        initial = rng.dirichlet(np.ones(5), size=n)[:, :4]
        inst = make_instance(graph, 0.3, 0.1, 3.0, initial=initial, time_steps=120)
        controls = rng.random((121, n, 3))
        traj = integrate_forward(inst, ControlTrajectory(inst.time_grid(), controls))
        assert np.abs(traj.full_states().sum(axis=2) - 1.0).max() <= 1e-6


def random_instance(rng, n, time_steps):
    graph = random_graph(rng, n, 0.6)
    initial = rng.dirichlet(np.ones(5), size=n)[:, :4]
    return make_instance(graph, 0.4, 0.2, 2.0, initial=initial,
                         time_steps=time_steps)


class TestStackedForward:

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=6),
           batch=st.integers(min_value=1, max_value=5))
    def test_every_member_equals_its_solo_call(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n, 30)
        controls = rng.random((batch, 31, n, 3))
        states = np.stack(list(_forward_steps(inst, lambda k: controls[:, k], (batch,))), axis=1)
        for b in range(batch):
            solo = integrate_forward(inst, ControlTrajectory(inst.time_grid(), controls[b]))
            np.testing.assert_array_equal(states[b], solo.states)
