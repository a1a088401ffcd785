import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.dynamics import (StepTooLargeError, _reduced_rhs, ctmc_simulate,
                              integrate_forward)
from malctrl.graphs import canonical_graph, validate_graph
from malctrl.model import (DELTA, GAMMA_H, GAMMA_L, IH, IL, RF, S,
                           ControlTrajectory, GridMismatchError, ModelInstance,
                           ModelParams, TRAJECTORY_TOL, seed_initial_state,
                           validate_states)

TWO_NODE = validate_graph([[0, 1], [1, 0]])


def make_instance(graph, beta_high, beta_low, horizon, bounds=((0.0, 1.0),) * 3,
                  initial=None, time_steps=200):
    params = ModelParams.from_scalars(graph.node_count, beta_high, beta_low, horizon,
                                      delta=bounds[0], gamma_high=bounds[1],
                                      gamma_low=bounds[2])
    if initial is None:
        initial = np.zeros((graph.node_count, 4))
        initial[:, S] = 1.0
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=time_steps)


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

    def test_components_sum_to_zero_on_canonical_graph(self):
        rng = np.random.default_rng(11)
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.004, 0.002, 1.0)
        worst = 0.0
        for _ in range(1000):
            state = rng.dirichlet(np.ones(5), size=60)[:, :4]
            control = rng.random((60, 3))
            sums = ode_rhs(state, control, params, graph).sum(axis=1)
            worst = max(worst, np.abs(sums).max())
        assert worst <= 1e-12


class TestIntegrateForward:

    def test_zero_infection_is_invariant(self):
        inst = make_instance(TWO_NODE, 0.5, 0.25, 4.0)
        control = inst.constant_control(0.8, 0.5, 0.3)
        traj = integrate_forward(inst, control)
        np.testing.assert_array_equal(traj.states[-1], traj.states[0])

    def test_fine_euler_oracle(self):
        # RK4 at dt matches a 100x finer explicit-Euler reference within 1e-4
        rng = np.random.default_rng(2)
        a = (rng.random((5, 5)) < 0.6).astype(int)
        a = np.triu(a, 1)
        a = a + a.T
        graph = validate_graph(a)
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
        validate_states(traj.states, 60, tol=TRAJECTORY_TOL)
        totals = traj.full_states().sum(axis=2)
        assert np.abs(totals - 1.0).max() <= 1e-6
        s = traj.states[:, :, S]
        rc = traj.r_complete()
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
        with pytest.raises(GridMismatchError):
            integrate_forward(inst, control)
        with pytest.raises(GridMismatchError):
            ctmc_simulate(inst, control, rng_seed=0, num_runs=1)

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
        a = np.triu((rng.random((n, n)) < 0.5).astype(int), 1)
        graph = validate_graph(a + a.T)
        initial = rng.dirichlet(np.ones(5), size=n)[:, :4]
        inst = make_instance(graph, 0.3, 0.1, 3.0, initial=initial, time_steps=120)
        controls = rng.random((121, n, 3))
        traj = integrate_forward(inst, ControlTrajectory(inst.time_grid(), controls))
        assert np.abs(traj.full_states().sum(axis=2) - 1.0).max() <= 1e-6
