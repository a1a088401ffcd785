import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.dynamics import integrate_forward
from malctrl.model import (ControlTrajectory, ModelInstance, ModelParams, StateTrajectory,
                           uniform_grid)
from malctrl.objective import objective, running_cost

from helpers import random_graph


class TestRunningCost:

    def test_all_zero(self):
        state = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
        assert running_cost(state, np.zeros((2, 3))) == 0.0

    def test_hand_computed_single_node(self):
        # infected-high node with delta 0.9, gamma_h 0.6, gamma_l 0.4:
        # 1 + 0.5*0.81 + 0.5*(0.36 + 0.16) = 1.665
        state = np.array([[0.0, 1.0, 0.0, 0.0]])
        control = np.array([[0.9, 0.6, 0.4]])
        assert running_cost(state, control) == pytest.approx(1.665, abs=1e-15)

    def test_fully_recovered_node(self):
        # all stored compartments zero: derived recover-complete is 1
        state = np.array([[0.0, 0.0, 0.0, 0.0]])
        assert running_cost(state, np.zeros((1, 3))) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^sizes disagree: control has shape \(3, 3\)"):
            running_cost(np.zeros((2, 4)), np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["state", "control"])
    def test_non_finite_input_named(self, arg, value):
        args = {"state": np.full((2, 4), 0.2), "control": np.full((2, 3), 0.2)}
        args[arg][1, 1] = value
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value}"):
            running_cost(**args)


def _constant_trajectories(value_state, value_control, horizon, steps, n=3):
    grid = uniform_grid(horizon, steps)
    states = np.broadcast_to(value_state, (steps + 1, n, 4)).copy()
    controls = np.broadcast_to(value_control, (steps + 1, n, 3)).copy()
    return StateTrajectory(grid, states), ControlTrajectory(grid, controls)


class TestObjective:

    def test_constant_integrand_is_exact(self):
        # one infected-high node with constant controls: J = c * T exactly
        state = np.array([0.0, 1.0, 0.0, 0.0])
        control = np.array([0.4, 0.2, 0.1])
        st_traj, ct_traj = _constant_trajectories(state, control, horizon=7.0, steps=35, n=1)
        c = running_cost(state[None, :], control[None, :])
        got = objective(st_traj, ct_traj)
        assert got.total == pytest.approx(c * 7.0, rel=1e-14)
        assert got.infection_term == pytest.approx(7.0, rel=1e-14)

    def test_linear_integrand_is_exact(self):
        # IH ramps linearly from 0 to 1: trapezoid integrates it exactly
        steps = 40
        grid = uniform_grid(2.0, steps)
        states = np.zeros((steps + 1, 1, 4))
        states[:, 0, 0] = 1.0 - grid / 2.0
        states[:, 0, 1] = grid / 2.0
        controls = np.zeros((steps + 1, 1, 3))
        got = objective(StateTrajectory(grid, states), ControlTrajectory(grid, controls))
        # integral of t/2 over [0,2] = 1; recovery term stays 0
        assert got.infection_term == pytest.approx(1.0, rel=1e-14)
        assert got.total == pytest.approx(1.0, rel=1e-14)

    def test_quadrature_refinement(self):
        # evaluating the same smooth trajectory on a 10x finer grid moves the
        # quadrature by less than 1e-5 relative
        rng = np.random.default_rng(8)
        graph = random_graph(rng, 5, 0.7)
        initial = np.zeros((5, 4))
        initial[:, 0] = 1.0
        initial[0] = (0, 1, 0, 0)
        params = ModelParams.from_scalars(5, 0.4, 0.2, 4.0, delta=(0.3, 0.3),
                                          gamma_high=(0.25, 0.25), gamma_low=(0.15, 0.15))
        fine_steps = 1000
        inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                             time_steps=fine_steps)
        control = inst.constant_control(0.3, 0.25, 0.15)
        fine = integrate_forward(inst, control)
        coarse = StateTrajectory(fine.time_grid[::10].copy(), fine.states[::10].copy())
        coarse_ctrl = ControlTrajectory(control.time_grid[::10].copy(),
                                        control.controls[::10].copy())
        j_fine = objective(fine, control).total
        j_coarse = objective(coarse, coarse_ctrl).total
        assert abs(j_coarse - j_fine) / abs(j_fine) <= 1e-5

    def test_breakdown_identity_and_signs(self):
        rng = np.random.default_rng(3)
        steps, n = 50, 4
        grid = uniform_grid(3.0, steps)
        states = rng.dirichlet(np.ones(5), size=(steps + 1, n))[:, :, :4]
        controls = rng.random((steps + 1, n, 3))
        got = objective(StateTrajectory(grid, states), ControlTrajectory(grid, controls))
        recomposed = (got.infection_term + got.patch_cost + got.restriction_cost
                      - got.recovery_reward)
        assert got.total == pytest.approx(recomposed, rel=1e-12)
        assert got.infection_term >= 0
        assert got.patch_cost >= 0
        assert got.restriction_cost >= 0
        assert got.recovery_reward >= 0

    def test_grid_mismatch(self):
        st_a, _ = _constant_trajectories(np.zeros(4) + 0.25, np.zeros(3), 1.0, 10)
        _, ct_b = _constant_trajectories(np.zeros(4) + 0.25, np.zeros(3), 1.0, 20)
        with pytest.raises(ValueError, match="^trajectories must share an identical time grid$"):
            objective(st_a, ct_b)

    def test_states_and_controls_must_agree_on_all_but_the_last_axis(self):
        st_traj, ct_traj = _constant_trajectories(np.zeros(4) + 0.25, np.zeros(3), 1.0, 10)
        grid = st_traj.time_grid
        for states, controls in ((st_traj.states, ct_traj.controls[:, :1]),
                                 (st_traj.states[:, :1], ct_traj.controls),
                                 (np.stack([st_traj.states] * 2), ct_traj.controls),
                                 (np.stack([st_traj.states] * 2), np.stack([ct_traj.controls] * 3))):
            with pytest.raises(ValueError, match="^incompatible states"):
                objective(StateTrajectory(grid, states), ControlTrajectory(grid, controls))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["state_traj", "control_traj"])
    def test_non_finite_input_named(self, arg, value):
        # a NaN state or control would otherwise come back as J = nan
        grid = uniform_grid(1.0, 4)
        arrays = {"state_traj": np.full((5, 3, 4), 0.2), "control_traj": np.full((5, 3, 3), 0.2)}
        arrays[arg][2, 1, 1] = value
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value}"):
            objective(StateTrajectory(grid, arrays["state_traj"]),
                      ControlTrajectory(grid, arrays["control_traj"]))

    def test_single_trajectory_fields_are_floats(self):
        got = objective(*_constant_trajectories(np.zeros(4) + 0.25, np.ones(3), 1.0, 10))
        assert all(type(value) is float for value in got.as_dict().values())

    def test_stack_equals_each_member_bit_for_bit(self):
        rng = np.random.default_rng(3)
        grid = uniform_grid(2.0, 25)
        states = rng.dirichlet(np.ones(5), size=(4, 26, 3))[..., :4]
        controls = rng.random((4, 26, 3, 3))
        stacked = objective(StateTrajectory(grid, states), ControlTrajectory(grid, controls))
        assert stacked.total.shape == (4,)
        for b in range(4):
            solo = objective(StateTrajectory(grid, states[b]), ControlTrajectory(grid, controls[b]))
            for name, value in solo.as_dict().items():
                assert stacked.as_dict()[name][b] == value, (b, name)


class TestOrderOfJ:
    """J of the forward pass at K = 20, 40, ..., 320 steps.  The control is
    held over each step while the trapezoid rule averages its two ends, so J
    is first order under a time-varying control and second order under a
    constant one: successive differences of J shrink by 2 and by 4."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind, ratio", [("smooth", 2.0), ("constant", 4.0)])
    def test_ratio_of_successive_differences(self, seed, kind, ratio):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, 6, 0.6)
        initial = np.zeros((6, 4))
        initial[:, 0] = 1.0
        initial[0] = (0, 1, 0, 0)
        initial[1] = (0, 0, 1, 0)
        params = ModelParams.from_scalars(6, 0.4, 0.2, 4.0, delta=(0.1, 0.8),
                                          gamma_high=(0.1, 1.0), gamma_low=(0.1, 0.6))
        lo, hi = params.lower, params.upper
        js = []
        for steps in (20, 40, 80, 160, 320):
            inst = ModelInstance(graph=graph, params=params,
                                 initial_state=initial, time_steps=steps)
            t = inst.time_grid()[:, None, None]
            share = 0.5 + 0.5 * np.sin(0.7 * t + 2.0) if kind == "smooth" else np.full_like(t, 0.5)
            control = ControlTrajectory(inst.time_grid(), lo + (hi - lo) * share)
            js.append(objective(integrate_forward(inst, control), control).total)
        d = np.diff(js)
        np.testing.assert_allclose(d[:-1] / d[1:], ratio, atol=0.1)


@st.composite
def _states_and_controls(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    state = rng.dirichlet(np.ones(5), size=n)[:, :4]
    u1 = rng.random((n, 3)) * 2.0
    u2 = rng.random((n, 3)) * 2.0
    w = draw(st.floats(min_value=0.01, max_value=0.99))
    return state, u1, u2, w


class TestCostShape:

    @settings(max_examples=100, deadline=None)
    @given(_states_and_controls())
    def test_convex_in_controls(self, case):
        state, u1, u2, w = case
        blend = (1.0 - w) * u1 + w * u2
        lhs = running_cost(state, blend)
        rhs = (1.0 - w) * running_cost(state, u1) + w * running_cost(state, u2)
        assert lhs <= rhs + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(_states_and_controls())
    def test_coercive_in_controls(self, case):
        state, u1, _, _ = case
        from malctrl.model import r_complete
        lhs = running_cost(state, u1) + r_complete(state).sum()
        assert lhs >= 0.5 * (u1 ** 2).sum() - 1e-12
