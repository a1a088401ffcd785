import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malctrl.adjoint import integrate_backward
from malctrl.dynamics import integrate_forward
from malctrl.graphs import NetworkGraph, canonical_graph
from malctrl.model import (ADJOINT_MODES, DELTA, GAMMA_H, AdjointTrajectory, ControlTrajectory,
                           ModelInstance, ModelParams, StateTrajectory, uniform_grid)
from malctrl.objective import objective
from malctrl.experiments import build_case_instance
from malctrl.sweep import control_update, fbsm_solve

from helpers import random_graph, small_instance


def two_point_trajs(state_row, costate_row, n=1):
    grid = uniform_grid(1.0, 1)
    states = np.broadcast_to(state_row, (2, n, 4)).copy()
    costates = np.stack([np.broadcast_to(costate_row, (n, 4)).copy(),
                         np.zeros((n, 4))])
    return StateTrajectory(grid, states), AdjointTrajectory(grid, costates)


class TestControlUpdate:

    def test_interior_stationary_value(self):
        # lam_f * RF = 2 * 0.3 = 0.6 sits inside [0.1, 0.8]
        st, ad = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]),
                                 np.array([0.0, 0.0, 0.0, 2.0]))
        params = ModelParams.from_scalars(1, 0.1, 0.05, 1.0, delta=(0.1, 0.8),
                                          gamma_high=(0.0, 1.0), gamma_low=(0.0, 1.0))
        got = control_update(st, ad, params)
        assert got.controls[0, 0, DELTA] == pytest.approx(0.6, abs=1e-15)

    def test_zero_patch_costate_pins_lower_bound(self):
        st, ad = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]),
                                 np.zeros(4))
        params = ModelParams.from_scalars(1, 0.1, 0.05, 1.0, delta=(0.1, 0.8),
                                          gamma_high=(0.05, 1.0), gamma_low=(0.05, 1.0))
        got = control_update(st, ad, params)
        assert (got.controls[:, :, DELTA] == 0.1).all()

    def test_saturation_at_upper_bound(self):
        # (lam_h - lam_f) * IH = 10 * 0.5 clamps to the 1.0 cap
        st, ad = two_point_trajs(np.array([0.3, 0.5, 0.1, 0.0]),
                                 np.array([0.0, 10.0, 0.0, 0.0]))
        params = ModelParams.from_scalars(1, 0.1, 0.05, 1.0, delta=(0.0, 1.0),
                                          gamma_high=(0.1, 1.0), gamma_low=(0.0, 1.0))
        got = control_update(st, ad, params)
        assert got.controls[0, 0, GAMMA_H] == 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["state_traj", "adjoint_traj"])
    def test_non_finite_input_named(self, arg, value):
        # np.clip keeps NaN, so a NaN costate would otherwise become a NaN control
        st, ad = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]), np.ones(4))
        (st.states if arg == "state_traj" else ad.costates)[0, 0, 1] = value
        params = ModelParams.from_scalars(1, 0.1, 0.05, 1.0, delta=(0.1, 0.8),
                                          gamma_high=(0.1, 1.0), gamma_low=(0.1, 0.6))
        with pytest.raises(ValueError, match=f"{arg} must be finite, got {value}"):
            control_update(st, ad, params)

    def test_params_for_other_nodes_rejected(self):
        # a one-node box would otherwise broadcast over all three nodes
        states, costates = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]), np.ones(4), n=3)
        params = ModelParams.from_scalars(1, 0.1, 0.05, 1.0, delta=(0.1, 0.8))
        with pytest.raises(ValueError, match="params sized for 1 nodes"):
            control_update(states, costates, params)

    def test_costate_for_other_nodes_rejected(self):
        # a one-node costate would otherwise broadcast over all three nodes
        states, _ = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]), np.ones(4), n=3)
        _, costates = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]), np.ones(4), n=1)
        params = ModelParams.from_scalars(3, 0.1, 0.05, 1.0, delta=(0.1, 0.8))
        message = "adjoint_traj must be an array of shape (2, 3, 4), got shape (2, 1, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            control_update(states, costates, params)

    def test_stacked_trajectories_rejected(self):
        # a stack, a pair without the node axis, a state without its RF column,
        # fewer rows than grid points and a scalar grid are all refused by shape
        states, costates = two_point_trajs(np.array([0.5, 0.1, 0.1, 0.3]), np.ones(4), n=2)
        params = ModelParams.from_scalars(2, 0.1, 0.05, 1.0, delta=(0.1, 0.8))
        grid, x, lam = states.time_grid, states.states, costates.costates
        shape = "state_traj must be an array of shape"
        rows = [(grid, np.stack([x] * 2), np.stack([lam] * 2),
                 f"{shape} (2, N, 4), got shape (2, 2, 2, 4)"),
                (grid, x[:, 0], lam[:, 0], f"{shape} (2, N, 4), got shape (2, 4)"),
                (grid, x[..., :3], lam[..., :3], f"{shape} (2, N, 4), got shape (2, 2, 3)"),
                (uniform_grid(1.0, 10), np.repeat(x, 3, axis=0)[:5], np.repeat(lam, 3, axis=0)[:5],
                 f"{shape} (11, N, 4), got shape (5, 2, 4)"),
                (1.0, x, lam, "state_traj time grid must be length N, got 1.0"),
                (np.array([0.0, np.nan, 1.0]), np.repeat(x, 2, axis=0)[:3],
                 np.repeat(lam, 2, axis=0)[:3], "state_traj time grid must be finite, got nan")]
        for points, bad_x, bad_lam, message in rows:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                control_update(StateTrajectory(points, bad_x), AdjointTrajectory(points, bad_lam),
                               params)


class TestFbsmSolve:

    def test_disease_free_pins_lower_bounds(self):
        graph = canonical_graph()
        initial = np.zeros((60, 4))
        initial[:, 0] = 1.0
        params = ModelParams.from_scalars(60, 0.0004, 0.0002, 10.0,
                                          delta=(0.1, 0.8), gamma_high=(0.1, 1.0),
                                          gamma_low=(0.1, 0.6))
        inst = ModelInstance(graph=graph, params=params, initial_state=initial)
        control, states, adjoints, report = fbsm_solve(inst)
        assert report.converged
        assert report.iterations_used <= 3
        np.testing.assert_array_equal(control.controls,
                                      inst.constant_control(*inst.params.lower.T).controls)

    def test_case1_converges_and_is_admissible(self):
        # a solve returns its last iterate, so solves capped at one and two
        # iterations return the first two iterates of the converged solve
        inst = build_case_instance(1, canonical_graph())
        control, states, adjoints, report = fbsm_solve(inst)
        assert report.converged
        assert report.final_residual < 1e-4
        assert report.iterations_used <= 100
        iterates = [fbsm_solve(replace(inst, max_iterations=k))[0].controls for k in (1, 2)]
        lo = inst.params.lower[None]
        hi = inst.params.upper[None]
        for controls in iterates + [control.controls]:
            assert (controls >= lo - 1e-12).all() and (controls <= hi + 1e-12).all()

    def test_objective_history_monotone_in_consistent_mode(self):
        for case in (1, 2, 3, 4):
            inst = replace(build_case_instance(case, canonical_graph()),
                           adjoint_mode="consistent")
            _, _, _, report = fbsm_solve(inst)
            hist = report.objective_history
            diffs = np.diff(hist[3:])
            assert (diffs <= 1e-8).all(), f"case {case} history not monotone: {hist}"

    def test_paper_mode_fixed_point_is_not_a_minimum_of_j(self):
        # paper-mode costates drop the recovery credit, so the sweep converges to
        # the published optimality system's fixed point, not to a minimum of J: a
        # 1% step toward the consistent optimum (a convex combination, so
        # admissible) lowers J, from 7.0935 to 6.8747 on exp1 case 1
        inst = build_case_instance(1, canonical_graph())
        paper, _, _, report = fbsm_solve(inst)
        consistent, _, _, consistent_report = fbsm_solve(replace(inst, adjoint_mode="consistent"))
        assert report.converged and consistent_report.converged
        step = ControlTrajectory(paper.time_grid,
                                 0.99 * paper.controls + 0.01 * consistent.controls)
        assert objective(integrate_forward(inst, step), step).total < report.objective.total

    def test_deterministic(self):
        inst = build_case_instance(2, canonical_graph())
        a_control, a_states, _, a_report = fbsm_solve(inst)
        b_control, b_states, _, b_report = fbsm_solve(inst)
        np.testing.assert_array_equal(a_control.controls, b_control.controls)
        np.testing.assert_array_equal(a_states.states, b_states.states)
        assert a_report.as_dict() == b_report.as_dict()

    @pytest.mark.parametrize("mode", ["paper", "consistent"])
    @pytest.mark.parametrize("max_iterations", [3, 100])
    def test_report_objective_is_that_of_the_returned_pair(self, mode, max_iterations):
        inst = replace(build_case_instance(1, canonical_graph()), adjoint_mode=mode,
                       max_iterations=max_iterations)
        control, states, _, report = fbsm_solve(inst)
        assert report.converged == (max_iterations == 100)
        assert report.objective == objective(states, control)
        assert report.objective.total == report.objective_history[-1]
        assert len(report.objective_history) == report.iterations_used + 1
        assert "objective" not in report.as_dict()

    def test_not_converged_reported_not_raised(self):
        inst = replace(build_case_instance(1, canonical_graph()), max_iterations=2)
        _, _, _, report = fbsm_solve(inst)
        assert not report.converged
        assert report.iterations_used == 2

    def test_first_iterate_is_the_half_blend_of_update_and_start(self):
        # the first iterate blends the clamped update of the lower-bound pass
        # with that start at the fixed weight 0.5, bit for bit
        inst = build_case_instance(1, canonical_graph())
        first = fbsm_solve(replace(inst, max_iterations=1))[0]
        start = inst.constant_control(*inst.params.lower.T)
        states = integrate_forward(inst, start)
        update = control_update(states, integrate_backward(states, start, inst), inst.params)
        expected = np.clip((1.0 - 0.5) * update.controls + 0.5 * start.controls,
                           inst.params.lower, inst.params.upper)
        np.testing.assert_array_equal(first.controls, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_disjoint_copies_stop_where_one_copy_stops(self, seed):
        # m disjoint copies of one instance change by sqrt(m) times one copy's
        # L2 per update, so a per-node stopping test stops them all together;
        # each seed ends about 20% below its threshold and was about 60% above
        # it one update earlier, so rounding cannot move the stop
        one = small_instance(seed, steps=50)
        *_, single = fbsm_solve(one)
        for m in (2, 3, 4):
            params = replace(one.params, lower=np.tile(one.params.lower, (m, 1)),
                             upper=np.tile(one.params.upper, (m, 1)))
            copies = replace(one, graph=NetworkGraph(np.kron(np.eye(m), one.graph.adjacency)),
                             params=params, initial_state=np.tile(one.initial_state, (m, 1)))
            *_, report = fbsm_solve(copies)
            assert report.iterations_used == single.iterations_used
            assert report.final_residual == pytest.approx(m ** 0.5 * single.final_residual,
                                                          rel=1e-9)


lower_and_width = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       boxes=st.tuples(lower_and_width, lower_and_width, lower_and_width),
       beta_high=st.floats(0.0, 0.5), beta_ratio=st.floats(0.0, 1.0),
       horizon=st.floats(0.5, 2.0),
       steps=st.integers(2, 20), mode=st.sampled_from(ADJOINT_MODES),
       max_iterations=st.integers(1, 10))
# without the blend's clip, 0.5 * 5e-324 rounds to 0.0 and puts the patch rate below its bound
@example(n=3, seed=0, boxes=((5e-324, 0.0), (0.1, 0.9), (0.1, 0.5)), beta_high=0.4,
         beta_ratio=0.5, horizon=1.0, steps=20, mode="paper", max_iterations=10)
def test_solver_output_stays_in_the_box(n, seed, boxes, beta_high, beta_ratio, horizon,
                                        steps, mode, max_iterations):
    inst = random_instance(n, seed, boxes, beta_high, beta_ratio, horizon,
                           adjoint_mode=mode, max_iterations=max_iterations, time_steps=steps)
    controls = fbsm_solve(inst)[0].controls
    assert (inst.params.lower <= controls).all() and (controls <= inst.params.upper).all()


@pytest.mark.xfail(strict=True, reason="consistent-mode costates are the gradient of J only to"
                                       " O(dt^2); the exact discrete adjoint is ROADMAP item 3")
def test_consistent_objective_never_increases():
    # a hypothesis search over 3-8 node graphs (K 20-60, random boxes) found this
    # instance: J rises by 4.2e-7 at K=20, 1.1e-7 at K=40 and 2.8e-8 at K=80,
    # fourfold less per halving of dt
    inst = random_instance(3, 0, ((0.0, 1.0), (0.0, 0.0), (0.0, 1.0)), 0.0, 0.0, 2.0,
                           adjoint_mode="consistent", time_steps=20)
    history = fbsm_solve(inst)[3].objective_history
    assert (np.diff(history) <= 0.0).all(), history


def random_instance(n, seed, boxes, beta_high, beta_ratio, horizon, **settings):
    """An n-node instance on a seeded random graph and initial state; each
    box is a (lower, width) pair."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, 0.6)
    params = ModelParams.from_scalars(n, beta_high, beta_ratio * beta_high, horizon,
                                      *((lo, lo + width) for lo, width in boxes))
    return ModelInstance(graph=graph, params=params,
                         initial_state=rng.dirichlet(np.ones(5), size=n)[:, :4], **settings)
