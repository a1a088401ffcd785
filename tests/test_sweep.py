from dataclasses import replace

import numpy as np
import pytest

from malctrl.adjoint import integrate_backward
from malctrl.dynamics import integrate_forward
from malctrl.graphs import canonical_graph
from malctrl.model import (DELTA, GAMMA_H, AdjointTrajectory, ModelInstance,
                           ModelParams, StateTrajectory, uniform_grid)
from malctrl.objective import objective
from malctrl.experiments import build_case_instance
from malctrl.sweep import control_update, fbsm_solve


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
                                      inst.lower_bound_control().controls)

    def test_case1_converges_and_is_admissible(self):
        # a solve returns its last iterate, so solves capped at one and two
        # iterations return the first two iterates of the converged solve
        inst = build_case_instance(1, canonical_graph())
        control, states, adjoints, report = fbsm_solve(inst)
        assert report.converged
        assert report.final_residual < 1e-4
        assert report.iterations_used <= 100
        iterates = [fbsm_solve(replace(inst, max_iterations=k))[0].controls for k in (1, 2)]
        lo = inst.params.lower_bounds()[None]
        hi = inst.params.upper_bounds()[None]
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

    def test_deterministic(self):
        inst = build_case_instance(2, canonical_graph())
        a_control, a_states, _, a_report = fbsm_solve(inst)
        b_control, b_states, _, b_report = fbsm_solve(inst)
        np.testing.assert_array_equal(a_control.controls, b_control.controls)
        np.testing.assert_array_equal(a_states.states, b_states.states)
        assert a_report.as_dict() == b_report.as_dict()

    def test_not_converged_reported_not_raised(self):
        inst = replace(build_case_instance(1, canonical_graph()), max_iterations=2)
        _, _, _, report = fbsm_solve(inst)
        assert not report.converged
        assert report.iterations_used == 2

    def test_omega_zero_takes_literal_update(self):
        # with omega = 0 the first iterate is exactly the clamped update of
        # the lower-bound pass (undamped sweeps oscillate instead of
        # converging on the canonical cases, which is why damping exists)
        inst = build_case_instance(1, canonical_graph())
        first = fbsm_solve(replace(inst, relaxation_weight=0.0, max_iterations=1))[0]
        start = inst.lower_bound_control()
        states = integrate_forward(inst, start)
        expected = control_update(states, integrate_backward(states, start, inst),
                                  inst.params)
        np.testing.assert_array_equal(first.controls, expected.controls)

    def test_relaxation_keeps_iterates_in_box(self):
        # convexity of the box: blending two admissible schedules stays inside
        rng = np.random.default_rng(0)
        inst = build_case_instance(3, canonical_graph())
        lo = inst.params.lower_bounds()
        hi = inst.params.upper_bounds()
        shape = (inst.time_steps + 1,) + lo.shape
        u1 = lo + (hi - lo) * rng.random(shape)
        u2 = lo + (hi - lo) * rng.random(shape)
        for w in (0.0, 0.3, 0.9):
            blend = (1 - w) * u1 + w * u2
            assert (blend >= lo - 1e-12).all() and (blend <= hi + 1e-12).all()
