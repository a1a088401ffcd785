"""Forward-backward sweep solver with box-clamped control updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import integrate_backward
from .dynamics import integrate_forward
from .model import (DELTA, GAMMA_H, GAMMA_L, IH, IL, LAM_F, LAM_H, LAM_L, RF,
                    AdjointTrajectory, ControlTrajectory, ModelInstance,
                    ModelParams, StateTrajectory, _check_same_grid)
from .objective import objective


@dataclass
class SweepReport:
    """Iteration record of one sweep solve."""

    iterations_used: int
    converged: bool
    final_residual: float
    objective_history: list[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "objective_history": list(self.objective_history),
        }


def control_update(state_traj: StateTrajectory, adjoint_traj: AdjointTrajectory,
                   params: ModelParams) -> ControlTrajectory:
    """Pointwise minimizer of the Hamiltonian, clamped to the control box.

    Stationary values are lam_f * RF for the patch rate and
    (lam_h - lam_f) * IH, (lam_l - lam_f) * IL for the two restriction
    rates; the quadratic control cost makes the clamp the exact box minimum.
    """
    _check_same_grid(state_traj.time_grid, adjoint_traj.time_grid)
    states, lams = state_traj.states, adjoint_traj.costates
    raw = np.empty(states.shape[:2] + (3,))
    raw[:, :, DELTA] = lams[:, :, LAM_F] * states[:, :, RF]
    raw[:, :, GAMMA_H] = (lams[:, :, LAM_H] - lams[:, :, LAM_F]) * states[:, :, IH]
    raw[:, :, GAMMA_L] = (lams[:, :, LAM_L] - lams[:, :, LAM_F]) * states[:, :, IL]
    clamped = np.clip(raw, params.lower, params.upper)
    return ControlTrajectory(time_grid=state_traj.time_grid.copy(), controls=clamped)


def _l2(arr: np.ndarray, dt: float) -> float:
    return float(np.sqrt(dt * (arr ** 2).sum()))


def fbsm_solve(instance: ModelInstance):
    """Iterate forward state and backward costate passes to a fixed point.

    Each iteration integrates the state under the previous control, the
    costates backward along it, forms the clamped pointwise update, and blends
    it with the previous control as (1 - omega) * new + omega * old, where
    omega is ``instance.relaxation_weight``.  omega=0 recovers the undamped
    literal update; the default weight damps the oscillation that undamped
    sweeps develop.  Stops when the combined discrete-L2 change of state and control
    trajectories drops below ``instance.convergence_epsilon``, or after
    ``instance.max_iterations`` (the report then carries converged=False
    rather than raising).  The literal zero initial control lies below the lower
    bounds, so the first pass starts from the clamped lower-bound schedule.

    Returns (control, state, adjoint, report) with the state and adjoint
    recomputed once under the final control so the returned triple is
    self-consistent.
    """
    w = instance.relaxation_weight
    control = instance.lower_bound_control()
    dt = instance.dt
    prev_states = np.zeros((instance.time_steps + 1, instance.node_count, 4))
    history: list[float] = []
    residual = np.inf
    converged = False
    iteration = 0
    while iteration < instance.max_iterations:
        iteration += 1
        state_traj = integrate_forward(instance, control)
        history.append(objective(state_traj, control).total)
        adjoint_traj = integrate_backward(state_traj, control, instance)
        updated = control_update(state_traj, adjoint_traj, instance.params)
        blended = ControlTrajectory(
            time_grid=control.time_grid,
            controls=(1.0 - w) * updated.controls + w * control.controls,
        )
        residual = (_l2(state_traj.states - prev_states, dt)
                    + _l2(blended.controls - control.controls, dt))
        prev_states = state_traj.states
        control = blended
        if residual < instance.convergence_epsilon:
            converged = True
            break

    state_traj = integrate_forward(instance, control)
    adjoint_traj = integrate_backward(state_traj, control, instance)
    history.append(objective(state_traj, control).total)
    report = SweepReport(iterations_used=iteration, converged=converged,
                         final_residual=residual, objective_history=history)
    return control, state_traj, adjoint_traj, report
