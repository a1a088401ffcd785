"""Running cost and cumulative objective of a trajectory pair.

The running cost charges the expected number of high-capability infections
plus quadratic control effort, and credits completed recoveries:

    sum_i [ IH_i + delta_i^2 / 2 + (gamma_h_i^2 + gamma_l_i^2) / 2 - RC_i ]

The cumulative objective integrates it with composite trapezoid quadrature
on the trajectory grid.  Under a control constant in time, J is second
order in the step, like the stored RK4 trajectories.  Under a time-varying
control it is first order: the forward pass holds u_k over each step, while
the trapezoid rule averages u_k and u_{k+1} and charges half the cost of
u_K, which never acts.  The recovery credit can push the objective
negative; no normalization is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (DELTA, GAMMA_H, GAMMA_L, IH, ControlTrajectory, StateTrajectory,
                    _check_same_grid, r_complete, require_finite, validate_snapshot)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Cumulative objective and its four quadrature terms.

    ``total`` is computed as infection + patch + restriction - recovery of
    the individually integrated terms, so that identity holds exactly.  The
    fields are floats for one trajectory and arrays for a stack.
    """

    total: float | np.ndarray
    infection_term: float | np.ndarray
    patch_cost: float | np.ndarray
    restriction_cost: float | np.ndarray
    recovery_reward: float | np.ndarray

    def as_dict(self) -> dict:
        return {
            "J": self.total,
            "infection": self.infection_term,
            "patch": self.patch_cost,
            "restriction": self.restriction_cost,
            "recovery": self.recovery_reward,
        }


def _state_sums(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Infection and recovery node sums of (..., N, 4) states, shape (...)."""
    return states[..., IH].sum(axis=-1), r_complete(states).sum(axis=-1)


def _control_sums(controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Patch and restriction cost node sums of (..., N, 3) controls, shape (...)."""
    return (0.5 * (controls[..., DELTA] ** 2).sum(axis=-1),
            0.5 * (controls[..., GAMMA_H] ** 2 + controls[..., GAMMA_L] ** 2).sum(axis=-1))


def running_cost(state: np.ndarray, control: np.ndarray) -> float:
    """Instantaneous cost of one (state, control) snapshot.

    A state that is not (N, 4) for some N, or a control that is not (N, 3),
    raises ValueError naming it, as does a NaN or infinite one.
    """
    n = np.shape(state)[0] if np.ndim(state) else 0
    state, control = validate_snapshot(n, state, control)
    require_finite(state=state, control=control)
    infection, recovery = _state_sums(state)
    patch, restriction = _control_sums(control)
    return float(infection + patch + restriction - recovery)


def _quadrature(infection, patch, restriction, recovery, dt: float) -> tuple:
    """Trapezoid integrals of the four (..., K+1) per-step node sums.

    Returns (total, infection, patch, restriction, recovery), each of shape
    (...).  Each sum must be C-contiguous: the quadrature then adds along
    the grid axis in the same order for any batch shape.
    """
    terms = tuple(np.trapezoid(y, dx=dt, axis=-1)
                  for y in (infection, patch, restriction, recovery))
    return (terms[0] + terms[1] + terms[2] - terms[3],) + terms


def objective(state_traj: StateTrajectory, control_traj: ControlTrajectory) -> ObjectiveBreakdown:
    """Trapezoid quadrature of the running cost over the shared grid.

    States (..., K+1, N, 4) and controls (..., K+1, N, 3) must agree on every
    axis but the last; leading axes are batch axes, integrated member by
    member.  Each field is a Python float for one trajectory and a
    (...)-shaped array for a stack.  A NaN or infinite state or control
    raises ValueError naming it.
    """
    _check_same_grid(state_traj.time_grid, control_traj.time_grid)
    states, controls = state_traj.states, control_traj.controls
    if states.shape[:-1] != controls.shape[:-1]:
        raise ValueError(f"incompatible states {states.shape} and controls {controls.shape}")
    require_finite(state_traj=states, control_traj=controls)
    infection, recovery = _state_sums(states)
    patch, restriction = _control_sums(controls)
    terms = _quadrature(infection, patch, restriction, recovery, state_traj.dt)
    if states.ndim == 3:
        terms = (float(t) for t in terms)
    return ObjectiveBreakdown(*terms)
