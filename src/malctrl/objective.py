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

from .model import (DELTA, GAMMA_H, GAMMA_L, IH, ControlTrajectory, StateTrajectory, array_argument,
                    r_complete, validate_trajectory)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Cumulative objective and its four quadrature terms.

    ``total`` is computed as infection + patch + restriction - recovery of
    the individually integrated terms, so that identity holds exactly.
    """

    total: float
    infection_term: float
    patch_cost: float
    restriction_cost: float
    recovery_reward: float

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
    """Trapezoid quadrature of the running cost over the state's evenly spaced grid.

    The grid is parsed by ``array_argument``; both trajectories must pass
    ``validate_trajectory`` (which holds the finiteness rule) on it, with N
    taken from the states, and its steps must be positive and agree to 1e-9
    of the first.  Each field is a Python float.
    """
    grid = array_argument(state_traj.time_grid, "state_traj time grid", (None,))
    states = validate_trajectory("state_traj", state_traj, "states", grid)
    controls = validate_trajectory("control_traj", control_traj, "controls", grid, states.shape[1])
    steps = np.diff(grid)
    if not (steps.min() > 0.0 and np.ptp(steps) <= 1e-9 * steps[0]):
        raise ValueError(f"state_traj time grid must have even positive steps, got steps from"
                         f" {steps.min()} to {steps.max()}")
    infection, recovery = _state_sums(states)
    patch, restriction = _control_sums(controls)
    terms = _quadrature(infection, patch, restriction, recovery, float(steps[0]))
    return ObjectiveBreakdown(*(float(t) for t in terms))
