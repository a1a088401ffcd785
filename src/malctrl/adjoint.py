"""Costate dynamics and backward integration.

``adjoint_rhs`` is the published system of four costate equations.  The
instance's ``adjoint_mode`` is the one switch between the two costate
conventions that ``integrate_backward`` steps:

* ``"paper"`` (default): the published system as-is.  The running cost's
  recovery credit does not feed back through the normalization constraint,
  so lam_f solves a homogeneous equation from a zero terminal condition and
  stays identically zero; the patch-rate update is then pinned at its lower
  bound.
* ``"consistent"``: the published system minus 1.  The recovery credit is
  expanded through RC = 1 - S - IH - IL - RF before differentiating, which
  adds a constant -1 to each costate equation.  In this mode the costates are the
  sensitivities of the computed objective to second order: they solve the
  continuous costate equations, not the adjoint of the discrete scheme, so
  the gradient they give is off the discrete one by O(dt^2) (the relative
  error falls fourfold per halving of dt).  The exact discrete adjoint
  (Hager, Numer. Math. 87, 2000) is ROADMAP item 3.

In the published S-compartment equation the low-capability sum pairs
lam_s_i with a j-indexed lam_l inside the neighbor sum; the implementation
uses lam_l_i, mirroring the high-capability term, which is the only reading
consistent with differentiating the Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from .graphs import NetworkGraph
from .model import (DELTA, GAMMA_H, GAMMA_L, IH, IL, LAM_F, LAM_H, LAM_L, LAM_S, S,
                    AdjointTrajectory, ControlTrajectory, ModelInstance, ModelParams,
                    StateTrajectory, TRAJECTORY_TOL, array_argument, validate_control,
                    validate_states, validate_trajectory)
from .dynamics import _rk4_step

_DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Backward integration blew up (costate magnitude above 1e12, or NaN)."""


def adjoint_rhs(state: np.ndarray, control: np.ndarray, costate: np.ndarray,
                params: ModelParams, graph: NetworkGraph) -> np.ndarray:
    """Costate time derivatives of the published system, shape (N, 4).

    Shapes (N, 4), (N, 3) and (N, 4) for the graph's N are checked; values are not.
    """
    n = graph.node_count
    state = array_argument(state, "state", (n, 4))
    control = array_argument(control, "control", (n, 3))
    costate = array_argument(costate, "costate", (n, 4))
    a = graph.adjacency
    beta_high, beta_low = params.beta_high, params.beta_low

    pressure_h = a @ state[:, IH]
    pressure_l = a @ state[:, IL]
    gap_h = costate[:, LAM_S] - costate[:, LAM_H]
    gap_l = costate[:, LAM_S] - costate[:, LAM_L]
    out = np.empty_like(costate)
    out[:, LAM_S] = beta_high * pressure_h * gap_h + beta_low * pressure_l * gap_l
    out[:, LAM_H] = (-1.0 + beta_high * (a @ (state[:, S] * gap_h))
                     + control[:, GAMMA_H] * (costate[:, LAM_H] - costate[:, LAM_F]))
    out[:, LAM_L] = (beta_low * (a @ (state[:, S] * gap_l))
                     + control[:, GAMMA_L] * (costate[:, LAM_L] - costate[:, LAM_F]))
    out[:, LAM_F] = costate[:, LAM_F] * control[:, DELTA]
    return out


def _consistent_rhs(*args) -> np.ndarray:
    """The consistent convention: the published system minus 1."""
    return adjoint_rhs(*args) - 1.0


def integrate_backward(state_traj: StateTrajectory, control_traj: ControlTrajectory,
                       instance: ModelInstance) -> AdjointTrajectory:
    """RK4 the costates backward from a zero terminal condition.

    States feeding the half-step stages are the average of the two bracketing
    grid snapshots; no interpolation beyond the cell endpoints is used.  Each
    cell reuses the piecewise-constant control of its left grid point, the
    same value the forward pass used there.  The costate convention is
    ``instance.adjoint_mode``.

    The control is checked as integrate_forward checks it, and the states
    must pass ``validate_trajectory`` on the instance grid and node count.
    Every state compartment, derived RC included, must lie within 1e-6 of
    [0, 1]; a state outside that range or NaN raises ValueError.  Raises
    DivergenceError when a costate magnitude exceeds 1e12 or turns NaN.
    """
    grid = instance.time_grid()
    controls = validate_control(instance, control_traj)
    states = validate_trajectory("state_traj", state_traj, "states", grid, instance.node_count)
    validate_states(states, tol=TRAJECTORY_TOL)
    # adjoint_rhs is looked up at call time, not bound at import, so a wrapper
    # installed on the module name (perfbench's tracer) sees every stage call
    rhs = adjoint_rhs if instance.adjoint_mode == "paper" else _consistent_rhs
    steps = grid.shape[0] - 1
    h = -instance.dt
    params, graph = instance.params, instance.graph
    midpoints = 0.5 * (states[:-1] + states[1:])
    costates = np.zeros((steps + 1, instance.node_count, 4))
    lam = np.zeros((instance.node_count, 4))
    for k in range(steps - 1, -1, -1):
        stage_states = (states[k + 1], midpoints[k], states[k])
        u = controls[k]
        lam = _rk4_step(lambda y, stage: rhs(stage_states[stage], u, y, params, graph), lam, h)
        if not np.abs(lam).max() <= _DIVERGENCE_LIMIT:  # also true for NaN
            raise DivergenceError(f"costate magnitude exceeded {_DIVERGENCE_LIMIT:g} or turned NaN"
                                  f" at t={grid[k]:.6g}")
        costates[k] = lam
    return AdjointTrajectory(time_grid=grid, costates=costates)
