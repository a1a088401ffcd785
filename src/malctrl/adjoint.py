"""Hamiltonian, costate dynamics, and backward integration.

Two costate conventions are supported, selected by ``mode`` in
``adjoint_rhs`` and by the instance's ``adjoint_mode`` in ``integrate_backward``:

* ``"paper"`` (default): the published four costate equations as-is.  The
  running cost's recovery credit does not feed back through the
  normalization constraint, so lam_f solves a homogeneous equation from a
  zero terminal condition and stays identically zero; the patch-rate update
  is then pinned at its lower bound.
* ``"consistent"``: the recovery credit is expanded through
  RC = 1 - S - IH - IL - RF before differentiating, which adds a constant
  -1 to each costate equation.  In this mode the costates are the exact
  sensitivities of the computed objective, and finite-difference gradient
  checks pass.

In the published S-compartment equation the low-capability sum pairs
lam_s_i with a j-indexed lam_l inside the neighbor sum; the implementation
uses lam_l_i, mirroring the high-capability term, which is the only reading
consistent with differentiating the Hamiltonian.
"""

from __future__ import annotations

import numpy as np

from .graphs import NetworkGraph
from .model import (ADJOINT_MODES, DELTA, GAMMA_H, GAMMA_L, IH, IL, LAM_F,
                    LAM_H, LAM_L, LAM_S, RF, S, AdjointTrajectory,
                    ControlTrajectory, DimensionMismatchError, ModelInstance,
                    ModelParams, StateTrajectory, _check_same_grid)
from .dynamics import _reduced_rhs, _rk4_step
from .objective import running_cost

_DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """Backward integration blew up (costate magnitude above 1e12)."""


def hamiltonian(state: np.ndarray, control: np.ndarray, costate: np.ndarray,
                params: ModelParams, graph: NetworkGraph) -> float:
    """Running cost plus costate-weighted drift of the four stored compartments."""
    state = np.asarray(state, dtype=float)
    costate = np.asarray(costate, dtype=float)
    if costate.shape != state.shape:
        raise DimensionMismatchError(
            f"costate shape {costate.shape} does not match state shape {state.shape}")
    drift = _reduced_rhs(state, np.asarray(control, dtype=float),
                         params.beta_high, params.beta_low, graph.adjacency)
    return running_cost(state, control) + float((costate * drift).sum())


def adjoint_rhs(state: np.ndarray, control: np.ndarray, costate: np.ndarray,
                params: ModelParams, graph: NetworkGraph,
                mode: str = "paper") -> np.ndarray:
    """Costate time derivatives, shape (N, 4)."""
    if mode not in ADJOINT_MODES:
        raise ValueError(f"mode must be one of {ADJOINT_MODES}")
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    costate = np.asarray(costate, dtype=float)
    n = graph.node_count
    if state.shape != (n, 4) or costate.shape != (n, 4) or control.shape != (n, 3):
        raise DimensionMismatchError("state, control, costate, and graph sizes disagree")
    a = graph.adjacency
    beta_high, beta_low = params.beta_high, params.beta_low

    pressure_h = a @ state[:, IH]
    pressure_l = a @ state[:, IL]
    out = np.empty_like(costate)
    out[:, LAM_S] = (beta_high * pressure_h * (costate[:, LAM_S] - costate[:, LAM_H])
                     + beta_low * pressure_l * (costate[:, LAM_S] - costate[:, LAM_L]))
    out[:, LAM_H] = (-1.0
                     + beta_high * (a @ (state[:, S] * (costate[:, LAM_S] - costate[:, LAM_H])))
                     + control[:, GAMMA_H] * (costate[:, LAM_H] - costate[:, LAM_F]))
    out[:, LAM_L] = (beta_low * (a @ (state[:, S] * (costate[:, LAM_S] - costate[:, LAM_L])))
                     + control[:, GAMMA_L] * (costate[:, LAM_L] - costate[:, LAM_F]))
    out[:, LAM_F] = costate[:, LAM_F] * control[:, DELTA]
    if mode == "consistent":
        out -= 1.0
    return out


def integrate_backward(state_traj: StateTrajectory, control_traj: ControlTrajectory,
                       instance: ModelInstance) -> AdjointTrajectory:
    """RK4 the costates backward from a zero terminal condition.

    States feeding the half-step stages are the average of the two bracketing
    grid snapshots; no interpolation beyond the cell endpoints is used.  Each
    cell reuses the piecewise-constant control of its left grid point, the
    same value the forward pass used there.  The costate convention is
    ``instance.adjoint_mode``.
    """
    mode = instance.adjoint_mode
    grid = state_traj.time_grid
    _check_same_grid(grid, control_traj.time_grid)

    steps = grid.shape[0] - 1
    h = -(grid[1] - grid[0])
    params, graph = instance.params, instance.graph
    costates = np.zeros((steps + 1, instance.node_count, 4))
    lam = np.zeros((instance.node_count, 4))
    for k in range(steps - 1, -1, -1):
        e_right = state_traj.states[k + 1]
        e_left = state_traj.states[k]
        stage_states = (e_right, 0.5 * (e_left + e_right), e_left)
        u = control_traj.controls[k]
        lam = _rk4_step(lambda y, stage: adjoint_rhs(stage_states[stage], u, y, params,
                                                     graph, mode), lam, h)
        if np.abs(lam).max() > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"costate magnitude exceeded {_DIVERGENCE_LIMIT:g} at t={grid[k]:.6g}")
        costates[k] = lam
    return AdjointTrajectory(time_grid=grid, costates=costates)
