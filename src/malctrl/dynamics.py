"""Node-level propagation dynamics: ODE right-hand side, RK4 forward
integration, and a stochastic jump-process oracle for validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import integer
from .model import (DELTA, GAMMA_H, GAMMA_L, IH, IL, RF, S, ControlTrajectory, ModelInstance,
                    StateTrajectory, TRAJECTORY_TOL, r_complete, states_in_range,
                    validate_control)


class StepTooLargeError(RuntimeError):
    """The forward integrator left the valid state region; shrink dt."""


def _reduced_rhs(states: np.ndarray, controls: np.ndarray, beta_high: float,
                 beta_low: float, adjacency: np.ndarray) -> np.ndarray:
    """Derivatives of the four stored compartments, shape (..., N, 4).

    RC is never integrated; it is reconstructed from normalization, so this
    reduced system is what the forward solver advances.  Leading axes of
    ``states`` and ``controls`` are batch axes.  The neighbour pressure is a
    stack of matrix-vector products, one per batch member, so a batched pass
    rounds exactly as a pass over one member does.
    """
    pressure_h = (adjacency @ states[..., IH, None])[..., 0]
    pressure_l = (adjacency @ states[..., IL, None])[..., 0]
    new_h = beta_high * states[..., S] * pressure_h
    new_l = beta_low * states[..., S] * pressure_l
    contained_h = controls[..., GAMMA_H] * states[..., IH]
    contained_l = controls[..., GAMMA_L] * states[..., IL]
    patched = controls[..., DELTA] * states[..., RF]
    out = np.empty_like(states)
    out[..., S] = -new_h - new_l
    out[..., IH] = new_h - contained_h
    out[..., IL] = new_l - contained_l
    out[..., RF] = contained_h + contained_l - patched
    return out


def _rk4_step(rhs, x: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = rhs(x, stage) over a step of length h.

    ``stage`` is 0 at the start of the step, 1 at its midpoint (second and
    third stages) and 2 at its end, so a right-hand side driven by sampled
    data can pick the sample of each stage.  The forward and backward passes
    both step here; the expression order fixes the last bits of every state
    and costate trajectory.
    """
    k1 = rhs(x, 0)
    k2 = rhs(x + 0.5 * h * k1, 1)
    k3 = rhs(x + 0.5 * h * k2, 1)
    k4 = rhs(x + h * k3, 2)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_forward(instance: ModelInstance, control: ControlTrajectory) -> StateTrajectory:
    """Advance the expected network state with classical fixed-step RK4.

    ``control.controls`` has shape (K+1, N, 3), and the states have shape
    (K+1, N, 4).  The control is piecewise constant: the grid value at index
    k is held for the whole step to t_{k+1}, including the half-step stages.

    Raises ValueError for a control off the instance grid, of another shape,
    or with a value that is NaN, infinite or negative (the control box is
    not checked).  Raises StepTooLargeError when any compartment leaves
    [-1e-6, 1 + 1e-6] or turns NaN, which signals that the step size is too
    coarse for the configured rates.
    """
    controls = validate_control(instance, control)
    states = np.empty(controls.shape[:-1] + (4,))
    for k, x in enumerate(_forward_steps(instance, lambda k: controls[k], ())):
        states[k] = x
    return StateTrajectory(time_grid=instance.time_grid(), states=states)


def _forward_steps(instance: ModelInstance, control_at, batch_shape: tuple):
    """Yield the states x_0 ... x_K of a forward pass, each of shape batch_shape + (N, 4).

    ``control_at(k)`` returns the controls held over step k, shape
    batch_shape + (N, 3).  This is the one forward RK4 loop: callers store
    what it yields or reduce it step by step.  Each yielded array is new, so
    a caller may keep it.  Raises StepTooLargeError as integrate_forward
    documents, checked on every member after every step.
    """
    grid = instance.time_grid()
    h = instance.dt
    beta_high, beta_low = instance.params.beta_high, instance.params.beta_low
    adjacency = instance.graph.adjacency
    x = np.broadcast_to(instance.initial_state, batch_shape + (instance.node_count, 4)).copy()
    yield x
    for k in range(grid.shape[0] - 1):
        u = control_at(k)
        x = _rk4_step(lambda y, _stage: _reduced_rhs(y, u, beta_high, beta_low, adjacency), x, h)
        if not states_in_range(x, TRAJECTORY_TOL):
            raise StepTooLargeError(
                f"state left [0, 1] at t={grid[k + 1]:.6g}; reduce dt below {h:.6g}")
        yield x


@dataclass
class CtmcSummary:
    """Monte-Carlo occupancy counts from the per-node jump process."""

    time_grid: np.ndarray
    mean_counts: np.ndarray   # (K+1, 5) mean devices per compartment
    std_error: np.ndarray     # (K+1, 5) standard error of those means
    num_runs: int


_BATCH = 128
_BLOCK = 32  # candidates per replica drawn at a time


def ctmc_simulate(instance: ModelInstance, control: ControlTrajectory,
                  rng_seed: int, num_runs: int) -> CtmcSummary:
    """Sample the stochastic per-node compartment process exactly.

    The control is piecewise constant, as integrate_forward holds it.  A node
    leaves IH, IL or RF once its rate there (gamma_high, gamma_low, delta) has
    integrated to an exponential budget since it entered: the exit time
    inverts that integral over the grid cells, and is infinite if the budget
    outlasts the horizon.  Infections are thinned (Cota & Ferreira, Comput.
    Phys. Commun. 219, 2017): a replica draws candidates in time order at the
    rate ``beta_high * degree_i`` summed over its initially susceptible
    nodes.  A candidate picks node j by its share of that rate and a mark w
    uniform on [0, beta_high * degree_j), and infects j, if still
    susceptible, when w < beta_high * n_IH + beta_low * n_IL over j's
    neighbours; into IH when w < beta_high * n_IH.  ``ModelParams`` keeps
    beta_low <= beta_high, so that sum stays within the candidate rate and
    every infection fires at exactly its rate.  Counts are read at the grid
    points and summed as exact integers.

    Replicas run in lockstep in batches of 128, each on its own generator
    seeded by (rng_seed, batch_index), so a summary is reproducible bit for
    bit.  A batch of m replicas on N nodes draws ``random((2, m, N))``, the
    budgets for leaving IH or IL and for leaving RF, then blocks
    ``random((32, 2, m))`` of candidate gaps and marks until every
    replica has passed the horizon; a uniform u gives the exponential
    ``-log1p(-u)``.

    Checks the control as integrate_forward does.  Raises ValueError for an
    initial state that is not 0/1 indicators; ``num_runs`` and ``rng_seed``
    are parsed by ``integer`` with least 1 and 0.
    """
    controls = validate_control(instance, control)
    init = instance.initial_state
    if not np.isin(init, (0.0, 1.0)).all():
        raise ValueError("jump-process simulation needs indicator (0/1) initial states")
    num_runs, rng_seed = integer(num_runs, "num_runs", 1), integer(rng_seed, "rng_seed", 0)

    grid = instance.time_grid()
    n, horizon = instance.node_count, grid[-1]
    beta_high, beta_low = instance.params.beta_high, instance.params.beta_low
    adjacency = instance.graph.adjacency
    # compartment codes match the CtmcSummary columns: 0 S, 1 IH, 2 IL, 3 RF, 4 RC
    code = np.argmax(np.column_stack([init, r_complete(init)]), axis=1)
    # each node's integrated control rates at the grid points, one lane per (node, control)
    rates = controls.reshape(grid.shape[0], -1)
    integral = np.zeros_like(rates)
    np.cumsum(rates[:-1] * np.diff(grid)[:, None], axis=0, out=integral[1:])
    # only the initially susceptible nodes ever draw candidates
    candidate_rate = np.where(code == 0, beta_high * adjacency.sum(axis=1), 0.0)
    rate_ends = np.cumsum(candidate_rate)
    rate_starts = np.concatenate(([0.0], rate_ends[:-1]))
    total_rate = rate_ends[-1]

    count_sum, count_sq = np.zeros((2, grid.shape[0], 5))
    for batch_index, first in enumerate(range(0, num_runs, _BATCH)):
        m = min(_BATCH, num_runs - first)
        rng = np.random.default_rng([rng_seed, batch_index])
        budget = -np.log1p(-rng.random((2, m, n)))
        # entry times into IH or IL and into RF; 0 for a compartment a node starts in or past
        t_in = np.tile(np.where(code == 0, np.inf, 0.0), (m, 1))
        t_rf = np.tile(np.where(code >= 3, 0.0, np.inf), (m, 1))
        high = np.tile(code == 1, (m, 1))
        r, j = np.nonzero(np.tile((code == 1) | (code == 2), (m, 1)))
        t_rf[r, j] = _exit_times(grid, rates, integral,
                                 3 * j + np.where(high[r, j], GAMMA_H, GAMMA_L), 0.0,
                                 budget[0, r, j])

        t = np.zeros(m)
        while total_rate > 0.0 and (t < horizon).any():
            block = rng.random((_BLOCK, 2, m))
            gaps = -np.log1p(-block[:, 0]) / total_rate
            marks = block[:, 1] * total_rate
            for gap, mark in zip(gaps, marks):
                t += gap
                r = np.flatnonzero(t < horizon)
                if not r.size:
                    break
                at, v = t[r], mark[r]
                j = np.searchsorted(rate_ends[:-1], v, side="right")
                w = v - rate_starts[j]
                infected = (t_in[r] <= at[:, None]) & (at[:, None] < t_rf[r]) & (adjacency[j] > 0)
                n_high = np.count_nonzero(infected & high[r], axis=1)
                n_low = np.count_nonzero(infected, axis=1) - n_high
                to_high = w < beta_high * n_high
                keep = (at < t_in[r, j]) & (w < beta_high * n_high + beta_low * n_low)
                r, j, at, to_high = r[keep], j[keep], at[keep], to_high[keep]
                t_in[r, j], high[r, j] = at, to_high
                t_rf[r, j] = _exit_times(grid, rates, integral,
                                         3 * j + np.where(to_high, GAMMA_H, GAMMA_L), at,
                                         budget[0, r, j])

        t_rc = np.tile(np.where(code == 4, 0.0, np.inf), (m, 1))
        r, j = np.nonzero((t_rf < np.inf) & (code != 4))
        t_rc[r, j] = _exit_times(grid, rates, integral, 3 * j + DELTA, t_rf[r, j],
                                 budget[1, r, j])
        _tally(count_sum, count_sq, grid, t_in, t_rf, t_rc, high)

    mean = count_sum / num_runs
    if num_runs > 1:
        var = np.maximum(count_sq - num_runs * mean ** 2, 0.0) / (num_runs - 1)
        std_error = np.sqrt(var / num_runs)
    else:
        std_error = np.zeros_like(mean)
    return CtmcSummary(time_grid=grid, mean_counts=mean, std_error=std_error,
                       num_runs=num_runs)


def _exit_times(grid, rates, integral, lane, start, budget) -> np.ndarray:
    """When nodes leave a compartment entered at ``start``: once the rate in
    column ``lane`` of ``rates`` (K+1, L), held over each grid cell, has
    integrated to ``budget``; infinite past the horizon.  ``integral`` holds
    the integrals to each grid point, so the exit lies in the last cell whose
    starting integral is at most the target, where the rate is positive."""
    start = np.broadcast_to(start, lane.shape)
    cell = np.searchsorted(grid, start, side="right") - 1
    target = integral[cell, lane] + rates[cell, lane] * (start - grid[cell]) + budget
    lo, hi = cell, np.full_like(cell, grid.shape[0])
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        below = integral[mid, lane] <= target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    out = np.full(lane.shape, np.inf)
    inside = lo < grid.shape[0] - 1
    k, lane = lo[inside], lane[inside]
    out[inside] = np.maximum(start[inside],
                             grid[k] + (target[inside] - integral[k, lane]) / rates[k, lane])
    return out


def _tally(count_sum, count_sq, grid, t_in, t_rf, t_rc, high) -> None:
    """Add each replica's counts at the grid points, and their squares.  Its
    nodes move S -> IH or IL -> RF -> RC at t_in, t_rf and t_rc, and count in
    the new compartment from the first grid point at or after the move.  The
    sums gather the change of the counts and of their squares at each move,
    in the replica's order of moves, in exact integers."""
    (m, n), points = t_in.shape, grid.shape[0]
    kind = np.where(high, 1, 2)
    moves = []
    for t, old, new in ((t_in, 0, kind), (t_rf, kind, 3), (t_rc, 3, 4)):
        step = np.searchsorted(grid, t, side="left")
        r, i = np.nonzero(step < points)
        moves.append((r, step[r, i], np.broadcast_to(old, t.shape)[r, i],
                      np.broadcast_to(new, t.shape)[r, i]))
    replica, step, old, new = map(np.concatenate, zip(*moves))
    order = np.argsort(replica * points + step)
    replica, step, old, new = replica[order], step[order], old[order], new[order]
    column = np.arange(5)
    change = (new[:, None] == column).astype(np.int64) - (old[:, None] == column)
    start = n * (column == 0)  # every node starts in S
    running = np.cumsum(change, axis=0)
    first = np.searchsorted(replica, replica, side="left")
    counts = start + running - (running[first] - change[first])  # after each move
    for total, power in ((count_sum, 1), (count_sq, 2)):
        per_point = np.zeros((points, 5), dtype=np.int64)
        np.add.at(per_point, step, counts ** power - (counts - change) ** power)
        total += m * start ** power + np.cumsum(per_point, axis=0)
