"""Node-level propagation dynamics: ODE right-hand side, RK4 forward
integration, and a stochastic jump-process oracle for validation."""

from __future__ import annotations

import queue
import threading
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


_MAX_STEP_PROBABILITY = 0.05
_BATCH = 4096
# compartment codes match the CtmcSummary columns: 0 S, 1 IH, 2 IL, 3 RF, 4 RC;
# _NEXT[c] is where a node in c goes when its control transition fires
_NEXT = np.array([0, 3, 3, 4, 4], dtype=np.int8)


def ctmc_simulate(instance: ModelInstance, control: ControlTrajectory,
                  rng_seed: int, num_runs: int) -> CtmcSummary:
    """Simulate the stochastic per-node compartment process.

    Each control-grid cell is subdivided until every per-substep transition
    probability (rate times substep) is at most 0.05, then transitions are
    drawn as Bernoulli events from one uniform per node and substep; a
    susceptible node checks the high-capability infection first.  Every test
    reads the state at the start of the substep.  Replicas run in fixed-size
    batches of 4096, each batch on its own generator seeded by
    (rng_seed, batch_index), so results do not depend on how batches are
    scheduled and are reproducible bit-for-bit for a given seed.  A helper
    thread draws each batch's uniforms one substep ahead, in stream order,
    so results and their reproducibility are unchanged; the thread ends
    with the call.

    Few draws can fire, so each substep first screens the draws against an
    upper bound of the probability of leaving the node's compartment: for a
    susceptible node ``beta_high * degree * sdt + beta_low * degree * sdt``,
    otherwise the largest of the three control probabilities.  Only draws
    below their bound are evaluated, with the neighbour counts of their
    replica.  The screen drops no transition: a neighbour count never exceeds
    the degree, the betas and the control values are finite and
    non-negative, and floating-point products and sums are monotone in each
    operand, so the computed infection probabilities never exceed the
    computed bound.  The draws, their order and every test are those of a
    dense pass over all nodes, so the summary is bit-identical to it.
    Occupancy counts per replica are updated from the moves, and their sums
    are exact integers.

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
    n = instance.node_count
    steps = grid.shape[0] - 1
    dt = instance.dt
    beta_high, beta_low = instance.params.beta_high, instance.params.beta_low
    adjacency = instance.graph.adjacency
    degree = adjacency.sum(axis=1)
    # beta_low <= beta_high, so beta_high * degree bounds a node's whole infection rate
    rate_max = max(beta_high * degree.max(), float(controls.max(initial=0.0)))
    substeps = max(1, int(np.ceil(rate_max * dt / _MAX_STEP_PROBABILITY)))
    sdt = dt / substeps
    s_cap = beta_high * degree * sdt + beta_low * degree * sdt

    init_code = np.argmax(np.column_stack([init, r_complete(init)]), axis=1).astype(np.int8)
    init_counts = np.bincount(init_code, minlength=5)

    count_sum = np.zeros((steps + 1, 5))
    count_sq = np.zeros((steps + 1, 5))

    for batch_index, start in enumerate(range(0, num_runs, _BATCH)):
        m = min(_BATCH, num_runs - start)
        batch_draws = _draws_ahead(np.random.default_rng([rng_seed, batch_index]), (m, n),
                                   steps * substeps)
        y = np.tile(init_code, (m, 1))
        counts = np.repeat(init_counts[:, None], m, axis=1)  # (5, m) devices per compartment
        _accumulate(count_sum, count_sq, 0, counts)
        try:
            for k in range(steps):
                u = controls[k]
                # per-node probability of a control transition out of IH, IL
                # and RF; S leaves by infection only and RC never leaves
                leave = np.zeros((5, n))
                leave[1:4] = u[:, [GAMMA_H, GAMMA_L, DELTA]].T * sdt
                cap = leave.max(axis=0)
                for _ in range(substeps):
                    draws = next(batch_draws)
                    r, j = divmod(np.flatnonzero((draws < s_cap) | ((y != 0) & (draws < cap))), n)
                    _fire(y, counts, r, j, draws[r, j], leave, adjacency, beta_high, beta_low, sdt)
                _accumulate(count_sum, count_sq, k + 1, counts)
        finally:
            batch_draws.close()

    mean = count_sum / num_runs
    if num_runs > 1:
        var = np.maximum(count_sq - num_runs * mean ** 2, 0.0) / (num_runs - 1)
        std_error = np.sqrt(var / num_runs)
    else:
        std_error = np.zeros_like(mean)
    return CtmcSummary(time_grid=grid, mean_counts=mean, std_error=std_error,
                       num_runs=num_runs)


def _draws_ahead(rng: np.random.Generator, shape: tuple, count: int):
    """Yield ``count`` arrays ``rng.random(shape)`` in stream order, drawn one ahead.

    Two preallocated buffers pass between the caller and a helper thread
    through two queues: ``free`` carries each buffer the caller hands back at
    its next ``next()``, then None to stop; ``full`` carries each buffer the
    helper has filled, or the exception a draw raised, which is re-raised here.
    So a yielded array is overwritten only after the caller's next ``next()``,
    and a caller copies what it keeps longer; ``rng`` releases the GIL while it
    fills.  Nothing else may draw from ``rng`` until the generator ends.
    Exhausting or closing the generator joins the thread.
    """
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty(shape))

    def fill():
        for _ in range(count):
            buffer = free.get()
            if buffer is None:
                return
            try:
                rng.random(out=buffer)
            except BaseException as exc:  # re-raised by the caller, which waits on full
                full.put(exc)
                return
            full.put(buffer)

    helper = threading.Thread(target=fill, name="ctmc-draws", daemon=True)
    helper.start()
    try:
        for _ in range(count):
            buffer = full.get()
            if isinstance(buffer, BaseException):
                raise buffer
            yield buffer
            free.put(buffer)
    finally:
        free.put(None)
        helper.join()


def _fire(y, counts, r, j, draws, leave, adjacency, beta_high, beta_low, sdt) -> None:
    """Apply the transitions of the screened draws of replicas ``r`` at nodes ``j``."""
    old = y[r, j]
    new = np.where(draws < leave[old, j], _NEXT[old], old)
    sus = np.flatnonzero(old == 0)
    near, links, d = y[r[sus]], adjacency[j[sus]], draws[sus]
    # neighbour counts are small integers, exact in any summation order
    p_h = beta_high * ((near == 1) * links).sum(axis=1) * sdt
    p_l = beta_low * ((near == 2) * links).sum(axis=1) * sdt
    new[sus] = np.where(d < p_h, 1, np.where(d < p_h + p_l, 2, 0))
    y[r, j] = new
    np.subtract.at(counts, (old, r), 1)
    np.add.at(counts, (new, r), 1)


def _accumulate(count_sum: np.ndarray, count_sq: np.ndarray, k: int, counts: np.ndarray) -> None:
    # integer sums are exact, so they equal every float summation of the counts
    count_sum[k] += counts.sum(axis=1)
    count_sq[k] += (counts ** 2).sum(axis=1)
