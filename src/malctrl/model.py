"""Model data types: parameters, trajectories, and instances.

Array layout conventions used across the package:

* per-node state rows store the four integrated compartments
  ``[S, IH, IL, RF]``; the fifth compartment RC is always derived as
  ``1 - S - IH - IL - RF`` so normalization cannot drift,
* per-node control rows are ``[delta, gamma_high, gamma_low]``,
* per-node costate rows are ``[lam_s, lam_h, lam_l, lam_f]``,
* trajectories stack grid snapshots first: shape ``(K+1, N, columns)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import NetworkGraph, canonical_graph, graph_from_dict, load_graph

# state columns
S, IH, IL, RF = 0, 1, 2, 3
COMPARTMENTS = ("S", "IH", "IL", "RF", "RC")

# control columns
DELTA, GAMMA_H, GAMMA_L = 0, 1, 2
CONTROL_COLUMNS = ("delta", "gamma_h", "gamma_l")

# costate columns
LAM_S, LAM_H, LAM_L, LAM_F = 0, 1, 2, 3
COSTATE_COLUMNS = ("lamS", "lamH", "lamL", "lamF")

STATE_TOL = 1e-9          # tolerance for constructed states
TRAJECTORY_TOL = 1e-6     # tolerance the integrator guarantees along trajectories

ADJOINT_MODES = ("paper", "consistent")


class DimensionMismatchError(ValueError):
    """State, control, costate, and graph dimensions disagree."""


class GridMismatchError(ValueError):
    """Two trajectories do not share the same time grid."""


def r_complete(states: np.ndarray) -> np.ndarray:
    """Derived RC compartment for an (..., 4) state array."""
    return 1.0 - states.sum(axis=-1)


def validate_states(states: np.ndarray, n: int, tol: float = STATE_TOL) -> None:
    states = np.asarray(states)
    if states.shape[-2:] != (n, 4):
        raise DimensionMismatchError(f"expected state shape (..., {n}, 4), got {states.shape}")
    lo, hi = states.min(), states.max()
    if lo < -tol or hi > 1.0 + tol:
        raise ValueError(f"state entries outside [0, 1] (min {lo}, max {hi}, tol {tol})")
    rc = r_complete(states)
    if rc.min() < -tol or rc.max() > 1.0 + tol:
        raise ValueError("derived recover-complete compartment outside [0, 1]")


@dataclass(frozen=True)
class ModelParams:
    """Infection rates, horizon, and per-node control boxes."""

    beta_high: float
    beta_low: float
    horizon: float
    delta_lo: np.ndarray
    delta_hi: np.ndarray
    gamma_high_lo: np.ndarray
    gamma_high_hi: np.ndarray
    gamma_low_lo: np.ndarray
    gamma_low_hi: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.beta_low <= self.beta_high:
            raise ValueError(f"need 0 <= beta_low <= beta_high, got {self.beta_low}, {self.beta_high}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        n = self.node_count
        for name in ("delta", "gamma_high", "gamma_low"):
            lo = getattr(self, f"{name}_lo")
            hi = getattr(self, f"{name}_hi")
            if lo.shape != (n,) or hi.shape != (n,):
                raise DimensionMismatchError(f"{name} bounds must be vectors of length {n}")
            if (lo < 0).any() or (lo > hi).any():
                raise ValueError(f"need 0 <= {name}_lo <= {name}_hi per node")

    @property
    def node_count(self) -> int:
        return self.delta_lo.shape[0]

    @classmethod
    def from_scalars(cls, node_count, beta_high, beta_low, horizon,
                     delta=(0.0, 0.0), gamma_high=(0.0, 0.0), gamma_low=(0.0, 0.0)) -> "ModelParams":
        """Broadcast scalar (lo, hi) control bounds to per-node vectors."""
        full = lambda v: np.full(node_count, float(v))
        return cls(
            beta_high=float(beta_high), beta_low=float(beta_low), horizon=float(horizon),
            delta_lo=full(delta[0]), delta_hi=full(delta[1]),
            gamma_high_lo=full(gamma_high[0]), gamma_high_hi=full(gamma_high[1]),
            gamma_low_lo=full(gamma_low[0]), gamma_low_hi=full(gamma_low[1]),
        )

    def lower_bounds(self) -> np.ndarray:
        """(N, 3) lower control box, columns [delta, gamma_h, gamma_l]."""
        return np.stack([self.delta_lo, self.gamma_high_lo, self.gamma_low_lo], axis=1)

    def upper_bounds(self) -> np.ndarray:
        return np.stack([self.delta_hi, self.gamma_high_hi, self.gamma_low_hi], axis=1)


def uniform_grid(horizon: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("need at least one time step")
    return np.linspace(0.0, horizon, steps + 1)


def _check_same_grid(grid_a: np.ndarray, grid_b: np.ndarray) -> None:
    if grid_a.shape != grid_b.shape or not np.array_equal(grid_a, grid_b):
        raise GridMismatchError("trajectories must share an identical time grid")


@dataclass
class StateTrajectory:
    """Grid-sampled expected network state, shape (K+1, N, 4)."""

    time_grid: np.ndarray
    states: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    @property
    def node_count(self) -> int:
        return self.states.shape[1]

    def r_complete(self) -> np.ndarray:
        return r_complete(self.states)

    def full_states(self) -> np.ndarray:
        """(K+1, N, 5) array including the derived RC column."""
        return np.concatenate([self.states, self.r_complete()[..., None]], axis=-1)

    def compartment_totals(self) -> np.ndarray:
        """Expected device counts per compartment, shape (K+1, 5)."""
        return self.full_states().sum(axis=1)

    def validate(self, tol: float = TRAJECTORY_TOL) -> None:
        if self.states.shape[0] != self.time_grid.shape[0]:
            raise GridMismatchError("state array does not match the time grid length")
        validate_states(self.states, self.node_count, tol=tol)


@dataclass
class ControlTrajectory:
    """Grid-sampled control schedule, shape (K+1, N, 3).

    Controls are piecewise constant: the row at grid index k applies on
    [t_k, t_{k+1}).
    """

    time_grid: np.ndarray
    controls: np.ndarray

    @property
    def node_count(self) -> int:
        return self.controls.shape[1]

    def validate_bounds(self, params: ModelParams, tol: float = 1e-12) -> None:
        lo = params.lower_bounds()[None, :, :]
        hi = params.upper_bounds()[None, :, :]
        if (self.controls < lo - tol).any() or (self.controls > hi + tol).any():
            raise ValueError("control trajectory leaves its admissible box")


@dataclass
class AdjointTrajectory:
    """Grid-sampled costates, shape (K+1, N, 4); zero at the final time."""

    time_grid: np.ndarray
    costates: np.ndarray

    def validate(self) -> None:
        if self.costates.shape[0] != self.time_grid.shape[0]:
            raise GridMismatchError("costate array does not match the time grid length")
        if self.costates[-1].any():
            raise ValueError("terminal costates must be exactly zero")


@dataclass(frozen=True)
class ModelInstance:
    """A solvable problem instance: topology, rates, bounds, initial state,
    constant control rates, and sweep-solver settings."""

    graph: NetworkGraph
    params: ModelParams
    initial_state: np.ndarray
    control_rates: tuple[float, float, float] | None = None  # (delta, gamma_h, gamma_l)
    max_iterations: int = 100
    convergence_epsilon: float = 1e-4
    relaxation_weight: float = 0.5
    adjoint_mode: str = "paper"
    time_steps: int = 300

    def __post_init__(self):
        n = self.graph.node_count
        if self.params.node_count != n:
            raise DimensionMismatchError("params sized for a different node count than the graph")
        state = np.asarray(self.initial_state, dtype=float)
        if state.shape != (n, 4):
            raise DimensionMismatchError(f"initial_state must have shape ({n}, 4)")
        validate_states(state, n, tol=STATE_TOL)
        object.__setattr__(self, "initial_state", state)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.convergence_epsilon <= 0:
            raise ValueError("convergence_epsilon must be positive")
        if not 0.0 <= self.relaxation_weight < 1.0:
            raise ValueError("relaxation_weight must lie in [0, 1)")
        if self.adjoint_mode not in ADJOINT_MODES:
            raise ValueError(f"adjoint_mode must be one of {ADJOINT_MODES}")
        if self.time_steps < 1:
            raise ValueError("time_steps must be positive")

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def dt(self) -> float:
        return self.params.horizon / self.time_steps

    def time_grid(self) -> np.ndarray:
        return uniform_grid(self.params.horizon, self.time_steps)

    def lower_bound_control(self) -> ControlTrajectory:
        grid = self.time_grid()
        lo = self.params.lower_bounds()
        controls = np.broadcast_to(lo, (grid.shape[0],) + lo.shape).copy()
        return ControlTrajectory(time_grid=grid, controls=controls)

    def constant_control(self, delta: float, gamma_high: float, gamma_low: float) -> ControlTrajectory:
        grid = self.time_grid()
        row = np.array([delta, gamma_high, gamma_low], dtype=float)
        controls = np.broadcast_to(row, (grid.shape[0], self.node_count, 3)).copy()
        return ControlTrajectory(time_grid=grid, controls=controls)

    def fixed_control_trajectory(self) -> ControlTrajectory:
        if self.control_rates is None:
            raise ValueError("instance has no constant control rates configured")
        return self.constant_control(*self.control_rates)


def seed_initial_state(graph: NetworkGraph, susceptible: int, infected_high: int,
                       infected_low: int, recover_first: int = 0,
                       recover_complete: int = 0) -> np.ndarray:
    """Map compartment device counts onto indicator states.

    Seeded devices are picked deterministically: rooms in order of first
    appearance, each room's nodes ranked by degree (ties broken by lowest
    index), candidates taken round-robin across rooms by rank.  The first
    ``infected_high`` candidates start infected-high, the next
    ``infected_low`` infected-low, then recover-first and recover-complete;
    everything else starts susceptible.
    """
    n = graph.node_count
    total = susceptible + infected_high + infected_low + recover_first + recover_complete
    if total != n:
        raise ValueError(f"compartment counts sum to {total}, expected {n}")
    deg = graph.degrees()
    by_room: dict[str, list[int]] = {}
    for room in graph.rooms():
        members = [i for i in range(n) if graph.room_assignment[i] == room]
        members.sort(key=lambda i: (-deg[i], i))
        by_room[room] = members
    candidates: list[int] = []
    rank = 0
    while len(candidates) < n:
        for room in graph.rooms():
            members = by_room[room]
            if rank < len(members):
                candidates.append(members[rank])
        rank += 1

    state = np.zeros((n, 4))
    state[:, S] = 1.0
    picked = candidates[:infected_high + infected_low + recover_first + recover_complete]
    cursor = 0
    for column, count in ((IH, infected_high), (IL, infected_low), (RF, recover_first)):
        for i in picked[cursor:cursor + count]:
            state[i, S] = 0.0
            state[i, column] = 1.0
        cursor += count
    for i in picked[cursor:cursor + recover_complete]:
        state[i, S] = 0.0  # all four stored compartments zero: derived RC = 1
    return state


# ---------------------------------------------------------------------------
# instance JSON config

def _bounds_pair(raw, n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = raw
    lo = np.full(n, float(lo)) if np.isscalar(lo) else np.asarray(lo, dtype=float)
    hi = np.full(n, float(hi)) if np.isscalar(hi) else np.asarray(hi, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError(f"{name} bounds must be scalars or length-{n} lists")
    return lo, hi


def instance_from_dict(data: dict, base_dir=None) -> ModelInstance:
    """Build a ModelInstance from its JSON configuration dictionary."""
    graph_ref = data["graph"]
    if isinstance(graph_ref, dict):
        graph = graph_from_dict(graph_ref)
    elif graph_ref == "canonical":
        graph = canonical_graph()
    else:
        path = Path(graph_ref)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        graph = load_graph(path)
    n = graph.node_count

    bounds = data["control_bounds"]
    d_lo, d_hi = _bounds_pair(bounds["delta"], n, "delta")
    gh_lo, gh_hi = _bounds_pair(bounds["gamma_high"], n, "gamma_high")
    gl_lo, gl_hi = _bounds_pair(bounds["gamma_low"], n, "gamma_low")
    params = ModelParams(
        beta_high=float(data["beta_high"]), beta_low=float(data["beta_low"]),
        horizon=float(data["horizon"]),
        delta_lo=d_lo, delta_hi=d_hi,
        gamma_high_lo=gh_lo, gamma_high_hi=gh_hi,
        gamma_low_lo=gl_lo, gamma_low_hi=gl_hi,
    )

    init = data["initial_state"]
    if "per_node" in init:
        state = np.asarray(init["per_node"], dtype=float)
    else:
        state = seed_initial_state(
            graph,
            susceptible=int(init["susceptible"]),
            infected_high=int(init["infected_high"]),
            infected_low=int(init["infected_low"]),
            recover_first=int(init.get("recover_first", 0)),
            recover_complete=int(init.get("recover_complete", 0)),
        )

    rates = data.get("control_rates")
    control_rates = None
    if rates is not None:
        control_rates = (float(rates["delta"]), float(rates["gamma_high"]),
                         float(rates["gamma_low"]))

    solver = data.get("solver", {})
    return ModelInstance(
        graph=graph, params=params, initial_state=state, control_rates=control_rates,
        max_iterations=int(solver.get("max_iterations", 100)),
        convergence_epsilon=float(solver.get("convergence_epsilon", 1e-4)),
        relaxation_weight=float(solver.get("relaxation_weight", 0.5)),
        adjoint_mode=str(solver.get("adjoint_mode", "paper")),
        time_steps=int(solver.get("time_steps", 300)),
    )


def load_instance(path) -> ModelInstance:
    path = Path(path)
    return instance_from_dict(json.loads(path.read_text()), base_dir=path.parent)
