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

from .graphs import (NetworkGraph, fits, graph_from_dict, integer, json_object, number,
                     number_array, required, resolve_graph)

# state columns
S, IH, IL, RF = 0, 1, 2, 3
COMPARTMENTS = ("S", "IH", "IL", "RF", "RC")

# control columns
DELTA, GAMMA_H, GAMMA_L = 0, 1, 2
CONTROL_COLUMNS = ("delta", "gamma_h", "gamma_l")   # CSV headers
CONTROL_NAMES = ("delta", "gamma_high", "gamma_low")  # JSON and summary keys

# costate columns
LAM_S, LAM_H, LAM_L, LAM_F = 0, 1, 2, 3
COSTATE_COLUMNS = ("lamS", "lamH", "lamL", "lamF")

STATE_TOL = 1e-9          # tolerance for constructed states
TRAJECTORY_TOL = 1e-6     # tolerance the integrator guarantees along trajectories

ADJOINT_MODES = ("paper", "consistent")


def r_complete(states: np.ndarray) -> np.ndarray:
    """Derived RC compartment for an (..., 4) state array."""
    return 1.0 - states.sum(axis=-1)


def states_in_range(states: np.ndarray, tol: float) -> bool:
    """Whether every stored compartment and the derived RC lie in [-tol, 1 + tol].

    False when any entry is NaN: every comparison with NaN is false.
    """
    rc = r_complete(states)
    return bool(-tol <= states.min() <= states.max() <= 1.0 + tol
                and -tol <= rc.min() <= rc.max() <= 1.0 + tol)


def require_finite(**arrays) -> None:
    """Raise ValueError naming the first keyword whose float array holds a NaN or infinite entry."""
    for name, values in arrays.items():
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {values[bad][0]}")


def array_argument(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` itself when it is a float64 array whose shape ``fits`` ``shape``,
    else ``number_array(value, name, [shape])``.  The literal compare comes first:
    it settles the per-stage checks of ``adjoint_rhs``, whose shapes hold no None."""
    if (isinstance(value, np.ndarray) and value.dtype == np.float64
            and (value.shape == shape or fits(value.shape, shape))):
        return value
    return number_array(value, name, [shape])


def validate_states(states: np.ndarray, tol: float = STATE_TOL) -> None:
    """Raise ValueError unless ``states_in_range(states, tol)``; callers parse the array."""
    if not states_in_range(states, tol):
        raise ValueError(f"state entries or derived recover-complete compartment outside [0, 1]"
                         f" (stored min {states.min()}, max {states.max()}, tol {tol})")


@dataclass(frozen=True)
class ModelParams:
    """Infection rates, horizon, and the per-node control box: ``lower`` and
    ``upper`` are read-only float64 (N, 3) arrays, columns DELTA, GAMMA_H, GAMMA_L."""

    beta_high: float
    beta_low: float
    horizon: float
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name, parse in (("beta_high", number), ("beta_low", number), ("horizon", _horizon)):
            object.__setattr__(self, name, parse(getattr(self, name), name))
        if not 0.0 <= self.beta_low <= self.beta_high < np.inf:
            raise ValueError(f"need finite 0 <= beta_low <= beta_high,"
                             f" got {self.beta_low}, {self.beta_high}")
        lower = number_array(self.lower, "lower", [(None, 3)])
        upper = number_array(self.upper, "upper", [lower.shape])
        bad = ~(np.isfinite(upper) & (0.0 <= lower) & (lower <= upper))
        if bad.any():
            raise ValueError(f"need finite 0 <= lo <= hi for {CONTROL_NAMES[np.argwhere(bad)[0, 1]]}")
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def node_count(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def from_scalars(cls, node_count, beta_high, beta_low, horizon,
                     delta=(0.0, 0.0), gamma_high=(0.0, 0.0), gamma_low=(0.0, 0.0)) -> "ModelParams":
        """The box from a (lo, hi) pair per control; each bound is a scalar or length N."""
        node_count = integer(node_count, "node_count", 1)
        box = np.empty((2, node_count, 3))
        for column, (name, pair) in enumerate(zip(CONTROL_NAMES, (delta, gamma_high, gamma_low))):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"{name} bounds must be a (lo, hi) pair of numbers, got {pair!r}")
            for side, bound, rows in zip(("lower", "upper"), pair, box):
                rows[:, column] = number_array(bound, f"{name} {side} bound", [(), (node_count,)])
        return cls(beta_high, beta_low, horizon, *box)

    def lower_bounds(self) -> np.ndarray:
        """The (N, 3) lower control box, columns [delta, gamma_h, gamma_l]."""
        return self.lower

    def upper_bounds(self) -> np.ndarray:
        return self.upper


def _horizon(value, name: str) -> float:
    """``value`` parsed by ``number``; it must be positive and finite."""
    if not 0.0 < (horizon := number(value, name)) < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {horizon}")
    return horizon


def uniform_grid(horizon: float, steps: int) -> np.ndarray:
    """``steps + 1`` even points on [0, horizon]: horizon as in ``ModelParams``, steps >= 1."""
    return np.linspace(0.0, _horizon(horizon, "horizon"), integer(steps, "steps", 1) + 1)


def validate_trajectory(name: str, trajectory, field: str, grid: np.ndarray,
                        n: int | None = None) -> np.ndarray:
    """``trajectory.<field>`` on ``grid`` of K+1 >= 2 points, parsed by ``array_argument``
    with shape (K+1, n, C): C is 3 for "controls" and 4 for "states" and "costates".
    The one finiteness rule of trajectories: a NaN or infinite point of ``grid`` or of the
    trajectory raises ValueError naming ``<name> time grid`` or ``name``, as does another grid.
    The result is C-contiguous, a copy only for other layouts, so every memory layout of
    the same values gives the same bits downstream."""
    require_finite(**{f"{name} time grid": grid})
    if not np.array_equal(trajectory.time_grid, grid):
        raise ValueError("trajectories must share an identical time grid")
    if len(grid) < 2:
        raise ValueError(f"{name} needs at least two grid points, got {len(grid)}")
    values = array_argument(getattr(trajectory, field), name,
                            (len(grid), n, 3 if field == "controls" else 4))
    require_finite(**{name: values})
    return np.ascontiguousarray(values)


def validate_control(instance: ModelInstance, control: ControlTrajectory) -> np.ndarray:
    """The controls of ``control``, checked against ``instance``.

    They must pass ``validate_trajectory`` on the instance grid and node
    count, which holds the finiteness rule, and be non-negative; the control
    box is not checked.  Raises ValueError naming the control.
    """
    controls = validate_trajectory("control", control, "controls", instance.time_grid(),
                                   instance.node_count)
    bad = controls < 0.0
    if bad.any():
        raise ValueError(f"control {CONTROL_NAMES[np.argwhere(bad)[0, -1]]} must be"
                         f" non-negative, got {controls[bad][0]}")
    return controls


@dataclass
class StateTrajectory:
    """Grid-sampled expected network state, shape (K+1, N, 4)."""

    time_grid: np.ndarray
    states: np.ndarray

    def full_states(self) -> np.ndarray:
        """(K+1, N, 5) array including the derived RC column."""
        return np.concatenate([self.states, r_complete(self.states)[..., None]], axis=-1)

    def compartment_totals(self) -> np.ndarray:
        """Expected device counts per compartment, shape (K+1, 5)."""
        return self.full_states().sum(axis=-2)


@dataclass
class ControlTrajectory:
    """Grid-sampled control schedule, shape (K+1, N, 3).

    Controls are piecewise constant: the row at grid index k applies on
    [t_k, t_{k+1}).
    """

    time_grid: np.ndarray
    controls: np.ndarray


@dataclass
class AdjointTrajectory:
    """Grid-sampled costates, shape (K+1, N, 4); zero at the final time."""

    time_grid: np.ndarray
    costates: np.ndarray


@dataclass(frozen=True)
class ModelInstance:
    """A solvable problem instance: topology, rates, bounds, initial state,
    constant control rates, and sweep-solver settings.

    The solver settings are set, defaulted and checked here only; change them
    with ``dataclasses.replace(instance, adjoint_mode="consistent")``.
    ``max_iterations`` and ``time_steps`` are whole numbers of at least 1,
    stored as int.  The sweep's blend weight and tolerance are fixed in ``fbsm_solve``.
    ``control_rates``, when given, are three finite non-negative rates, each
    parsed by ``number`` and stored as a tuple of floats.  ``initial_state``
    is parsed by ``number_array`` and stored as a new float64 (N, 4) array.
    """

    graph: NetworkGraph
    params: ModelParams
    initial_state: np.ndarray
    control_rates: tuple[float, float, float] | None = None  # (delta, gamma_h, gamma_l)
    max_iterations: int = 100
    adjoint_mode: str = "paper"
    time_steps: int = 300

    def __post_init__(self):
        n = self.graph.node_count
        if self.params.node_count != n:
            raise ValueError("params sized for a different node count than the graph")
        state = number_array(self.initial_state, "initial_state", [(n, 4)])
        validate_states(state, tol=STATE_TOL)
        object.__setattr__(self, "initial_state", state)
        if self.control_rates is not None:
            rates = self.control_rates
            if not (isinstance(rates, (list, tuple)) or isinstance(rates, np.ndarray)
                    and rates.ndim == 1) or len(rates) != 3:
                raise ValueError(f"control_rates must be three rates (delta,"
                                 f" gamma_high, gamma_low), got {rates!r}")
            rates = tuple(number(rate, f"control_rates {name}")
                          for name, rate in zip(CONTROL_NAMES, rates))
            if not all(0.0 <= rate < np.inf for rate in rates):
                raise ValueError(f"control_rates must be finite and non-negative,"
                                 f" got {self.control_rates}")
            object.__setattr__(self, "control_rates", rates)
        for name in ("max_iterations", "time_steps"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 1))
        if self.adjoint_mode not in ADJOINT_MODES:
            raise ValueError(f"adjoint_mode must be one of {ADJOINT_MODES}")

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def dt(self) -> float:
        return self.params.horizon / self.time_steps

    def time_grid(self) -> np.ndarray:
        return uniform_grid(self.params.horizon, self.time_steps)

    def constant_control(self, delta, gamma_high, gamma_low) -> ControlTrajectory:
        """The float64 schedule that holds each rate over the whole grid; each
        rate is a scalar or one value per node."""
        grid, n = self.time_grid(), self.node_count
        rows = np.empty((n, 3))
        for column, (name, rate) in enumerate(zip(CONTROL_NAMES, (delta, gamma_high, gamma_low))):
            rows[:, column] = number_array(rate, name, [(), (n,)])
        return ControlTrajectory(time_grid=grid,
                                 controls=np.broadcast_to(rows, (grid.shape[0], n, 3)).copy())

    def fixed_control_trajectory(self) -> ControlTrajectory:
        if self.control_rates is None:
            raise ValueError("instance has no constant control rates configured")
        return self.constant_control(*self.control_rates)


# the count arguments of seed_initial_state: the count keys of an "initial_state" block
_COUNT_KEYS = ("susceptible", "infected_high", "infected_low", "recover_first", "recover_complete")


def seed_initial_state(graph: NetworkGraph, susceptible: int, infected_high: int,
                       infected_low: int, recover_first: int = 0,
                       recover_complete: int = 0) -> np.ndarray:
    """Map compartment device counts, whole numbers of at least 0, onto indicator states.

    Seeded devices are picked deterministically: rooms in order of first
    appearance, each room's nodes ranked by degree (ties broken by lowest
    index), candidates taken round-robin across rooms by rank.  The first
    ``infected_high`` candidates start infected-high, the next
    ``infected_low`` infected-low, then recover-first and recover-complete;
    everything else starts susceptible.
    """
    n = graph.node_count
    counts = tuple(integer(count, name, 0) for name, count in zip(_COUNT_KEYS, (
        susceptible, infected_high, infected_low, recover_first, recover_complete)))
    total = sum(counts)
    if total != n:
        raise ValueError(f"compartment counts sum to {total}, expected {n}")
    ranked = graph.ranked_rooms()
    candidates = [room[rank] for rank in range(max(map(len, ranked), default=0))
                  for room in ranked if rank < len(room)]
    # compartment code per node, 0 S .. 4 RC; RC leaves all four stored columns zero
    code = np.zeros(n, dtype=np.intp)
    code[candidates[:n - counts[0]]] = np.repeat(np.arange(1, 5), counts[1:])
    return np.eye(5)[code, :4]


# ---------------------------------------------------------------------------
# instance JSON config

# top-level keys of an instance file; [1:4] are the ModelParams scalars
_INSTANCE_KEYS = ("graph", "beta_high", "beta_low", "horizon", "initial_state", "control_bounds",
                  "control_rates", "solver")
# keys of the "solver" block: ModelInstance fields, which it defaults and checks
_SOLVER_KEYS = ("max_iterations", "adjoint_mode", "time_steps")


def instance_from_dict(data: dict, base_dir=None) -> ModelInstance:
    """Build a ModelInstance from its JSON configuration dictionary.

    A missing required key, an unknown key and a block that is not an
    object each raise a ValueError that names it.
    """
    data = json_object(data, "instance", _INSTANCE_KEYS)
    ref = required(data, "graph", "instance")
    if isinstance(ref, dict):
        graph = graph_from_dict(ref)
    elif isinstance(ref, (str, Path)):
        graph = resolve_graph(ref, base_dir)
    else:
        raise ValueError(f'graph must be an object, a path or "canonical", got {ref!r}')

    bounds = json_object(required(data, "control_bounds", "instance"), "control_bounds",
                         CONTROL_NAMES)
    params = ModelParams.from_scalars(
        graph.node_count,
        *(required(data, key, "instance") for key in _INSTANCE_KEYS[1:4]),
        *(required(bounds, name, "control_bounds") for name in CONTROL_NAMES))

    init = json_object(required(data, "initial_state", "instance"), "initial_state",
                       ("per_node", *_COUNT_KEYS))
    if "per_node" in init:
        if len(init) > 1:
            raise ValueError(f"initial_state takes per_node or the count keys, not both;"
                             f" got per_node and {sorted(set(init) - {'per_node'})}")
        state = init["per_node"]
    else:
        state = seed_initial_state(
            graph, *(required(init, key, "initial_state") for key in _COUNT_KEYS[:3]),
            recover_first=init.get("recover_first", 0),
            recover_complete=init.get("recover_complete", 0),
        )

    rates = data.get("control_rates")
    control_rates = None
    if rates is not None:
        rates = json_object(rates, "control_rates", CONTROL_NAMES)
        control_rates = tuple(required(rates, name, "control_rates") for name in CONTROL_NAMES)

    solver = json_object(data.get("solver", {}), "solver", _SOLVER_KEYS)
    return ModelInstance(graph=graph, params=params, initial_state=state,
                         control_rates=control_rates, **solver)


def load_instance(path) -> ModelInstance:
    path = Path(path)
    return instance_from_dict(json.loads(path.read_text()), base_dir=path.parent)
