"""Randomly generated piecewise-constant control strategies (comparison baseline)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _forward_steps
from .graphs import integer
from .model import ControlTrajectory, ModelInstance
from .objective import _control_sums, _quadrature, _state_sums

# byte budget of the strategy tables of one streamed forward pass: 28 strategies
# at N=60 with 100 subintervals.  Per-step numpy dispatch dominates at this
# size, so a larger batch shares it among more members: at N=60 and 300 steps
# a member costs 18.3 ms in a batch of 4, 5.6 ms in a batch of 28 and 5.1 ms
# in a batch of 56 (fastest of 4 runs, 2 cores of a shared host).  The tables
# are the only per-member arrays larger than one state.
_BATCH_BYTES = 4 * 2**20


@dataclass(frozen=True)
class RgcsConfig:
    """Random-strategy settings, whole numbers stored as int: seed >= 0, both sizes >= 1."""

    num_subintervals: int = 100
    rng_seed: int = 0
    population_size: int = 100

    def __post_init__(self):
        for name, least in (("num_subintervals", 1), ("rng_seed", 0), ("population_size", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))


def rgcs_generate(instance: ModelInstance, config: RgcsConfig) -> ControlTrajectory:
    """Draw one admissible piecewise-constant strategy, deterministic per seed.

    The horizon is split at num_subintervals uniform cut points; on each of
    the resulting subintervals every node's three control components are
    drawn uniformly from their boxes and held constant.  The strategy is then
    resampled onto the instance grid left-constantly, so the final grid point
    carries the last subinterval's values.
    """
    values, cell = _strategy(instance, config)
    return ControlTrajectory(time_grid=instance.time_grid(), controls=values[cell])


def _strategy(instance: ModelInstance, config: RgcsConfig) -> tuple[np.ndarray, np.ndarray]:
    """One strategy as a table: ``values`` (rows, N, 3) and ``cell`` (K+1,).

    Grid point k takes row ``cell[k]``.  Only the subintervals that hold a
    grid point keep a row, so the table is never larger than the strategy
    on the grid; a subinterval between tied cut points is empty and has none.
    """
    rng = np.random.default_rng(config.rng_seed)
    cuts = np.sort(rng.uniform(0.0, instance.params.horizon, size=config.num_subintervals))
    lo, hi = instance.params.lower, instance.params.upper   # (N, 3) each
    draws = rng.random((instance.node_count, config.num_subintervals + 1, 3))
    used, cell = np.unique(np.searchsorted(cuts, instance.time_grid(), side="right"),
                           return_inverse=True)
    values = lo + (hi - lo) * draws[:, used, :].transpose(1, 0, 2)
    return values, cell


def _table_rows(instance: ModelInstance, config: RgcsConfig) -> int:
    """Most rows a strategy table can have: one per subinterval, at most one per grid point."""
    return min(config.num_subintervals, instance.time_steps) + 1


def _batch_size(instance: ModelInstance, config: RgcsConfig) -> int:
    """Strategies per streamed forward pass, from the byte budget of their tables."""
    return max(1, _BATCH_BYTES // (_table_rows(instance, config) * instance.node_count * 3 * 8))


def _score(instance: ModelInstance, config: RgcsConfig, seeds: list[int]) -> np.ndarray:
    """J of the strategies of ``seeds``, scored in one streamed forward pass.

    The members' tables share one array; each member holds its current
    state, never a trajectory.  The node sums are taken over C-contiguous
    arrays and go to the quadrature that objective uses, so each J is
    bit-identical to objective(integrate_forward(instance, strategy)).total.
    """
    batch, points = len(seeds), instance.time_steps + 1
    table = np.empty((batch * _table_rows(instance, config), instance.node_count, 3))
    rows = np.empty((batch, points), dtype=np.intp)   # each member's row of table per grid point
    infection, patch, restriction, recovery = np.empty((4, batch, points))
    end = 0
    for b, seed in enumerate(seeds):
        values, cell = _strategy(instance, replace(config, rng_seed=seed))
        start, end = end, end + len(values)
        table[start:end] = values
        rows[b] = start + cell
        patch[b], restriction[b] = (cost[cell] for cost in _control_sums(table[start:end]))
    for k, x in enumerate(_forward_steps(instance, lambda k: table[rows[:, k]], (batch,))):
        infection[:, k], recovery[:, k] = _state_sums(x)
    return _quadrature(infection, patch, restriction, recovery, instance.dt)[0]


def rgcs_population(instance: ModelInstance, config: RgcsConfig) -> list[dict]:
    """Objective values of population_size random strategies, sorted by (J, seed).

    Strategy i uses seed config.rng_seed + i, so the population is
    reproducible.  Strategies are scored in batches, each one streamed
    forward pass over compact strategy tables; each J equals
    objective(integrate_forward(instance, strategy)).total bit for bit.
    """
    batch = _batch_size(instance, config)
    seeds = [config.rng_seed + i for i in range(config.population_size)]
    entries = []
    for start in range(0, len(seeds), batch):
        chunk = seeds[start:start + batch]
        entries.extend({"seed": seed, "J": float(j)}
                       for seed, j in zip(chunk, _score(instance, config, chunk)))
    entries.sort(key=lambda e: (e["J"], e["seed"]))
    return entries
