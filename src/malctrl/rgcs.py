"""Randomly generated piecewise-constant control strategies (comparison baseline)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import integrate_forward
from .model import ControlTrajectory, ModelInstance
from .objective import objective

# strategies scored per batched forward pass: about 2 MiB of stacked controls,
# which is 4 strategies at N=60 and 300 steps.  Each batch also holds its
# (B, K+1, N, 4) states, 4/3 of the controls' bytes.  Larger batches buy
# little speed and cost resident memory.
_BATCH_BYTES = 2 * 2**20


@dataclass(frozen=True)
class RgcsConfig:
    num_subintervals: int = 100
    rng_seed: int = 0
    population_size: int = 100

    def __post_init__(self):
        if self.num_subintervals < 1:
            raise ValueError("num_subintervals must be at least 1")
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


def random_partition(horizon: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n interior cut points, sorted, strictly increasing inside (0, horizon).

    Exact duplicates (probability zero in real arithmetic, possible in
    floats) are nudged apart by one ulp.
    """
    cuts = np.sort(rng.uniform(0.0, horizon, size=n))
    for i in range(1, n):
        if cuts[i] <= cuts[i - 1]:
            cuts[i] = np.nextafter(cuts[i - 1], horizon)
    return cuts


def rgcs_generate(instance: ModelInstance, config: RgcsConfig) -> ControlTrajectory:
    """Draw one admissible piecewise-constant strategy, deterministic per seed.

    The horizon is split at num_subintervals uniform cut points; on each of
    the resulting subintervals every node's three control components are
    drawn uniformly from their boxes and held constant.  The strategy is then
    resampled onto the instance grid left-constantly, so the final grid point
    carries the last subinterval's values.
    """
    rng = np.random.default_rng(config.rng_seed)
    horizon = instance.params.horizon
    cuts = random_partition(horizon, config.num_subintervals, rng)
    lo, hi = instance.params.lower, instance.params.upper   # (N, 3) each
    draws = rng.random((instance.node_count, config.num_subintervals + 1, 3))
    values = lo[:, None, :] + (hi - lo)[:, None, :] * draws
    grid = instance.time_grid()
    cell = np.searchsorted(cuts, grid, side="right")
    controls = values[:, cell, :].transpose(1, 0, 2)
    return ControlTrajectory(time_grid=grid, controls=controls)


def _batch_size(instance: ModelInstance) -> int:
    """Strategies per batched forward pass, from the byte budget of their controls."""
    control_bytes = (instance.time_steps + 1) * instance.node_count * 3 * 8
    return max(1, _BATCH_BYTES // control_bytes)


def rgcs_population(instance: ModelInstance, config: RgcsConfig) -> list[dict]:
    """Objective values of population_size random strategies, sorted by (J, seed).

    Strategy i uses seed config.rng_seed + i, so the population is
    reproducible.  Strategies are scored in batches of a few, each batch a
    stack that one integrate_forward and one objective call score; each J
    equals objective(integrate_forward(instance, strategy)).total bit for bit.
    """
    grid = instance.time_grid()
    batch = _batch_size(instance)
    seeds = [config.rng_seed + i for i in range(config.population_size)]
    entries = []
    for start in range(0, len(seeds), batch):
        chunk = seeds[start:start + batch]
        stack = ControlTrajectory(time_grid=grid, controls=np.stack([
            rgcs_generate(instance, replace(config, rng_seed=seed)).controls for seed in chunk]))
        totals = objective(integrate_forward(instance, stack), stack).total
        entries.extend({"seed": seed, "J": float(j)} for seed, j in zip(chunk, totals))
    entries.sort(key=lambda e: (e["J"], e["seed"]))
    return entries
