"""Experiment harness: canonical-topology runs emitting plot-ready CSV/JSON.

Four experiment families are supported:

* ``exp1_case1`` .. ``exp1_case4`` (or ``exp1`` for all): solve the sweep
  optimality system for one parameter case and emit sampled per-node
  trajectories plus the objective breakdown,
* ``exp2``: objective values of a random-strategy population against the
  sweep optimum.  This is the paper's comparison, and control cost decides
  it: on the canonical seed 7 the best strategy (seed 81) scores J 209.51,
  with infection 4.15, patch 72.24, restriction 150.66 and recovery 17.54,
  against the optimum's infection 3.19, and the lower-bound schedule alone
  (J 19.64) beats every strategy.  So ``optimal_beats_population`` holds
  for any schedule near the lower bound and tests no optimality,
* ``exp3``: forward runs with and without the restricted-environment rates,
  peak infection counts, the percentage reduction, and peak-time snapshots,
* ``exp4_stage1`` .. ``exp4_stage4`` (or ``exp4`` for all): an infection-rate
  sweep; each stage reports peak expected infection counts of an
  unrestrained propagation run alongside the optimally controlled one.

Every family solves in paper mode (``adjoint_mode``), so each "optimal"
output, ``optimal_J`` included, is the fixed point of the published
optimality system, not a minimum of J: on exp1 case 1 a step 1%, 5% or 20%
of the way toward the consistent-mode optimum lowers J from 7.094 to
6.875, 6.028 or 3.249.

Reported "device counts" are expected counts (sums of per-node compartment
probabilities), emitted raw; peak-time snapshots additionally classify each
node by its largest compartment probability.

``reference_values`` blocks carry the figures reported for the original
sixty-device testbed.  That testbed's exact adjacency was never published,
so those numbers are context for the reader, not assertions; all assertions
here are orderings and ranges evaluated on the canonical seeded topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import NetworkGraph, resolve_graph
from .model import (COMPARTMENTS, CONTROL_NAMES, IH, IL, ModelInstance, ModelParams,
                    StateTrajectory, seed_initial_state)
from .dynamics import integrate_forward
from .rgcs import RgcsConfig, rgcs_population
from .serialize import sampled_nodes_csv, totals_csv, write_summary
from .sweep import fbsm_solve

# initial device counts shared by all sixty-device experiments
INITIAL_COUNTS = {"susceptible": 57, "infected_high": 2, "infected_low": 1,
                  "recover_first": 0, "recover_complete": 0}

EXP3_PARAMS = {"horizon": 12.0, "beta_high": 0.004, "beta_low": 0.002,
               "delta_rate": 0.5, "gamma_high_rate": 0.4, "gamma_low_rate": 0.2}
EXP3_REFERENCE = {"peak_IH_uncontrolled": 46, "peak_IH_controlled": 33,
                  "peak_IL": 6, "reduction_pct": 21.66,
                  "uncontrolled_share_pct": 76.66, "controlled_share_pct": 55.0}

EXP4_BETA_HIGH = (0.0021, 0.0022, 0.0023, 0.0024)
EXP4_SHARED = {"beta_low": 0.0020, "horizon": 30.0, "rates": (0.6, 0.35, 0.2),
               "bounds": ((0.1, 0.6), (0.1, 0.3), (0.1, 0.2))}
EXP4_REFERENCE = {"peak_IH": [24, 25, 26, 27], "peak_IL": [17, 16, 15, 14]}

# The solved cases, one row each: the arguments of _instance.  ``rates`` and
# ``bounds`` list the constant control rates and their (lo, hi) boxes in
# CONTROL_NAMES order.
CASES = {
    "exp1_case1": {"beta_high": 0.0004, "beta_low": 0.0002, "horizon": 10.0,
                   "rates": (0.9, 0.6, 0.4), "bounds": ((0.1, 0.8), (0.1, 1.0), (0.1, 0.6))},
    "exp1_case2": {"beta_high": 0.0004, "beta_low": 0.0002, "horizon": 10.0,
                   "rates": (0.9, 0.6, 0.4), "bounds": ((0.1, 0.7), (0.1, 0.5), (0.1, 0.3))},
    "exp1_case3": {"beta_high": 0.0006, "beta_low": 0.0004, "horizon": 10.0,
                   "rates": (0.9, 0.5, 0.1), "bounds": ((0.1, 0.8), (0.1, 1.0), (0.1, 0.6))},
    "exp1_case4": {"beta_high": 0.0006, "beta_low": 0.0004, "horizon": 10.0,
                   "rates": (0.9, 0.5, 0.1), "bounds": ((0.1, 0.7), (0.1, 0.5), (0.1, 0.3))},
    **{f"exp4_stage{stage}": dict(EXP4_SHARED, beta_high=beta_high)
       for stage, beta_high in enumerate(EXP4_BETA_HIGH, start=1)},
}

# every solved case, its family (exp1, exp4), and the single runs exp2 and exp3
EXPERIMENT_IDS = tuple(sorted({"exp2", "exp3", *CASES, *(case.split("_")[0] for case in CASES)}))

# nodes whose trajectories exp1 emits
SAMPLE_NODE_COUNT = 4


@dataclass
class ExperimentSpec:
    """One run; ``rng_seed`` and ``population_size`` follow ``RgcsConfig``'s rules."""

    experiment_id: str
    out_dir: Path
    graph: str | Path = "canonical"
    rng_seed: int = 7              # master seed of the exp2 population
    population_size: int = 100

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment_id!r};"
                             f" expected one of {EXPERIMENT_IDS}")
        self.out_dir = Path(self.out_dir)
        population = RgcsConfig(rng_seed=self.rng_seed, population_size=self.population_size)
        self.rng_seed, self.population_size = population.rng_seed, population.population_size


def snapshot(state_traj: StateTrajectory) -> dict:
    """Classify nodes by dominant compartment at the earliest peak of total IH.

    Returns ``{"snapshot_time": t, "node_classes": [...], "counts": {...}}``:
    the grid time of the peak, each node's dominant compartment name, and
    the number of nodes in each compartment (all five keys, zeros included).
    Ties in the per-node argmax resolve in compartment order S, IH, IL, RF,
    RC (numpy argmax keeps the first maximum).
    """
    totals = state_traj.states[:, :, IH].sum(axis=1)
    k = int(np.argmax(totals))
    full = state_traj.full_states()[k]
    classes = [COMPARTMENTS[c] for c in np.argmax(full, axis=1)]
    counts = {name: int(classes.count(name)) for name in COMPARTMENTS}
    return {"snapshot_time": float(state_traj.time_grid[k]),
            "node_classes": classes, "counts": counts}


def select_sample_nodes(graph: NetworkGraph, initial_state: np.ndarray) -> list[int]:
    """Deterministic choice of the SAMPLE_NODE_COUNT nodes whose trajectories get emitted.

    Order: the first infected-high device, its highest-degree neighbor, then
    the highest-degree node of each room not yet represented (rooms in
    first-appearance order), topped up by global degree rank.  Degree ties
    always break toward the lower index.
    """
    by_degree = np.argsort(-graph.degrees(), kind="stable").tolist()
    seeds = np.flatnonzero(initial_state[:, IH] == 1.0)
    if seeds.size == 0:
        seeds = np.flatnonzero(initial_state[:, IL] == 1.0)
    first = int(seeds[0]) if seeds.size else 0
    neighbors = set(graph.neighbors(first).tolist())
    chosen = [first] + [i for i in by_degree if i in neighbors][:1]
    chosen += [room[0] for room in graph.ranked_rooms() if set(room).isdisjoint(chosen)]
    chosen += [i for i in by_degree if i not in chosen]
    return chosen[:SAMPLE_NODE_COUNT]


def _instance(graph: NetworkGraph, beta_high: float, beta_low: float, horizon: float,
              rates=None, bounds=()) -> ModelInstance:
    """A sixty-device instance seeded with INITIAL_COUNTS.

    ``rates`` are the constant control rates (delta, gamma_high, gamma_low);
    ``bounds`` their (lo, hi) boxes in the same order.  With no bounds, every
    box is [0, 0]; a fixed-rate run never reads it.
    """
    params = ModelParams.from_scalars(graph.node_count, beta_high, beta_low, horizon, *bounds)
    initial = seed_initial_state(graph, **INITIAL_COUNTS)
    return ModelInstance(graph=graph, params=params, initial_state=initial, control_rates=rates)


def build_case_instance(case_id: int, graph: NetworkGraph) -> ModelInstance:
    return _instance(graph, **CASES[f"exp1_case{case_id}"])


def _peak(states: StateTrajectory, column: int) -> float:
    return float(states.states[:, :, column].sum(axis=1).max())


def _write(spec: ExperimentSpec, run_id: str, summary: dict, csvs: dict | None = None) -> dict:
    """Write ``summary.json`` and the ``csvs`` (file name -> text) into
    ``spec.out_dir / run_id``, and return the summary."""
    out = spec.out_dir / run_id
    out.mkdir(parents=True, exist_ok=True)
    write_summary(out / "summary.json", summary)
    for name, text in (csvs or {}).items():
        (out / name).write_text(text)
    return summary


def _run_exp1_case(case_id: str, graph: NetworkGraph, spec: ExperimentSpec) -> dict:
    case = CASES[case_id]
    instance = _instance(graph, **case)
    control, states, _, report = fbsm_solve(instance)
    nodes = select_sample_nodes(graph, instance.initial_state)
    summary = {
        "experiment": case_id,
        "case": {
            "beta_high": case["beta_high"], "beta_low": case["beta_low"],
            "horizon": instance.params.horizon,
            "control_rates": dict(zip(CONTROL_NAMES, case["rates"])),
            "control_bounds": {name: list(box) for name, box in zip(CONTROL_NAMES, case["bounds"])},
        },
        "adjoint_mode": instance.adjoint_mode,
        "sample_nodes": nodes,
        "objective": report.objective.as_dict(),
        "sweep": report.as_dict(),
        "peak_IH": _peak(states, IH),
    }
    return _write(spec, case_id, summary, {"samples.csv": sampled_nodes_csv(states, control, nodes),
                                           "totals.csv": totals_csv(states)})


def population_comparison(instance: ModelInstance, config: RgcsConfig) -> dict:
    """A random-strategy population (sorted by J) next to the sweep optimum,
    which in paper mode is the published system's fixed point, not a minimum of J.

    The population is streamed in batches and needs less memory than the
    solve, which sets the peak: at N=60 the population grows the resident
    set by 4.7 MB and the solve by 5.0 MB.
    """
    strategies = rgcs_population(instance, config)
    report = fbsm_solve(instance)[3]
    return {"strategies": strategies,
            "optimal_J": report.objective.total,
            "optimal_converged": report.converged}


def _run_exp2(graph: NetworkGraph, spec: ExperimentSpec) -> dict:
    instance = build_case_instance(1, graph)
    config = RgcsConfig(rng_seed=spec.rng_seed, population_size=spec.population_size)
    comparison = population_comparison(instance, config)
    population_min = comparison["strategies"][0]["J"]
    summary = {
        "experiment": "exp2",
        "case": {"beta_high": instance.params.beta_high,
                 "beta_low": instance.params.beta_low,
                 "horizon": instance.params.horizon},
        "rgcs": {"num_subintervals": config.num_subintervals,
                 "rng_seed": config.rng_seed,
                 "population_size": config.population_size},
        "population": comparison,
        "population_min_J": population_min,
        "optimal_beats_population": bool(comparison["optimal_J"] < population_min),
    }
    return _write(spec, "exp2", summary)


def _run_exp3(graph: NetworkGraph, spec: ExperimentSpec) -> dict:
    """Forward runs with and without the restricted environment.

    "Uncontrolled" means no restricted environment at all: both restriction
    rates are held at zero while patching stays at its constant rate (which
    never fires because nothing reaches the recover-first compartment).
    """
    p = EXP3_PARAMS
    instance = _instance(graph, p["beta_high"], p["beta_low"], p["horizon"])
    delta = p["delta_rate"]
    runs = {name: integrate_forward(instance, instance.constant_control(delta, *restriction))
            for name, restriction in (("uncontrolled", (0.0, 0.0)),
                                      ("controlled", (p["gamma_high_rate"], p["gamma_low_rate"])))}
    peak_ih = {name: _peak(tr, IH) for name, tr in runs.items()}
    peak_il = {name: _peak(tr, IL) for name, tr in runs.items()}
    reduction = 100.0 * (peak_ih["uncontrolled"] - peak_ih["controlled"]) / peak_ih["uncontrolled"]
    summary = {
        "experiment": "exp3",
        "parameters": dict(EXP3_PARAMS),
        "peak_IH_uncontrolled": peak_ih["uncontrolled"],
        "peak_IH_controlled": peak_ih["controlled"],
        "peak_IL_uncontrolled": peak_il["uncontrolled"],
        "peak_IL_controlled": peak_il["controlled"],
        "reduction_pct": reduction,
        "snapshot_uncontrolled": snapshot(runs["uncontrolled"]),
        "snapshot_controlled": snapshot(runs["controlled"]),
        "reference_values": dict(EXP3_REFERENCE),
    }
    return _write(spec, "exp3", summary, {f"{name}_totals.csv": totals_csv(states)
                                          for name, states in runs.items()})


def _run_exp4_stage(case_id: str, graph: NetworkGraph, spec: ExperimentSpec) -> dict:
    """The optimally controlled run of one infection-rate stage, and its propagation run.

    The propagation run, on the same instance, holds the restriction rates
    at zero (the same unrestrained convention exp3 uses) so the
    infection-rate sensitivity the stage sweep measures is visible: any
    admissible restriction schedule on a sixty-node topology outweighs the
    largest possible growth rate of this stage family, leaving every
    controlled peak at the initial condition.
    """
    case = CASES[case_id]
    instance = _instance(graph, **case)
    control, opt_states, _, report = fbsm_solve(instance)
    prop_states = integrate_forward(instance,
                                    instance.constant_control(case["rates"][0], 0.0, 0.0))
    summary = {
        "experiment": case_id,
        "beta_high": case["beta_high"],
        "beta_low": case["beta_low"],
        "horizon": case["horizon"],
        "peak_IH": _peak(prop_states, IH),
        "peak_IL": _peak(prop_states, IL),
        "peak_IH_optimal": _peak(opt_states, IH),
        "peak_IL_optimal": _peak(opt_states, IL),
        "sweep": report.as_dict(),
    }
    return _write(spec, case_id, summary, {"propagation_totals.csv": totals_csv(prop_states),
                                           "optimal_totals.csv": totals_csv(opt_states)})


def _exp4_orderings(stages: list[dict]) -> dict:
    peaks_ih = [s["peak_IH"] for s in stages]
    peaks_il = [s["peak_IL"] for s in stages]
    return {
        "orderings": {
            "peak_IH_strictly_increasing": bool(
                all(a < b for a, b in zip(peaks_ih, peaks_ih[1:]))),
            "peak_IL_non_increasing": bool(
                all(a >= b for a, b in zip(peaks_il, peaks_il[1:]))),
        },
        "reference_values": dict(EXP4_REFERENCE),
    }


# family id -> (member runner, key of the member list, extra family fields)
_FAMILIES = {
    "exp1": (_run_exp1_case, "cases", lambda cases: {}),
    "exp4": (_run_exp4_stage, "stages", _exp4_orderings),
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one experiment (or a whole family) and write its artifacts."""
    graph = resolve_graph(spec.graph)
    eid = spec.experiment_id
    if eid == "exp2":
        return _run_exp2(graph, spec)
    if eid == "exp3":
        return _run_exp3(graph, spec)
    family = eid.split("_")[0]
    runner, key, extra = _FAMILIES[family]
    if eid in CASES:
        return runner(eid, graph, spec)
    members = [runner(case_id, graph, spec) for case_id in CASES
               if case_id.startswith(family + "_")]
    summary = {"experiment": eid, key: members, **extra(members)}
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    write_summary(spec.out_dir / f"{eid}_summary.json", summary)
    return summary
