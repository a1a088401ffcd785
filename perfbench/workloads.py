"""The benchmark's workloads: seeded set-up, the timed parts, output checks.

Every workload drives malctrl through its public API only.  ``setup`` builds
the inputs from the benchmark seed (the same seed gives the same inputs).
``parts`` lists the public calls one repetition makes, in order; each is
timed on its own.  ``check`` verifies what the parts returned or wrote.
``tiny=True`` shrinks a workload so the benchmark's own tests run in
seconds; the checks are the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import malctrl as mc
from malctrl.experiments import build_case_instance
from malctrl.model import IH, TRAJECTORY_TOL

# J of each exp1 case (paper mode, 300 steps, sweep residual below 1e-4), as
# recorded when this benchmark was written.  A change in the solver's
# arithmetic order moves J by about 1e-15; a change in what it computes moves
# it by far more than J_REL_TOL.
EXP1_REFERENCE_J = {1: 7.093508028654876, 2: 8.731427804334345,
                    3: 7.225143409136795, 4: 8.964320417264153}
J_REL_TOL = 1e-6
# artifacts print values with 12 significant digits
CSV_TOL = 1e-9
# the random-strategy J is recomputed with the same code, so only the JSON
# round trip may differ
RECOMPUTED_J_REL_TOL = 1e-12
# jump process against the ODE: a band of standard errors plus a floor for
# the mean-field approximation, in expected devices
CTMC_STD_ERRORS = 6.0
CTMC_FLOOR = 0.1


class Checks:
    """Output checks of one run: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def check_states(checks: Checks, label: str, states: np.ndarray) -> None:
    """The four stored compartments and the derived RC stay in [0, 1] within TRAJECTORY_TOL."""
    rc = 1.0 - states.sum(axis=-1)
    lo = min(states.min(), rc.min())
    hi = max(states.max(), rc.max())
    checks.check(f"{label}: states normalized",
                 lo >= -TRAJECTORY_TOL and hi <= 1.0 + TRAJECTORY_TOL,
                 f"min {lo}, max {hi}")


def check_box(checks: Checks, label: str, controls: np.ndarray, lower: np.ndarray,
              upper: np.ndarray, tol: float = 0.0) -> None:
    """Controls of shape (..., N, 3) lie inside the per-node box [lower, upper]."""
    inside = (controls >= lower - tol).all() and (controls <= upper + tol).all()
    checks.check(f"{label}: controls inside their box", inside)


def _check_summary_file(checks: Checks, label: str, path: Path, summary: dict) -> None:
    on_disk = json.loads(path.read_text()) if path.is_file() else None
    checks.check(f"{label}: summary.json matches the returned summary", on_disk == summary)


def _check_reference_j(checks: Checks, label: str, j: float, case: int) -> None:
    reference = EXP1_REFERENCE_J[case]
    checks.check(f"{label}: J matches the paper-mode reference",
                 abs(j - reference) <= J_REL_TOL * abs(reference),
                 f"J {j!r}, reference {reference!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[..., Any]                             # (seed, tiny=False) -> context
    parts: Callable[[Any], list[Callable[[Path], Any]]]   # context -> calls of (output dir)
    check: Callable[[Any, list, Path, Checks], None]      # gets the outputs of the parts

    def body(self, ctx, out_dir: Path) -> list:
        """One repetition, untimed: the outputs of every part, in order."""
        return [part(out_dir) for part in self.parts(ctx)]


# ---------------------------------------------------------------------------
# exp1_solve: the published time-to-solution, four FBSM solves at N=60

@dataclass(frozen=True)
class Exp1Context:
    cases: tuple[int, ...]                 # run order, permuted by the seed
    instances: dict[int, mc.ModelInstance]


def exp1_setup(seed: int, tiny: bool = False) -> Exp1Context:
    order = np.random.default_rng(seed).permutation([1, 2, 3, 4])
    cases = (1,) if tiny else tuple(int(c) for c in order)
    graph = mc.canonical_graph()
    return Exp1Context(cases, {c: build_case_instance(c, graph) for c in cases})


def exp1_parts(ctx: Exp1Context) -> list:
    return [lambda out_dir, c=c: mc.run_experiment(
                mc.ExperimentSpec(f"exp1_case{c}", out_dir, graph="canonical"))
            for c in ctx.cases]


def exp1_check(ctx: Exp1Context, summaries: list[dict], out_dir: Path, checks: Checks) -> None:
    checks.check("exp1: one summary per case", len(summaries) == len(ctx.cases))
    for case, summary in zip(ctx.cases, summaries):
        label = f"exp1_case{case}"
        instance = ctx.instances[case]
        n, steps = instance.node_count, instance.time_steps
        case_dir = out_dir / label
        checks.check(f"{label}: sweep converged", summary["sweep"]["converged"])
        _check_reference_j(checks, label, summary["objective"]["J"], case)
        _check_summary_file(checks, label, case_dir / "summary.json", summary)

        totals = np.loadtxt(case_dir / "totals.csv", delimiter=",", skiprows=1, ndmin=2)
        checks.check(f"{label}: totals.csv has one row per grid point",
                     totals.shape == (steps + 1, 6), f"shape {totals.shape}")
        counts = totals[:, 1:]
        checks.check(f"{label}: compartment totals sum to N",
                     np.abs(counts.sum(axis=1) - n).max() <= n * CSV_TOL)

        samples = np.loadtxt(case_dir / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        nodes = summary["sample_nodes"]
        checks.check(f"{label}: samples.csv has one row per grid point and node",
                     samples.shape == ((steps + 1) * len(nodes), 10), f"shape {samples.shape}")
        full = samples[:, 2:7]
        checks.check(f"{label}: sampled states normalized",
                     full.min() >= -TRAJECTORY_TOL and full.max() <= 1.0 + TRAJECTORY_TOL
                     and np.abs(full.sum(axis=1) - 1.0).max() <= TRAJECTORY_TOL)
        node_ids = samples[:, 1].astype(int)
        check_box(checks, label, samples[:, 7:10],
                  instance.params.lower_bounds()[node_ids],
                  instance.params.upper_bounds()[node_ids], tol=CSV_TOL)


# ---------------------------------------------------------------------------
# rgcs_population: 100 random strategies (forward passes) plus one solve

@dataclass(frozen=True)
class RgcsContext:
    rng_seed: int
    population_size: int
    instance: mc.ModelInstance


def rgcs_setup(seed: int, tiny: bool = False) -> RgcsContext:
    rng_seed = int(np.random.default_rng(seed).integers(2**31))
    return RgcsContext(rng_seed, 5 if tiny else 100, build_case_instance(1, mc.canonical_graph()))


def rgcs_parts(ctx: RgcsContext) -> list:
    return [lambda out_dir: mc.run_experiment(mc.ExperimentSpec(
        "exp2", out_dir, graph="canonical", rng_seed=ctx.rng_seed,
        population_size=ctx.population_size))]


def rgcs_check(ctx: RgcsContext, outputs: list, out_dir: Path, checks: Checks) -> None:
    summary, = outputs
    population = summary["population"]
    strategies = population["strategies"]
    checks.check("exp2: optimal_J < population_min_J",
                 population["optimal_J"] < summary["population_min_J"],
                 f"{population['optimal_J']!r} vs {summary['population_min_J']!r}")
    checks.check("exp2: the population holds each seed once",
                 sorted(s["seed"] for s in strategies)
                 == list(range(ctx.rng_seed, ctx.rng_seed + ctx.population_size)))
    js = [s["J"] for s in strategies]
    checks.check("exp2: population sorted by J with its minimum reported",
                 js == sorted(js) and summary["population_min_J"] == js[0])
    checks.check("exp2: the sweep optimum converged", population["optimal_converged"])
    _check_reference_j(checks, "exp2 optimum", population["optimal_J"], 1)
    _check_summary_file(checks, "exp2", out_dir / "exp2" / "summary.json", summary)

    instance = ctx.instance
    lo, hi = instance.params.lower_bounds(), instance.params.upper_bounds()
    for rank, entry in (("best", strategies[0]), ("worst", strategies[-1])):
        label = f"exp2 {rank} strategy"
        strategy = mc.rgcs_generate(instance, mc.RgcsConfig(rng_seed=entry["seed"],
                                                            population_size=1))
        states = mc.integrate_forward(instance, strategy)
        j = mc.objective(states, strategy).total
        check_box(checks, label, strategy.controls, lo, hi)
        check_states(checks, label, states.states)
        checks.check(f"{label}: J reproduces",
                     abs(j - entry["J"]) <= RECOMPUTED_J_REL_TOL * abs(j),
                     f"{entry['J']!r} vs recomputed {j!r}")


# ---------------------------------------------------------------------------
# sparse_n1000: one capped sweep on a 1000-device graph at about 1% density

@dataclass(frozen=True)
class SparseContext:
    instance: mc.ModelInstance
    initial_ih: float


def sparse_setup(seed: int, tiny: bool = False) -> SparseContext:
    rooms, per_room, steps = (2, 50, 25) if tiny else (20, 50, 100)
    n = rooms * per_room
    graph = mc.generate_smart_home(mc.SmartHomeSpec(
        total_devices=n, rooms=tuple((f"room{r:02d}", per_room) for r in range(rooms)),
        intra_room_density=0.2, inter_room_hub=True,
        rng_seed=int(np.random.default_rng(seed).integers(2**31))))
    initial = mc.seed_initial_state(graph, susceptible=n - 6, infected_high=4, infected_low=2)
    params = mc.ModelParams.from_scalars(n, beta_high=0.05, beta_low=0.025, horizon=10.0,
                                         delta=(0.1, 0.8), gamma_high=(0.1, 1.0),
                                         gamma_low=(0.1, 0.6))
    instance = mc.ModelInstance(graph=graph, params=params, initial_state=initial,
                                time_steps=steps, max_iterations=1)
    return SparseContext(instance, float(initial[:, IH].sum()))


def sparse_parts(ctx: SparseContext) -> list:
    return [lambda out_dir: mc.fbsm_solve(ctx.instance)]


def sparse_check(ctx: SparseContext, outputs: list, out_dir: Path, checks: Checks) -> None:
    (control, states, adjoint, report), = outputs
    params = ctx.instance.params
    check_states(checks, "sparse", states.states)
    check_box(checks, "sparse", control.controls, params.lower_bounds(), params.upper_bounds())
    peak = states.states[:, :, IH].sum(axis=1).max()
    checks.check("sparse: peak IH above the initial count", peak > ctx.initial_ih,
                 f"peak {peak}, initial {ctx.initial_ih}")
    checks.check("sparse: sweep ran to its iteration cap",
                 report.iterations_used == ctx.instance.max_iterations)
    checks.check("sparse: costates finite", np.isfinite(adjoint.costates).all())


# ---------------------------------------------------------------------------
# ctmc_oracle: the jump process on the canonical case-1 instance

@dataclass(frozen=True)
class CtmcContext:
    instance: mc.ModelInstance
    control: mc.ControlTrajectory
    seeds: tuple[int, ...]
    replicas: int


def ctmc_setup(seed: int, tiny: bool = False) -> CtmcContext:
    instance = build_case_instance(1, mc.canonical_graph())
    calls, replicas = (1, 200) if tiny else (4, 2000)
    seeds = tuple(int(s) for s in np.random.default_rng(seed).integers(2**31, size=calls))
    return CtmcContext(instance, instance.fixed_control_trajectory(), seeds, replicas)


def ctmc_parts(ctx: CtmcContext) -> list:
    return [lambda out_dir, s=s: mc.ctmc_simulate(ctx.instance, ctx.control, s, ctx.replicas)
            for s in ctx.seeds]


def ctmc_check(ctx: CtmcContext, summaries: list, out_dir: Path, checks: Checks) -> None:
    n = ctx.instance.node_count
    ode = mc.integrate_forward(ctx.instance, ctx.control)
    check_states(checks, "ctmc ODE reference", ode.states)
    # the jump process runs under the instance's fixed rates: a degenerate box
    rates = np.broadcast_to(np.asarray(ctx.instance.control_rates), (n, 3))
    check_box(checks, "ctmc", ctx.control.controls, rates, rates)
    ode_totals = ode.compartment_totals()
    checks.check("ctmc: one summary per call", len(summaries) == len(ctx.seeds))
    for seed, summary in zip(ctx.seeds, summaries):
        label = f"ctmc seed {seed}"
        counts = summary.mean_counts
        checks.check(f"{label}: replica count", summary.num_runs == ctx.replicas)
        checks.check(f"{label}: counts sum to N at every grid point",
                     np.abs(counts.sum(axis=1) - n).max() <= n * 1e-12)
        gap = np.abs(counts - ode_totals)
        allowed = CTMC_STD_ERRORS * summary.std_error + CTMC_FLOOR
        checks.check(f"{label}: totals within tolerance of integrate_forward",
                     (gap <= allowed).all(), f"largest gap {gap.max():.4g} devices")


WORKLOADS = {w.name: w for w in (
    Workload("exp1_solve", exp1_setup, exp1_parts, exp1_check),
    Workload("rgcs_population", rgcs_setup, rgcs_parts, rgcs_check),
    Workload("sparse_n1000", sparse_setup, sparse_parts, sparse_check),
    Workload("ctmc_oracle", ctmc_setup, ctmc_parts, ctmc_check),
)}
