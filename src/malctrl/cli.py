"""Command-line interface."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import graphs
from .experiments import EXPERIMENT_IDS, ExperimentSpec, population_comparison, run_experiment
from .model import COMPARTMENTS, CONTROL_COLUMNS, COSTATE_COLUMNS, load_instance
from .rgcs import RgcsConfig
from .serialize import node_csv, summary_json, write_summary
from .sweep import fbsm_solve


_INPUT_ERRORS = (ValueError, TypeError, OSError)  # what reading bad input raises


@contextmanager
def _bad_input():
    """Bad input ends a command with ``Error: ...``, exit 1; solver failures pass through."""
    try:
        yield
    except _INPUT_ERRORS as err:
        raise click.ClickException(str(err)) from err


@click.group()
def main():
    """Malware-propagation control toolkit for IoT network graphs."""


@main.group()
def dataset():
    """Generate and validate topology files."""


@dataset.command("generate")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, path_type=Path),
              help="Smart-home generator spec (JSON).")
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def dataset_generate(spec_path: Path, out_path: Path):
    """Generate a seeded smart-home topology."""
    with _bad_input():
        graph = graphs.generate_smart_home(graphs.load_spec(spec_path))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    graphs.save_graph(graph, out_path)
    click.echo(f"wrote {graph.node_count}-node graph to {out_path}")


@dataset.command("validate")
@click.argument("path", type=click.Path(exists=True, path_type=Path))
def dataset_validate(path: Path):
    """Check a topology file against the structural invariants."""
    try:
        graph = graphs.load_graph(path)
    except _INPUT_ERRORS as err:
        click.echo(f"invalid: {err}", err=True)
        sys.exit(1)
    click.echo(f"valid: {graph.node_count} nodes, {int(graph.adjacency.sum()) // 2} links")


@main.command()
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--out-prefix", "out_dir", required=True, type=click.Path(path_type=Path))
def optimize(instance_path: Path, out_dir: Path):
    """Solve the optimality system and write control/state/adjoint CSVs.

    The instance's solver block sets every solver option.
    """
    with _bad_input():
        instance = load_instance(instance_path)
    control, states, adjoints, report = fbsm_solve(instance)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "control.csv").write_text(
        node_csv(CONTROL_COLUMNS, control.time_grid, control.controls))
    (out_dir / "state.csv").write_text(
        node_csv(COMPARTMENTS, states.time_grid, states.full_states()))
    (out_dir / "adjoint.csv").write_text(
        node_csv(COSTATE_COLUMNS, adjoints.time_grid, adjoints.costates))
    write_summary(out_dir / "sweep_report.json", report.as_dict())
    write_summary(out_dir / "objective.json", report.objective.as_dict())
    status = "converged" if report.converged else "did not converge"
    click.echo(f"{status} after {report.iterations_used} iterations"
               f" (residual {report.final_residual:.3e}); artifacts in {out_dir}")
    if not report.converged:
        sys.exit(2)


@main.command("rgcs-compare")
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, path_type=Path))
@click.option("--n", "num_subintervals", type=int, default=100, show_default=True)
@click.option("--population", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
def rgcs_compare(instance_path: Path, num_subintervals: int, population: int,
                 seed: int, out_path: Path):
    """Score a random-strategy population against the sweep optimum."""
    with _bad_input():
        instance = load_instance(instance_path)
        config = RgcsConfig(num_subintervals=num_subintervals, rng_seed=seed,
                            population_size=population)
    comparison = population_comparison(instance, config)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(summary_json(comparison))
    best = comparison["strategies"][0]["J"]
    click.echo(f"optimal J = {comparison['optimal_J']:.6g}, best random J = {best:.6g}")


@main.group()
def experiment():
    """Run the canonical-topology experiment suite."""


@experiment.command("run")
@click.option("--id", "experiment_id", required=True, type=click.Choice(EXPERIMENT_IDS))
@click.option("--graph", "graph_ref", default="canonical", show_default=True,
              help='Either "canonical" or a path to a topology JSON.')
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=7, show_default=True,
              help="Master seed of the exp2 strategy population.")
def experiment_run(experiment_id: str, graph_ref: str, out_dir: Path, seed: int):
    """Run one experiment (or family) and write its artifacts."""
    with _bad_input():  # the graph and the seed are the only inputs
        run_experiment(ExperimentSpec(experiment_id=experiment_id, out_dir=out_dir,
                                      graph=graph_ref, rng_seed=seed))
    click.echo(f"{experiment_id} artifacts written under {out_dir}")


if __name__ == "__main__":
    main()
