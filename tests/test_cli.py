import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from malctrl.cli import main
from malctrl.experiments import ExperimentSpec, run_experiment
from malctrl.graphs import graph_from_json
from malctrl.serialize import summary_json


@pytest.fixture
def runner():
    return CliRunner()


SPEC = {"total_devices": 8, "rooms": [["a", 4], ["b", 4]],
        "intra_room_density": 0.7, "inter_room_hub": True, "rng_seed": 11}


def small_instance_config(graph_path):
    return {
        "graph": str(graph_path),
        "beta_high": 0.05, "beta_low": 0.02, "horizon": 4.0,
        "initial_state": {"susceptible": 6, "infected_high": 1, "infected_low": 1},
        "control_bounds": {"delta": [0.1, 0.8], "gamma_high": [0.1, 1.0],
                           "gamma_low": [0.1, 0.6]},
        "solver": {"time_steps": 80},
    }


def write_instance(runner, tmp_path, solver=None):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                         "--out", str(graph_path)])
    config = small_instance_config(graph_path)
    config["solver"].update(solver or {})
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(config))
    return inst_path


def optimize(runner, inst_path, out_dir, *flags):
    return runner.invoke(main, ["optimize", "--instance", str(inst_path), *flags,
                                "--out-prefix", str(out_dir)])


def test_dataset_generate_and_validate(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "graph.json"
    spec_path.write_text(json.dumps(SPEC))
    result = runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                                  "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    graph = graph_from_json(out_path.read_text())
    assert graph.node_count == 8

    result = runner.invoke(main, ["dataset", "validate", str(out_path)])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_dataset_validate_rejects_bad_matrix(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "adjacency": [[0, 1], [0, 0]],
                               "labels": ["a", "b"], "rooms": ["r", "r"]}))
    result = runner.invoke(main, ["dataset", "validate", str(bad)])
    assert result.exit_code == 1
    assert "invalid" in result.output


def test_optimize_writes_artifacts(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path)
    out_dir = tmp_path / "run"
    result = runner.invoke(main, ["optimize", "--instance", str(inst_path),
                                  "--adjoint-mode", "consistent",
                                  "--out-prefix", str(out_dir)])
    assert result.exit_code == 0, result.output
    for name in ("control.csv", "state.csv", "adjoint.csv",
                 "sweep_report.json", "objective.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "sweep_report.json").read_text())
    assert report["converged"]
    state_header = (out_dir / "state.csv").read_text().splitlines()[0]
    assert state_header == "t,node,S,IH,IL,RF,RC"
    adjoint_header = (out_dir / "adjoint.csv").read_text().splitlines()[0]
    assert adjoint_header == "t,node,lamS,lamH,lamL,lamF"


def test_rgcs_compare_writes_sorted_population(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path)
    out_path = tmp_path / "rgcs.json"
    result = runner.invoke(main, ["rgcs-compare", "--instance", str(inst_path),
                                  "--n", "20", "--population", "10",
                                  "--seed", "3", "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    data = json.loads(out_path.read_text())
    js = [s["J"] for s in data["strategies"]]
    assert len(js) == 10
    assert js == sorted(js)
    assert "optimal_J" in data


def test_rgcs_compare_writes_the_exp2_population_block(runner, tmp_path):
    out_path = tmp_path / "rgcs.json"
    instance = Path(__file__).resolve().parents[1] / "configs" / "case1_instance.json"
    result = runner.invoke(main, ["rgcs-compare", "--instance", str(instance),
                                  "--n", "100", "--population", "5", "--seed", "7",
                                  "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    summary = run_experiment(ExperimentSpec("exp2", tmp_path / "exp", rng_seed=7,
                                            population_size=5))
    assert out_path.read_text() == summary_json(summary["population"])


def test_experiment_run_exp3(runner, tmp_path):
    result = runner.invoke(main, ["experiment", "run", "--id", "exp3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "exp3" / "summary.json").read_text())
    assert summary["peak_IH_controlled"] < summary["peak_IH_uncontrolled"]


def test_times_printed_with_nine_significant_digits(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                         "--out", str(graph_path)])
    config = small_instance_config(graph_path)
    config["horizon"] = 1.0
    config["solver"]["time_steps"] = 3
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    runner.invoke(main, ["optimize", "--instance", str(inst_path),
                         "--out-prefix", str(out_dir)])
    lines = (out_dir / "state.csv").read_text().splitlines()
    times = {line.split(",")[0] for line in lines[1:]}
    assert times == {"0", "0.333333333", "0.666666667", "1"}


def test_dataset_generate_creates_parent_dir(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    out_path = tmp_path / "new" / "dir" / "graph.json"
    result = runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                                  "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    assert graph_from_json(out_path.read_text()).node_count == 8


# case -> (topology file text, text the message names)
UNREADABLE = {
    "no-adjacency": ('{"n": 2, "labels": ["a", "b"]}', "no adjacency matrix"),
    "malformed-json": ('{"n": 2, "adjacency": [[0, 1', "Expecting"),
    "n-string": ('{"adjacency": [[0, 1], [1, 0]], "n": "two"}', "n='two'"),
    "n-null": ('{"adjacency": [[0, 1], [1, 0]], "n": null}', "n=None"),
    "n-fraction": ('{"adjacency": [[0, 1], [1, 0]], "n": 2.5}', "n=2.5"),
    "labels-not-a-list": ('{"adjacency": [[0, 1], [1, 0]], "labels": 5}', "not iterable"),
    "non-binary-float": ('{"adjacency": [[0, 0.5], [0.5, 0]]}', "adjacency[0,1] = 0.5 is not 0 or 1"),
    "non-binary-int": ('{"adjacency": [[0, 2], [2, 0]]}', "adjacency[0,1] = 2 is not 0 or 1"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_dataset_validate_reports_unreadable_topology(runner, tmp_path, case):
    text, named = UNREADABLE[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    result = runner.invoke(main, ["dataset", "validate", str(bad)])
    assert result.exit_code == 1
    assert result.output.startswith("invalid: ") and named in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_optimize_max_iter_flag(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path)
    result = optimize(runner, inst_path, tmp_path / "run", "--max-iter", "1")
    assert result.exit_code == 2, result.output
    report = json.loads((tmp_path / "run" / "sweep_report.json").read_text())
    assert report["iterations_used"] == 1 and not report["converged"]


def test_optimize_eps_flag(runner, tmp_path):
    # the first residual measures the whole state trajectory, far above 100
    inst_path = write_instance(runner, tmp_path)
    result = optimize(runner, inst_path, tmp_path / "run", "--eps", "100")
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "run" / "sweep_report.json").read_text())
    assert report["iterations_used"] == 1 and report["converged"]


def test_optimize_adjoint_mode_flag_overrides_instance(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path, {"adjoint_mode": "consistent"})
    objectives = {}
    for name, flags in (("default", ()), ("paper", ("--adjoint-mode", "paper")),
                        ("consistent", ("--adjoint-mode", "consistent"))):
        result = optimize(runner, inst_path, tmp_path / name, *flags)
        assert result.exit_code == 0, result.output
        objectives[name] = (tmp_path / name / "objective.json").read_text()
    assert objectives["default"] == objectives["consistent"]
    assert json.loads(objectives["paper"])["J"] != json.loads(objectives["consistent"])["J"]


def test_optimize_rejects_bad_omega_before_writing(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path)
    result = optimize(runner, inst_path, tmp_path / "run", "--omega", "1.5")
    assert result.exit_code == 1
    assert "relaxation_weight" in result.output
    assert not (tmp_path / "run").exists()


def test_optimize_rejects_unknown_solver_key(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path, {"max_iter": 3})
    result = optimize(runner, inst_path, tmp_path / "run")
    assert result.exit_code == 1
    assert "max_iter" in result.output
    assert not (tmp_path / "run").exists()


def spec_file(tmp_path, **changes):
    spec = {key: value for key, value in dict(SPEC, **changes).items() if value is not None}
    path = tmp_path / "bad_spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def edited_instance(runner, tmp_path, edit):
    inst_path = write_instance(runner, tmp_path)
    config = json.loads(inst_path.read_text())
    edit(config)
    inst_path.write_text(json.dumps(config))  # nan and inf become JSON's NaN and Infinity
    return str(inst_path)


def optimize_args(edit):
    return lambda runner, tmp, out: ["optimize", "--instance", edited_instance(runner, tmp, edit),
                                     "--out-prefix", out]


# case -> (text the error names, (runner, tmp_path, output path) -> command line)
BAD_INPUT = {
    "optimize-missing-beta_high": ("beta_high", optimize_args(lambda c: c.pop("beta_high"))),
    "optimize-delta-NaN": ("finite 0 <= lo <= hi for delta", optimize_args(
        lambda c: c["control_bounds"].update(delta=[float("nan"), 0.8]))),
    "optimize-horizon-Infinity": ("horizon must be positive and finite", optimize_args(
        lambda c: c.update(horizon=float("inf")))),
    "optimize-delta-scalar": ("delta bounds must be a (lo, hi) pair", optimize_args(
        lambda c: c["control_bounds"].update(delta=0.5))),
    "rgcs-compare-n-zero": ("num_subintervals", lambda runner, tmp, out: [
        "rgcs-compare", "--instance", str(write_instance(runner, tmp)), "--n", "0", "--out", out]),
    "rgcs-compare-negative-seed": ("rng_seed must be non-negative, got -1", lambda runner, tmp, out: [
        "rgcs-compare", "--instance", str(write_instance(runner, tmp)), "--seed", "-1",
        "--out", out]),
    "experiment-missing-graph": ("nothere.json", lambda runner, tmp, out: [
        "experiment", "run", "--id", "exp3", "--graph", str(tmp / "nothere.json"), "--out", out]),
    "experiment-negative-seed": ("rng_seed must be non-negative, got -1", lambda runner, tmp, out: [
        "experiment", "run", "--id", "exp2", "--seed", "-1", "--out", out]),
    "generate-empty-room": ("0 devices", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=[["a", 8], ["b", 0]]), "--out", out]),
    "generate-missing-density": ("intra_room_density", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, intra_room_density=None), "--out", out]),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_reported_before_writing(runner, tmp_path, case):
    named, args = BAD_INPUT[case]
    out = tmp_path / "out"
    result = runner.invoke(main, args(runner, tmp_path, str(out)))
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: ") and named in result.stderr
    assert not out.exists()
