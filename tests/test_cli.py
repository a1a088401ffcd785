import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from malctrl.cli import main
from malctrl.experiments import ExperimentSpec, run_experiment
from malctrl.graphs import graph_from_json
from malctrl.model import load_instance
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


def write_graph(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                         "--out", str(graph_path)])
    return graph_path


def write_instance(runner, tmp_path, solver=None):
    config = small_instance_config(write_graph(runner, tmp_path))
    config["solver"].update(solver or {})
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(config))
    return inst_path


def optimize(runner, inst_path, out_dir):
    return runner.invoke(main, ["optimize", "--instance", str(inst_path),
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
    inst_path = write_instance(runner, tmp_path, {"adjoint_mode": "consistent"})
    out_dir = tmp_path / "run"
    result = optimize(runner, inst_path, out_dir)
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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CASE1 = CONFIGS / "case1_instance.json"


# output directory -> (keys set in the case-1 solver block, exit code); a cap of
# 3 iterations pins the non-converged branch
OPTIMIZE_RUNS = {
    "optimize_paper": ({}, 0),
    "optimize_consistent": ({"adjoint_mode": "consistent"}, 0),
    "optimize_max_iter_3": ({"max_iterations": 3}, 2),
}


@pytest.mark.parametrize("run", OPTIMIZE_RUNS)
def test_optimize_case1_artifacts_match_recorded_digests(runner, tmp_path, recorded_artifacts, run):
    solver, exit_code = OPTIMIZE_RUNS[run]
    config = json.loads(CASE1.read_text())
    config["solver"].update(solver)
    inst_path = tmp_path / "instance.json"  # outside the hashed directory
    inst_path.write_text(json.dumps(config))
    result = optimize(runner, inst_path, tmp_path / "out" / run)
    assert result.exit_code == exit_code, result.output
    recorded_artifacts(tmp_path / "out")


def test_rgcs_compare_population_20_matches_recorded_digest(runner, tmp_path, recorded_artifacts):
    result = runner.invoke(main, ["rgcs-compare", "--instance", str(CASE1),
                                  "--population", "20", "--out", str(tmp_path / "rgcs_compare_20.json")])
    assert result.exit_code == 0, result.output
    recorded_artifacts(tmp_path)


def test_dataset_generate_canonical_matches_recorded_digest(runner, tmp_path, recorded_artifacts):
    result = runner.invoke(main, ["dataset", "generate", "--spec",
                                  str(CONFIGS / "canonical_spec.json"),
                                  "--out", str(tmp_path / "canonical_graph.json")])
    assert result.exit_code == 0, result.output
    recorded_artifacts(tmp_path)


def test_rgcs_compare_writes_the_exp2_population_block(runner, tmp_path, recorded_artifacts):
    out_path = tmp_path / "rgcs.json"
    result = runner.invoke(main, ["rgcs-compare", "--instance", str(CASE1),
                                  "--n", "100", "--population", "5", "--seed", "7",
                                  "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    summary = run_experiment(ExperimentSpec("exp2", tmp_path / "exp", rng_seed=7,
                                            population_size=5))
    assert out_path.read_text() == summary_json(summary["population"])
    recorded_artifacts(tmp_path / "exp")


def test_experiment_run_exp3(runner, tmp_path):
    result = runner.invoke(main, ["experiment", "run", "--id", "exp3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "exp3" / "summary.json").read_text())
    assert summary["peak_IH_controlled"] < summary["peak_IH_uncontrolled"]


def test_times_printed_with_nine_significant_digits(runner, tmp_path):
    config = small_instance_config(write_graph(runner, tmp_path))
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
    "labels-not-a-list": ('{"adjacency": [[0, 1], [1, 0]], "labels": 5}', "labels"),
    "labels-string": ('{"adjacency": [[0, 1], [1, 0]], "labels": "ab"}', "labels must be a list"),
    "rooms-not-a-list": ('{"adjacency": [[0, 1], [1, 0]], "rooms": 5}', "rooms must be a list"),
    "non-binary-float": ('{"adjacency": [[0, 0.5], [0.5, 0]]}', "adjacency[0,1] = 0.5 is not 0 or 1"),
    "non-binary-int": ('{"adjacency": [[0, 2], [2, 0]]}', "adjacency[0,1] = 2 is not 0 or 1"),
    "adjacency-booleans": ('{"adjacency": [[false, true], [true, false]]}', "adjacency[0, 0]"),
    "adjacency-some-booleans": ('{"adjacency": [[0, true], [true, 0]]}', "adjacency[0, 1]"),
    "adjacency-ragged": ('{"adjacency": [[0, 1], [1]]}', "adjacency must be a regular array"),
    "adjacency-strings": ('{"adjacency": [["0", "1"], ["1", "0"]]}', "adjacency[0, 0]"),
    "adjacency-nulls": ('{"adjacency": [[null, 1], [1, null]]}', "adjacency[0, 0]"),
    "adjacency-one-dimensional": ('{"adjacency": [0, 1]}', "adjacency must be an array of shape"),
    "adjacency-huge-int": ('{"adjacency": [[0, 1%s], [1, 0]]}' % ("0" * 400),
                           "adjacency holds an integer too large for a float"),
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


def test_optimize_stops_at_max_iterations(runner, tmp_path):
    inst_path = write_instance(runner, tmp_path, {"max_iterations": 1})
    result = optimize(runner, inst_path, tmp_path / "run")
    assert result.exit_code == 2, result.output
    report = json.loads((tmp_path / "run" / "sweep_report.json").read_text())
    assert report["iterations_used"] == 1 and not report["converged"]


def test_optimize_adjoint_modes_give_different_objectives(runner, tmp_path):
    objectives = {}
    for mode in ("paper", "consistent"):
        inst_path = write_instance(runner, tmp_path, {"adjoint_mode": mode})
        result = optimize(runner, inst_path, tmp_path / mode)
        assert result.exit_code == 0, result.output
        objectives[mode] = json.loads((tmp_path / mode / "objective.json").read_text())["J"]
    assert objectives["paper"] != objectives["consistent"]


def test_optimize_refuses_relaxation_weight_before_writing(runner, tmp_path):
    # the sweep's blend weight is fixed at 0.5, so the solver block has no such key
    inst_path = write_instance(runner, tmp_path, {"relaxation_weight": 1.5})
    result = optimize(runner, inst_path, tmp_path / "run")
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: unknown solver keys ['relaxation_weight']")
    assert not (tmp_path / "run").exists()


def test_optimize_takes_no_solver_flags(runner, tmp_path):
    # the instance's solver block is the one place a solver setting is read
    inst_path = write_instance(runner, tmp_path)
    result = runner.invoke(main, ["optimize", "--instance", str(inst_path), "--omega", "0.5",
                                  "--out-prefix", str(tmp_path / "run")])
    assert result.exit_code == 2 and "No such option" in result.stderr
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


def experiment_on_small_graph(experiment_id):
    # the experiments seed 60 devices, so an 8-node topology is refused
    return lambda runner, tmp, out: ["experiment", "run", "--id", experiment_id,
                                     "--graph", str(write_graph(runner, tmp)), "--out", out]


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
    **{f"experiment-{experiment_id}-8-nodes": ("compartment counts sum to 60, expected 8",
                                               experiment_on_small_graph(experiment_id))
       for experiment_id in ("exp1", "exp2", "exp3", "exp4_stage1")},
    "generate-empty-room": ("0 devices", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=[["a", 8], ["b", 0]]), "--out", out]),
    "generate-missing-density": ("intra_room_density", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, intra_room_density=None), "--out", out]),
    "generate-negative-seed": ("rng_seed must be non-negative, got -1", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rng_seed=-1), "--out", out]),
    "generate-hub-string": ("inter_room_hub", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, inter_room_hub="false"), "--out", out]),
    "generate-fractional-total": ("total_devices", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, total_devices=8.7), "--out", out]),
    "generate-fractional-room": ("rooms[1] device count", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=[["a", 4], ["b", 4.5]]),
        "--out", out]),
    "optimize-fractional-susceptible": ("susceptible", optimize_args(
        lambda c: c["initial_state"].update(susceptible=5.9))),
    "optimize-fractional-time_steps": ("time_steps", optimize_args(
        lambda c: c["solver"].update(time_steps=80.7))),
    "optimize-fractional-max_iterations": ("max_iterations", optimize_args(
        lambda c: c["solver"].update(max_iterations=2.5))),
    "optimize-beta_high-string": ("beta_high must be a number, got 'fast'", optimize_args(
        lambda c: c.update(beta_high="fast"))),
    "optimize-beta_low-list": ("beta_low must be a number", optimize_args(
        lambda c: c.update(beta_low=[0.02]))),
    "optimize-horizon-boolean": ("horizon must be a number, got True", optimize_args(
        lambda c: c.update(horizon=True))),
    "optimize-control_rates-string": ("control_rates gamma_low must be a number", optimize_args(
        lambda c: c.update(control_rates={"delta": 0.9, "gamma_high": 0.6, "gamma_low": "x"}))),
    # the sweep's fixed weight and tolerance are no solver keys, not even at their values
    "optimize-solver-convergence_epsilon": ("unknown solver keys ['convergence_epsilon']",
                                            optimize_args(lambda c: c["solver"].update(
                                                convergence_epsilon=1e-4))),
    "optimize-solver-relaxation_weight": ("unknown solver keys ['relaxation_weight']",
                                          optimize_args(lambda c: c["solver"].update(
                                              relaxation_weight=0.5))),
    "generate-density-string": ("intra_room_density must be a number", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, intra_room_density="dense"),
        "--out", out]),
    "generate-room-without-count": ("rooms[0] must be a [name, count] pair, got ['a']",
                                    lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=[["a"], ["b", 4]]),
        "--out", out]),
    "optimize-solver-number": ("solver must be an object, got 5", optimize_args(
        lambda c: c.update(solver=5))),
    "optimize-initial_state-number": ("initial_state must be an object, got 5", optimize_args(
        lambda c: c.update(initial_state=5))),
    "optimize-control_bounds-number": ("control_bounds must be an object, got 5", optimize_args(
        lambda c: c.update(control_bounds=5))),
    "optimize-control_rates-number": ("control_rates must be an object, got 5", optimize_args(
        lambda c: c.update(control_rates=5))),
    "optimize-graph-number": ("graph must be an object", optimize_args(
        lambda c: c.update(graph=5))),
    "optimize-unknown-key": ("unknown instance keys ['control_rate']", optimize_args(
        lambda c: c.update(control_rate={"delta": 0.9, "gamma_high": 0.6, "gamma_low": 0.4}))),
    "generate-unknown-key": ("unknown spec keys ['rng_sed']", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rng_sed=11), "--out", out]),
    "optimize-unknown-initial_state-key": ("unknown initial_state keys ['recover_firs']",
                                           optimize_args(lambda c: c["initial_state"].update(
                                               recover_firs=1))),
    "optimize-unknown-graph-key": ("unknown topology keys ['lables']", optimize_args(
        lambda c: c.update(graph={"adjacency": [[0, 1], [1, 0]], "lables": ["a", "b"]}))),
    "generate-rooms-number": ("rooms must be a list of [name, count] pairs, got 5",
                              lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=5), "--out", out]),
    # the counts sum to total_devices; the generator used to fail with an IndexError
    "generate-negative-room": ("Error: room 'b' has -1 devices", lambda runner, tmp, out: [
        "dataset", "generate", "--spec", spec_file(tmp, rooms=[["a", 5], ["b", -1]],
                                                   total_devices=4), "--out", out]),
    # exp3 runs no population, yet its seed is checked as exp2's is
    "experiment-exp3-negative-seed": ("rng_seed must be non-negative, got -1",
                                      lambda runner, tmp, out: [
        "experiment", "run", "--id", "exp3", "--seed", "-1", "--out", out]),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_reported_before_writing(runner, tmp_path, case):
    named, args = BAD_INPUT[case]
    out = tmp_path / "out"
    result = runner.invoke(main, args(runner, tmp_path, str(out)))
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: ") and named in result.stderr
    assert not out.exists()


SUSCEPTIBLE_ROWS = [[1, 0, 0, 0]] * 8  # per_node for the eight-device instance


def initial_state(**block):
    return lambda c: c.update(initial_state=block)


def delta_bounds(pair):
    return lambda c: c["control_bounds"].update(delta=pair)


# case -> (field the error names, error type, edit of the instance config)
BAD_ARRAYS = {
    "per_node-string": ("initial_state", ValueError, initial_state(per_node="x")),
    "per_node-ragged": ("initial_state", ValueError,
                        initial_state(per_node=SUSCEPTIBLE_ROWS[:-1] + [[1, 0, 0]])),
    "per_node-booleans": ("initial_state", ValueError,
                          initial_state(per_node=[[True, False, False, False]] * 8)),
    "per_node-beside-susceptible": ("susceptible", ValueError,
                                    initial_state(per_node=SUSCEPTIBLE_ROWS, susceptible=8)),
    "delta-true-0.8": ("delta", ValueError, delta_bounds([True, 0.8])),
    "delta-true-1.5": ("delta", ValueError, delta_bounds([True, 1.5])),
    "delta-string-0.8": ("delta", ValueError, delta_bounds(["lo", 0.8])),
    "graph-adjacency-booleans": ("adjacency", ValueError, lambda c: c.update(
        graph={"adjacency": [[False, True], [True, False]]})),
}


@pytest.mark.parametrize("case", BAD_ARRAYS)
def test_bad_array_input_named(runner, tmp_path, case):
    field, error, edit = BAD_ARRAYS[case]
    inst_path = edited_instance(runner, tmp_path, edit)
    with pytest.raises(error, match=field) as raised:
        load_instance(inst_path)
    assert type(raised.value) is error
    out = tmp_path / "out"
    result = optimize(runner, inst_path, out)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("Error: ") and field in result.stderr
    assert not out.exists()
