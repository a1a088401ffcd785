import json

import pytest
from click.testing import CliRunner

from malctrl.cli import main
from malctrl.graphs import graph_from_json


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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                         "--out", str(graph_path)])
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(small_instance_config(graph_path)))
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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    graph_path = tmp_path / "graph.json"
    runner.invoke(main, ["dataset", "generate", "--spec", str(spec_path),
                         "--out", str(graph_path)])
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(small_instance_config(graph_path)))
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
