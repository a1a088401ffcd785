import json

import numpy as np
import pytest

from malctrl.graphs import graph_to_json, load_graph, validate_graph
from malctrl.model import COMPARTMENTS, StateTrajectory, uniform_grid
from malctrl.serialize import node_csv, summary_json, totals_csv


def small_traj():
    grid = uniform_grid(1.0, 2)
    states = np.zeros((3, 2, 4))
    states[:, :, 0] = 1.0
    states[1, 0] = (0.25, 0.5, 0.125, 0.0625)
    return StateTrajectory(grid, states)


def test_state_csv_layout():
    traj = small_traj()
    lines = node_csv(COMPARTMENTS, traj.time_grid, traj.full_states()).splitlines()
    assert lines[0] == "t,node,S,IH,IL,RF,RC"
    assert len(lines) == 1 + 3 * 2
    # derived RC column closes the normalization
    row = lines[3].split(",")
    assert row[:2] == ["0.5", "0"]
    assert float(row[-1]) == pytest.approx(1.0 - 0.25 - 0.5 - 0.125 - 0.0625)
    # a node subset keeps the given order at every grid point
    subset = node_csv(COMPARTMENTS, traj.time_grid, traj.full_states(), nodes=[1, 0])
    assert [r.split(",")[1] for r in subset.splitlines()[1:]] == ["1", "0"] * 3
    assert subset.splitlines()[4] == lines[3]


def test_totals_csv_sums_nodes():
    lines = totals_csv(small_traj()).splitlines()
    assert lines[0] == "t,S,IH,IL,RF,RC"
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert first == [2.0, 0.0, 0.0, 0.0, 0.0]


def test_canonical_json_is_sorted_and_compact():
    text = graph_to_json(validate_graph([[0, 1], [1, 0]], ["b", "a"], ["r", "r"]))
    assert text == '{"adjacency":[[0,1],[1,0]],"labels":["b","a"],"n":2,"rooms":["r","r"]}\n'


def test_summary_json_round_trip_stability():
    payload = {"z": 0.1, "a": {"nested": [1.5, 2.25]}}
    once = summary_json(payload)
    again = summary_json(json.loads(once))
    assert once == again


def test_missing_graph_file_names_regeneration_command(tmp_path):
    with pytest.raises(FileNotFoundError, match="dataset generate"):
        load_graph(tmp_path / "nope.json")
