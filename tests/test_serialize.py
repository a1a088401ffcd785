import json

import numpy as np
import pytest

from malctrl.graphs import NetworkGraph, graph_to_json, load_graph
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
    # an index array selects as the list does, and no node writes the header only
    states = traj.full_states()
    assert node_csv(COMPARTMENTS, traj.time_grid, states, nodes=np.array([1, 0])) == subset
    assert node_csv(COMPARTMENTS, traj.time_grid, states, nodes=[]) == lines[0] + "\n"


def test_totals_csv_sums_nodes():
    lines = totals_csv(small_traj()).splitlines()
    assert lines[0] == "t,S,IH,IL,RF,RC"
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert first == [2.0, 0.0, 0.0, 0.0, 0.0]


def test_node_csv_prints_values_at_12_and_times_at_9_significant_digits():
    # values the seeded runs never produce: signed zero, subnormal, long and huge
    row = [-0.0, 5e-324, 1e-5, 0.1 + 0.2, 123456789012.5, 1e16, -1e-300]
    grid = np.array([1 / 3, 1e-10])
    values = np.array([row, row[::-1]]).reshape(2, 1, len(row))
    columns = [f"c{j}" for j in range(len(row))]
    lines = node_csv(columns, grid, values).splitlines()
    assert lines[0] == ",".join(["t", "node", *columns])
    assert lines[1:] == [",".join([format(t, ".9g"), "0", *(format(v, ".12g") for v in vals)])
                         for t, vals in zip(grid, values[:, 0])]


def test_totals_csv_prints_compartment_header_and_the_same_formats():
    grid = uniform_grid(1.0, 3)
    states = np.tile([0.1, 0.2, 1 / 3, 1 / 7], (4, 2, 1))
    traj = StateTrajectory(grid, states)
    lines = totals_csv(traj).splitlines()
    assert lines[0] == ",".join(("t", *COMPARTMENTS))
    assert lines[1:] == [",".join([format(t, ".9g"), *(format(v, ".12g") for v in totals)])
                         for t, totals in zip(grid, traj.compartment_totals())]


def test_canonical_json_is_sorted_and_compact():
    text = graph_to_json(NetworkGraph([[0, 1], [1, 0]], ["b", "a"], ["r", "r"]))
    assert text == '{"adjacency":[[0,1],[1,0]],"labels":["b","a"],"n":2,"rooms":["r","r"]}\n'


def test_summary_json_round_trip_stability():
    payload = {"z": 0.1, "a": {"nested": [1.5, 2.25]}}
    once = summary_json(payload)
    again = summary_json(json.loads(once))
    assert once == again


def test_missing_graph_file_names_regeneration_command(tmp_path):
    with pytest.raises(FileNotFoundError, match="dataset generate"):
        load_graph(tmp_path / "nope.json")
