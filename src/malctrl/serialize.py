"""Deterministic writers for trajectory CSVs and summary JSON.

Every CSV line is built by ``_csv``, the one row writer: times are printed
with 9 significant digits, values with 12. JSON is emitted with sorted keys
so that repeated runs of a seeded pipeline produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import COMPARTMENTS, CONTROL_COLUMNS, ControlTrajectory, StateTrajectory


def _csv(columns, labels, rows: np.ndarray) -> str:
    """A ``columns`` header, then per label the label and its (C,) row of ``rows``."""
    line = "%s," + ",".join(["%.12g"] * rows.shape[-1])
    lines = [",".join(columns)]
    lines.extend(line % (label, *row) for label, row in zip(labels, rows.tolist()))
    return "\n".join(lines) + "\n"


def summary_json(obj) -> str:
    """Readable but still byte-stable JSON for experiment summaries."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_summary(path, obj) -> None:
    Path(path).write_text(summary_json(obj))


def node_csv(columns, time_grid: np.ndarray, values: np.ndarray, nodes=None) -> str:
    """Long-format per-node rows ``t,node,<columns>`` of a (K+1, N, C) array.

    ``nodes`` selects which nodes get a row at each grid point, in that
    order; by default every node does.
    """
    nodes = list(range(values.shape[1]) if nodes is None else nodes)
    labels = ["%.9g,%d" % (t, i) for t in time_grid.tolist() for i in nodes]
    return _csv(("t", "node", *columns), labels, values[:, nodes].reshape(-1, values.shape[-1]))


def totals_csv(traj: StateTrajectory) -> str:
    """Network-wide expected device counts per compartment: t,S,IH,IL,RF,RC."""
    labels = ["%.9g" % t for t in traj.time_grid.tolist()]
    return _csv(("t", *COMPARTMENTS), labels, traj.compartment_totals())


def sampled_nodes_csv(state_traj: StateTrajectory, control_traj: ControlTrajectory,
                      nodes) -> str:
    """States and controls of selected nodes: one row per (t, node)."""
    values = np.concatenate([state_traj.full_states(), control_traj.controls], axis=-1)
    return node_csv(COMPARTMENTS + CONTROL_COLUMNS, state_traj.time_grid, values, nodes)
