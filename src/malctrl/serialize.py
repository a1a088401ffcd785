"""Deterministic writers for trajectory CSVs and summary JSON.

Times are printed with 9 significant digits, values with 12; JSON is emitted
with sorted keys so that repeated runs of a seeded pipeline produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import COMPARTMENTS, CONTROL_COLUMNS, ControlTrajectory, StateTrajectory

_TIME_FMT = ".9g"
_VALUE_FMT = ".12g"


def _fmt_t(v: float) -> str:
    return format(float(v), _TIME_FMT)


def _fmt(v: float) -> str:
    return format(float(v), _VALUE_FMT)


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
    if nodes is None:
        nodes = range(values.shape[1])
    rows = [",".join(("t", "node", *columns))]
    for k, t in enumerate(time_grid):
        ts = _fmt_t(t)
        for i in nodes:
            vals = ",".join(_fmt(v) for v in values[k, i])
            rows.append(f"{ts},{i},{vals}")
    return "\n".join(rows) + "\n"


def totals_csv(traj: StateTrajectory) -> str:
    """Network-wide expected device counts per compartment: t,S,IH,IL,RF,RC."""
    rows = ["t,S,IH,IL,RF,RC"]
    totals = traj.compartment_totals()
    for k, t in enumerate(traj.time_grid):
        vals = ",".join(_fmt(v) for v in totals[k])
        rows.append(f"{_fmt_t(t)},{vals}")
    return "\n".join(rows) + "\n"


def sampled_nodes_csv(state_traj: StateTrajectory, control_traj: ControlTrajectory,
                      nodes) -> str:
    """States and controls of selected nodes: one row per (t, node)."""
    values = np.concatenate([state_traj.full_states(), control_traj.controls], axis=-1)
    return node_csv(COMPARTMENTS + CONTROL_COLUMNS, state_traj.time_grid, values, nodes)
