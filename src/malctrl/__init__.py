"""Malware propagation on IoT network graphs: five-compartment node-level
dynamics, stochastic validation, and optimal patch/restriction scheduling by
forward-backward sweep."""

from .graphs import (NetworkGraph, SmartHomeSpec, canonical_graph, canonical_spec,
                     floorplan_spec, generate_smart_home, graph_from_json,
                     graph_to_json, load_graph, save_graph)
from .model import (AdjointTrajectory, ControlTrajectory, ModelInstance,
                    ModelParams, StateTrajectory, load_instance,
                    seed_initial_state, uniform_grid)
from .dynamics import CtmcSummary, ctmc_simulate, integrate_forward
from .objective import ObjectiveBreakdown, objective, running_cost
from .adjoint import adjoint_rhs, hamiltonian, integrate_backward
from .sweep import SweepReport, control_update, fbsm_solve
from .rgcs import RgcsConfig, rgcs_generate, rgcs_population
from .experiments import ExperimentSpec, run_experiment, select_sample_nodes, snapshot

__version__ = "0.1.0"

__all__ = [
    "NetworkGraph", "SmartHomeSpec", "canonical_graph", "canonical_spec",
    "floorplan_spec", "generate_smart_home", "graph_from_json", "graph_to_json",
    "load_graph", "save_graph",
    "AdjointTrajectory", "ControlTrajectory", "ModelInstance", "ModelParams",
    "StateTrajectory", "load_instance", "seed_initial_state", "uniform_grid",
    "CtmcSummary", "ctmc_simulate", "integrate_forward",
    "ObjectiveBreakdown", "objective", "running_cost",
    "adjoint_rhs", "hamiltonian", "integrate_backward",
    "SweepReport", "control_update", "fbsm_solve",
    "RgcsConfig", "rgcs_generate", "rgcs_population",
    "ExperimentSpec", "run_experiment", "select_sample_nodes", "snapshot",
    "__version__",
]
