import malctrl


def test_every_exported_name_resolves():
    missing = [name for name in malctrl.__all__ if not hasattr(malctrl, name)]
    assert not missing, f"__all__ names without a definition: {missing}"


def test_star_import():
    namespace = {}
    exec("from malctrl import *", namespace)
    assert set(malctrl.__all__) <= set(namespace)


def test_public_surface_is_pinned():
    # a change that adds or drops a public name edits this list in the same diff
    assert sorted(malctrl.__all__) == [
        "AdjointTrajectory", "ControlTrajectory", "CtmcSummary", "ExperimentSpec",
        "ModelInstance", "ModelParams", "NetworkGraph", "ObjectiveBreakdown",
        "RgcsConfig", "SmartHomeSpec", "StateTrajectory", "SweepReport", "__version__",
        "adjoint_rhs", "canonical_graph", "canonical_spec", "control_update",
        "ctmc_simulate", "fbsm_solve", "floorplan_spec", "generate_smart_home",
        "graph_from_json", "graph_to_json", "hamiltonian", "integrate_backward",
        "integrate_forward", "load_graph", "load_instance", "objective", "rgcs_generate",
        "rgcs_population", "run_experiment", "running_cost", "save_graph",
        "seed_initial_state", "select_sample_nodes", "snapshot", "uniform_grid",
    ]


def public_methods(cls) -> list[str]:
    """The public methods and properties of ``cls``, dataclass fields left out."""
    return sorted(name for name in dir(cls) if not name.startswith("_")
                  and (callable(getattr(cls, name)) or isinstance(getattr(cls, name), property)))


def test_model_type_methods_are_pinned():
    # a change that adds or drops a method or property edits these lists in the same diff
    assert {cls.__name__: public_methods(cls) for cls in (
        malctrl.ModelInstance, malctrl.ModelParams, malctrl.StateTrajectory,
        malctrl.NetworkGraph)} == {
        "ModelInstance": ["constant_control", "dt", "fixed_control_trajectory", "node_count",
                          "time_grid"],
        "ModelParams": ["from_scalars", "lower_bounds", "node_count", "upper_bounds"],
        "StateTrajectory": ["compartment_totals", "dt", "full_states"],
        "NetworkGraph": ["degrees", "neighbors", "node_count", "ranked_rooms"],
    }
