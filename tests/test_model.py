import json
from dataclasses import fields

import numpy as np
import pytest

from malctrl.graphs import canonical_graph, validate_graph
from malctrl.model import (DELTA, GAMMA_L, IH, IL, DimensionMismatchError, ModelInstance,
                           ModelParams, StateTrajectory,
                           instance_from_dict, r_complete, seed_initial_state,
                           uniform_grid, validate_states)


class TestNodeState:

    def test_derived_recover_complete(self):
        assert r_complete(np.array([0.2, 0.3, 0.1, 0.15])) == pytest.approx(0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_states(np.array([[1.2, 0.0, 0.0, 0.0]]), 1)

    def test_rejects_over_normalized(self):
        with pytest.raises(ValueError, match="recover-complete"):
            validate_states(np.array([[0.8, 0.8, 0.0, 0.0]]), 1)

    def test_array_round_trip(self):
        # the four stored columns come back unchanged next to the derived RC
        states = np.array([[[0.5, 0.25, 0.125, 0.0625]]])
        validate_states(states, 1)
        full = StateTrajectory(np.zeros(1), states).full_states()
        np.testing.assert_array_equal(full[0, 0], [0.5, 0.25, 0.125, 0.0625, 0.0625])


class TestModelParams:

    def test_beta_ordering_enforced(self):
        with pytest.raises(ValueError):
            ModelParams.from_scalars(3, beta_high=0.1, beta_low=0.2, horizon=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.from_scalars(3, beta_high=0.1, beta_low=-0.1, horizon=1.0)

    def test_bound_ordering_enforced(self):
        with pytest.raises(ValueError):
            ModelParams.from_scalars(3, 0.2, 0.1, 1.0, delta=(0.8, 0.1))

    def test_bound_stacks(self):
        p = ModelParams.from_scalars(2, 0.2, 0.1, 1.0, delta=(0.1, 0.8),
                                     gamma_high=(0.2, 0.9), gamma_low=(0.3, 0.7))
        np.testing.assert_array_equal(p.lower_bounds(), [[0.1, 0.2, 0.3]] * 2)
        np.testing.assert_array_equal(p.upper_bounds(), [[0.8, 0.9, 0.7]] * 2)

    def test_box_is_two_read_only_arrays(self):
        assert [f.name for f in fields(ModelParams)] == [
            "beta_high", "beta_low", "horizon", "lower", "upper"]
        lower = np.zeros((2, 3))
        p = ModelParams(0.2, 0.1, 1.0, lower, np.ones((2, 3)))
        assert p.node_count == 2
        for box in (p.lower, p.upper):
            assert box.dtype == np.float64 and box.shape == (2, 3)
            assert not box.flags.writeable
        assert p.lower_bounds() is p.lower and p.upper_bounds() is p.upper
        lower[0, 0] = 5.0  # the params keep their own copy
        assert p.lower[0, 0] == 0.0

    def test_box_shapes_checked(self):
        with pytest.raises(DimensionMismatchError):
            ModelParams(0.2, 0.1, 1.0, np.zeros((2, 3)), np.ones((3, 3)))
        with pytest.raises(DimensionMismatchError):
            ModelParams(0.2, 0.1, 1.0, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["beta_high", "beta_low", "horizon", "lower", "upper"])
    def test_non_finite_rejected(self, where, bad):
        values = {"beta_high": 0.2, "beta_low": 0.1, "horizon": 1.0,
                  "lower": np.zeros((2, 3)), "upper": np.ones((2, 3))}
        if where in ("lower", "upper"):
            values[where][1, GAMMA_L] = bad
        else:
            values[where] = bad
        with pytest.raises(ValueError, match="finite|positive"):
            ModelParams(**values)

    def test_from_scalars_takes_per_node_bounds(self):
        p = ModelParams.from_scalars(2, 0.2, 0.1, 1.0, delta=([0.1, 0.2], 0.8),
                                     gamma_low=(0.0, [0.3, 0.4]))
        np.testing.assert_array_equal(p.lower, [[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
        np.testing.assert_array_equal(p.upper, [[0.8, 0.0, 0.3], [0.8, 0.0, 0.4]])

    def test_from_scalars_rejects_malformed_pairs(self):
        with pytest.raises(ValueError):
            ModelParams.from_scalars(2, 0.2, 0.1, 1.0, delta=(0.1, 0.5, 0.8))
        with pytest.raises(DimensionMismatchError, match="gamma_high"):
            ModelParams.from_scalars(2, 0.2, 0.1, 1.0, gamma_high=([0.1, 0.2, 0.3], 0.8))

    @pytest.mark.parametrize("pair", [0.5, [0.1, 0.5, 0.9], "ab", None])
    def test_from_scalars_names_the_control_of_a_malformed_pair(self, pair):
        with pytest.raises(ValueError, match=r"^delta bounds must be a \(lo, hi\) pair"):
            ModelParams.from_scalars(2, 0.2, 0.1, 1.0, delta=pair)


class TestSeedInitialState:

    def test_counts_must_sum_to_node_count(self):
        with pytest.raises(ValueError, match="sum"):
            seed_initial_state(canonical_graph(), 50, 2, 1)

    def test_negative_count_rejected(self):
        # 61 + (-1) + 0 sums to the 60 devices, but a count cannot be negative
        with pytest.raises(ValueError, match="non-negative"):
            seed_initial_state(canonical_graph(), 61, -1, 0)

    def test_canonical_seeding_is_deterministic_and_degree_ranked(self):
        graph = canonical_graph()
        state = seed_initial_state(graph, 57, 2, 1)
        again = seed_initial_state(graph, 57, 2, 1)
        np.testing.assert_array_equal(state, again)
        deg = graph.degrees()
        seeds_h = np.flatnonzero(state[:, IH] == 1.0)
        seed_l = np.flatnonzero(state[:, IL] == 1.0)
        # single-room canonical graph: highest-degree nodes get seeded first
        order = sorted(range(60), key=lambda i: (-deg[i], i))
        assert sorted(seeds_h) == sorted(order[:2])
        assert list(seed_l) == [order[2]]

    def test_round_robin_across_rooms(self):
        a = np.zeros((4, 4), dtype=int)
        a[0, 1] = a[1, 0] = 1
        a[2, 3] = a[3, 2] = 1
        graph = validate_graph(a, [f"dev-{i}" for i in range(4)],
                               ["a", "a", "b", "b"])
        state = seed_initial_state(graph, 2, 1, 1)
        # room "a" contributes the first candidate (infected-high), room "b"
        # the second (infected-low)
        assert state[:, IH].sum() == 1.0
        assert state[:, IL].sum() == 1.0
        assert graph.room_assignment[int(np.flatnonzero(state[:, IH])[0])] == "a"
        assert graph.room_assignment[int(np.flatnonzero(state[:, IL])[0])] == "b"


class TestModelInstance:

    def test_initial_state_must_normalize(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 5.0)
        bad = np.full((60, 4), 0.5)
        with pytest.raises(ValueError):
            ModelInstance(graph=graph, params=params, initial_state=bad)

    def test_grid_properties(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        inst = ModelInstance(graph=graph, params=params,
                             initial_state=seed_initial_state(graph, 57, 2, 1),
                             time_steps=300)
        grid = inst.time_grid()
        assert grid[0] == 0.0 and grid[-1] == 6.0
        assert inst.dt == pytest.approx(0.02)
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0])

    @pytest.mark.parametrize("rates", [(np.nan, 0.4, 0.2), (0.5, np.inf, 0.2), (0.5, 0.4, -0.1)])
    def test_control_rates_must_be_finite_and_non_negative(self, rates):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match="control_rates"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1), control_rates=rates)

    def test_nan_initial_state_rejected(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        state = seed_initial_state(graph, 57, 2, 1)
        state[3, IH] = np.nan
        with pytest.raises(ValueError, match="outside"):
            ModelInstance(graph=graph, params=params, initial_state=state)

    def test_adjoint_mode_validated(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match="adjoint_mode"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1),
                          adjoint_mode="exact")


CASE1_CONFIG = {
    "graph": "canonical",
    "beta_high": 0.0004, "beta_low": 0.0002, "horizon": 10.0,
    "initial_state": {"susceptible": 57, "infected_high": 2, "infected_low": 1},
    "control_bounds": {"delta": [0.1, 0.8], "gamma_high": [0.1, 1.0],
                       "gamma_low": [0.1, 0.6]},
}


class TestInstanceConfig:

    def test_from_dict_canonical_graph(self):
        config = {
            "graph": "canonical",
            "beta_high": 0.0004, "beta_low": 0.0002, "horizon": 10.0,
            "initial_state": {"susceptible": 57, "infected_high": 2, "infected_low": 1},
            "control_rates": {"delta": 0.9, "gamma_high": 0.6, "gamma_low": 0.4},
            "control_bounds": {"delta": [0.1, 0.8], "gamma_high": [0.1, 1.0],
                               "gamma_low": [0.1, 0.6]},
            "solver": {"adjoint_mode": "consistent", "time_steps": 150},
        }
        inst = instance_from_dict(config)
        assert inst.node_count == 60
        assert inst.params.beta_high == 0.0004
        assert inst.control_rates == (0.9, 0.6, 0.4)
        assert inst.adjoint_mode == "consistent"
        assert inst.time_steps == 150
        assert inst.initial_state[:, IH].sum() == 2.0

    def test_solver_defaults_and_types(self):
        config = dict(CASE1_CONFIG, solver={"max_iterations": 7.0, "relaxation_weight": 0})
        inst = instance_from_dict(config)
        assert inst.max_iterations == 7 and type(inst.max_iterations) is int
        assert inst.relaxation_weight == 0.0 and type(inst.relaxation_weight) is float
        # the other settings keep ModelInstance's defaults
        default = ModelInstance(graph=inst.graph, params=inst.params,
                                initial_state=inst.initial_state)
        assert inst.convergence_epsilon == default.convergence_epsilon
        assert inst.adjoint_mode == default.adjoint_mode
        assert inst.time_steps == default.time_steps

    def test_unknown_solver_key_rejected(self):
        config = dict(CASE1_CONFIG, solver={"max_iter": 3, "time_step": 10})
        with pytest.raises(ValueError, match=r"\['max_iter', 'time_step'\]"):
            instance_from_dict(config)

    @pytest.mark.parametrize("path", [("beta_high",), ("graph",), ("control_bounds",),
                                      ("control_bounds", "gamma_low"),
                                      ("initial_state", "infected_high")], ids="/".join)
    def test_missing_required_key_named(self, path):
        config = json.loads(json.dumps(CASE1_CONFIG))
        block = config
        for key in path[:-1]:
            block = block[key]
        del block[path[-1]]
        with pytest.raises(ValueError, match=f"missing the required key '{path[-1]}'"):
            instance_from_dict(config)

    def test_per_node_initial_state_and_bounds(self):
        config = {
            "graph": {"n": 2, "adjacency": [[0, 1], [1, 0]],
                      "labels": ["a", "b"], "rooms": ["r", "r"]},
            "beta_high": 0.2, "beta_low": 0.1, "horizon": 2.0,
            "initial_state": {"per_node": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
            "control_bounds": {"delta": [[0.1, 0.2], [0.5, 0.6]],
                               "gamma_high": [0.0, 1.0], "gamma_low": [0.0, 1.0]},
        }
        inst = instance_from_dict(config)
        np.testing.assert_array_equal(inst.params.lower[:, DELTA], [0.1, 0.2])
        np.testing.assert_array_equal(inst.params.upper[:, DELTA], [0.5, 0.6])
        assert inst.initial_state[0, IH] == 1.0
