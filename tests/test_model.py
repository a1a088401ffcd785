import numpy as np
import pytest

from malctrl.graphs import canonical_graph, validate_graph
from malctrl.model import (IH, IL, ModelInstance, ModelParams, StateTrajectory,
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


class TestSeedInitialState:

    def test_counts_must_sum_to_node_count(self):
        with pytest.raises(ValueError, match="sum"):
            seed_initial_state(canonical_graph(), 50, 2, 1)

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

    def test_adjoint_mode_validated(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match="adjoint_mode"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1),
                          adjoint_mode="exact")


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
        np.testing.assert_array_equal(inst.params.delta_lo, [0.1, 0.2])
        np.testing.assert_array_equal(inst.params.delta_hi, [0.5, 0.6])
        assert inst.initial_state[0, IH] == 1.0
