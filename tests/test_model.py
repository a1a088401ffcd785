import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.adjoint import adjoint_rhs, hamiltonian, integrate_backward
from malctrl.dynamics import ctmc_simulate, integrate_forward
from malctrl.graphs import NetworkGraph, SmartHomeSpec, canonical_graph
from malctrl.model import (DELTA, GAMMA_L, IH, IL, AdjointTrajectory, ControlTrajectory,
                           ModelInstance, ModelParams, StateTrajectory, array_argument,
                           instance_from_dict, number_array, r_complete, seed_initial_state,
                           uniform_grid, validate_snapshot, validate_states)
from malctrl.objective import objective, running_cost
from malctrl.rgcs import RgcsConfig
from malctrl.sweep import control_update

from helpers import TWO_NODE, make_instance, random_graph


class TestNodeState:

    def test_derived_recover_complete(self):
        assert r_complete(np.array([0.2, 0.3, 0.1, 0.15])) == pytest.approx(0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_states(np.array([[1.2, 0.0, 0.0, 0.0]]))

    def test_rejects_over_normalized(self):
        with pytest.raises(ValueError, match="recover-complete"):
            validate_states(np.array([[0.8, 0.8, 0.0, 0.0]]))

    def test_array_round_trip(self):
        # the four stored columns come back unchanged next to the derived RC
        states = np.array([[[0.5, 0.25, 0.125, 0.0625]]])
        validate_states(states)
        full = StateTrajectory(np.zeros(1), states).full_states()
        np.testing.assert_array_equal(full[0, 0], [0.5, 0.25, 0.125, 0.0625, 0.0625])


class TestValidateSnapshot:

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 3), count=st.integers(1, 3),
           shapes=st.lists(st.none() | st.tuples(st.integers(0, 4), st.integers(0, 5)),
                           min_size=3, max_size=3))
    def test_accepts_exactly_matching_shapes(self, n, count, shapes):
        # None draws the matching shape, so both outcomes come up often
        names, expected = ("state", "control", "costate")[:count], [(n, 4), (n, 3), (n, 4)][:count]
        drawn = [shape or want for shape, want in zip(shapes, expected)]
        arrays = [np.zeros(shape, dtype=int) for shape in drawn]
        mismatched = [name for name, shape, want in zip(names, drawn, expected) if shape != want]
        if mismatched:
            with pytest.raises(ValueError,
                               match=f"^{mismatched[0]} must be an array of shape"):
                validate_snapshot(n, *arrays)
        else:
            checked = validate_snapshot(n, *arrays)
            assert [(a.shape, a.dtype) for a in checked] == [(e, np.float64) for e in expected]


def array_calls(convert):
    """Each public function that takes array arguments, called on one small run
    with every array argument passed through ``convert``; each call's name maps
    to the argument that its first check names."""
    graph = random_graph(np.random.default_rng(1), 5, 0.6)
    inst = make_instance(graph, 0.4, 0.2, 2.0, seed_initial_state(graph, 3, 1, 1), time_steps=10)
    grid, (p, g) = inst.time_grid(), (inst.params, inst.graph)
    u = inst.constant_control(0.3, 0.2, 0.1).controls
    x = integrate_forward(inst, ControlTrajectory(grid, u)).states
    lam = integrate_backward(StateTrajectory(grid, x), ControlTrajectory(grid, u), inst).costates
    control, states = ControlTrajectory(grid, convert(u)), StateTrajectory(grid, convert(x))
    costates = AdjointTrajectory(grid, convert(lam))
    snap = convert(x[4]), convert(u[4]), convert(lam[4])
    return {
        ("integrate_forward", "control"): lambda: integrate_forward(inst, control),
        ("objective", "state_traj"): lambda: objective(states, control),
        ("control_update", "state_traj"): lambda: control_update(states, costates, p),
        ("integrate_backward", "control"): lambda: integrate_backward(states, control, inst),
        ("ctmc_simulate", "control"): lambda: ctmc_simulate(inst, control, 3, 20),
        ("running_cost", "state"): lambda: running_cost(*snap[:2]),
        ("hamiltonian", "state"): lambda: hamiltonian(*snap, p, g),
        ("adjoint_rhs", "state"): lambda: adjoint_rhs(*snap, p, g),
    }


def bit_identical(got, want) -> bool:
    if is_dataclass(want):
        return type(got) is type(want) and all(bit_identical(getattr(got, f.name),
                                                             getattr(want, f.name))
                                               for f in fields(want))
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape and got.tobytes() == want.tobytes())
    return type(got) is type(want) and np.float64(got).tobytes() == np.float64(want).tobytes()


BAD_ARRAYS = {
    "boolean": lambda a: a > 0.2,
    "string": lambda a: a.astype(str),
    "complex": lambda a: a.astype(complex),
    "None entry": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, None, a),
    "None": lambda a: None,
}


class TestArrayArguments:

    def test_exact_float64_array_passes_through(self):
        values = np.zeros((2, 4))
        assert array_argument(values, "x", (2, 4)) is values
        for other in (values.tolist(), values.astype(np.float32), np.zeros((2, 4), dtype=int)):
            parsed = array_argument(other, "x", (2, 4))
            assert parsed is not other and parsed.dtype == np.float64
        assert array_argument(values, "x", (None, 4)) is values

    @pytest.mark.parametrize("call", list(array_calls(np.asarray)), ids=lambda key: key[0])
    def test_lists_give_bit_identical_results(self, call):
        want = array_calls(np.asarray)[call]()
        assert bit_identical(array_calls(np.ndarray.tolist)[call](), want)

    @pytest.mark.parametrize("kind", list(BAD_ARRAYS))
    @pytest.mark.parametrize("call", list(array_calls(np.asarray)), ids=lambda key: key[0])
    def test_non_number_arguments_named(self, call, kind):
        with pytest.raises(ValueError, match=rf"^{call[1]}(\[[\d, ]+\] must be a number|"
                                             r" must be an array of shape \(.*\)), got "):
            array_calls(BAD_ARRAYS[kind])[call]()


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
        np.testing.assert_array_equal(p.lower, [[0.1, 0.2, 0.3]] * 2)
        np.testing.assert_array_equal(p.upper, [[0.8, 0.9, 0.7]] * 2)

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
        with pytest.raises(ValueError, match=r"^upper must be an array of shape \(2, 3\)"):
            ModelParams(0.2, 0.1, 1.0, np.zeros((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"^lower must be an array of shape \(N, 3\)"):
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
        with pytest.raises(ValueError, match="gamma_high"):
            ModelParams.from_scalars(2, 0.2, 0.1, 1.0, gamma_high=([0.1, 0.2, 0.3], 0.8))

    @pytest.mark.parametrize("node_count, message", [
        ("5", "node_count must be an integer, got '5'"),
        (2.5, "node_count must be an integer, got 2.5"),
        (True, "node_count must be an integer, got True"),
        (-1, "node_count must be at least 1, got -1"),
        (0, "node_count must be at least 1, got 0"),
    ])
    def test_from_scalars_parses_node_count_as_a_count(self, node_count, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelParams.from_scalars(node_count, 0.1, 0.05, 1.0)

    def test_from_scalars_takes_a_whole_float_node_count(self):
        p = ModelParams.from_scalars(5.0, 0.1, 0.05, 1.0)
        assert p.node_count == 5 and p.lower.shape == (5, 3)

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
        with pytest.raises(ValueError, match="^infected_high must be at least 0, got -1$"):
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
        graph = NetworkGraph(a, [f"dev-{i}" for i in range(4)],
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

    @pytest.mark.parametrize("rates", [(), (0.5, 0.4), (0.5, 0.4, 0.2, 0.1)])
    def test_control_rates_must_be_three(self, rates):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match=r"^control_rates must be three rates"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1), control_rates=rates)

    @pytest.mark.parametrize("rates", [("a", 1, 2), {"delta": 1}, (True, 0, 0)])
    def test_control_rates_must_be_numbers(self, rates):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match=r"^control_rates (delta )?must be"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1), control_rates=rates)

    def test_control_rates_stored_as_float_tuple(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        inst = ModelInstance(graph=graph, params=params,
                             initial_state=seed_initial_state(graph, 57, 2, 1),
                             control_rates=np.array([1, 0, 2]))
        assert inst.control_rates == (1.0, 0.0, 2.0)
        assert type(inst.control_rates) is tuple
        assert all(type(rate) is float for rate in inst.control_rates)

    def test_nan_initial_state_rejected(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        state = seed_initial_state(graph, 57, 2, 1)
        state[3, IH] = np.nan
        with pytest.raises(ValueError, match="outside"):
            ModelInstance(graph=graph, params=params, initial_state=state)

    @pytest.mark.parametrize("field", ["max_iterations", "time_steps"])
    @pytest.mark.parametrize("value", [3.5, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        # a fractional cap is never met by the sweep's integer iteration count
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1), **{field: value})

    def test_whole_float_counts_stored_as_int(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        inst = ModelInstance(graph=graph, params=params,
                             initial_state=seed_initial_state(graph, 57, 2, 1),
                             max_iterations=7.0, time_steps=np.int64(40))
        assert inst.max_iterations == 7 and type(inst.max_iterations) is int
        assert inst.time_steps == 40 and type(inst.time_steps) is int

    def test_adjoint_mode_validated(self):
        graph = canonical_graph()
        params = ModelParams.from_scalars(60, 0.001, 0.0005, 6.0)
        with pytest.raises(ValueError, match="adjoint_mode"):
            ModelInstance(graph=graph, params=params,
                          initial_state=seed_initial_state(graph, 57, 2, 1),
                          adjoint_mode="exact")


class TestConstantControl:

    @staticmethod
    def instance(n=3, steps=4):
        a = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        params = ModelParams.from_scalars(n, 0.2, 0.1, 1.0, delta=([0.1, 0.2, 0.3], 0.8),
                                          gamma_high=(0.2, 0.9), gamma_low=(0.0, [0.4, 0.5, 0.6]))
        initial = np.zeros((n, 4))
        initial[:, 0] = 1.0
        return ModelInstance(graph=NetworkGraph(a), params=params, initial_state=initial,
                             time_steps=steps)

    def test_per_node_columns_broadcast_over_the_grid(self):
        inst = self.instance()
        control = inst.constant_control([0.1, 0.2, 0.3], 0.5, np.array([0.0, 0.4, 0.8]))
        np.testing.assert_array_equal(control.time_grid, inst.time_grid())
        assert control.controls.shape == (5, 3, 3)
        for row in control.controls:
            np.testing.assert_array_equal(row, [[0.1, 0.5, 0.0], [0.2, 0.5, 0.4], [0.3, 0.5, 0.8]])

    def test_lower_box_schedule_is_the_broadcast_box(self):
        # the sweep's first schedule: the (N, 3) lower box repeated at every grid point
        inst = self.instance()
        controls = inst.constant_control(*inst.params.lower.T).controls
        expected = np.broadcast_to(inst.params.lower, (5, 3, 3))
        assert controls.dtype == np.float64 and controls.flags.c_contiguous
        assert controls.tobytes() == expected.tobytes()

    def test_integer_rates_give_float64(self):
        controls = self.instance().constant_control(0, 0, 0).controls
        assert controls.dtype == np.float64 and not controls.any()
        assert controls.flags.writeable

    def test_rates_sized_for_another_graph_rejected(self):
        with pytest.raises(ValueError, match="gamma_high must be a scalar or length 3"):
            self.instance().constant_control(0.1, [0.2, 0.3], 0.0)

    @pytest.mark.parametrize("rates, name, value", [((True, 0.5, 0.2), "delta", True),
                                                    (("0.2", 0.5, 0.2), "delta", "0.2"),
                                                    ((0.1, 0.5, [0.2, False, 0.3]),
                                                     "gamma_low[1]", False)])
    def test_rates_must_be_numbers(self, rates, name, value):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a number, got {value!r}$"):
            self.instance().constant_control(*rates)


NUMBERS = st.one_of(st.integers(-2**53, 2**53), st.floats(),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64),
                    st.floats(width=32).map(np.float32))
CELLS = st.one_of(NUMBERS, st.booleans(), st.booleans().map(np.bool_), st.text(max_size=2),
                  st.none(), st.lists(NUMBERS, max_size=3))


@st.composite
def nestings(draw):
    """Lists nested to depth 0-2 with lengths 0-3, of numbers only or of any cell;
    half of them regular, and a list cell adds a level."""
    cells = draw(st.sampled_from([NUMBERS, CELLS]))
    lengths = draw(st.lists(st.integers(0, 3), max_size=2))
    regular = draw(st.booleans())

    def build(depth):
        if depth == len(lengths):
            return draw(cells)
        length = lengths[depth] if regular else draw(st.integers(0, 3))
        return [build(depth + 1) for _ in range(length)]
    return build(0)


def shape_and_leaves(value):
    """The shape and the leaves of a regular nesting of lists; None for a ragged one."""
    if not isinstance(value, list):
        return (), [value]
    children = [shape_and_leaves(cell) for cell in value]
    if None in children or len({shape for shape, _ in children}) > 1:
        return None
    shape = children[0][0] if children else ()
    return (len(value), *shape), [leaf for _, leaves in children for leaf in leaves]


class TestNumberArray:

    @settings(max_examples=200, deadline=None)
    @given(value=nestings())
    def test_returns_the_float_array_or_names_the_field(self, value):
        found = shape_and_leaves(value)
        if found is not None and len(found[0]) in (1, 2) and all(
                isinstance(leaf, (int, float, np.integer, np.floating))
                and not isinstance(leaf, bool) for leaf in found[1]):
            array = number_array(value, "field", [(None,), (None, None)])
            expected = np.asarray(value, dtype=float)
            assert array.dtype == expected.dtype and array.shape == expected.shape
            assert array.tobytes() == expected.tobytes()
            return
        with pytest.raises(ValueError, match="^field") as raised:
            number_array(value, "field", [(None,), (None, None)])
        assert type(raised.value) is ValueError

    @pytest.mark.parametrize("value", [[[0, 1.5], [2, 3]], np.arange(4).reshape(2, 2),
                                       [np.float64(0.5), np.int64(2)], 7, np.float32(0.25)])
    def test_numbers_load_as_float64(self, value):
        array = number_array(value, "x", [(), (2,), (2, 2)])
        assert array.dtype == np.float64
        np.testing.assert_array_equal(array, np.asarray(value, dtype=float))

    @pytest.mark.parametrize("value, message", [
        ("x", "x must be a number, got 'x'"),
        (None, "x must be a number, got None"),
        ([1.0, 2.0, 3.0], r"x must be a scalar or length 2, got shape \(3,\)"),
        ([[1.0], [2.0]], r"x must be a scalar or length 2, got shape \(2, 1\)"),
        (True, "x must be a number, got True"),
        ([1.0, "2"], r"x\[1\] must be a number, got '2'"),
        (np.array([True, False]), r"x\[0\] must be a number, got True"),
        ([[1.0], 2.0], "x must be a regular array of numbers, got a ragged nesting"),
        ([np.zeros(2), np.zeros((2, 2))], "x must be a regular array of numbers"),
    ])
    def test_bad_values_named(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            number_array(value, "x", [(), (2,)])

    @pytest.mark.parametrize("value, got", [(np.zeros((3, 2)), r"shape \(3, 2\)"), ("x", "'x'"),
                                            (None, "None")])
    def test_wrong_shape_is_a_dimension_mismatch(self, value, got):
        with pytest.raises(ValueError,
                           match=rf"^x must be an array of shape \(N, 3\), got {got}$"):
            number_array(value, "x", [(None, 3)])


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
        config = dict(CASE1_CONFIG, solver={"max_iterations": 7.0})
        inst = instance_from_dict(config)
        assert inst.max_iterations == 7 and type(inst.max_iterations) is int
        # the other settings keep ModelInstance's defaults
        default = ModelInstance(graph=inst.graph, params=inst.params,
                                initial_state=inst.initial_state)
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


SCALARS = {"beta_high": 0.0004, "beta_low": 0.0002, "horizon": 10.0}
COUNTS = {"susceptible": 57, "infected_high": 2, "infected_low": 1,
          "recover_first": 0, "recover_complete": 0}


@pytest.mark.parametrize("key, value", [(key, value) for key in SCALARS for value in ("0.2", True)]
                         + [(key, value) for key in COUNTS for value in (57.5, True)])
def test_python_and_json_reject_a_value_alike(key, value):
    graph = canonical_graph()
    config = json.loads(json.dumps(CASE1_CONFIG))
    if key in SCALARS:
        config[key] = value
        with pytest.raises(ValueError) as from_python:
            ModelParams.from_scalars(60, **dict(SCALARS, **{key: value}))
    else:
        config["initial_state"][key] = value
        with pytest.raises(ValueError) as from_python:
            seed_initial_state(graph, **dict(COUNTS, **{key: value}))
    with pytest.raises(ValueError) as from_json:
        instance_from_dict(config)
    assert str(from_python.value) == str(from_json.value)


def two_node_instance(**settings):
    params = ModelParams.from_scalars(2, 0.2, 0.1, 1.0)
    return ModelInstance(graph=TWO_NODE, params=params,
                         initial_state=[[1.0, 0, 0, 0], [0, 1.0, 0, 0]], **settings)


def spec(total_devices, rooms):
    return SmartHomeSpec(total_devices=total_devices, rooms=rooms, intra_room_density=0.5,
                         inter_room_hub=True, rng_seed=0)


# case -> (error type, message, call that raises it)
REACHABLE_CHECKS = {
    "params-for-other-graph": (
        ValueError, "params sized for a different node count than the graph",
        lambda: ModelInstance(graph=TWO_NODE,
                              params=ModelParams.from_scalars(3, 0.2, 0.1, 1.0),
                              initial_state=np.zeros((2, 4)))),
    "max_iterations-0": (ValueError, "max_iterations must be at least 1, got 0",
                         lambda: two_node_instance(max_iterations=0)),
    "time_steps-0": (ValueError, "time_steps must be at least 1, got 0",
                     lambda: two_node_instance(time_steps=0)),
    "no-control_rates": (ValueError, "instance has no constant control rates configured",
                         lambda: two_node_instance().fixed_control_trajectory()),
    "grid-0-steps": (ValueError, "steps must be at least 1, got 0", lambda: uniform_grid(1.0, 0)),
    "grid-True-steps": (ValueError, "steps must be an integer, got True",
                        lambda: uniform_grid(1.0, True)),
    "grid-nan-horizon": (ValueError, "horizon must be positive and finite, got nan",
                         lambda: uniform_grid(np.nan, 3)),
    "grid-negative-horizon": (ValueError, "horizon must be positive and finite, got -1.0",
                              lambda: uniform_grid(-1.0, 3)),
    "one-room-for-two-nodes": (ValueError, "expected 2 room assignments, got 1",
                               lambda: NetworkGraph([[0, 1], [1, 0]], room_assignment=["a"])),
    "spec-0-devices": (ValueError, "total_devices must be at least 1, got 0",
                       lambda: spec(0, (("a", 0),))),
    "spec-no-rooms": (ValueError, "at least one room is required", lambda: spec(1, ())),
    "rgcs-population-0": (ValueError, "population_size must be at least 1, got 0",
                          lambda: RgcsConfig(population_size=0)),
    "ctmc-0-runs": (ValueError, "num_runs must be at least 1, got 0",
                    lambda: ctmc_simulate(two_node_instance(),
                                          two_node_instance().constant_control(0.1, 0.1, 0.1),
                                          rng_seed=0, num_runs=0)),
}


@pytest.mark.parametrize("case", REACHABLE_CHECKS)
def test_reachable_check_raises_its_error(case):
    error, message, call = REACHABLE_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error
