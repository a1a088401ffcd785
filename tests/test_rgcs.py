import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl import rgcs
from malctrl.dynamics import StepTooLargeError, _forward_steps, integrate_forward
from malctrl.experiments import build_case_instance, population_comparison
from malctrl.graphs import NetworkGraph, canonical_graph
from malctrl.model import IH, ModelInstance, ModelParams
from malctrl.objective import objective
from malctrl.rgcs import RgcsConfig, rgcs_generate, rgcs_population

from helpers import TWO_NODE, random_graph


def small_instance(bounds, horizon=5.0, steps=100):
    graph = NetworkGraph([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    params = ModelParams.from_scalars(3, 0.2, 0.1, horizon, delta=bounds[0],
                                      gamma_high=bounds[1], gamma_low=bounds[2])
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=steps)


def stiff_instance():
    # no infection; gamma_high up to 40 is far beyond RK4's stability limit
    # at the coarse step of 0.25
    params = ModelParams.from_scalars(2, 0.0, 0.0, 1.0, delta=(0.0, 1.0),
                                      gamma_high=(0.0, 40.0), gamma_low=(0.0, 1.0))
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    return ModelInstance(graph=TWO_NODE, params=params, initial_state=initial, time_steps=4)


def random_instance(rng, n, time_steps):
    graph = random_graph(rng, n, 0.6)
    initial = rng.dirichlet(np.ones(5), size=n)[:, :4]
    lo = rng.uniform(0.0, 0.5, 3)
    hi = lo + rng.uniform(0.0, 1.0, 3)
    params = ModelParams.from_scalars(n, 0.4, 0.2, 2.0, *zip(lo, hi))
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=time_steps)


class TestRgcsConfig:

    @pytest.mark.parametrize("field", ["num_subintervals", "rng_seed", "population_size"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            RgcsConfig(**{field: value})

    def test_whole_floats_stored_as_int(self):
        config = RgcsConfig(num_subintervals=4.0, rng_seed=np.int64(2), population_size=3.0)
        assert config == RgcsConfig(num_subintervals=4, rng_seed=2, population_size=3)
        assert all(type(v) is int for v in vars(config).values())


class TestRgcsGenerate:

    def test_degenerate_bounds_force_constant(self):
        inst = small_instance(bounds=((0.4, 0.4), (0.3, 0.3), (0.2, 0.2)))
        for seed in (0, 1, 99):
            traj = rgcs_generate(inst, RgcsConfig(rng_seed=seed))
            assert (traj.controls[:, :, 0] == 0.4).all()
            assert (traj.controls[:, :, 1] == 0.3).all()
            assert (traj.controls[:, :, 2] == 0.2).all()

    def test_single_cut_gives_two_segments_and_reruns_identically(self):
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)))
        config = RgcsConfig(num_subintervals=1, rng_seed=5)
        traj = rgcs_generate(inst, config)
        again = rgcs_generate(inst, config)
        np.testing.assert_array_equal(traj.controls, again.controls)
        per_node_segments = {
            tuple(np.unique(traj.controls[:, i, c]).tolist())
            for i in range(3) for c in range(3)}
        assert all(len(seg) == 2 for seg in per_node_segments)

    def test_uniform_sampling_statistics(self):
        # pool the patch-rate samples of many strategies: bounds respected,
        # mean near the box midpoint
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 0.8), (0.1, 0.8)),
                              steps=30)
        samples = []
        seed = 0
        while len(samples) < 10_000:
            traj = rgcs_generate(inst, RgcsConfig(num_subintervals=9, rng_seed=seed))
            samples.extend(np.unique(traj.controls[:, :, 0]).tolist())
            seed += 1
        samples = np.array(samples[:10_000])
        assert samples.min() >= 0.1
        assert samples.max() <= 0.8
        assert abs(samples.mean() - 0.45) <= 0.02

    def test_strategies_always_admissible(self):
        inst = small_instance(bounds=((0.1, 0.8), (0.2, 0.9), (0.0, 0.3)))
        lo = inst.params.lower[None]
        hi = inst.params.upper[None]
        for seed in range(20):
            controls = rgcs_generate(inst, RgcsConfig(rng_seed=seed)).controls
            assert (controls >= lo - 1e-12).all() and (controls <= hi + 1e-12).all()

    @pytest.mark.parametrize("num_subintervals", [3, 100, 400])
    def test_table_has_at_most_one_row_per_grid_point(self, num_subintervals):
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)))
        config = RgcsConfig(num_subintervals=num_subintervals, rng_seed=2)
        values, cell = rgcs._strategy(inst, config)
        assert values.shape[0] <= min(num_subintervals, inst.time_steps) + 1
        assert cell.shape == (inst.time_steps + 1,)
        np.testing.assert_array_equal(values[cell], rgcs_generate(inst, config).controls)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           n=st.integers(min_value=1, max_value=40))
    def test_partition_validity(self, seed, n):
        # n cut points split the horizon into at most n + 1 constant pieces
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)), horizon=7.5)
        controls = rgcs_generate(inst, RgcsConfig(num_subintervals=n, rng_seed=seed)).controls
        assert controls.shape == (inst.time_steps + 1, 3, 3)
        assert (controls[1:] != controls[:-1]).any(axis=(1, 2)).sum() <= n


class TestPopulationCompare:

    def test_degenerate_bounds_match_sweep_objective(self):
        # zero-width boxes force both the random strategy and the sweep
        # optimum onto the same constant schedule
        inst = small_instance(bounds=((0.4, 0.4), (0.3, 0.3), (0.2, 0.2)))
        out = population_comparison(inst, RgcsConfig(rng_seed=3, population_size=1))
        assert out["strategies"][0]["J"] == pytest.approx(out["optimal_J"], rel=1e-10)

    def test_sweep_beats_population_on_small_instance(self):
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)))
        out = population_comparison(inst, RgcsConfig(rng_seed=11, population_size=20))
        assert out["optimal_J"] < out["strategies"][0]["J"]

    def test_deterministic_sorted_list(self):
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)))
        config = RgcsConfig(rng_seed=21, population_size=10)
        a = rgcs_population(inst, config)
        assert a == rgcs_population(inst, config)
        js = [s["J"] for s in a]
        assert js == sorted(js)
        assert {s["seed"] for s in a} == set(range(21, 31))


class TestBatchedPopulation:

    @pytest.mark.parametrize("population_size", [1, 3, 4])
    def test_population_j_equals_serial_objective_bit_for_bit(self, monkeypatch,
                                                              population_size):
        # batches of 3: sizes 1, B and B + 1 (the last batch partial)
        monkeypatch.setattr(rgcs, "_batch_size", lambda instance, config: 3)
        inst = small_instance(bounds=((0.1, 0.8), (0.1, 1.0), (0.1, 0.6)))
        config = RgcsConfig(num_subintervals=7, rng_seed=40,
                            population_size=population_size)
        out = rgcs_population(inst, config)
        assert len(out) == population_size
        for entry in out:
            strategy = rgcs_generate(inst, RgcsConfig(num_subintervals=7,
                                                      rng_seed=entry["seed"]))
            serial = objective(integrate_forward(inst, strategy), strategy).total
            assert entry["J"] == serial, entry["seed"]

    def test_canonical_population_matches_serial_objective_bit_for_bit(self):
        # N=60, 300 steps, 100 subintervals: batches of 28, so 29 strategies
        # end in a partial batch
        inst = build_case_instance(1, canonical_graph())
        config = RgcsConfig(rng_seed=7, population_size=29)
        assert rgcs._batch_size(inst, config) == 28
        out = rgcs_population(inst, config)
        for entry in out:
            strategy = rgcs_generate(inst, RgcsConfig(rng_seed=entry["seed"]))
            states = integrate_forward(inst, strategy)
            assert entry["J"] == objective(states, strategy).total, entry["seed"]

    @pytest.mark.parametrize("stiff_member", [0, 1])
    def test_step_too_large_in_any_member_raises(self, stiff_member):
        # beta is shared by the batch, so the member that leaves [0, 1] is the
        # one whose restriction rate is far beyond RK4's stability limit at
        # this coarse step; the other member stays put
        inst = stiff_instance()
        calm = inst.constant_control(0.0, 0.0, 0.0)
        stiff = inst.constant_control(0.0, 40.0, 0.0)
        with pytest.raises(StepTooLargeError):
            integrate_forward(inst, stiff)
        members = [calm.controls, calm.controls]
        members[stiff_member] = stiff.controls
        pair = np.stack(members)
        with pytest.raises(StepTooLargeError):
            list(_forward_steps(inst, lambda k: pair[:, k], (2,)))
        calm_pair = np.stack([calm.controls, calm.controls])
        for x in _forward_steps(inst, lambda k: calm_pair[:, k], (2,)):
            assert (x[..., IH].sum(axis=-1) == 1.0).all()

    @pytest.mark.parametrize("rng_seed", [0, 1])
    def test_stiff_strategy_raises_its_solo_error(self, rng_seed):
        # seed 0 leaves [0, 1] after the first step, seed 1 after the last
        inst = stiff_instance()
        config = RgcsConfig(num_subintervals=3, rng_seed=rng_seed, population_size=1)
        with pytest.raises(StepTooLargeError) as solo:
            integrate_forward(inst, rgcs_generate(inst, config))
        with pytest.raises(StepTooLargeError, match=re.escape(str(solo.value))):
            rgcs_population(inst, config)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=6),
           batch=st.integers(min_value=1, max_value=4),
           num_subintervals=st.integers(min_value=1, max_value=30),
           population_size=st.integers(min_value=1, max_value=6))
    def test_every_j_equals_its_objective(self, seed, n, batch, num_subintervals,
                                          population_size):
        # 12 steps: num_subintervals falls both below and above time_steps
        inst = random_instance(np.random.default_rng(seed), n, 12)
        config = RgcsConfig(num_subintervals=num_subintervals, rng_seed=seed % 1000,
                            population_size=population_size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rgcs, "_batch_size", lambda instance, config: batch)
            out = rgcs_population(inst, config)
        assert len(out) == population_size
        for entry in out:
            strategy = rgcs_generate(inst, replace(config, rng_seed=entry["seed"]))
            assert entry["J"] == objective(integrate_forward(inst, strategy), strategy).total


def test_exp2_population_digest():
    # sha256 of the exp2 population list, recorded before the population was
    # streamed through compact strategy tables
    inst = build_case_instance(1, canonical_graph())
    out = rgcs_population(inst, RgcsConfig(rng_seed=7, population_size=100))
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "e79f2779e07ddc8cdf9f64d7eb4010c6b1d946eff051fb0bf9af25088d416bc3"
