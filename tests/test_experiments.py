import re

import numpy as np
import pytest

from malctrl.dynamics import integrate_forward
from malctrl.experiments import (CASES, EXP4_BETA_HIGH, ExperimentSpec,
                                 _instance, run_experiment, select_sample_nodes,
                                 snapshot)
from malctrl.graphs import canonical_graph
from malctrl.model import GAMMA_H, StateTrajectory, seed_initial_state, uniform_grid
from malctrl.serialize import totals_csv


class TestSnapshot:

    def test_disease_free_all_susceptible(self):
        grid = uniform_grid(2.0, 10)
        states = np.zeros((11, 3, 4))
        states[:, :, 0] = 1.0
        report = snapshot(StateTrajectory(grid, states))
        assert report["snapshot_time"] == 0.0
        assert report["node_classes"] == ["S", "S", "S"]
        assert report["counts"] == {"S": 3, "IH": 0, "IL": 0, "RF": 0, "RC": 0}

    def test_dominant_compartment_wins(self):
        grid = uniform_grid(1.0, 2)
        states = np.zeros((3, 2, 4))
        states[:, 0] = (0.05, 0.9, 0.05, 0.0)
        states[:, 1] = (0.6, 0.1, 0.1, 0.1)
        report = snapshot(StateTrajectory(grid, states))
        assert report["node_classes"] == ["IH", "S"]

    def test_counts_sum_to_node_count(self):
        rng = np.random.default_rng(2)
        grid = uniform_grid(3.0, 30)
        states = rng.dirichlet(np.ones(5), size=(31, 8))[:, :, :4]
        report = snapshot(StateTrajectory(grid, states))
        assert sum(report["counts"].values()) == 8

    def test_earliest_peak_wins_ties(self):
        grid = uniform_grid(1.0, 3)
        states = np.zeros((4, 1, 4))
        states[:, 0, 1] = (0.5, 0.2, 0.5, 0.1)  # peak value 0.5 at k=0 and k=2
        report = snapshot(StateTrajectory(grid, states))
        assert report["snapshot_time"] == 0.0


class TestSampleNodes:

    def test_deterministic_and_seed_first(self):
        graph = canonical_graph()
        initial = seed_initial_state(graph, 57, 2, 1)
        nodes = select_sample_nodes(graph, initial)
        assert len(nodes) == len(set(nodes)) == 4
        assert initial[nodes[0], 1] == 1.0  # first infected-high device
        assert nodes == select_sample_nodes(graph, initial)


@pytest.fixture(scope="module")
def exp3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp3")
    return run_experiment(ExperimentSpec("exp3", out_dir=out)), out


@pytest.fixture
def exp4_summary(exp4_run):
    return exp4_run[0]


class TestExp3:

    def test_controlled_below_uncontrolled(self, exp3_run):
        summary, _ = exp3_run
        assert summary["peak_IH_controlled"] < summary["peak_IH_uncontrolled"]

    def test_reduction_within_band(self, exp3_run):
        summary, _ = exp3_run
        assert 10.0 <= summary["reduction_pct"] <= 90.0

    def test_expected_fields_present(self, exp3_run):
        summary, _ = exp3_run
        for key in ("peak_IH_uncontrolled", "peak_IH_controlled", "reduction_pct",
                    "snapshot_uncontrolled", "snapshot_controlled", "reference_values"):
            assert key in summary

    def test_snapshot_counts_sum_to_network_size(self, exp3_run):
        summary, _ = exp3_run
        for key in ("snapshot_uncontrolled", "snapshot_controlled"):
            assert sum(summary[key]["counts"].values()) == 60

    def test_artifacts_written(self, exp3_run):
        _, out = exp3_run
        base = out / "exp3"
        assert (base / "summary.json").exists()
        assert (base / "uncontrolled_totals.csv").exists()
        assert (base / "controlled_totals.csv").exists()
        header = (base / "controlled_totals.csv").read_text().splitlines()[0]
        assert header == "t,S,IH,IL,RF,RC"

    def test_uncontrolled_curve_rises_monotonically(self, exp3_run):
        # without any restriction nothing ever leaves the high-infection
        # compartment, so its expected count climbs monotonically and the
        # peak is the final value (saturation into a visible plateau would
        # need a peak far above the level the reduction band permits)
        summary, out = exp3_run
        rows = (out / "exp3" / "uncontrolled_totals.csv").read_text().splitlines()[1:]
        ih = np.array([float(r.split(",")[2]) for r in rows])
        assert (np.diff(ih) >= -1e-12).all()
        assert ih[-1] == pytest.approx(summary["peak_IH_uncontrolled"])
        assert ih[-1] > summary["peak_IH_controlled"]


class TestExp4:

    def test_peak_ih_strictly_increases_with_infection_rate(self, exp4_summary):
        peaks = [s["peak_IH"] for s in exp4_summary["stages"]]
        assert all(a < b for a, b in zip(peaks, peaks[1:])), peaks

    def test_peak_il_does_not_increase(self, exp4_summary):
        peaks = [s["peak_IL"] for s in exp4_summary["stages"]]
        assert all(a >= b for a, b in zip(peaks, peaks[1:])), peaks

    def test_stage_betas_round_trip(self, exp4_summary):
        betas = [s["beta_high"] for s in exp4_summary["stages"]]
        assert betas == list(EXP4_BETA_HIGH)

    def test_optimal_runs_reported_alongside(self, exp4_summary):
        for stage in exp4_summary["stages"]:
            assert "peak_IH_optimal" in stage
            assert stage["sweep"]["iterations_used"] >= 1

    def test_artifacts_match_recorded_digests(self, exp4_run, recorded_artifacts):
        recorded_artifacts(exp4_run[1])


class TestExp1Case:

    def test_case1_parameters_round_trip(self, exp1_run):
        summary, out = exp1_run[0]["cases"][0], exp1_run[1]
        assert summary["case"]["beta_high"] == 0.0004
        assert summary["case"]["beta_low"] == 0.0002
        assert summary["case"]["control_bounds"]["gamma_high"] == [0.1, 1.0]
        assert summary["sweep"]["converged"]
        assert len(summary["sample_nodes"]) == 4
        samples = (out / "exp1_case1" / "samples.csv").read_text().splitlines()
        assert samples[0] == "t,node,S,IH,IL,RF,RC,delta,gamma_h,gamma_l"
        # 4 nodes per grid point
        assert len(samples) == 1 + 4 * 301

    def test_artifacts_match_recorded_digests(self, exp1_run, recorded_artifacts):
        recorded_artifacts(exp1_run[1])


class TestInstanceBuilders:

    def test_exp4_propagation_runs_on_the_stage_instance(self, exp4_run):
        # patching at the stage's rate, both restriction rates at zero, on
        # the instance the stage solves
        for case_id in (f"exp4_stage{stage}" for stage in range(1, 5)):
            case = CASES[case_id]
            instance = _instance(canonical_graph(), **case)
            control = instance.constant_control(case["rates"][0], 0.0, 0.0)
            expected = totals_csv(integrate_forward(instance, control))
            written = exp4_run[1] / case_id / "propagation_totals.csv"
            assert written.read_bytes() == expected.encode()

    def test_exp4_stage_instances(self):
        solve_inst = _instance(canonical_graph(), **CASES["exp4_stage2"])
        assert solve_inst.params.beta_high == 0.0022
        assert solve_inst.params.horizon == 30.0
        assert (solve_inst.params.upper[:, GAMMA_H] == 0.3).all()
        assert solve_inst.control_rates == (0.6, 0.35, 0.2)
        counts = solve_inst.initial_state.sum(axis=0)
        assert counts[1] == 2.0 and counts[2] == 1.0  # 2 high seeds, 1 low


class TestDeterminism:

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(ExperimentSpec("exp3", out_dir=a))
        run_experiment(ExperimentSpec("exp3", out_dir=b))
        for name in ("summary.json", "uncontrolled_totals.csv", "controlled_totals.csv"):
            assert (a / "exp3" / name).read_bytes() == (b / "exp3" / name).read_bytes()


class TestSpecValidation:

    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment id"):
            ExperimentSpec("exp9", out_dir=tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("population_size", 0, "population_size must be at least 1"),
        ("rng_seed", -1, "rng_seed must be non-negative, got -1"),
        ("rng_seed", 1.5, "rng_seed must be an integer, got 1.5")])
    def test_population_settings_follow_the_rgcs_rules(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentSpec("exp1", out_dir=tmp_path, **{field: value})
        assert not tmp_path.joinpath("exp1").exists()

    def test_population_settings_stored_as_int(self, tmp_path):
        spec = ExperimentSpec("exp2", out_dir=tmp_path, rng_seed=7.0, population_size=np.int64(5))
        assert (spec.rng_seed, spec.population_size) == (7, 5)
        assert type(spec.rng_seed) is int and type(spec.population_size) is int
