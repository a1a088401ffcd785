"""Tests of the benchmark itself: tiny workloads, checks that catch wrong
output, exact counts that repeat, and metric names that match BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import malctrl
import run
import tracing
import workloads

ROOT = Path(run.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def contexts():
    return {name: w.setup(seed=3, tiny=True) for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, contexts, tmp_path):
    checks = workloads.Checks()
    walls = run.run_once(workloads.WORKLOADS[name], contexts[name], tmp_path, checks)
    assert walls and min(walls) > 0
    assert checks.attempted > 0
    assert checks.failures == []


def _bump_exp1_j(summaries):
    summaries[0]["objective"]["J"] += 1e-3


def _lift_optimum(summaries):
    summaries[0]["population"]["optimal_J"] = summaries[0]["population_min_J"] + 1.0


def _denormalize_states(results):
    results[0][1].states[-1, 0, 0] += 1.0


def _add_a_device(summaries):
    summaries[0].mean_counts[1, 1] += 1.0


WRONG_OUTPUTS = {
    "exp1_solve": _bump_exp1_j,
    "rgcs_population": _lift_optimum,
    "sparse_n1000": _denormalize_states,
    "ctmc_oracle": _add_a_device,
}


@pytest.mark.parametrize("name", sorted(WRONG_OUTPUTS))
def test_wrong_output_raises_error_rate(name, contexts, tmp_path):
    workload, ctx = workloads.WORKLOADS[name], contexts[name]
    output = workload.body(ctx, tmp_path)
    WRONG_OUTPUTS[name](output)
    checks = workloads.Checks()
    workload.check(ctx, output, tmp_path, checks)
    assert checks.failed / checks.attempted > 0


def test_exact_counts_repeat_across_traced_runs(contexts, tmp_path):
    workload, ctx = workloads.WORKLOADS["exp1_solve"], contexts["exp1_solve"]
    original = malctrl.sweep.integrate_forward
    counts, checks = [], workloads.Checks()
    for _ in range(2):
        tracer = tracing.Tracer()
        wall, = run.run_once(workload, ctx, tmp_path, checks, tracer)
        counts.append(tracer.exact_counts())
        self_total = sum(v for k, v in tracer.metrics().items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(wall, rel=1e-3)
    assert checks.failures == []
    assert counts[0] == counts[1]
    for name in ("sweep.iterations", "adjoint.adjoint_rhs.calls", "serialize.bytes_written"):
        assert counts[0][name] > 0
    # names bound at import are traced too, and put back afterwards
    assert counts[0]["objective.objective.calls"] > 0
    assert counts[0]["dynamics.integrate_forward.calls"] > 0
    assert malctrl.sweep.integrate_forward is original


def test_wall_s_adds_the_fastest_wall_of_each_part():
    assert run.fastest([[3.0, 1.0], [2.0, 4.0], [5.0, 1.5]]) == 3.0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        tracing.metric_units() | run.TRACE_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ctmc_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
