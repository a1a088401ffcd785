"""Release gate: every acceptance criterion at its pinned tolerance.

One test per criterion, numbered; each prints a PASS line with its runtime
(visible with ``pytest -s`` or ``-v``).  Budgets are asserted where the
criterion states one.
"""

import time

import numpy as np

from malctrl.adjoint import integrate_backward
from malctrl.dynamics import _reduced_rhs, ctmc_simulate, integrate_forward
from malctrl.experiments import ExperimentSpec, build_case_instance, run_experiment
from malctrl.graphs import (NetworkGraph, canonical_graph, canonical_spec, floorplan_spec,
                            generate_smart_home, graph_to_json)
from malctrl.model import (DELTA, IH, IL, LAM_F, LAM_H, LAM_L, RF,
                           AdjointTrajectory, ControlTrajectory, ModelInstance,
                           ModelParams, StateTrajectory, uniform_grid)
from malctrl.objective import objective
from malctrl.rgcs import RgcsConfig, rgcs_generate, rgcs_population
from malctrl.sweep import control_update, fbsm_solve
from malctrl.adjoint import hamiltonian

from helpers import random_graph


def _report(number, name, started):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - started:.1f} s)")


def test_criterion_01_normalization_suite():
    """50 random instances, random admissible controls: |sum - 1| <= 1e-6."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(50):
        n = (5, 20, 60)[trial % 3]
        graph = random_graph(rng, n, 0.4)
        beta_high = 0.5 * rng.random() / max(1.0, graph.degrees().max())
        params = ModelParams.from_scalars(
            n, beta_high, beta_high * rng.random(), horizon=3.0,
            delta=(0.0, 1.0), gamma_high=(0.0, 1.0), gamma_low=(0.0, 1.0))
        initial = rng.dirichlet(np.ones(5), size=n)[:, :4]
        inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                             time_steps=200)
        controls = rng.random((201, n, 3))
        traj = integrate_forward(inst, ControlTrajectory(inst.time_grid(), controls))
        worst = max(worst, float(np.abs(traj.full_states().sum(axis=2) - 1.0).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6, f"worst normalization drift {worst}"
    assert elapsed < 30.0, f"normalization suite took {elapsed:.1f} s"
    _report(1, "normalization-suite", started)


def test_criterion_02_rhs_components_sum_to_zero():
    """1000 random five-compartment derivative rows sum to <= 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    graph = canonical_graph()
    params = ModelParams.from_scalars(60, 0.004, 0.002, 1.0)
    worst = 0.0
    for _ in range(1000):
        state = rng.dirichlet(np.ones(5), size=60)[:, :4]
        control = rng.random((60, 3))
        reduced = _reduced_rhs(state, control, params.beta_high, params.beta_low,
                               graph.adjacency)
        # the fifth column is the patch flow RF -> RC, delta * RF
        sums = reduced.sum(axis=1) + control[:, DELTA] * state[:, RF]
        worst = max(worst, float(np.abs(sums).max()))
    assert worst <= 1e-12, f"worst per-node component sum {worst}"
    _report(2, "rhs-sum-to-zero", started)


def test_criterion_03_jump_process_matches_ode():
    """3-node path, 20,000 runs: expected IH counts within 10% at mid-horizon."""
    started = time.perf_counter()
    graph = NetworkGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    params = ModelParams.from_scalars(3, 0.2, 0.1, 6.0, delta=(0.0, 1.0),
                                      gamma_high=(0.0, 1.0), gamma_low=(0.0, 1.0))
    inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=300)
    control = inst.constant_control(0.4, 0.3, 0.2)
    ode = integrate_forward(inst, control)
    mc = ctmc_simulate(inst, control, rng_seed=17, num_runs=20_000)
    mid = inst.time_steps // 2
    ode_ih = float(ode.states[mid, :, IH].sum())
    mc_ih = float(mc.mean_counts[mid, 1])
    rel = abs(mc_ih - ode_ih) / ode_ih
    elapsed = time.perf_counter() - started
    assert rel <= 0.10, f"jump process vs ODE relative gap {rel:.3%}"
    assert elapsed < 120.0, f"consistency check took {elapsed:.1f} s"
    _report(3, "jump-process-vs-ode", started)


def test_criterion_04_pointwise_hamiltonian_minimality():
    """Clamped update beats 500 random admissible controls at 200 random points."""
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    n = 10
    graph = random_graph(rng, n, 0.5)
    params = ModelParams.from_scalars(n, 0.4, 0.2, 1.0, delta=(0.1, 0.8),
                                      gamma_high=(0.1, 1.0), gamma_low=(0.1, 0.6))
    lo, hi = params.lower, params.upper
    grid = uniform_grid(1.0, 1)
    for _ in range(200):
        state = rng.dirichlet(np.ones(5), size=n)[:, :4]
        costate = rng.normal(scale=3.0, size=(n, 4))
        st_traj = StateTrajectory(grid, np.stack([state, state]))
        ad_traj = AdjointTrajectory(grid, np.stack([costate, np.zeros_like(costate)]))
        best = control_update(st_traj, ad_traj, params).controls[0]
        h_best = hamiltonian(state, best, costate, params, graph)
        # 500 random admissible candidates, vector-drawn then checked one by one
        candidates = lo + (hi - lo) * rng.random((500, n, 3))
        for candidate in candidates:
            assert h_best <= hamiltonian(state, candidate, costate, params, graph) + 1e-9
    _report(4, "pointwise-minimality", started)


def test_criterion_05_gradient_check_consistent_mode():
    """Costate gradient vs central differences of J: within 1e-3 relative."""
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    graph = random_graph(rng, 5, 0.7)
    initial = np.zeros((5, 4))
    initial[:, 0] = 1.0
    initial[0] = (0.0, 1.0, 0.0, 0.0)
    initial[1] = (0.0, 0.0, 1.0, 0.0)
    params = ModelParams.from_scalars(5, 0.3, 0.15, 5.0, delta=(0.05, 1.5),
                                      gamma_high=(0.05, 1.5), gamma_low=(0.05, 1.5))
    inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=500, adjoint_mode="consistent")
    grid = inst.time_grid()
    u = 0.4 + 0.2 * rng.random((501, 5, 3))
    control = ControlTrajectory(grid, u)
    states = integrate_forward(inst, control)
    adj = integrate_backward(states, control, inst)

    def drift_sensitivity(c):
        lam, st_arr = adj.costates, states.states
        if c == 0:
            return -lam[:, :, LAM_F] * st_arr[:, :, RF]
        if c == 1:
            return -(lam[:, :, LAM_H] - lam[:, :, LAM_F]) * st_arr[:, :, IH]
        return -(lam[:, :, LAM_L] - lam[:, :, LAM_F]) * st_arr[:, :, IL]

    dt = inst.dt
    w = np.full(501, dt)
    w[0] = w[-1] = 0.5 * dt
    h = 1e-5
    windows = [(0, 0, 50, 100), (0, 1, 100, 180), (1, 2, 200, 300),
               (2, 1, 40, 140), (4, 2, 120, 220), (3, 0, 300, 400),
               (3, 1, 320, 420), (2, 2, 60, 160)]
    g_an, g_fd = [], []
    for (i, c, a, b) in windows:
        phi = drift_sensitivity(c)[:, i]
        g_an.append(sum(w[m] * u[m, i, c] + dt * 0.5 * (phi[m] + phi[m + 1])
                        for m in range(a, b)))
        up, dn = u.copy(), u.copy()
        up[a:b, i, c] += h
        dn[a:b, i, c] -= h
        j_up = objective(integrate_forward(inst, ControlTrajectory(grid, up)),
                         ControlTrajectory(grid, up)).total
        j_dn = objective(integrate_forward(inst, ControlTrajectory(grid, dn)),
                         ControlTrajectory(grid, dn)).total
        g_fd.append((j_up - j_dn) / (2 * h))
    g_an, g_fd = np.array(g_an), np.array(g_fd)
    rel = float(np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd))
    assert rel <= 1e-3, f"gradient check relative error {rel:.2e}"
    _report(5, "gradient-check-consistent", started)


def test_criterion_06_sweep_beats_random_populations():
    """Optimal J below 100 random strategies' J for 5 independent master seeds."""
    started = time.perf_counter()
    instance = build_case_instance(1, canonical_graph())
    control, states, _, _ = fbsm_solve(instance)   # deterministic: one solve serves every seed
    optimal_j = objective(states, control).total
    for master_seed in (7, 107, 207, 307, 407):
        config = RgcsConfig(num_subintervals=100, rng_seed=master_seed,
                            population_size=100)
        population_min = rgcs_population(instance, config)[0]["J"]
        assert optimal_j < population_min, (
            f"seed {master_seed}: optimal {optimal_j} vs population min {population_min}")
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"population comparison took {elapsed:.1f} s"
    _report(6, "sweep-beats-random", started)


def test_criterion_07_sweep_convergence_all_cases():
    """Cases 1-4 converge below 1e-4 residual within 100 iterations."""
    started = time.perf_counter()
    for case in (1, 2, 3, 4):
        case_started = time.perf_counter()
        inst = build_case_instance(case, canonical_graph())
        _, _, _, report = fbsm_solve(inst)
        case_elapsed = time.perf_counter() - case_started
        assert report.converged, f"case {case} did not converge"
        assert report.final_residual < 1e-4
        assert report.iterations_used <= 100
        assert case_elapsed < 60.0, f"case {case} took {case_elapsed:.1f} s"
    _report(7, "sweep-convergence", started)


def test_criterion_08_restriction_rates_cut_peak_infection(tmp_path):
    """Controlled peak strictly below uncontrolled; reduction within [10%, 90%]."""
    started = time.perf_counter()
    summary = run_experiment(ExperimentSpec("exp3", out_dir=tmp_path))
    assert summary["peak_IH_controlled"] < summary["peak_IH_uncontrolled"]
    assert 10.0 <= summary["reduction_pct"] <= 90.0, summary["reduction_pct"]
    _report(8, "restriction-reduces-peak", started)


def test_criterion_09_infection_rate_sweep_orderings(exp4_run):
    """Peak IH strictly increases and peak IL does not increase across stages."""
    started = time.perf_counter()
    summary, _ = exp4_run
    peaks_ih = [s["peak_IH"] for s in summary["stages"]]
    peaks_il = [s["peak_IL"] for s in summary["stages"]]
    assert all(a < b for a, b in zip(peaks_ih, peaks_ih[1:])), peaks_ih
    assert all(a >= b for a, b in zip(peaks_il, peaks_il[1:])), peaks_il
    _report(9, "rate-sweep-orderings", started)


def test_criterion_10_seeded_pipelines_reproduce_bytes(tmp_path, recorded_artifacts):
    """Dataset, random strategies, jump process, and experiments re-run identically."""
    started = time.perf_counter()
    # dataset
    for spec in (canonical_spec(), floorplan_spec()):
        assert (graph_to_json(generate_smart_home(spec))
                == graph_to_json(generate_smart_home(spec)))
    # random control strategies
    inst = build_case_instance(1, canonical_graph())
    cfg = RgcsConfig(num_subintervals=20, rng_seed=5, population_size=5)
    assert (rgcs_generate(inst, cfg).controls.tobytes()
            == rgcs_generate(inst, cfg).controls.tobytes())
    assert rgcs_population(inst, cfg) == rgcs_population(inst, cfg)
    # jump process
    graph = NetworkGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    params = ModelParams.from_scalars(3, 0.3, 0.15, 3.0, delta=(0.0, 1.0),
                                      gamma_high=(0.0, 1.0), gamma_low=(0.0, 1.0))
    mc_inst = ModelInstance(graph=graph, params=params, initial_state=initial,
                            time_steps=60)
    mc_control = mc_inst.constant_control(0.4, 0.3, 0.2)
    a = ctmc_simulate(mc_inst, mc_control, rng_seed=29, num_runs=3000)
    b = ctmc_simulate(mc_inst, mc_control, rng_seed=29, num_runs=3000)
    assert a.mean_counts.tobytes() == b.mean_counts.tobytes()
    assert a.std_error.tobytes() == b.std_error.tobytes()
    # experiments: artifacts byte-identical across re-runs
    for experiment_id in ("exp3", "exp1_case1"):
        dir_a = tmp_path / f"{experiment_id}_a"
        dir_b = tmp_path / f"{experiment_id}_b"
        run_experiment(ExperimentSpec(experiment_id, out_dir=dir_a))
        run_experiment(ExperimentSpec(experiment_id, out_dir=dir_b))
        files_a = sorted(p for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p for p in dir_b.rglob("*") if p.is_file())
        assert [p.relative_to(dir_a) for p in files_a] == \
               [p.relative_to(dir_b) for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs"
        recorded_artifacts(dir_a)
    _report(10, "seeded-byte-reproducibility", started)
