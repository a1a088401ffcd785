import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.dynamics import _reduced_rhs, ctmc_simulate
from malctrl.experiments import build_case_instance
from malctrl.graphs import NetworkGraph, canonical_graph
from malctrl.model import (DELTA, GAMMA_H, GAMMA_L, ControlTrajectory, StateTrajectory,
                           r_complete)

import helpers
from helpers import TWO_NODE, random_graph

# compartment columns in CtmcSummary.mean_counts
C_S, C_IH, C_IL, C_RF, C_RC = range(5)


# the jump-process instances admit every rate up to 2
make_instance = partial(helpers.make_instance, bounds=((0.0, 2.0),) * 3)


def test_zero_infection_stays_disease_free():
    initial = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=50)
    out = ctmc_simulate(inst, inst.constant_control(0.5, 0.5, 0.5), rng_seed=1,
                        num_runs=500)
    assert not out.mean_counts[:, C_IH].any()
    assert not out.mean_counts[:, C_IL].any()
    assert (out.mean_counts[:, C_S] == 2.0).all()


def test_non_indicator_initial_state_rejected():
    initial = np.array([[0.5, 0.5, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    with pytest.raises(ValueError, match=r"needs indicator \(0/1\) initial states"):
        ctmc_simulate(inst, inst.constant_control(0, 0, 0), rng_seed=1, num_runs=10)


def test_control_shape_checked():
    # a one-node control would broadcast to every node; a stack of controls
    # is one strategy per member, which the jump process does not take
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    controls = inst.constant_control(0.5, 0.5, 0.5).controls
    for bad in (controls[:, :1], np.stack([controls, controls])):
        with pytest.raises(ValueError, match="expected control shape"):
            ctmc_simulate(inst, ControlTrajectory(inst.time_grid(), bad), rng_seed=1,
                          num_runs=10)


@pytest.mark.parametrize("rate", [np.nan, -1.0, np.inf])
def test_bad_control_rate_rejected(rate):
    # NaN would freeze a node in IH, -1 would act as 0, and +inf would
    # overflow the substep count
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    control = inst.constant_control(0.5, 0.5, 0.5)
    control.controls[3, 1, GAMMA_H] = rate
    with pytest.raises(ValueError, match="control gamma_high must be finite and non-negative"):
        ctmc_simulate(inst, control, rng_seed=1, num_runs=10)


def test_negative_seed_named():
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    with pytest.raises(ValueError, match="rng_seed must be non-negative, got -1"):
        ctmc_simulate(inst, inst.constant_control(0.5, 0.5, 0.5), rng_seed=-1, num_runs=10)


@pytest.mark.parametrize("field", ["num_runs", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, True])
def test_fractional_or_boolean_counts_named(field, value):
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    args = {"rng_seed": 1, "num_runs": 10, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        ctmc_simulate(inst, inst.constant_control(0.5, 0.5, 0.5), **args)


def test_whole_float_counts_give_an_int_num_runs():
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    control = inst.constant_control(0.5, 0.5, 0.5)
    out = ctmc_simulate(inst, control, rng_seed=3.0, num_runs=np.int64(20))
    assert out.num_runs == 20 and type(out.num_runs) is int
    same = ctmc_simulate(inst, control, rng_seed=3, num_runs=20)
    assert out.mean_counts.tobytes() == same.mean_counts.tobytes()


def test_isolated_node_exponential_holding_time():
    # single device starting infected-high with containment rate 1.0: the
    # holding time is exponential with mean 1.0; the occupancy integral over
    # a long horizon estimates it
    graph = NetworkGraph([[0]])
    initial = np.array([[0.0, 1.0, 0.0, 0.0]])
    inst = make_instance(graph, 0.0, 0.0, 12.0, initial, time_steps=600)
    out = ctmc_simulate(inst, inst.constant_control(0.0, 1.0, 0.0), rng_seed=9,
                        num_runs=10_000)
    est = float(np.trapezoid(out.mean_counts[:, C_IH], dx=inst.dt))
    # 3 standard errors of the mean holding time (sd = 1.0 for the
    # exponential oracle) plus the sub-step discretization margin
    tol = 3.0 / np.sqrt(10_000) + inst.dt
    assert abs(est - 1.0) <= tol


def test_single_edge_infection_probability():
    # node 1 stays infected-high forever (containment pinned to zero), so
    # P[node 0 infected by t] = 1 - exp(-beta_high * t)
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.0, 2.0, initial, time_steps=100,
                         bounds=((0.0, 0.0),) * 3)
    out = ctmc_simulate(inst, inst.constant_control(0, 0, 0), rng_seed=4,
                        num_runs=10_000)
    frac_infected = 1.0 - (out.mean_counts[-1, C_S])
    expected = 1.0 - np.exp(-0.5 * 2.0)
    assert abs(frac_infected - expected) <= 3 * out.std_error[-1, C_S] + 0.005


def test_deterministic_given_seed():
    graph = NetworkGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(graph, 0.3, 0.15, 3.0, initial, time_steps=60)
    control = inst.constant_control(0.4, 0.3, 0.2)
    a = ctmc_simulate(inst, control, rng_seed=123, num_runs=2000)
    b = ctmc_simulate(inst, control, rng_seed=123, num_runs=2000)
    np.testing.assert_array_equal(a.mean_counts, b.mean_counts)
    np.testing.assert_array_equal(a.std_error, b.std_error)


def euler_mean(instance, control):
    """Exact mean compartment counts (K+1, 5) of the jump process when both
    betas are zero.  Each node is then an independent chain IH -> RF -> RC,
    IL -> RF whose substep moves fire with probability rate * sdt, so its
    mean follows forward Euler on the reduced system at the simulator's
    substep.  At zero betas the largest control bounds every rate, which
    sets the substep count by the simulator's 0.05 rule."""
    substeps = max(1, int(np.ceil(control.controls.max() * instance.dt / 0.05)))
    sdt = instance.dt / substeps
    x = instance.initial_state
    means = [x]
    for u in control.controls[:-1]:
        for _ in range(substeps):
            x = x + sdt * _reduced_rhs(x, u, 0.0, 0.0, instance.graph.adjacency)
        means.append(x)
    return StateTrajectory(instance.time_grid(), np.stack(means)).compartment_totals()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_infection_mean_is_the_euler_recurrence(seed):
    # a random 12-node graph with every compartment seeded and a time-varying
    # control: the Monte-Carlo mean lies within 4.5 standard errors of the
    # exact mean, and equals it where every replica agrees (S, and t = 0).
    # The RK4 mean-field ODE misses the mean by 4.3 to 6.6 standard errors
    # on these seeds: it lacks the O(sdt) bias of the substep chain
    rng = np.random.default_rng(seed)
    n = 12
    graph = random_graph(rng, n, 0.5)
    codes = np.concatenate([np.arange(5), rng.integers(0, 5, n - 5)])
    initial = np.eye(5)[rng.permutation(codes)][:, :4]
    inst = make_instance(graph, 0.0, 0.0, 3.0, initial, time_steps=30)
    control = ControlTrajectory(inst.time_grid(), rng.uniform(0.1, 2.0, (31, n, 3)))
    out = ctmc_simulate(inst, control, rng_seed=seed, num_runs=20_000)
    mean = euler_mean(inst, control)
    spread = out.std_error > 0
    z = (out.mean_counts - mean)[spread] / out.std_error[spread]
    assert np.abs(z).max() <= 4.5
    np.testing.assert_array_equal(out.mean_counts[~spread], mean[~spread])


# ---------------------------------------------------------------------------
# the random stream and its summary, pinned bit for bit

def dense_reference(instance, control, rng_seed, num_runs):
    """The jump process as a dense loop: every substep builds the transition
    masks of all replicas and nodes, and every step recounts every replica.
    It keeps the stream of ``ctmc_simulate`` (batches of 4096 replicas, one
    generator per batch, one uniform per node and substep, substeps until no
    probability exceeds 0.05), so the two must agree bit for bit."""
    grid = instance.time_grid()
    steps, n = grid.shape[0] - 1, instance.node_count
    dt = grid[1] - grid[0]
    beta_high, beta_low = instance.params.beta_high, instance.params.beta_low
    adjacency = instance.graph.adjacency
    max_degree = adjacency.sum(axis=1).max()
    rate_max = max(beta_high * max_degree, beta_low * max_degree,
                   float(control.controls.max(initial=0.0)))
    substeps = max(1, int(np.ceil(rate_max * dt / 0.05)))
    sdt = dt / substeps
    full = np.c_[instance.initial_state, r_complete(instance.initial_state)]
    init_code = full.argmax(axis=1).astype(np.int8)
    count_sum = np.zeros((steps + 1, 5))
    count_sq = np.zeros((steps + 1, 5))

    def accumulate(k, y):
        counts = np.stack([(y == c).sum(axis=1) for c in range(5)], axis=1).astype(float)
        count_sum[k] += counts.sum(axis=0)
        count_sq[k] += (counts ** 2).sum(axis=0)

    for batch_index, done in enumerate(range(0, num_runs, 4096)):
        m = min(4096, num_runs - done)
        rng = np.random.default_rng([rng_seed, batch_index])
        y = np.tile(init_code, (m, 1))
        accumulate(0, y)
        for k in range(steps):
            u = control.controls[k]
            p_gh, p_gl, p_d = u[:, GAMMA_H] * sdt, u[:, GAMMA_L] * sdt, u[:, DELTA] * sdt
            for _ in range(substeps):
                draws = rng.random((m, n))
                p_h = beta_high * ((y == 1) @ adjacency.T) * sdt
                p_l = beta_low * ((y == 2) @ adjacency.T) * sdt
                is_s = y == 0
                to_high = is_s & (draws < p_h)
                to_low = is_s & ~to_high & (draws < p_h + p_l)
                to_rf = ((y == 1) & (draws < p_gh)) | ((y == 2) & (draws < p_gl))
                to_rc = (y == 3) & (draws < p_d)
                y[to_high] = 1
                y[to_low] = 2
                y[to_rf] = 3
                y[to_rc] = 4
            accumulate(k + 1, y)

    mean = count_sum / num_runs
    if num_runs == 1:
        return mean, np.zeros_like(mean)
    var = np.maximum(count_sq - num_runs * mean ** 2, 0.0) / (num_runs - 1)
    return mean, np.sqrt(var / num_runs)


def random_jump_instance(rng, n):
    """A random dense graph on n nodes, seeded mostly infected so that many
    susceptible nodes have only infected neighbours, with random betas (zero
    one time in five) and a time-varying control.  Rates reach a few per unit
    time, so a grid step often splits into several substeps."""
    graph = random_graph(rng, n, 0.7)
    initial = np.eye(5)[rng.choice(5, size=n, p=[0.3, 0.3, 0.2, 0.1, 0.1])][:, :4]
    beta_high = rng.choice([0.0, rng.uniform(0.5, 4.0)], p=[0.2, 0.8])
    beta_low = rng.uniform(0.0, beta_high)
    inst = make_instance(graph, beta_high, beta_low,
                         horizon=rng.uniform(0.5, 3.0), initial=initial,
                         time_steps=int(rng.integers(1, 7)))
    controls = rng.uniform(0.0, 2.0, (inst.time_steps + 1, n, 3))
    controls[rng.random(controls.shape) < 0.2] = 0.0
    return inst, ControlTrajectory(inst.time_grid(), controls)


def digest(summary):
    return hashlib.sha256(summary.mean_counts.tobytes() + summary.std_error.tobytes()).hexdigest()


def test_canonical_summary_digest():
    inst = build_case_instance(1, canonical_graph())
    out = ctmc_simulate(inst, inst.constant_control(*inst.control_rates), rng_seed=5,
                        num_runs=300)
    assert digest(out) == "d8724f42a3fab3099c218366edd61f5cdcb977d4f6b0060e9b7a8d087ad2e1f4"


def test_two_batch_summary_digest():
    # every compartment seeded, 44 substeps per step; 4097 replicas make one
    # full batch of 4096 and a second batch of one
    inst, control = random_jump_instance(np.random.default_rng(12), 5)
    out = ctmc_simulate(inst, control, rng_seed=11, num_runs=4097)
    assert digest(out) == "cf125407532e475191d03f6ba4dd284834925b831f82d8f2e87fb5f5eb45841d"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=8),
       num_runs=st.integers(min_value=1, max_value=300))
def test_matches_dense_reference(seed, n, num_runs):
    inst, control = random_jump_instance(np.random.default_rng(seed), n)
    out = ctmc_simulate(inst, control, rng_seed=seed, num_runs=num_runs)
    mean, std_error = dense_reference(inst, control, seed, num_runs)
    np.testing.assert_array_equal(out.mean_counts, mean)
    np.testing.assert_array_equal(out.std_error, std_error)
