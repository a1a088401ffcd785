import hashlib
import math
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl import dynamics
from malctrl.dynamics import ctmc_simulate, integrate_forward
from malctrl.experiments import build_case_instance
from malctrl.graphs import NetworkGraph, canonical_graph
from malctrl.model import DELTA, GAMMA_H, GAMMA_L, ControlTrajectory, r_complete

import helpers
from exact_chain import exact_chain
from helpers import TWO_NODE, bad_rate_message, random_graph

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
        with pytest.raises(ValueError, match=r"^control must be an array of shape \(11, 2, 3\)"):
            ctmc_simulate(inst, ControlTrajectory(inst.time_grid(), bad), rng_seed=1,
                          num_runs=10)


@pytest.mark.parametrize("rate", [np.nan, -1.0, np.inf])
def test_bad_control_rate_rejected(rate):
    # a NaN, negative or infinite rate leaves the integral of the control,
    # which sets every exit time, undefined, falling or infinite
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    control = inst.constant_control(0.5, 0.5, 0.5)
    control.controls[3, 1, GAMMA_H] = rate
    with pytest.raises(ValueError, match=bad_rate_message("gamma_high", rate)):
        ctmc_simulate(inst, control, rng_seed=1, num_runs=10)


def test_negative_seed_named():
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(TWO_NODE, 0.5, 0.2, 2.0, initial, time_steps=10)
    with pytest.raises(ValueError, match="^rng_seed must be at least 0, got -1$"):
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
    # exponential oracle) plus a bound on the trapezoid's O(dt^2) error
    tol = 3.0 / np.sqrt(10_000) + inst.dt ** 2
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


def every_compartment_instance(seed, beta_high, beta_low):
    """A random 5-node graph with one node in each compartment and a random
    time-varying control; ``seed`` also draws the graph and the control."""
    rng = np.random.default_rng(seed)
    n = 5
    graph = random_graph(rng, n, 0.5)
    initial = np.eye(5)[rng.permutation(5)][:, :4]
    inst = make_instance(graph, beta_high, beta_low, 3.0, initial, time_steps=30)
    return inst, ControlTrajectory(inst.time_grid(), rng.uniform(0.1, 2.0, (31, n, 3)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_chain_keeps_mass_and_is_the_mean_field_without_infection(seed):
    # at zero betas the nodes are independent, and each node's law follows the
    # mean-field ODE; RK4 is linear, so with one step per cell the chain's
    # means equal integrate_forward's up to rounding
    inst, control = every_compartment_instance(seed, 0.0, 0.0)
    probabilities, occupancy = exact_chain(inst, control, substeps=1)
    np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probabilities @ occupancy,
                               integrate_forward(inst, control).compartment_totals(),
                               rtol=0, atol=1e-10)
    inst, control = every_compartment_instance(seed, 1.0, 0.6)
    probabilities, _ = exact_chain(inst, control, substeps=4)
    np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("betas", [(0.0, 0.0), (1.0, 0.6)], ids=["beta0", "beta1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mean_matches_the_exact_chain(seed, betas):
    # 40,000 replicas on a 5-node graph with every compartment seeded: the
    # Monte-Carlo mean lies within 4.5 standard errors of the exact chain's
    # mean, and equals it where every replica agrees (t = 0, and S without
    # infection).  A Bernoulli substep chain, forward Euler at zero betas,
    # misses by 4.8 to 5.4 standard errors there
    inst, control = every_compartment_instance(seed, *betas)
    probabilities, occupancy = exact_chain(inst, control, substeps=4)
    exact = probabilities @ occupancy
    out = ctmc_simulate(inst, control, rng_seed=seed, num_runs=40_000)
    spread = out.std_error > 0
    z = (out.mean_counts - exact)[spread] / out.std_error[spread]
    assert np.abs(z).max() <= 4.5
    np.testing.assert_allclose(out.mean_counts[~spread], exact[~spread], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the random stream and its summary, pinned bit for bit

def event_reference(instance, control, rng_seed, num_runs):
    """The jump process as a plain event loop over one replica at a time.

    It reads the random numbers of ``ctmc_simulate`` in its layout: batches
    of ``dynamics._BATCH`` replicas, one generator per batch seeded by
    (rng_seed, batch_index), the exponential budgets of leaving IH or IL and
    of leaving RF first, then blocks of candidate gaps and marks, drawn as a
    replica first needs them.  It repeats the simulator's arithmetic, so the
    two must agree bit for bit."""
    grid = instance.time_grid().tolist()
    steps, horizon, n = len(grid) - 1, grid[-1], instance.node_count
    beta_high, beta_low = instance.params.beta_high, instance.params.beta_low
    adjacency = instance.graph.adjacency.tolist()
    u = control.controls.tolist()
    full = np.c_[instance.initial_state, r_complete(instance.initial_state)]
    code = full.argmax(axis=1).tolist()

    integral = [[[0.0] * 3 for _ in range(n)]]
    for k in range(steps):
        integral.append([[integral[k][i][c] + u[k][i][c] * (grid[k + 1] - grid[k])
                          for c in range(3)] for i in range(n)])

    def exit_time(i, c, start, budget):
        k = max(k for k in range(steps + 1) if grid[k] <= start)
        target = integral[k][i][c] + u[k][i][c] * (start - grid[k]) + budget
        while k < steps and integral[k + 1][i][c] <= target:
            k += 1
        if k == steps:
            return math.inf
        return max(start, grid[k] + (target - integral[k][i][c]) / u[k][i][c])

    rate = [beta_high * sum(adjacency[i]) if code[i] == 0 else 0.0 for i in range(n)]
    ends, total = [], 0.0
    for r in rate:
        total += r
        ends.append(total)
    width = dynamics._BLOCK
    count_sum = np.zeros((steps + 1, 5))
    count_sq = np.zeros((steps + 1, 5))

    for batch_index, done in enumerate(range(0, num_runs, dynamics._BATCH)):
        m = min(dynamics._BATCH, num_runs - done)
        rng = np.random.default_rng([rng_seed, batch_index])
        budget = (-np.log1p(-rng.random((2, m, n)))).tolist()
        blocks = []

        def candidate(s, r):
            while len(blocks) * width <= s:
                block = rng.random((width, 2, m))
                blocks.append(((-np.log1p(-block[:, 0]) / total).tolist(),
                               (block[:, 1] * total).tolist()))
            gaps, marks = blocks[s // width]
            return gaps[s % width][r], marks[s % width][r]

        for r in range(m):
            t_in = [math.inf if c == 0 else 0.0 for c in code]
            t_rf = [0.0 if c >= 3 else math.inf for c in code]
            t_rc = [0.0 if c == 4 else math.inf for c in code]
            high = [c == 1 for c in code]
            for i in range(n):
                if code[i] in (1, 2):
                    t_rf[i] = exit_time(i, GAMMA_H if high[i] else GAMMA_L, 0.0, budget[0][r][i])
            t, s = 0.0, 0
            while total > 0.0:
                gap, mark = candidate(s, r)
                s += 1
                t += gap
                if not t < horizon:
                    break
                j = next((i for i in range(n - 1) if mark < ends[i]), n - 1)
                w = mark - (ends[j - 1] if j else 0.0)
                if not t < t_in[j]:
                    continue
                near = [i for i in range(n) if adjacency[j][i] and t_in[i] <= t < t_rf[i]]
                n_high = sum(high[i] for i in near)
                n_low = len(near) - n_high
                if w < beta_high * n_high + beta_low * n_low:
                    t_in[j], high[j] = t, w < beta_high * n_high
                    t_rf[j] = exit_time(j, GAMMA_H if high[j] else GAMMA_L, t, budget[0][r][j])
            for i in range(n):
                if t_rf[i] < math.inf and code[i] != 4:
                    t_rc[i] = exit_time(i, DELTA, t_rf[i], budget[1][r][i])
            for k, now in enumerate(grid):
                counts = np.zeros(5)
                for i in range(n):
                    if now < t_in[i]:
                        counts[0] += 1
                    elif now < t_rf[i]:
                        counts[1 if high[i] else 2] += 1
                    else:
                        counts[3 if now < t_rc[i] else 4] += 1
                count_sum[k] += counts
                count_sq[k] += counts ** 2

    mean = count_sum / num_runs
    if num_runs == 1:
        return mean, np.zeros_like(mean)
    var = np.maximum(count_sq - num_runs * mean ** 2, 0.0) / (num_runs - 1)
    return mean, np.sqrt(var / num_runs)


def random_jump_instance(rng, n):
    """A random dense graph on n nodes, seeded mostly infected so that many
    susceptible nodes have only infected neighbours, with random betas (zero
    one time in five) and a time-varying control.  Rates reach a few per unit
    time, so a grid cell often holds several events."""
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


CANONICAL_DIGEST = "b187b0b65b08bcebf703aa7f7d7b5d64179778b8bada8516fd7011497319c9a9"


def canonical_summary():
    inst = build_case_instance(1, canonical_graph())
    return ctmc_simulate(inst, inst.constant_control(*inst.control_rates), rng_seed=5,
                         num_runs=300)


def test_canonical_summary_digest():
    assert digest(canonical_summary()) == CANONICAL_DIGEST


def test_two_batch_summary_digest():
    # every compartment seeded; one replica more than a batch makes one full
    # batch and a second batch of one
    inst, control = random_jump_instance(np.random.default_rng(12), 5)
    out = ctmc_simulate(inst, control, rng_seed=11, num_runs=dynamics._BATCH + 1)
    assert digest(out) == "42a447f5b13815539016b76dcc6889ecdc467e5489c4abbb971ac37784169fab"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=8),
       num_runs=st.integers(min_value=1, max_value=300))
def test_matches_dense_reference(seed, n, num_runs):
    inst, control = random_jump_instance(np.random.default_rng(seed), n)
    out = ctmc_simulate(inst, control, rng_seed=seed, num_runs=num_runs)
    mean, std_error = event_reference(inst, control, seed, num_runs)
    np.testing.assert_array_equal(out.mean_counts, mean)
    np.testing.assert_array_equal(out.std_error, std_error)


def test_concurrent_calls_keep_their_streams():
    # four callers, switching threads as often as the interpreter allows: a
    # state shared between calls would change a summary
    digests = []
    # daemon callers: a deadlocked one fails the join below and cannot keep
    # the test session from exiting
    callers = [threading.Thread(target=lambda: digests.append(digest(canonical_summary())),
                                daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 60
        for caller in callers:
            caller.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert digests == [CANONICAL_DIGEST] * 4
