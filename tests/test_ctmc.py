import numpy as np
import pytest

from malctrl.dynamics import (NonIndicatorInitialStateError, ctmc_simulate,
                              integrate_forward)
from malctrl.graphs import validate_graph
from malctrl.model import (IH, S, ControlTrajectory, DimensionMismatchError,
                           ModelInstance, ModelParams)

# compartment columns in CtmcSummary.mean_counts
C_S, C_IH, C_IL, C_RF, C_RC = range(5)


def make_instance(graph, beta_high, beta_low, horizon, initial, time_steps,
                  bounds=((0.0, 2.0),) * 3):
    params = ModelParams.from_scalars(graph.node_count, beta_high, beta_low, horizon,
                                      delta=bounds[0], gamma_high=bounds[1],
                                      gamma_low=bounds[2])
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=time_steps)


def test_zero_infection_stays_disease_free():
    graph = validate_graph([[0, 1], [1, 0]])
    initial = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(graph, 0.5, 0.2, 2.0, initial, time_steps=50)
    out = ctmc_simulate(inst, inst.constant_control(0.5, 0.5, 0.5), rng_seed=1,
                        num_runs=500)
    assert not out.mean_counts[:, C_IH].any()
    assert not out.mean_counts[:, C_IL].any()
    assert (out.mean_counts[:, C_S] == 2.0).all()


def test_non_indicator_initial_state_rejected():
    graph = validate_graph([[0, 1], [1, 0]])
    initial = np.array([[0.5, 0.5, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(graph, 0.5, 0.2, 2.0, initial, time_steps=10)
    with pytest.raises(NonIndicatorInitialStateError):
        ctmc_simulate(inst, inst.constant_control(0, 0, 0), rng_seed=1, num_runs=10)


def test_control_shape_checked():
    # a one-node control would broadcast to every node; a stack of controls
    # is one strategy per member, which the jump process does not take
    graph = validate_graph([[0, 1], [1, 0]])
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(graph, 0.5, 0.2, 2.0, initial, time_steps=10)
    controls = inst.constant_control(0.5, 0.5, 0.5).controls
    for bad in (controls[:, :1], np.stack([controls, controls])):
        with pytest.raises(DimensionMismatchError, match="expected control shape"):
            ctmc_simulate(inst, ControlTrajectory(inst.time_grid(), bad), rng_seed=1,
                          num_runs=10)


def test_isolated_node_exponential_holding_time():
    # single device starting infected-high with containment rate 1.0: the
    # holding time is exponential with mean 1.0; the occupancy integral over
    # a long horizon estimates it
    graph = validate_graph([[0]])
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
    graph = validate_graph([[0, 1], [1, 0]])
    initial = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    inst = make_instance(graph, 0.5, 0.0, 2.0, initial, time_steps=100,
                         bounds=((0.0, 0.0),) * 3)
    out = ctmc_simulate(inst, inst.constant_control(0, 0, 0), rng_seed=4,
                        num_runs=10_000)
    frac_infected = 1.0 - (out.mean_counts[-1, C_S])
    expected = 1.0 - np.exp(-0.5 * 2.0)
    assert abs(frac_infected - expected) <= 3 * out.std_error[-1, C_S] + 0.005


def test_deterministic_given_seed():
    graph = validate_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(graph, 0.3, 0.15, 3.0, initial, time_steps=60)
    control = inst.constant_control(0.4, 0.3, 0.2)
    a = ctmc_simulate(inst, control, rng_seed=123, num_runs=2000)
    b = ctmc_simulate(inst, control, rng_seed=123, num_runs=2000)
    np.testing.assert_array_equal(a.mean_counts, b.mean_counts)
    np.testing.assert_array_equal(a.std_error, b.std_error)


def test_mean_field_consistency_on_path():
    # moderate-rate three-node path: expected infected-high counts from the
    # jump process and the deterministic system agree within 10% at mid-horizon
    graph = validate_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    initial = np.array([[0.0, 1.0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    inst = make_instance(graph, 0.2, 0.1, 6.0, initial, time_steps=300)
    control = inst.constant_control(0.4, 0.3, 0.2)
    ode = integrate_forward(inst, control)
    mc = ctmc_simulate(inst, control, rng_seed=17, num_runs=20_000)
    mid = inst.time_steps // 2
    ode_ih = ode.states[mid, :, IH].sum()
    mc_ih = mc.mean_counts[mid, C_IH]
    assert abs(mc_ih - ode_ih) / ode_ih <= 0.10
