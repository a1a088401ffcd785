"""Builders shared by the test modules: the two-node graph, the four-room
floor plan, seeded random graphs, small instances, the running cost and
Hamiltonian of one snapshot, the message of a bad control rate and the
finite-difference check of the costate gradient."""

import re

import numpy as np

from malctrl.adjoint import integrate_backward
from malctrl.dynamics import _reduced_rhs, integrate_forward
from malctrl.graphs import NetworkGraph, SmartHomeSpec
from malctrl.model import (IH, IL, LAM_F, LAM_H, LAM_L, RF, S, ControlTrajectory,
                           ModelInstance, ModelParams)
from malctrl.objective import _control_sums, _state_sums, objective

TWO_NODE = NetworkGraph([[0, 1], [1, 0]])

# four rooms plus a hub node that ties them together
FLOORPLAN = SmartHomeSpec(total_devices=60,
                          rooms=(("hub", 1), ("living_room", 15), ("kitchen", 15),
                                 ("gaming_room", 15), ("bedroom", 14)),
                          intra_room_density=0.5, inter_room_hub=True, rng_seed=42)


def random_graph(rng, n, density):
    """An n-node graph whose links {i, j}, i < j, are the entries of one
    ``rng.random((n, n))`` draw below ``density``."""
    a = np.triu((rng.random((n, n)) < density).astype(int), 1)
    return NetworkGraph(a + a.T)


def make_instance(graph, beta_high, beta_low, horizon, initial=None, time_steps=200,
                  bounds=((0.0, 1.0),) * 3):
    """An instance with one (lo, hi) box per control for every node; the
    initial state defaults to all susceptible."""
    params = ModelParams.from_scalars(graph.node_count, beta_high, beta_low, horizon,
                                      delta=bounds[0], gamma_high=bounds[1],
                                      gamma_low=bounds[2])
    if initial is None:
        initial = np.zeros((graph.node_count, 4))
        initial[:, S] = 1.0
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=time_steps)


def small_instance(seed=2, n=5, horizon=4.0, steps=200, mode="paper"):
    """A random n-node graph with node 0 infected-high, node 1 infected-low and
    the rest susceptible, every control in [0.05, 1.5]; ``seed`` is a seed or
    a generator, which draws the graph and can go on to draw a control."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, 0.7)
    initial = np.zeros((n, 4))
    initial[:, S] = 1.0
    initial[0] = (0.0, 1.0, 0.0, 0.0)
    initial[1] = (0.0, 0.0, 1.0, 0.0)
    params = ModelParams.from_scalars(n, 0.3, 0.15, horizon, delta=(0.05, 1.5),
                                      gamma_high=(0.05, 1.5), gamma_low=(0.05, 1.5))
    return ModelInstance(graph=graph, params=params, initial_state=initial,
                         time_steps=steps, adjoint_mode=mode)


def running_cost(state, control):
    """Instantaneous cost of one (N, 4) state and (N, 3) control: the
    integrand that ``objective`` integrates."""
    infection, recovery = _state_sums(state)
    patch, restriction = _control_sums(control)
    return float(infection + patch + restriction - recovery)


def hamiltonian(state, control, costate, params, graph):
    """Running cost plus costate-weighted drift of the four stored compartments."""
    drift = _reduced_rhs(state, control, params.beta_high, params.beta_low, graph.adjacency)
    return running_cost(state, control) + float((costate * drift).sum())


def bad_rate_message(control: str, rate: float) -> str:
    """The escaped start of the error for a control entry ``rate`` in column
    ``control``: a NaN or infinite one breaks the finiteness rule of every
    trajectory, a negative one the sign rule of controls."""
    if rate < 0:
        return re.escape(f"control {control} must be non-negative, got {rate}")
    return re.escape(f"control must be finite, got {rate}")


def gradient_error(inst, u, windows):
    """Relative error of the costate gradient of J against central differences.

    Each window ``(node, control, t_start, t_end)`` perturbs one control of
    one node on the grid points of [t_start, t_end).
    """
    grid, dt = inst.time_grid(), inst.dt
    control = ControlTrajectory(grid, u)
    states = integrate_forward(inst, control)
    lam, x = integrate_backward(states, control, inst).costates, states.states
    drift_sensitivity = -np.stack([lam[..., LAM_F] * x[..., RF],
                                   (lam[..., LAM_H] - lam[..., LAM_F]) * x[..., IH],
                                   (lam[..., LAM_L] - lam[..., LAM_F]) * x[..., IL]], axis=-1)
    w = np.full(inst.time_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    h = 1e-5
    g_an, g_fd = [], []
    for i, c, t_start, t_end in windows:
        m = np.arange(round(t_start / dt), round(t_end / dt))
        phi = drift_sensitivity[:, i, c]
        g_an.append((w[m] * u[m, i, c] + 0.5 * dt * (phi[m] + phi[m + 1])).sum())
        j = []
        for step in (h, -h):
            v = u.copy()
            v[m, i, c] += step
            perturbed = ControlTrajectory(grid, v)
            j.append(objective(integrate_forward(inst, perturbed), perturbed).total)
        g_fd.append((j[0] - j[1]) / (2 * h))
    g_an, g_fd = np.array(g_an), np.array(g_fd)
    return np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd)
