"""Builders shared by the test modules: the two-node graph, seeded random
graphs and small instances."""

import numpy as np

from malctrl.graphs import NetworkGraph
from malctrl.model import S, ModelInstance, ModelParams

TWO_NODE = NetworkGraph([[0, 1], [1, 0]])


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
