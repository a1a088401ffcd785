"""The exact jump process on a small graph: the Kolmogorov forward equation
p' = pQ over all 5^N joint compartment states, stepped by the forward pass's
RK4.  It is the exact reference for the means of ``ctmc_simulate`` (Van
Mieghem, Omic & Kooij, "Virus spread in networks", IEEE/ACM Trans. Netw.
17(1), 2009, compare the mean field with the exact 2^N chain this way)."""

import numpy as np

from malctrl.dynamics import _rk4_step
from malctrl.model import DELTA, GAMMA_H, GAMMA_L, r_complete

# compartment codes, in the order of the CtmcSummary columns
S, IH, IL, RF, RC = range(5)


def exact_chain(instance, control, substeps):
    """Probabilities (K+1, 5^N) of the joint states at the grid points, and
    the devices per compartment (5^N, 5) of each state.

    State s gives node i the code ``s // 5**i % 5``.  Each grid cell holds its
    control, as ``integrate_forward`` does, and takes ``substeps`` RK4 steps.
    The initial state must be 0/1 indicators; at N = 5 there are 3,125 states.
    """
    n = instance.node_count
    codes = np.arange(5 ** n)[:, None] // 5 ** np.arange(n) % 5
    # per state and node: beta times the infected neighbours of that kind
    adjacency = instance.graph.adjacency
    infection = {IH: instance.params.beta_high * ((codes == IH) @ adjacency),
                 IL: instance.params.beta_low * ((codes == IL) @ adjacency)}
    # every move of one node: (from, to, control column or None for an infection)
    moves = ((S, IH, None), (S, IL, None), (IH, RF, GAMMA_H), (IL, RF, GAMMA_L), (RF, RC, DELTA))
    source, target, fixed, lane = [], [], [], []
    for node in range(n):
        for old, new, column in moves:
            states = np.flatnonzero(codes[:, node] == old)
            source.append(states)
            target.append(states + (new - old) * 5 ** node)
            fixed.append(infection[new][states, node] if column is None else np.zeros(states.size))
            # lane 3N reads the zero appended to each flattened control row
            lane.append(np.full(states.size, 3 * n if column is None else 3 * node + column))
    source, target, fixed, lane = map(np.concatenate, (source, target, fixed, lane))

    def step(p, u):
        rate = fixed + np.append(u.ravel(), 0.0)[lane]

        def rhs(q, _stage):
            flow = q[source] * rate
            return (np.bincount(target, flow, minlength=q.size)
                    - np.bincount(source, flow, minlength=q.size))
        for _ in range(substeps):
            p = _rk4_step(rhs, p, instance.dt / substeps)
        return p

    init = instance.initial_state
    start = np.argmax(np.column_stack([init, r_complete(init)]), axis=1) @ 5 ** np.arange(n)
    p = np.zeros(5 ** n)
    p[start] = 1.0
    probabilities = [p]
    for u in control.controls[:-1]:
        probabilities.append(step(probabilities[-1], u))
    occupancy = (codes[:, :, None] == np.arange(5)).sum(axis=1)
    return np.stack(probabilities), occupancy
