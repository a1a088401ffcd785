"""Room ranking: initial-state seeding and sample-node choice.

The reference functions below are the original loop implementations of
``seed_initial_state`` and ``select_sample_nodes``; the property checks the
package against them on random multi-room graphs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.experiments import select_sample_nodes
from malctrl.graphs import validate_graph
from malctrl.model import IH, IL, RF, S, seed_initial_state


def reference_rooms(graph):
    seen = []
    for r in graph.room_assignment:
        if r not in seen:
            seen.append(r)
    return seen


def reference_seed_initial_state(graph, susceptible, infected_high, infected_low,
                                 recover_first=0, recover_complete=0):
    n = graph.node_count
    deg = graph.degrees()
    by_room = {}
    for room in reference_rooms(graph):
        members = [i for i in range(n) if graph.room_assignment[i] == room]
        members.sort(key=lambda i: (-deg[i], i))
        by_room[room] = members
    candidates = []
    rank = 0
    while len(candidates) < n:
        for room in reference_rooms(graph):
            members = by_room[room]
            if rank < len(members):
                candidates.append(members[rank])
        rank += 1

    state = np.zeros((n, 4))
    state[:, S] = 1.0
    picked = candidates[:infected_high + infected_low + recover_first + recover_complete]
    cursor = 0
    for column, count in ((IH, infected_high), (IL, infected_low), (RF, recover_first)):
        for i in picked[cursor:cursor + count]:
            state[i, S] = 0.0
            state[i, column] = 1.0
        cursor += count
    for i in picked[cursor:cursor + recover_complete]:
        state[i, S] = 0.0
    return state


def reference_select_sample_nodes(graph, initial_state, count=4):
    deg = graph.degrees()
    seeds = np.flatnonzero(initial_state[:, IH] == 1.0)
    if seeds.size == 0:
        seeds = np.flatnonzero(initial_state[:, IL] == 1.0)
    first = int(seeds[0]) if seeds.size else 0
    chosen = [first]

    neighbors = sorted(graph.neighbors(first), key=lambda i: (-deg[i], i))
    for i in neighbors:
        if i not in chosen:
            chosen.append(int(i))
            break

    for room in reference_rooms(graph):
        if len(chosen) >= count:
            break
        if any(graph.room_assignment[i] == room for i in chosen):
            continue
        members = [i for i in range(graph.node_count)
                   if graph.room_assignment[i] == room and i not in chosen]
        if members:
            chosen.append(min(members, key=lambda i: (-deg[i], i)))

    for i in sorted(range(graph.node_count), key=lambda i: (-deg[i], i)):
        if len(chosen) >= count:
            break
        if i not in chosen:
            chosen.append(i)
    return chosen[:count]


def random_rooms_graph(rng):
    n = int(rng.integers(1, 16))
    a = np.triu((rng.random((n, n)) < rng.random()).astype(int), 1)
    names = [f"room{k}" for k in range(int(rng.integers(1, 5)))]
    return validate_graph(a + a.T, room_assignment=rng.choice(names, size=n).tolist())


def test_ranked_rooms_orders_rooms_by_first_appearance_and_nodes_by_degree():
    # path 0-1-2-3 plus the chord 1-3; rooms b, a, b, a
    a = np.zeros((4, 4), dtype=int)
    for i, j in ((0, 1), (1, 2), (2, 3), (1, 3)):
        a[i, j] = a[j, i] = 1
    graph = validate_graph(a, room_assignment=["b", "a", "b", "a"])
    assert graph.ranked_rooms() == [[2, 0], [1, 3]]
    assert all(type(i) is int for room in graph.ranked_rooms() for i in room)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_seeding_and_sample_nodes_match_the_reference_loops(seed):
    rng = np.random.default_rng(seed)
    graph = random_rooms_graph(rng)
    counts = np.bincount(rng.integers(0, 5, size=graph.node_count), minlength=5).tolist()
    state = seed_initial_state(graph, *counts)
    reference = reference_seed_initial_state(graph, *counts)
    assert state.dtype == reference.dtype and np.array_equal(state, reference)
    nodes = select_sample_nodes(graph, state)
    assert nodes == reference_select_sample_nodes(graph, state)
    assert all(type(i) is int for i in nodes)
