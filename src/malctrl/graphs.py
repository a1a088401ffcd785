"""IoT network topology: adjacency validation and seeded smart-home generation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class GraphValidationError(ValueError):
    """An adjacency matrix violates a structural invariant."""


class TopologyError(ValueError):
    """The smart-home generator cannot produce a graph for this spec."""


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected device topology with a dense 0/1 adjacency matrix.

    The adjacency is stored as float64 with entries exactly 0.0 or 1.0, so
    the matrix-vector products of the dynamics use it without a cast; graph
    JSON still writes integer entries.  Immutable after construction (the
    adjacency array is marked read-only); safe to share across concurrent
    workers.  Storage is dense, so memory and matrix-vector cost are O(N^2);
    intended for up to a few hundred nodes.
    """

    node_count: int
    adjacency: np.ndarray
    node_labels: tuple[str, ...]
    room_assignment: tuple[str, ...]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[i])

    def rooms(self) -> list[str]:
        """Room names in order of first appearance."""
        seen: list[str] = []
        for r in self.room_assignment:
            if r not in seen:
                seen.append(r)
        return seen


def validate_graph(adjacency, node_labels=None, room_assignment=None) -> NetworkGraph:
    """Check adjacency invariants and build a NetworkGraph.

    Raises the error for the first violated invariant, scanning in a fixed
    order: squareness, then binary entries (row-major), then the diagonal,
    then symmetry (lower triangle, reported as the (i, j) entry with i > j).
    """
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphValidationError(f"adjacency matrix must be square, got shape {a.shape}")
    n = a.shape[0]

    bad = ~((a == 0) | (a == 1))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise GraphValidationError(f"adjacency[{i},{j}] = {a.item(i, j)!r} is not 0 or 1")
    a = a.astype(np.float64)

    diag = np.flatnonzero(np.diagonal(a))
    if diag.size:
        raise GraphValidationError(f"adjacency[{diag[0]},{diag[0]}] = 1: self-loops are not allowed")

    asym = np.tril(a != a.T, k=-1)
    if asym.any():
        i, j = np.argwhere(asym)[0]
        raise GraphValidationError(f"adjacency[{i},{j}] != adjacency[{j},{i}]: links must be undirected")

    if node_labels is None:
        node_labels = tuple(f"device-{k:02d}" for k in range(n))
    if room_assignment is None:
        room_assignment = tuple("default" for _ in range(n))
    node_labels = tuple(str(s) for s in node_labels)
    room_assignment = tuple(str(s) for s in room_assignment)
    if len(node_labels) != n:
        raise GraphValidationError(f"expected {n} node labels, got {len(node_labels)}")
    if len(room_assignment) != n:
        raise GraphValidationError(f"expected {n} room assignments, got {len(room_assignment)}")

    a.flags.writeable = False
    return NetworkGraph(node_count=n, adjacency=a, node_labels=node_labels,
                        room_assignment=room_assignment)


@dataclass(frozen=True)
class SmartHomeSpec:
    """Parameters for the seeded smart-home topology generator."""

    total_devices: int = 60
    rooms: tuple[tuple[str, int], ...] = ()
    intra_room_density: float = 0.5
    inter_room_hub: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.total_devices < 1:
            raise ValueError("total_devices must be positive")
        if not self.rooms:
            raise ValueError("at least one room is required")
        total = sum(count for _, count in self.rooms)
        if total != self.total_devices:
            raise ValueError(f"room device counts sum to {total}, expected {self.total_devices}")
        if not 0.0 <= self.intra_room_density <= 1.0:
            raise ValueError("intra_room_density must lie in [0, 1]")


def floorplan_spec(rng_seed: int = 42) -> SmartHomeSpec:
    """Default four-room layout plus a hub node that ties the rooms together."""
    return SmartHomeSpec(
        total_devices=60,
        rooms=(("hub", 1), ("living_room", 15), ("kitchen", 15),
               ("gaming_room", 15), ("bedroom", 14)),
        intra_room_density=0.5,
        inter_room_hub=True,
        rng_seed=rng_seed,
    )


def canonical_spec() -> SmartHomeSpec:
    """Spec of the canonical 60-device instance used by experiments and tests.

    All devices share one broadcast domain, so the logical attack surface is a
    single dense room: any compromised device can probe nearly every other.
    Density 0.9 at 60 nodes puts the adjacency's spectral radius around 53,
    which is the regime where the infection-rate sweeps of the experiment
    suite actually separate (sparser room-local graphs keep the spectral
    radius an order of magnitude too small for any rate sensitivity to show).
    """
    return SmartHomeSpec(
        total_devices=60,
        rooms=(("smart_home", 60),),
        intra_room_density=0.9,
        inter_room_hub=False,
        rng_seed=42,
    )


def generate_smart_home(spec: SmartHomeSpec) -> NetworkGraph:
    """Generate a connected smart-home topology, deterministic per rng_seed.

    Room-internal links are Bernoulli(intra_room_density), drawn room by room
    in declaration order (pairs row-major).  With inter_room_hub, node 0 gains
    a link into every room it does not already reach.  Any remaining
    disconnected components are chained together with one bridge edge each,
    lowest-index members first.
    """
    for name, count in spec.rooms:
        if count == 0:
            raise TopologyError(f"room {name!r} has 0 devices")
    if spec.intra_room_density == 0.0 and not spec.inter_room_hub and spec.total_devices > 1:
        raise TopologyError("intra-room density 0 with no hub cannot yield a connected graph")

    n = spec.total_devices
    rng = np.random.default_rng(spec.rng_seed)
    a = np.zeros((n, n), dtype=np.int64)
    labels: list[str] = []
    assignment: list[str] = []
    room_members: list[tuple[str, np.ndarray]] = []

    next_id = 0
    for name, count in spec.rooms:
        ids = np.arange(next_id, next_id + count)
        next_id += count
        room_members.append((name, ids))
        labels.extend(f"{name}-{k:02d}" for k in range(count))
        assignment.extend(name for _ in range(count))
        if count > 1:
            iu = np.triu_indices(count, k=1)
            draws = rng.random(len(iu[0]))
            hit = draws < spec.intra_room_density
            a[ids[iu[0][hit]], ids[iu[1][hit]]] = 1
            a[ids[iu[1][hit]], ids[iu[0][hit]]] = 1

    if spec.inter_room_hub:
        for _, ids in room_members:
            others = ids[ids != 0]
            if others.size and a[0, others].sum() == 0:
                pick = others[rng.integers(others.size)]
                a[0, pick] = a[pick, 0] = 1

    roots = np.flatnonzero(_component_labels(a) == np.arange(n))
    a[roots[1:], roots[:-1]] = 1
    a[roots[:-1], roots[1:]] = 1

    return validate_graph(a, labels, assignment)


def _component_labels(a: np.ndarray) -> np.ndarray:
    """The lowest node index of each node's connected component.

    Every node takes the minimum label of itself and its neighbours until no
    label changes; each component then carries the label of its root.
    """
    n = a.shape[0]
    labels = np.arange(n)
    while True:
        reached = np.minimum(labels, np.where(a != 0, labels, n).min(axis=1, initial=n))
        if np.array_equal(reached, labels):
            return labels
        labels = reached


def is_connected(graph: NetworkGraph) -> bool:
    return not _component_labels(graph.adjacency).any()


def canonical_graph() -> NetworkGraph:
    """The canonical seeded 60-device instance (regenerated, never stale)."""
    return generate_smart_home(canonical_spec())


# ---------------------------------------------------------------------------
# serialization: {"n": ..., "adjacency": [[...]], "labels": [...], "rooms": [...]}
# Canonical form = sorted keys, no insignificant whitespace, so parse->serialize
# round-trips are byte-stable.

def graph_to_dict(graph: NetworkGraph) -> dict:
    return {
        "n": graph.node_count,
        "adjacency": graph.adjacency.astype(np.int64).tolist(),
        "labels": list(graph.node_labels),
        "rooms": list(graph.room_assignment),
    }


def graph_to_json(graph: NetworkGraph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_dict(data: dict) -> NetworkGraph:
    if "adjacency" not in data:
        raise GraphValidationError("topology has no adjacency matrix")
    graph = validate_graph(data["adjacency"], data.get("labels"), data.get("rooms"))
    n = data.get("n", graph.node_count)
    if type(n) is not int or n != graph.node_count:
        raise GraphValidationError(f"declared n={n!r} is not the adjacency size {graph.node_count}")
    return graph


def graph_from_json(text: str) -> NetworkGraph:
    return graph_from_dict(json.loads(text))


def save_graph(graph: NetworkGraph, path) -> None:
    Path(path).write_text(graph_to_json(graph))


def load_graph(path) -> NetworkGraph:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"graph file {path} not found; regenerate the canonical dataset with: "
            "malctrl dataset generate --spec configs/canonical_spec.json --out " + str(path))
    return graph_from_json(path.read_text())


def resolve_graph(ref, base_dir=None) -> NetworkGraph:
    """The canonical graph for ``"canonical"``, else the topology file at ``ref``.

    A relative path is taken from ``base_dir`` when one is given.
    """
    if ref == "canonical":
        return canonical_graph()
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return load_graph(path)


def required(data: dict, key: str, where: str):
    """``data[key]``; a missing key raises a ValueError that names it."""
    if key not in data:
        raise ValueError(f"{where} is missing the required key {key!r}")
    return data[key]


def spec_from_dict(data: dict) -> SmartHomeSpec:
    return SmartHomeSpec(
        total_devices=int(required(data, "total_devices", "spec")),
        rooms=tuple((str(name), int(count)) for name, count in required(data, "rooms", "spec")),
        intra_room_density=float(required(data, "intra_room_density", "spec")),
        inter_room_hub=bool(required(data, "inter_room_hub", "spec")),
        rng_seed=int(required(data, "rng_seed", "spec")),
    )


def load_spec(path) -> SmartHomeSpec:
    return spec_from_dict(json.loads(Path(path).read_text()))
