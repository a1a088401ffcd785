"""IoT network topology: adjacency validation and seeded smart-home generation."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected device topology with a dense 0/1 adjacency matrix.

    The adjacency is stored as float64 with entries exactly 0.0 or 1.0, so
    the matrix-vector products of the dynamics use it without a cast; graph
    JSON still writes integer entries.  Immutable after construction (the
    adjacency array is a read-only copy); safe to share across concurrent
    workers.  Storage is dense, so memory and matrix-vector cost are O(N^2);
    intended for up to a few hundred nodes.  ``node_count`` is the size of
    the adjacency, so a graph cannot claim more or fewer nodes than it has.

    Construction raises a ValueError for the first violated invariant,
    scanning in a fixed order: numbers (``number_array``: a ragged nesting,
    a boolean, string or None entry, or a value that is not two-dimensional
    is named as ``adjacency``), then squareness, then at least one node,
    then binary entries (row-major), then the diagonal, then symmetry (lower
    triangle, reported as the (i, j) entry with i > j), then the label and
    room counts.
    Labels default to ``device-00``, ... and rooms to ``default``; both are
    stored as tuples of strings.
    """

    adjacency: np.ndarray
    node_labels: tuple[str, ...] | None = None
    room_assignment: tuple[str, ...] | None = None

    def __post_init__(self):
        a = number_array(self.adjacency, "adjacency", [(None, None)])
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if not (n := a.shape[0]):
            raise ValueError("adjacency must have at least one node, got shape (0, 0)")

        bad = ~((a == 0) | (a == 1))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            entry = repr(a.item(i, j)).removesuffix(".0")
            raise ValueError(f"adjacency[{i},{j}] = {entry} is not 0 or 1")

        diag = np.flatnonzero(np.diagonal(a))
        if diag.size:
            raise ValueError(f"adjacency[{diag[0]},{diag[0]}] = 1: self-loops are not allowed")

        asym = np.tril(a != a.T, k=-1)
        if asym.any():
            i, j = np.argwhere(asym)[0]
            raise ValueError(f"adjacency[{i},{j}] != adjacency[{j},{i}]: links must be undirected")

        node_labels, room_assignment = self.node_labels, self.room_assignment
        if node_labels is None:
            node_labels = (f"device-{k:02d}" for k in range(n))
        if room_assignment is None:
            room_assignment = ("default",) * n
        node_labels = tuple(str(s) for s in node_labels)
        room_assignment = tuple(str(s) for s in room_assignment)
        if len(node_labels) != n:
            raise ValueError(f"expected {n} node labels, got {len(node_labels)}")
        if len(room_assignment) != n:
            raise ValueError(f"expected {n} room assignments, got {len(room_assignment)}")

        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "node_labels", node_labels)
        object.__setattr__(self, "room_assignment", room_assignment)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[i])

    def ranked_rooms(self) -> list[list[int]]:
        """Each room's nodes, highest degree first with ties to the lower index;
        rooms in order of first appearance."""
        rooms: dict[str, list[int]] = {room: [] for room in self.room_assignment}
        for i in np.argsort(-self.degrees(), kind="stable").tolist():
            rooms[self.room_assignment[i]].append(i)
        return list(rooms.values())


@dataclass(frozen=True)
class SmartHomeSpec:
    """Parameters for the seeded smart-home topology generator; every field is parsed here."""

    total_devices: int
    rooms: tuple[tuple[str, int], ...]
    intra_room_density: float
    inter_room_hub: bool
    rng_seed: int

    def __post_init__(self):
        if not isinstance(self.inter_room_hub, bool):
            raise ValueError(f"inter_room_hub must be true or false, got {self.inter_room_hub!r}")
        object.__setattr__(self, "total_devices", integer(self.total_devices, "total_devices", 1))
        if not isinstance(self.rooms, (list, tuple)):
            raise ValueError(f"rooms must be a list of [name, count] pairs, got {self.rooms!r}")
        rooms = []
        for i, room in enumerate(self.rooms):
            if not (isinstance(room, (list, tuple)) and len(room) == 2):
                raise ValueError(f"rooms[{i}] must be a [name, count] pair, got {room!r}")
            rooms.append((str(room[0]), integer(room[1], f"rooms[{i}] device count", 1)))
        object.__setattr__(self, "rooms", tuple(rooms))
        object.__setattr__(self, "intra_room_density",
                           number(self.intra_room_density, "intra_room_density"))
        object.__setattr__(self, "rng_seed", integer(self.rng_seed, "rng_seed", 0))
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

    return NetworkGraph(a, labels, assignment)


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
    data = json_object(data, "topology", ("n", "adjacency", "labels", "rooms"))
    if "adjacency" not in data:
        raise ValueError("topology has no adjacency matrix")
    for key in ("labels", "rooms"):
        if key in data and not isinstance(data[key], list):
            raise ValueError(f"{key} must be a list, got {data[key]!r}")
    graph = NetworkGraph(data["adjacency"], data.get("labels"), data.get("rooms"))
    n = data.get("n", graph.node_count)
    if not (is_number(n) and n == graph.node_count):
        raise ValueError(f"declared n={n!r} is not the adjacency size {graph.node_count}")
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


def json_object(value, name: str, keys) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``;
    otherwise a ValueError that names ``name``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; expected keys among {sorted(keys)}")
    return value


def integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int: the one rule for every count and seed.  A fraction,
    a boolean or a non-number raises a ValueError that names ``name``, and so
    does a whole number below ``least`` when one is given."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {int(value)}")
    return int(value)


_NUMBER_TYPES = (int, float, np.integer, np.floating)


def is_number(value) -> bool:
    """Whether ``value`` is an int or a float, NumPy's included, and not a boolean."""
    return isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool)


def number(value, name: str) -> float:
    """``value`` as a float; a boolean, a non-number or an integer beyond the
    float range (``number_array``'s error) raises a ValueError that names ``name``."""
    if is_number(value):
        return float(number_array(value, name, [()]))
    raise ValueError(f"{name} must be a number, got {value!r}")


def _in_words(shape: tuple) -> str:
    if not shape:
        return "a scalar"
    lengths = ", ".join("N" if length is None else str(length) for length in shape)
    return f"length {lengths}" if len(shape) == 1 else f"an array of shape ({lengths})"


def fits(shape: tuple, wanted: tuple) -> bool:
    """Whether ``shape`` is ``wanted``, in which None matches any length."""
    return len(shape) == len(wanted) and all(w in (None, n) for w, n in zip(wanted, shape))


def number_array(value, name: str, shapes) -> np.ndarray:
    """``value`` as a new float64 array whose shape ``fits`` one of ``shapes``:
    the array counterpart of ``number``.

    A ragged nesting raises a ValueError that names ``name``; so does a
    boolean, a string, None or any other non-number entry, located by its
    index, and so does an integer beyond the float range.  A shape outside
    ``shapes`` raises a ValueError that names ``name`` and says, in words,
    what the shape must be.  A value that is not already an
    integer or float array is checked by the set of its entries' types, so
    the entries are walked one by one only to name a bad one.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        cells, types = value, set()
    else:
        try:
            cells = np.array(value, dtype=object)
            types = set(map(type, cells.flat))
            ragged = any(issubclass(kind, (list, tuple, np.ndarray)) for kind in types)
        except ValueError:  # nestings numpy cannot stack even as objects
            ragged = True
        if ragged:
            raise ValueError(f"{name} must be a regular array of numbers, got a ragged nesting")
    if not any(fits(cells.shape, shape) for shape in shapes):
        got = f"shape {cells.shape}" if cells.ndim else repr(value)
        raise ValueError(f"{name} must be {' or '.join(map(_in_words, shapes))}, got {got}")
    if not all(issubclass(kind, _NUMBER_TYPES) and not issubclass(kind, bool) for kind in types):
        index, cell = next((index, cell) for index, cell in np.ndenumerate(cells)
                           if not is_number(cell))
        raise ValueError(f"{name}{list(index) if index else ''} must be a number, got {cell!r}")
    try:
        return cells.astype(np.float64)
    except OverflowError:  # a Python int beyond the float range
        raise ValueError(f"{name} holds an integer too large for a float") from None


def spec_from_dict(data: dict) -> SmartHomeSpec:
    names = [field.name for field in fields(SmartHomeSpec)]
    data = json_object(data, "spec", names)
    return SmartHomeSpec(**{name: required(data, name, "spec") for name in names})


def load_spec(path) -> SmartHomeSpec:
    return spec_from_dict(json.loads(Path(path).read_text()))
