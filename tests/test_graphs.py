import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.graphs import (GraphValidationError, SmartHomeSpec, TopologyError,
                            canonical_graph, canonical_spec, floorplan_spec,
                            generate_smart_home, graph_from_json, graph_to_json,
                            is_connected, resolve_graph, save_graph, validate_graph)
from malctrl.graphs import _component_labels


class TestValidateGraph:

    def test_smallest_connected_graph(self):
        g = validate_graph([[0, 1], [1, 0]])
        assert g.node_count == 2
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_asymmetry_reported_from_lower_triangle(self):
        with pytest.raises(GraphValidationError,
                           match=r"^adjacency\[1,0\] != adjacency\[0,1\]: links must be undirected$"):
            validate_graph([[0, 1], [0, 0]])

    def test_self_loop(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 0] = 1
        with pytest.raises(GraphValidationError,
                           match=r"^adjacency\[0,0\] = 1: self-loops are not allowed$"):
            validate_graph(a)

    def test_non_square(self):
        with pytest.raises(GraphValidationError,
                           match=r"^adjacency matrix must be square, got shape \(2, 3\)$"):
            validate_graph([[0, 1, 0], [1, 0, 1]])

    def test_non_binary_entry(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 2] = a[2, 0] = 2
        with pytest.raises(GraphValidationError, match=r"^adjacency\[0,2\] = 2 is not 0 or 1$"):
            validate_graph(a)

    def test_label_length_checked(self):
        with pytest.raises(GraphValidationError):
            validate_graph([[0, 1], [1, 0]], node_labels=["only-one"])

    def test_adjacency_is_read_only(self):
        # stored as float64 so the dynamics' matrix-vector products need no cast
        g = validate_graph(np.array([[0, 1], [1, 0]], dtype=np.int64))
        assert g.adjacency.dtype == np.float64
        assert g.degrees().dtype == np.int64
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_json_keeps_integer_entries(self):
        g = validate_graph([[0, 1], [1, 0]])
        text = graph_to_json(g)
        assert '"adjacency":[[0,1],[1,0]]' in text
        assert graph_to_json(graph_from_json(text)) == text


class TestSmartHomeSpec:

    def test_room_counts_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SmartHomeSpec(total_devices=60, rooms=(("a", 30), ("b", 29)),
                          intra_room_density=0.5, inter_room_hub=True, rng_seed=1)

    def test_density_range(self):
        with pytest.raises(ValueError):
            SmartHomeSpec(total_devices=2, rooms=(("a", 2),), intra_room_density=1.5,
                          inter_room_hub=False, rng_seed=1)


class TestGenerateSmartHome:

    def test_deterministic_for_fixed_seed(self):
        spec = SmartHomeSpec(total_devices=60,
                             rooms=(("living_room", 15), ("kitchen", 15),
                                    ("gaming_room", 15), ("bedroom", 15)),
                             intra_room_density=0.5, inter_room_hub=True, rng_seed=42)
        first = graph_to_json(generate_smart_home(spec))
        second = graph_to_json(generate_smart_home(spec))
        assert first == second
        assert is_connected(generate_smart_home(spec))

    def test_density_one_forces_complete_room(self):
        spec = SmartHomeSpec(total_devices=2, rooms=(("den", 2),),
                             intra_room_density=1.0, inter_room_hub=False, rng_seed=0)
        g = generate_smart_home(spec)
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_empty_room_rejected(self):
        spec = SmartHomeSpec(total_devices=2, rooms=(("a", 2), ("b", 0)),
                             intra_room_density=0.5, inter_room_hub=True, rng_seed=1)
        with pytest.raises(TopologyError, match="^room 'b' has 0 devices$"):
            generate_smart_home(spec)

    def test_zero_density_without_hub_unconnectable(self):
        spec = SmartHomeSpec(total_devices=4, rooms=(("a", 2), ("b", 2)),
                             intra_room_density=0.0, inter_room_hub=False, rng_seed=1)
        with pytest.raises(TopologyError, match="^intra-room density 0 with no hub cannot"):
            generate_smart_home(spec)

    def test_hub_reaches_every_room(self):
        spec = floorplan_spec(rng_seed=7)
        g = generate_smart_home(spec)
        rooms = {}
        for i, room in enumerate(g.room_assignment):
            rooms.setdefault(room, []).append(i)
        for room, members in rooms.items():
            others = [i for i in members if i != 0]
            if others:
                assert g.adjacency[0, others].sum() >= 1, f"hub misses {room}"

    def test_bridges_join_component_roots_in_order(self):
        # the drawn links {0,2}, {1,3}, {5,6}, {5,7} leave four components
        # rooted at 0, 1, 4 and 5; consecutive roots get one bridge each
        spec = SmartHomeSpec(total_devices=8, rooms=(("a", 4), ("b", 4)),
                             intra_room_density=0.3, inter_room_hub=False, rng_seed=17)
        g = generate_smart_home(spec)
        edges = np.argwhere(np.triu(g.adjacency)).tolist()
        assert edges == [[0, 1], [0, 2], [1, 3], [1, 4], [4, 5], [5, 6], [5, 7]]
        assert is_connected(g)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           density=st.floats(min_value=0.0, max_value=0.4))
    def test_component_labels_match_graph_search(self, seed, density):
        rng = np.random.default_rng(seed)
        a = np.triu((rng.random((12, 12)) < density).astype(int), 1)
        a = a + a.T
        roots = [min(_reachable(a, i)) for i in range(12)]
        assert _component_labels(a).tolist() == roots
        assert is_connected(validate_graph(a)) == (max(roots) == 0)

    def test_zero_density_with_hub_connects(self):
        spec = SmartHomeSpec(total_devices=7, rooms=(("hub", 1), ("a", 3), ("b", 3)),
                             intra_room_density=0.0, inter_room_hub=True, rng_seed=3)
        g = generate_smart_home(spec)
        assert is_connected(g)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           density=st.floats(min_value=0.05, max_value=1.0),
           hub=st.booleans())
    def test_generator_output_always_validates(self, seed, density, hub):
        spec = SmartHomeSpec(total_devices=12,
                             rooms=(("a", 4), ("b", 5), ("c", 3)),
                             intra_room_density=density, inter_room_hub=hub,
                             rng_seed=seed)
        g = generate_smart_home(spec)
        revalidated = validate_graph(g.adjacency, g.node_labels, g.room_assignment)
        assert revalidated.node_count == 12
        assert is_connected(g)
        assert graph_to_json(generate_smart_home(spec)) == graph_to_json(g)


class TestSerialization:

    def test_round_trip_is_byte_stable(self):
        g = generate_smart_home(floorplan_spec())
        text = graph_to_json(g)
        assert graph_to_json(graph_from_json(text)) == text

    def test_declared_n_must_match(self):
        g = validate_graph([[0, 1], [1, 0]])
        data = json.loads(graph_to_json(g))
        data["n"] = 5
        with pytest.raises(GraphValidationError):
            graph_from_json(json.dumps(data))


class TestResolveGraph:

    def test_canonical(self):
        assert graph_to_json(resolve_graph("canonical")) == graph_to_json(canonical_graph())

    def test_relative_path_taken_from_base_dir(self, tmp_path):
        g = validate_graph([[0, 1], [1, 0]])
        (tmp_path / "topo").mkdir()
        save_graph(g, tmp_path / "topo" / "g.json")
        for ref in ("topo/g.json", tmp_path / "topo" / "g.json"):
            assert graph_to_json(resolve_graph(ref, base_dir=tmp_path)) == graph_to_json(g)
        assert graph_to_json(resolve_graph(str(tmp_path / "topo" / "g.json"))) == graph_to_json(g)


class TestCanonicalInstance:

    def test_matches_checked_in_file(self):
        # digest of the canonical graph JSON as first generated; a change in
        # the generator that moves any link changes it
        digest = hashlib.sha256(graph_to_json(canonical_graph()).encode()).hexdigest()
        assert digest == "754caacaaf21d3ea3ff12fbaf55be030f80e5fbc65f42e69e219101aab61df71"

    def test_shape(self):
        g = canonical_graph()
        assert g.node_count == canonical_spec().total_devices == 60
        assert is_connected(g)
        assert len(_reachable(g.adjacency, 0)) == 60

    def test_spectral_radius_supports_rate_sweeps(self):
        # the experiment suite needs beta_high * lambda_max to clear the 0.1
        # restriction floor at beta_high ~ 2.1e-3
        lam = np.linalg.eigvalsh(canonical_graph().adjacency.astype(float)).max()
        assert lam > 50.0


def _reachable(a, start):
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in np.flatnonzero(a[v]):
            if w not in seen:
                seen.add(int(w))
                queue.append(int(w))
    return seen
