import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malctrl.graphs import (NetworkGraph, SmartHomeSpec,
                            canonical_graph, canonical_spec, floorplan_spec,
                            generate_smart_home, graph_from_json, graph_to_json,
                            resolve_graph, save_graph, spec_from_dict)
from malctrl.graphs import _component_labels

from helpers import TWO_NODE


class TestValidateGraph:

    def test_smallest_connected_graph(self):
        g = NetworkGraph([[0, 1], [1, 0]])
        assert g.node_count == 2
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_asymmetry_reported_from_lower_triangle(self):
        with pytest.raises(ValueError,
                           match=r"^adjacency\[1,0\] != adjacency\[0,1\]: links must be undirected$"):
            NetworkGraph([[0, 1], [0, 0]])

    def test_self_loop(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 0] = 1
        with pytest.raises(ValueError,
                           match=r"^adjacency\[0,0\] = 1: self-loops are not allowed$"):
            NetworkGraph(a)

    def test_non_square(self):
        with pytest.raises(ValueError,
                           match=r"^adjacency matrix must be square, got shape \(2, 3\)$"):
            NetworkGraph([[0, 1, 0], [1, 0, 1]])

    def test_non_binary_entry(self):
        a = np.zeros((3, 3), dtype=int)
        a[0, 2] = a[2, 0] = 2
        with pytest.raises(ValueError, match=r"^adjacency\[0,2\] = 2 is not 0 or 1$"):
            NetworkGraph(a)

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="^expected 2 node labels, got 1$"):
            NetworkGraph([[0, 1], [1, 0]], node_labels=["only-one"])

    def test_adjacency_is_read_only(self):
        # stored as float64 so the dynamics' matrix-vector products need no cast
        g = NetworkGraph(np.array([[0, 1], [1, 0]], dtype=np.int64))
        assert g.adjacency.dtype == np.float64
        assert g.degrees().dtype == np.int64
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_defaults_and_the_first_failed_check(self):
        g = NetworkGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert g.node_labels == ("device-00", "device-01", "device-02")
        assert g.room_assignment == ("default",) * 3
        # the adjacency is checked before the label and room counts
        with pytest.raises(ValueError,
                           match=r"^adjacency\[0,0\] = 1: self-loops are not allowed$"):
            NetworkGraph(np.eye(3), ("a",), ())

    def test_json_keeps_integer_entries(self):
        text = graph_to_json(TWO_NODE)
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

    def test_fields_stored_parsed(self):
        spec = SmartHomeSpec(total_devices=8.0, rooms=[["a", 4.0], [1, np.int64(4)]],
                             intra_room_density=1, inter_room_hub=False, rng_seed=np.int64(3))
        assert spec.rooms == (("a", 4), ("1", 4))
        assert all(type(count) is int for _, count in spec.rooms)
        assert type(spec.total_devices) is int and type(spec.rng_seed) is int
        assert type(spec.intra_room_density) is float

    @pytest.mark.parametrize("field, value", [
        ("inter_room_hub", "false"), ("rng_seed", 1.5), ("rng_seed", True),
        ("rooms", (("a", 4), ("b", 2.5))), ("intra_room_density", "0.5")])
    def test_python_and_json_reject_a_value_alike(self, field, value):
        spec = dict(total_devices=8, rooms=(("a", 4), ("b", 4)), intra_room_density=0.5,
                    inter_room_hub=True, rng_seed=1)
        spec[field] = value
        with pytest.raises(ValueError) as from_python:
            SmartHomeSpec(**spec)
        with pytest.raises(ValueError) as from_json:
            spec_from_dict(json.loads(json.dumps(spec)))
        assert str(from_python.value) == str(from_json.value)

    def test_negative_room_rejected(self):
        # the counts sum to total_devices, so only the per-room rule stops it
        with pytest.raises(ValueError, match="^room 'b' has -1 devices$"):
            SmartHomeSpec(total_devices=4, rooms=(("a", 5), ("b", -1)),
                          intra_room_density=0.5, inter_room_hub=True, rng_seed=1)


class TestGenerateSmartHome:

    def test_deterministic_for_fixed_seed(self):
        spec = SmartHomeSpec(total_devices=60,
                             rooms=(("living_room", 15), ("kitchen", 15),
                                    ("gaming_room", 15), ("bedroom", 15)),
                             intra_room_density=0.5, inter_room_hub=True, rng_seed=42)
        first = graph_to_json(generate_smart_home(spec))
        second = graph_to_json(generate_smart_home(spec))
        assert first == second
        assert not _component_labels(generate_smart_home(spec).adjacency).any()

    def test_density_one_forces_complete_room(self):
        spec = SmartHomeSpec(total_devices=2, rooms=(("den", 2),),
                             intra_room_density=1.0, inter_room_hub=False, rng_seed=0)
        g = generate_smart_home(spec)
        assert g.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_empty_room_rejected(self):
        with pytest.raises(ValueError, match="^room 'b' has 0 devices$"):
            SmartHomeSpec(total_devices=2, rooms=(("a", 2), ("b", 0)),
                          intra_room_density=0.5, inter_room_hub=True, rng_seed=1)

    def test_zero_density_without_hub_chains_rooms(self):
        # no link is drawn, so every node is its own component and the
        # bridges chain them in index order
        spec = SmartHomeSpec(total_devices=4, rooms=(("a", 2), ("b", 2)),
                             intra_room_density=0.0, inter_room_hub=False, rng_seed=1)
        g = generate_smart_home(spec)
        assert g.adjacency.tolist() == [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
        assert not _component_labels(g.adjacency).any()

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
        assert not _component_labels(g.adjacency).any()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           density=st.floats(min_value=0.0, max_value=0.4))
    def test_component_labels_match_graph_search(self, seed, density):
        rng = np.random.default_rng(seed)
        a = np.triu((rng.random((12, 12)) < density).astype(int), 1)
        a = a + a.T
        roots = [min(_reachable(a, i)) for i in range(12)]
        assert _component_labels(a).tolist() == roots

    def test_zero_density_with_hub_connects(self):
        spec = SmartHomeSpec(total_devices=7, rooms=(("hub", 1), ("a", 3), ("b", 3)),
                             intra_room_density=0.0, inter_room_hub=True, rng_seed=3)
        g = generate_smart_home(spec)
        assert not _component_labels(g.adjacency).any()

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
        revalidated = NetworkGraph(g.adjacency, g.node_labels, g.room_assignment)
        assert revalidated.node_count == 12
        assert not _component_labels(g.adjacency).any()
        assert graph_to_json(generate_smart_home(spec)) == graph_to_json(g)


class TestSerialization:

    def test_round_trip_is_byte_stable(self):
        g = generate_smart_home(floorplan_spec())
        text = graph_to_json(g)
        assert graph_to_json(graph_from_json(text)) == text

    def test_declared_n_must_match(self):
        data = json.loads(graph_to_json(TWO_NODE))
        data["n"] = 5
        with pytest.raises(ValueError, match="^declared n=5 is not the adjacency size 2$"):
            graph_from_json(json.dumps(data))

    def test_declared_n_follows_the_integer_rule(self):
        # a whole float counts as its integer, as every other count does; a boolean does not
        assert graph_from_json('{"adjacency": [[0, 1], [1, 0]], "n": 2.0}').node_count == 2
        with pytest.raises(ValueError, match=r"^declared n=True "):
            graph_from_json('{"adjacency": [[0, 1], [1, 0]], "n": true}')

    @pytest.mark.parametrize("text, named", [
        ("5", "topology must be an object, got 5"),
        ('{"adjacency": [[0]], "lables": ["a"]}', "unknown topology keys ['lables']")])
    def test_non_object_or_unknown_key_named(self, text, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            graph_from_json(text)


class TestResolveGraph:

    def test_canonical(self):
        assert graph_to_json(resolve_graph("canonical")) == graph_to_json(canonical_graph())

    def test_relative_path_taken_from_base_dir(self, tmp_path):
        (tmp_path / "topo").mkdir()
        save_graph(TWO_NODE, tmp_path / "topo" / "g.json")
        for ref in ("topo/g.json", tmp_path / "topo" / "g.json"):
            assert graph_to_json(resolve_graph(ref, base_dir=tmp_path)) == graph_to_json(TWO_NODE)
        assert (graph_to_json(resolve_graph(str(tmp_path / "topo" / "g.json")))
                == graph_to_json(TWO_NODE))


class TestCanonicalInstance:

    def test_matches_checked_in_file(self):
        # digest of the canonical graph JSON as first generated; a change in
        # the generator that moves any link changes it
        digest = hashlib.sha256(graph_to_json(canonical_graph()).encode()).hexdigest()
        assert digest == "754caacaaf21d3ea3ff12fbaf55be030f80e5fbc65f42e69e219101aab61df71"

    def test_shape(self):
        g = canonical_graph()
        assert g.node_count == canonical_spec().total_devices == 60
        assert not _component_labels(g.adjacency).any()
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
