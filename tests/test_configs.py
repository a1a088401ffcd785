"""The checked-in configs describe the instances the code builds."""

from dataclasses import fields
from pathlib import Path

import numpy as np

from malctrl.experiments import build_case_instance
from malctrl.graphs import canonical_graph, canonical_spec, graph_to_json, load_spec
from malctrl.model import load_instance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def assert_same_fields(loaded, built):
    """Compare two dataclass instances field by field; arrays bit for bit, graphs by JSON."""
    for field in fields(built):
        a, b = getattr(loaded, field.name), getattr(built, field.name)
        if field.name == "graph":
            assert graph_to_json(a) == graph_to_json(b)
        elif field.name == "params":
            assert_same_fields(a, b)
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b and type(a) is type(b), field.name


def test_case1_instance_config_is_exp1_case1():
    assert_same_fields(load_instance(CONFIGS / "case1_instance.json"),
                       build_case_instance(1, canonical_graph()))


def test_canonical_spec_config_is_canonical_spec():
    assert load_spec(CONFIGS / "canonical_spec.json") == canonical_spec()
