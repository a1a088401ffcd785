"""The checked-in configs describe the instances the code builds, and the
pytest settings report a failing property."""

import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from malctrl.experiments import build_case_instance
from malctrl.graphs import canonical_graph, canonical_spec, graph_to_json, load_spec
from malctrl.model import load_instance

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


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


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_property_prints_its_example(tmp_path):
    # on failure hypothesis imports libcst, whose deprecation warning must not
    # become an error that ends the session before the example is printed
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output
