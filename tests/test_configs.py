"""The checked-in configs describe the instances the code builds, the
pytest settings report a failing property, and the sources parse on the
oldest Python that pyproject.toml admits and use every name they import."""

import ast
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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


SOURCES = sorted(path.relative_to(ROOT) for folder in ("src", "tests")
                 for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_source_parses_as_python_3_10(path):
    # requires-python is >=3.10, so a newer construct (except*, PEP 695 generics) is refused
    ast.parse((ROOT / path).read_text(), filename=str(path), feature_version=(3, 10))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads: not as a name, an attribute
    base (``np`` in ``np.zeros`` is a name) or an ``__all__`` entry."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_source_has_no_unused_import(path):
    assert unused_imports(ast.parse((ROOT / path).read_text(), filename=str(path))) == []
