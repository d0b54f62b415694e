"""Guards for the traced benchmark child, ``sfbench/shim.py``.

The shim wraps ``strongfactor`` functions by name and its work counters read
arguments by position: two private sweeps' leading parameters, and the path
that each reader takes first.  A rename in the package would
otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from strongfactor import factorization, operators

SHIM = Path(__file__).resolve().parents[1] / "sfbench" / "shim.py"


def load_shim():
    spec = importlib.util.spec_from_file_location("sfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for module_name, attr, _span, _count in load_shim().TARGETS:
        owner = importlib.import_module(f"strongfactor.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


@pytest.mark.parametrize("name, leading", [
    ("_exhaustive_vertex_max", ["form", "n", "m"]),
    ("_sampled_vertex_max", ["form", "n", "m", "patterns", "seed"]),
])
def test_counted_sweeps_keep_leading_parameters(name, leading):
    params = list(inspect.signature(getattr(factorization, name)).parameters)
    assert params[:len(leading)] == leading


@pytest.mark.parametrize("name", ["matrix_from_csv", "matrix_from_json_file", "seq_from_csv"])
def test_counted_readers_take_path_first(name):
    assert next(iter(inspect.signature(getattr(operators, name)).parameters)) == "path"
