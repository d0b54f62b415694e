"""Guards for the traced benchmark child, ``sfbench/shim.py``.

The shim wraps ``strongfactor`` functions by name and its work counters read
arguments by position: two private sweeps' leading parameters, and the path
that each reader takes first.  A rename in the package would
otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from strongfactor import factorization, operators

ROOT = Path(__file__).resolve().parents[1]
SHIM = ROOT / "sfbench" / "shim.py"


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


CHECK = ["--gen", "rank-one", "--g", "harmonic", "--h", "ones", "--N", "8",
         "--p", "2", "--q", "2", "--r", "2", "--no-timestamp"]


@pytest.mark.parametrize("argv, counts", [
    (["suite", "--name", "exponents"], {"suites": 1}),
    # factorization.cesaro_factor_check_j0 is another name for
    # cesaro_factor_check, and the shim wraps each name once, so both
    # spellings of the command record two nested spans
    (["check-cesaro", *CHECK], {"factorization.check": 2}),
    (["check-cesaro-j0", *CHECK], {"factorization.check": 2}),
    # the Cesàro operator and the sandwich are implicit: no MatrixOp is built
    (["check-matrix", *CHECK[:8], "--through", "cesaro"],
     {"operators.build": 1, "factorization.check": 1, "operators.matrixop": 0}),
])
def test_traced_run_records_the_handler_span(tmp_path, argv, counts):
    # the CLI looks its handlers up when it builds the parser, after the
    # shim has replaced them; a table bound at import would lose these spans
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(SHIM), str(spans_out), repr(time.monotonic()),
                           *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = [rec[0] for rec in json.loads(spans_out.read_text())["spans"]]
    assert {span: names.count(span) for span in counts} == counts
