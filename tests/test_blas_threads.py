"""strongfactor loads numpy's OpenBLAS with one thread, and leaves a caller's
own thread setting, or a numpy the caller loaded first, as it finds them.

Every case runs in a fresh interpreter whose environment is built here, with
every BLAS thread variable removed unless the case sets one, so the outcome
does not depend on the environment the tests themselves run in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: thread counts after the imports and after a product large enough for
#: OpenBLAS to split, and the variable as the process sees it afterwards
PROBE = """
import json, os
def threads():
    return len(os.listdir("/proc/self/task"))
{imports}
import numpy as np
loaded = threads()
a = np.ones((2048, 2048))
a @ a
print(json.dumps({{"loaded": loaded, "after_matmul": threads(),
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="counts threads in /proc/self/task (Linux)")


def child(code, **preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def probe(imports, **preset):
    return child(PROBE.format(imports=imports), **preset)


@needs_proc
def test_import_leaves_one_thread_and_no_variable():
    assert probe("import strongfactor") == {"loaded": 1, "after_matmul": 1,
                                            "variable": None}


@needs_proc
def test_preset_variable_is_left_as_given():
    got = probe("import strongfactor", OPENBLAS_NUM_THREADS="2")
    assert got["variable"] == "2"
    assert got == probe("", OPENBLAS_NUM_THREADS="2")


@needs_proc
def test_numpy_loaded_first_is_left_alone():
    got = probe("import numpy\nimport strongfactor")
    assert got["variable"] is None
    assert got == probe("")


def test_norm_estimate_does_not_depend_on_the_thread_count():
    # ddot splits sums of more than about 2e4 entries over the BLAS threads,
    # which changes their rounding; N = 2^16 is well past that
    code = ("import json, strongfactor as sf\n"
            "print(json.dumps(sf.operator_norm_estimate(sf.CesaroOp(2 ** 16)).value.hex()))")
    assert child(code) == child(code, OPENBLAS_NUM_THREADS="1")
