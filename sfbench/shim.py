"""Traced child process: runs one ``strongfactor`` CLI job with a span around
every call into a layer, and writes the spans out as JSON when the job ends.

    python3 sfbench/shim.py SPANS_OUT SPAWN_TIME ARG...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process. CLOCK_MONOTONIC is shared by every process on the machine, so the
interpreter's own start-up, before this file runs, lands in the ``import``
span. The package itself is not modified: the wrappers replace the module
globals and class attributes that ``strongfactor.cli`` and the modules under
it look up at call time.

A span is ``[name, start, end, parent, error, count]``. ``parent`` indexes the
enclosing span (-1 for none), ``error`` is 1 when an exception left the call,
and ``count`` is a work counter whose meaning depends on the span. A name
``layer/part`` is a sub-span of ``layer``.
"""

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return traced


def _file_bytes(args, _result):
    return os.path.getsize(args[0])


def _matrix_entries(args, _result):
    return args[0].entries.size


def _check_entries(args, _result):
    return args[0].n ** 2


def _refuted(_args, result):
    return int(result.refuted)


def _exhaustive_patterns(args, _result):
    return 1 << (args[1] * args[2])


def _sampled_patterns(args, _result):
    return args[3]


#: (module, attribute, span name, counter); a class attribute is "Class.method"
TARGETS = (
    ("operators", "matrix_from_csv", "operators.ingest", _file_bytes),
    ("operators", "matrix_from_json_file", "operators.ingest", _file_bytes),
    ("operators", "seq_from_csv", "operators.ingest", _file_bytes),
    ("operators", "cesaro_matrix", "operators.build", None),
    ("operators", "identity_matrix", "operators.build", None),
    ("operators", "random_lower_triangular", "operators.build", None),
    ("operators", "diagonal_sandwich", "operators.build", None),
    ("operators", "perturb_entry", "operators.build", None),
    ("operators", "factorable_matrix", "operators.build", None),
    ("operators", "MatrixOp.__post_init__", "operators.matrixop", _matrix_entries),
    ("operators", "operator_norm_estimate", "operators.norm_estimate", None),
    ("factorization", "cesaro_factor_check", "factorization.check", _check_entries),
    ("factorization", "cesaro_factor_check_j0", "factorization.check", _check_entries),
    ("factorization", "fourier_factor_check", "factorization.check", _check_entries),
    ("factorization", "matrix_factor_check", "factorization.check", _check_entries),
    ("factorization", "certify_inequality_cesaro", "factorization.certify", _refuted),
    ("factorization", "certify_inequality_fourier", "factorization.certify", _refuted),
    ("factorization", "_exhaustive_vertex_max", "factorization.certify/exhaustive",
     _exhaustive_patterns),
    ("factorization", "_sampled_vertex_max", "factorization.certify/sampled",
     _sampled_patterns),
    ("factorization", "verify_representing", "factorization.representing", None),
    ("factorization", "Certificate.to_json", "factorization.to_json", None),
    ("factorization", "CertifierResult.to_json", "factorization.to_json", None),
    ("grid_functions", "representing_setup", "grid_functions", None),
    ("grid_functions", "fourier_coeffs", "grid_functions", None),
    ("grid_functions", "random_trig_poly", "grid_functions", None),
    ("grid_functions", "default_rule", "grid_functions", None),
    ("grid_functions", "_basis_matrix", "grid_functions", None),
    ("grid_functions", "basis_element", "grid_functions", None),
    ("grid_functions", "eval_basis", "grid_functions", None),
    ("grid_functions", "quad_integral", "grid_functions", None),
    ("grid_functions", "lp_function_norm", "grid_functions", None),
    ("grid_functions", "from_callable", "grid_functions", None),
    ("grid_functions", "constant", "grid_functions", None),
    ("grid_functions", "composite_gauss_legendre", "grid_functions", None),
    ("grid_functions", "GridFunction.multiplied", "grid_functions", None),
    ("seq_spaces", "TruncatedSeq.__post_init__", "seq_spaces", None),
    ("seq_spaces", "SeqSpaceSpec.__post_init__", "seq_spaces", None),
    ("seq_spaces", "lp_space", "seq_spaces", None),
    ("seq_spaces", "lp_norm", "seq_spaces", None),
    ("seq_spaces", "weighted_lp_norm", "seq_spaces", None),
    ("seq_spaces", "kellogg_norm", "seq_spaces", None),
    ("seq_spaces", "space_norm", "seq_spaces", None),
    ("seq_spaces", "dual_norm", "seq_spaces", None),
    ("exponents", "Exponent.__init__", "exponents", None),
    ("exponents", "conjugate", "exponents", None),
    ("exponents", "multiplier_exponent", "exponents", None),
    # the suites module is imported inside this call, so its import and the
    # sweeps' own work both count as suites time
    ("cli", "_cmd_suite", "suites", None),
)


def install(tracer):
    """Replace every target, and every module global bound to it, by a wrapper."""
    import importlib

    import strongfactor

    names = ("cli", "exponents", "factorization", "grid_functions", "operators", "seq_spaces")
    modules = {name: importlib.import_module(f"strongfactor.{name}") for name in names}
    namespaces = [strongfactor, *modules.values()]
    for module_name, attr, span, count in TARGETS:
        owner = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method), count))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, count)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)


def main():
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    before_numpy = time.monotonic()
    import numpy  # noqa: F401
    before_package = time.monotonic()
    from strongfactor import cli
    imported = time.monotonic()
    tracer.spans += [["import", spawned, imported, -1, 0, 0],
                     ["import/numpy", before_numpy, before_package, 0, 0, 0],
                     ["import/strongfactor", before_package, imported, 0, 0, 0]]
    install(tracer)
    code = tracer.wrap("cli", cli.main)(argv)
    with open(out, "w") as fh:
        json.dump({"dumped": time.monotonic(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
