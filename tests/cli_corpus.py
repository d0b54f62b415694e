"""Differential corpus for the command line: run a fixed set of jobs through
one source tree's ``cli.main`` and print one line per job.

    python tests/cli_corpus.py [SRC_DIR]

SRC_DIR is the ``src`` directory of the tree under test (default: this
checkout's).  Each line holds the job's argv, its exit code and the sha256 of
its stdout and of its stderr (and of the certificate, for a job with
``--out``).  Two trees that print the same lines behave the same on every
job, byte for byte.  To compare against another commit:

    git worktree add --detach /tmp/parent HEAD^1
    python tests/cli_corpus.py /tmp/parent/src > /tmp/parent.txt
    python tests/cli_corpus.py > /tmp/head.txt
    diff /tmp/parent.txt /tmp/head.txt

CI runs this comparison against the parent commit and fails unless the
argvs of the lines that differ are exactly those listed, one masked argv a
line, in ``tests/corpus_moves.txt``, and unless a commit that moves any line
also changes that file; so a commit that moves nothing empties it.

The jobs run in one process, in order, with ``XDG_CACHE_HOME`` at a fresh
temporary directory, so the matrix cache starts empty.  File inputs are
written with numpy into a temporary directory whose path is masked as
``<tmp>``.  Masked too: suite runtimes, certificate timestamps, and the
file and line of a warning.
A job that raises is recorded with exit ``raised`` and the exception on
stderr.  Nothing is written outside the temporary directories.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

_RUNTIME = re.compile(r"\(\d+\.\d+s\)")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

_SEQUENCES = ("ones", "harmonic", "invsq", "alt", "shift1:ones", "shift2:alt")
_GENERATORS = ("identity", "cesaro", "random-lower", "rank-one", "diag")
_FAMILIES = ("trig", "legendre", "chebyshev1", "chebyshev2", "laguerre")


def _write_inputs(tmp: Path) -> None:
    """The files the jobs read, written with numpy alone."""
    n = 8
    idx = np.arange(1, n + 1, dtype=float)
    cesaro = np.tril(np.ones((n, n))) / idx[:, None]
    sandwich = (1.0 / idx)[:, None] * cesaro * ((-1.0) ** idx)[None, :]
    rng = np.random.default_rng(5)
    for name, a in ("sandwich", sandwich), ("identity", np.eye(n)), \
                   ("dense", rng.standard_normal((n, n))), ("cesaro", cesaro):
        np.savetxt(tmp / f"{name}.csv", a, fmt="%.17g", delimiter=",",
                   header=f"N={n}", comments="")
        space = {"kind": "lp", "p": 2.0}
        (tmp / f"{name}.json").write_text(json.dumps(
            {"n": n, "entries": a.tolist(), "domain": space, "codomain": space}))
    big = 300  # past the 1 MiB at which a matrix CSV is cached
    np.savetxt(tmp / "big.csv", rng.standard_normal((big, big)) * 1e-3 + np.eye(big),
               fmt="%.17g", delimiter=",", header=f"N={big}", comments="")
    np.savetxt(tmp / "h.csv", 1.0 + idx / 10.0, fmt="%.17g")
    np.savetxt(tmp / "e1.csv", np.eye(1, n)[0], fmt="%.17g")
    np.savetxt(tmp / "short.csv", idx[:3], fmt="%.17g")
    # a Cesaro sandwich whose factor moved between g (~1e13) and h (~1e-13),
    # and an identity with 1e-12 on every off-diagonal entry: both factor
    g4, h4 = np.array([1.0, -2.0, 0.5, 3.0]) * 1e13, np.array([1.0, 0.5, 0.25, 0.8]) * 1e-13
    np.savetxt(tmp / "scaled.csv", g4[:, None] * np.tri(4) / np.arange(1.0, 5.0)[:, None] * h4,
               fmt="%.17g", delimiter=",", header="N=4", comments="")
    np.savetxt(tmp / "scaled-h.csv", h4, fmt="%.17g")
    near = np.full((40, 40), 1e-12)
    np.fill_diagonal(near, 1.0)
    np.savetxt(tmp / "near-identity.csv", near, fmt="%.17g", delimiter=",", header="N=40",
               comments="")
    (tmp / "bad.csv").write_text("N=2\n1.0,x\n0.0,1.0\n")
    (tmp / "ragged.csv").write_text("N=2\n1.0,0.0\n0.0\n")
    (tmp / "nokey.json").write_text(json.dumps({"entries": [[1.0]]}))
    (tmp / "broken.json").write_text("{\"entries\": [[1.0]")


def _jobs(tmp: Path):
    """Every job's argv, in the order they run."""
    t = str(tmp)
    quiet = ["--no-timestamp"]
    shapes = (["--p", "2", "--q", "2", "--r", "2"], ["--p", "3", "--q", "2", "--r", "4"],
              ["--p", "4", "--q", "3/2", "--r", "3/2"], ["--p", "inf", "--q", "4", "--r", "1"])
    for cmd in ("check-cesaro", "check-cesaro-j0", "check-fourier"):
        for gen, shape in itertools.product(_GENERATORS, shapes):
            yield [cmd, "--gen", gen, "--g", "harmonic", "--h", "ones", "--N", "8", *shape, *quiet]
        for seq in (*_SEQUENCES, f"{t}/h.csv", f"{t}/e1.csv"):
            yield [cmd, "--gen", "rank-one", "--g", seq, "--h", seq, "--N", "8", *shapes[0],
                   "--tol", "1e-9", *quiet]
        for name in ("sandwich", "identity", "dense"):
            for ext in ("csv", "json"):
                yield [cmd, "--matrix", f"{t}/{name}.{ext}", "--h", "alt", "--N", "8",
                       *shapes[0], *quiet]
        yield [cmd, "--gen", "rank-one", "--g", "alt", "--h", "ones", "--N", "16",
               "--perturb", "2,9,1e-3", *shapes[0], "--tol", "1e-6", *quiet]
        yield [cmd, "--gen", "random-lower", "--h", "harmonic", "--N", "33", "--seed", "4",
               *shapes[1], *quiet]
    for through in ("cesaro", "identity", f"{t}/cesaro.csv", f"{t}/cesaro.json", "bogus"):
        for gen in _GENERATORS:
            yield ["check-matrix", "--gen", gen, "--g", "invsq", "--h", "shift1:harmonic",
                   "--N", "8", "--through", through, *quiet]
        yield ["check-matrix", "--matrix", f"{t}/sandwich.csv", "--h", "alt", "--N", "8",
               "--through", through, *quiet]
    rq = (["--r", "4", "--q", "2"], ["--r", "2", "--q", "2"], ["--r", "inf", "--q", "2"],
          ["--r", "3", "--q", "3/2"])
    for form, exps, (gen, g, h, n) in itertools.product(
            ("cesaro", "fourier"), rq,
            (("rank-one", "alt", "ones", "3"), ("rank-one", "alt", "ones", "8"),
             ("diag", "harmonic", "ones", "4"), ("identity", "ones", "ones", "3"),
             ("cesaro", "ones", f"{t}/e1.csv", "8"), ("random-lower", "ones", "harmonic", "5"))):
        yield ["certify", "--form", form, "--gen", gen, "--g", g, "--h", h, "--N", n,
               *exps, *quiet]
    for exps in rq:
        yield ["certify", "--form", "cesaro", "--matrix", f"{t}/scaled.csv",
               "--h", f"{t}/scaled-h.csv", "--N", "4", *exps, *quiet]
    yield ["check-cesaro", "--matrix", f"{t}/scaled.csv", "--h", f"{t}/scaled-h.csv",
           "--N", "4", *shapes[1], *quiet]
    for r in ("3/2", "2"):
        yield ["certify", "--form", "fourier", "--matrix", f"{t}/near-identity.csv",
               "--N", "40", "--r", r, "--q", "2", *quiet]
    for seed, patterns in ("0", "1"), ("3", "5"):
        yield ["certify", "--gen", "random-lower", "--h", "alt", "--N", "7", "--r", "4",
               "--q", "2", "--seed", seed, "--patterns", patterns, *quiet]
    for family, permute, g in itertools.product(_FAMILIES, ([], ["--permute"]),
                                                ([], ["--g", "alt"])):
        yield ["verify-representing", "--family", family, "--N", "6", *permute, *g, *quiet]
    yield ["check-cesaro", "--matrix", f"{t}/big.csv", "--h", "ones", "--N", "300", *shapes[0],
           *quiet]
    yield ["check-cesaro", "--matrix", f"{t}/big.csv", "--h", "ones", "--N", "300", *shapes[0],
           *quiet]  # the second read of the same bytes hits the cache
    yield ["check-cesaro", "--gen", "rank-one", "--g", "harmonic", "--h", "ones", "--N", "8",
           *shapes[0], "--out", f"{t}/cert.json", *quiet]
    yield ["check-fourier", "--gen", "diag", "--g", "alt", "--N", "8", *shapes[0]]  # timestamped
    for seed in ("0", "3"):
        yield ["suite", "--name", "all", "--seed", seed]
    yield ["suite", "--name", "roundtrip", "--seed", "9"]
    # usage, specification and parse errors
    base = ["check-cesaro", "--N", "8", *shapes[0]]
    for extra in (["--gen", "cesaro"], ["--gen", "bogus", "--h", "ones"],
                  ["--gen", "rank-one", "--g", "alt"], ["--gen", "rank-one", "--h", "ones"],
                  ["--gen", "diag", "--h", "ones"], ["--h", "ones"],
                  ["--gen", "cesaro", "--matrix", f"{t}/identity.csv", "--h", "ones"],
                  ["--gen", "cesaro", "--h", "bogus"], ["--gen", "cesaro", "--h", "shift8:ones"],
                  ["--gen", "cesaro", "--h", "shift2:bogus"],
                  ["--gen", "cesaro", "--h", f"{t}/short.csv"],
                  ["--gen", "cesaro", "--h", "ones", "--perturb", "1,2"],
                  ["--gen", "cesaro", "--h", "ones", "--perturb", "9,9,1"],
                  ["--matrix", f"{t}/missing.csv", "--h", "ones"],
                  *(["--matrix", f"{t}/{name}", "--h", "ones"]
                    for name in ("bad.csv", "ragged.csv", "nokey.json", "broken.json",
                                 "big.csv"))):
        yield [*base, *extra, *quiet]
    for argv in (["check-cesaro", "--gen", "cesaro", "--h", "ones", "--N", "0", *shapes[0]],
                 ["check-cesaro", "--gen", "cesaro", "--h", "ones", "--p", "x", "--q", "2",
                  "--r", "2"],
                 ["check-cesaro", "--gen", "cesaro", "--h", "ones", "--tol", "-1", *shapes[0]],
                 ["certify", "--gen", "cesaro", "--h", "ones", "--r", "2", "--q", "2",
                  "--patterns", "0"],
                 ["certify", "--gen", "cesaro", "--h", "ones", "--r", "2", "--q", "2",
                  "--form", "bogus"],
                 ["verify-representing", "--family", "bogus"],
                 ["suite", "--name", "bogus"], ["suite", "--seed", "-1"], ["bogus"], []):
        yield argv
    for sub in ([], ["check-cesaro"], ["check-fourier"], ["check-matrix"], ["certify"],
                ["verify-representing"], ["suite"]):
        yield [*sub, "--help"]


def _run(cli, argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
        except Exception as exc:  # a crash is a result to compare, not the end of the run
            code = "raised"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")  # no file or line: they move


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0] if args else Path(__file__).resolve().parents[1] / "src").resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    warnings.simplefilter("always")
    warnings.showwarning = _show_warning
    with tempfile.TemporaryDirectory() as cache, tempfile.TemporaryDirectory() as tmp:
        os.environ["XDG_CACHE_HOME"] = cache
        sys.path.insert(0, str(src))
        from strongfactor import cli

        if not Path(cli.__file__).resolve().is_relative_to(src):
            print(f"strongfactor was imported from {cli.__file__}, not {src}", file=sys.stderr)
            return 2
        tmp_path = Path(tmp)
        _write_inputs(tmp_path)

        def mask(text: str) -> str:
            text = _TIMESTAMP.sub('"timestamp": "<t>"', text.replace(tmp, "<tmp>"))
            return _RUNTIME.sub("(<t>s)", text)

        for job in _jobs(tmp_path):
            code, out, err = _run(cli, job)
            line = (f"{mask(shlex.join(job))}\texit={code}"
                    f"\tstdout={hashlib.sha256(mask(out).encode()).hexdigest()}"
                    f"\tstderr={hashlib.sha256(mask(err).encode()).hexdigest()}")
            cert = tmp_path / "cert.json"
            if "--out" in job and cert.exists():
                line += f"\tout={hashlib.sha256(cert.read_bytes()).hexdigest()}"
                cert.unlink()
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
