"""Command-line front end: ingest operators and multipliers, dispatch to the
checkers and certifiers, and emit JSON certificates.

Exit codes: 0 = FACTORS, 1 = DOES_NOT_FACTOR, 2 = INCONCLUSIVE,
64 = usage/specification error, 65 = input parse error.  The ``certify``
command never claims FACTORS from a finite pattern sweep: it exits 1 on a
refutation and 2 (with the observed ratio recorded) otherwise.  The ``suite``
command exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ParseError, SpecError, StrongFactorError
from .exponents import Exponent, conjugate, multiplier_exponent
from .factorization import (
    EXACT_TOL,
    QUADRATURE_TOL,
    Certificate,
    Verdict,
    certify_inequality_cesaro,
    certify_inequality_fourier,
    cesaro_factor_check,
    fourier_factor_check,
    matrix_factor_check,
    verify_representing,
)
from .grid_functions import BasisFamily, BasisSpec, _representing_op
from .operators import (
    CesaroOp,
    MatrixOp,
    diagonal_sandwich,
    identity_matrix,
    matrix_from_csv,
    matrix_from_json_file,
    perturb_entry,
    random_lower_triangular,
    seq_from_csv,
)
from .seq_spaces import TruncatedSeq

_EXIT_BY_VERDICT = {Verdict.FACTORS: 0, Verdict.DOES_NOT_FACTOR: 1,
                    Verdict.INCONCLUSIVE: 2}

_SHIFT_RE = re.compile(r"^shift(\d+):([a-z-]+)$")

_FAMILIES = {f.value.split("_")[0]: f for f in BasisFamily}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecError(message)


#: each named sequence, as a function of the indices 1..N
_SEQUENCES = {
    "ones": np.ones_like,
    "harmonic": lambda idx: 1.0 / idx,
    "invsq": lambda idx: 1.0 / idx ** 2,
    "alt": lambda idx: (-1.0) ** (idx + 1) / idx,
}
_SEQUENCE_FORMS = [*_SEQUENCES, "shift<k>:<name>"]


def _named_sequence(name: str, n: int) -> np.ndarray:
    if name not in _SEQUENCES:
        raise SpecError(f"unknown sequence generator {name!r} "
                        f"(available: {', '.join(_SEQUENCE_FORMS)})")
    return _SEQUENCES[name](np.arange(1, n + 1, dtype=float))


def _load_sequence(spec: str, n: int) -> TruncatedSeq:
    """Built-in sequence name (optionally shift<k>:<name>) or a CSV path."""
    m = _SHIFT_RE.match(spec)
    if m:
        k = int(m.group(1))
        if k >= n:
            raise SpecError(f"shift {k} leaves no nonzero entries at N={n}")
        base = _named_sequence(m.group(2), n - k)
        return TruncatedSeq(np.concatenate([np.zeros(k), base]))
    if spec not in _SEQUENCES and Path(spec).exists():
        seq = seq_from_csv(spec)
        if len(seq) != n:
            raise SpecError(f"{spec}: sequence length {len(seq)} != N={n}")
        return seq
    return TruncatedSeq(_named_sequence(spec, n))


def _read_matrix_file(path: str) -> MatrixOp:
    return matrix_from_json_file(path) if path.endswith(".json") else matrix_from_csv(path)


#: each --gen name: its builder from (args, N) and the sequence options it needs
_GENERATORS = {
    "identity": (lambda args, n: identity_matrix(n), ()),
    "cesaro": (lambda args, n: CesaroOp(n), ()),
    "random-lower": (lambda args, n: random_lower_triangular(n, seed=args.seed), ()),
    "rank-one": (lambda args, n: diagonal_sandwich(_load_sequence(args.g, n), CesaroOp(n),
                                                   _load_sequence(args.h, n)), ("g", "h")),
    "diag": (lambda args, n: diagonal_sandwich(_load_sequence(args.g, n), identity_matrix(n),
                                               TruncatedSeq(np.ones(n))), ("g",)),
}


def _load_matrix(args, n: int):
    if args.matrix and args.gen:
        raise SpecError("give either --matrix or --gen, not both")
    if args.matrix:
        op = _read_matrix_file(args.matrix)
    elif args.gen in _GENERATORS:
        build, needs = _GENERATORS[args.gen]
        if not all(getattr(args, name) for name in needs):
            raise SpecError(f"--gen {args.gen} needs "
                            + " and ".join(f"--{name}" for name in needs))
        op = build(args, n)
    elif args.gen:
        raise SpecError(f"unknown generator {args.gen!r} "
                        f"(available: {', '.join(_GENERATORS)})")
    else:
        raise SpecError("an input matrix is required (--matrix or --gen)")
    if args.perturb:
        try:
            i, j, eps = args.perturb.split(",")
            i, j, eps = int(i), int(j), float(eps)
        except ValueError:
            raise SpecError(f"--perturb expects i,j,eps; got {args.perturb!r}") from None
        op = perturb_entry(op, i, j, eps)
    return op


def _load_h(args, n: int) -> TruncatedSeq:
    if not args.h:
        raise SpecError("missing multiplier --h")
    return _load_sequence(args.h, n)


def _job_echo(args) -> dict:
    """Every parsed option as given, but where the output goes and which
    handler runs."""
    return {key: value for key, value in vars(args).items()
            if key not in ("run", "out", "no_timestamp")}


def _finish_certificate(cert: Certificate, args, extra: dict | None = None) -> int:
    doc = cert.to_json()
    doc["job"], doc["seed"] = _job_echo(args), args.seed
    if extra:
        doc.update(extra)
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    summary = f"{cert.verdict.value} residual={cert.residual:.3e} N={cert.truncation}"
    if cert.g_norm is not None:
        summary += f" g_norm={cert.g_norm[0]:.6g}@s={cert.g_norm[1]}"
    if cert.witness is not None:
        summary += f" witness={cert.witness}"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    print(summary)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return _EXIT_BY_VERDICT[cert.verdict]


def _cmd_check_cesaro(args) -> int:
    p, q, r = Exponent(args.p), Exponent(args.q), Exponent(args.r)
    op = _load_matrix(args, args.N)
    cert = cesaro_factor_check(op, _load_h(args, op.n), p, q, r, tol=args.tol)
    return _finish_certificate(cert, args)


def _cmd_check_fourier(args) -> int:
    r, p, q = Exponent(args.r), Exponent(args.p), Exponent(args.q)
    op = _load_matrix(args, args.N)
    cert = fourier_factor_check(op, r, p, q, tol=args.tol)
    return _finish_certificate(cert, args)


def _cmd_check_matrix(args) -> int:
    op = _load_matrix(args, args.N)
    through = args.through
    if through in ("cesaro", "identity"):
        b = _GENERATORS[through][0](args, op.n)
    elif Path(through).exists():
        b = _read_matrix_file(through)
    else:
        raise SpecError(f"--through must be cesaro, identity, or a file path; got {through!r}")
    cert = matrix_factor_check(op, b, _load_h(args, op.n), tol=args.tol)
    return _finish_certificate(cert, args)


def _cmd_certify(args) -> int:
    r, q = Exponent(args.r), Exponent(args.q)
    op = _load_matrix(args, args.N)
    if args.form == "cesaro":
        held = _load_h(args, op.n)
        s = multiplier_exponent(r, q)
        result = certify_inequality_cesaro(op, held, s, patterns=args.patterns,
                                           seed=args.seed)
        exps = {"r": r, "q": q, "s_rq": s}
    else:
        held = None
        s = multiplier_exponent(conjugate(r), q)
        result = certify_inequality_fourier(op, s)
        exps = {"r": r, "q": q, "s_rprime_q": s}
    if result.refuted:
        verdict = Verdict.DOES_NOT_FACTOR
        witness = {"pattern": result.pattern.to_json(), "lhs": result.lhs,
                   "rhs": result.rhs}
        note = "refuting pattern: vanishing right-hand side with positive left-hand side"
    else:
        verdict, witness = Verdict.INCONCLUSIVE, None
        note = f"finite evidence only: attained constant c_hat={result.c_hat:.12g}"
    cert = Certificate(verdict=verdict, h=held, witness=witness, exponents=exps,
                       tol=args.tol, truncation=op.n, notes=(note,))
    certifier = {**result.to_json(), "seed": args.seed}
    return _finish_certificate(cert, args, extra={"certifier": certifier})


def _cmd_verify_representing(args) -> int:
    family = _FAMILIES.get(args.family)
    if family is None:
        raise SpecError(f"unknown family {args.family!r}; choose from "
                        f"{', '.join(_FAMILIES)}")
    spec = BasisSpec(family, args.N)
    g = _load_sequence(args.g, args.N) if args.g else TruncatedSeq(np.ones(args.N))
    h, t = _representing_op(spec, g, args.permute)
    cert = verify_representing(t, spec, h, tol=args.tol)
    return _finish_certificate(cert, args)


def _cmd_suite(args) -> int:
    from .suites import SUITES

    if args.name != "all" and args.name not in SUITES:
        raise SpecError(f"unknown suite {args.name!r}; choose from "
                        f"{', '.join([*SUITES, 'all'])}")
    all_ok = True
    for name in SUITES if args.name == "all" else [args.name]:
        res = SUITES[name](args.seed)
        print(res.summary())
        for line in res.details:
            print(f"  {line}")
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def _checked(convert, ok, rule: str):
    """An argparse type that converts, then rejects a value failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_SEED = _checked(int, lambda s: s >= 0, "at least 0")  # numpy refuses a negative seed


def _add_common(sub, exponents: str = "", with_matrix=True):
    sub.add_argument("--N", type=_checked(int, lambda n: n >= 1, "at least 1"),
                     default=64, help="truncation size")
    sub.add_argument("--tol", type=_checked(float, lambda t: 0.0 <= t < math.inf,
                                            "finite and >= 0"),
                     default=EXACT_TOL, help="decision tolerance")
    sub.add_argument("--seed", type=_SEED, default=0, help="seed recorded in output")
    sub.add_argument("--out", help="certificate path (default: print to stdout)")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp for byte-reproducible output")
    # kept as text: the job echo records each exponent as given
    for exp in exponents:
        sub.add_argument(f"--{exp}", required=True,
                         help=f"exponent {exp} (number, ratio, or inf)")
    if with_matrix:
        sub.add_argument("--matrix", help="matrix file (.csv with N=<n> header, or .json)")
        sub.add_argument("--gen", help="built-in generator: " + ", ".join(_GENERATORS))
        sub.add_argument("--perturb", help="i,j,eps single-entry perturbation")
        for seq in "gh":
            sub.add_argument(f"--{seq}", help="sequence: "
                                              + "|".join([*_SEQUENCE_FORMS, "CSV path"]))


def build_parser() -> _Parser:
    """The parser; each subcommand names its handler as ``run``.  Handlers
    are read from the module here, when the parser is built, not at import."""
    parser = _Parser(prog="strongfactor",
                     description="strong-factorization checkers and certifiers")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check-cesaro", aliases=["check-cesaro-j0"],
                          help="triangular shape check through the "
                               "running-averages operator")
    _add_common(sub, "pqr")
    sub.set_defaults(run=_cmd_check_cesaro)

    sub = subs.add_parser("check-fourier", help="diagonal shape check through "
                                                "the coefficient operator")
    _add_common(sub, "pqr")
    sub.set_defaults(run=_cmd_check_fourier)

    sub = subs.add_parser("check-matrix", help="general matrix factorization check")
    _add_common(sub)
    sub.add_argument("--through", default="cesaro",
                     help="the factoring operator B: cesaro, identity, or a file")
    sub.set_defaults(run=_cmd_check_matrix)

    sub = subs.add_parser("certify", help="sign-pattern inequality sweep")
    _add_common(sub, "qr")
    sub.add_argument("--form", choices=("cesaro", "fourier"), default="cesaro")
    sub.add_argument("--patterns", type=_checked(int, lambda p: p >= 1, "at least 1"),
                     default=64, help="sampled patterns when the rectangle is too large "
                                      "for exhaustive enumeration (--form fourier does "
                                      "not sample)")
    sub.set_defaults(run=_cmd_certify)

    sub = subs.add_parser("verify-representing",
                          help="decide the two-sides-diagonal identity on "
                               "the basis functions")
    _add_common(sub, with_matrix=False)
    sub.add_argument("--family", default="chebyshev1",
                     help="basis family: " + ", ".join(_FAMILIES))
    sub.add_argument("--g", help="diagonal sequence (default: ones)")
    sub.add_argument("--permute", action="store_true",
                     help="swap the first two coefficients (demonstrates failure)")
    sub.set_defaults(tol=QUADRATURE_TOL, run=_cmd_verify_representing)

    sub = subs.add_parser("suite", help="run a built-in verification sweep")
    sub.add_argument("--name", default="all")
    sub.add_argument("--seed", type=_SEED, default=0)
    sub.set_defaults(run=_cmd_suite)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 65
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except StrongFactorError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 64


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
