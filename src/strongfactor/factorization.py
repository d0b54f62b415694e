"""Checkers and certifiers for strong factorization through the Fourier and
running-averages operators.

Two views of one fact are provided for each operator family, and one
kernel decides both:

* **shape checkers** decide the verdict from the closed matrix shape that an
  exact factorization forces, recovering the outer multiplier when it exists.
  All of them read a factorization A = M_g B M_h of N x N truncations as
  a_ij = g_i w_ij with w_ij = b_ij h_j, and one kernel decides that identity;
  the Cesàro (B = C_N, h with any leading zeros), Fourier (B = I, h = 1)
  and general matrix checkers are thin wrappers that build w and check
  exponents.  The representing-operator check T = M_g alpha M_h is the
  fourth caller: it hands the kernel T and alpha M_h applied to the first
  basis functions;
* **inequality certifiers** score patterns r in the equivalent inequality
  sum_ij r_ij a_ij <= C (sum_i wt_i |sum_j w_ij r_ij|^s')^(1/s'): one form
  for both families (Cesàro: w_ij = h_j on j <= i, wt_i = i^(-s'); Fourier:
  w = I, wt = 1) and one driver.  The inequality is refuted exactly when
  the shape kernel says DOES_NOT_FACTOR, and the witness gives a pattern
  with right-hand side 0 and positive left-hand side; otherwise the
  constant is ||g||_s of the recovered g, reported with a pattern that
  attains it.  A +-1 vertex search, in closed form when each row of w has
  one nonzero entry, reports the best vertex ratio beside it.  A finite
  truncation can never prove the full inequality, so that constant is
  finite-truncation evidence only.

Verdicts follow the nontrivial-operator policy: an (approximately) zero
operator yields INCONCLUSIVE, never FACTORS.

Reported multiplier norms are truncation lower bounds for the sequence norm;
membership of the infinite sequence is not decidable at finite N, and every
certificate flags the norm as finite-truncation evidence.

Tolerance guidance: 1e-9 for identities that are exact in exact arithmetic
(matrix shape checks), 1e-6 where quadrature enters (representing-operator
checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from enum import Enum

import numpy as np

from .errors import (
    AllZeroMultiplier,
    DegenerateExponent,
    ExponentRange,
    LengthMismatch,
    SizeMismatch,
    SpecError,
    ZeroDiagonal,
)
from .exponents import Exponent, INF, conjugate, multiplier_exponent
from .grid_functions import (
    BasisFamily,
    BasisSpec,
    GridFunction,
    _basis_matrix,
    default_rule,
    fourier_coeffs,
)
from .operators import CesaroOp, _block_bounds, _Identity
from .seq_spaces import IndexDomain, SpaceKind, TruncatedSeq, dual_norm, lp_norm

EXACT_TOL = 1e-9       # identities exact in exact arithmetic
QUADRATURE_TOL = 1e-6  # identities that pass through quadrature

EVIDENCE_NOTE = "multiplier norm is finite-truncation evidence, not a membership proof"


class Verdict(Enum):
    FACTORS = "FACTORS"
    DOES_NOT_FACTOR = "DOES_NOT_FACTOR"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SignPattern:
    """A matrix or vector of reals in the unit ball of l^inf."""

    r: np.ndarray

    def __post_init__(self):
        arr = np.array(self.r, dtype=float)
        if not (np.abs(arr) <= 1.0 + 1e-12).all():
            raise SpecError("pattern entries must lie in [-1, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    def to_json(self):
        return self.r.tolist()


def _json_number(x: float):  # JSON has no infinity; "inf" as exponents write it
    return x if math.isfinite(x) else "inf"


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verdict with recovered multipliers and witness data."""

    verdict: Verdict
    h: TruncatedSeq | None = None
    g: TruncatedSeq | None = None
    alpha: TruncatedSeq | None = None
    g_norm: tuple[float, Exponent] | None = None
    h_norm: tuple[float, Exponent] | None = None
    residual: float = 0.0
    witness: dict | None = None
    exponents: dict = field(default_factory=dict)
    tol: float = EXACT_TOL
    truncation: int = 0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict is Verdict.FACTORS:
            if self.g is None:
                raise SpecError("FACTORS requires the recovered multiplier")
            if self.residual > self.tol:
                raise SpecError("FACTORS requires residual within tolerance")
        if self.verdict is Verdict.DOES_NOT_FACTOR and self.witness is None:
            raise SpecError("DOES_NOT_FACTOR requires a witness")

    def to_json(self) -> dict:
        def norm_pair(pair):
            return None if pair is None else {"value": _json_number(pair[0]),
                                              "exponent": pair[1].to_json()}

        return {
            "verdict": self.verdict.value,
            "g": self.g.to_json() if self.g is not None else None,
            "h": self.h.to_json() if self.h is not None else None,
            "alpha": self.alpha.to_json() if self.alpha is not None else None,
            "g_norm": norm_pair(self.g_norm),
            "h_norm": norm_pair(self.h_norm),
            "residual": _json_number(self.residual),
            "witness": self.witness,
            "exponents": {k: v.to_json() for k, v in self.exponents.items()},
            "tolerances": {"tol": self.tol},
            "truncation_n": self.truncation,
            "notes": list(self.notes),
        }


def _require_range(name: str, value: Exponent, low, high,
                   low_open: bool, high_open: bool) -> None:
    lo, hi = Exponent(low), Exponent(high)
    ok_low = value > lo if low_open else value >= lo
    ok_high = value < hi if high_open else value <= hi
    if not (ok_low and ok_high):
        lo_b = "(" if low_open else "["
        hi_b = ")" if high_open else "]"
        raise ExponentRange(f"{name}={value} outside {lo_b}{lo}, {hi}{hi_b}")


# ---------------------------------------------------------------------------
# shape checkers

def _sandwich_check(n: int, a_rows, w_rows, tol: float, g_exp: Exponent | None,
                    notes: tuple[str, ...] = (), pivot_tol: float = 0.0, **meta) -> Certificate:
    """Decide a_ij = g_i * w_ij for some g, where w_ij = b_ij * h_j and every
    forced zero of w is stored as an exact 0.

    A and w have n rows, read alike: ``a_rows(lo, hi)`` and ``w_rows(lo, hi)``
    return rows lo..hi-1, which may have any length as long as the two
    match.  Neither is held whole, and neither is written to: both are
    walked in the row blocks of ``operators._block_bounds``.  A first walk
    stops at the first block with some |a_ij| > tol; when there is none, A
    is a zero operator.
    g_i is read at the first entry of row i of w with |w_ij| > pivot_tol;
    a row with no such entry gets g_i = 0.  The witness is the first
    row-major entry whose deviation |a_ij - g_i w_ij| exceeds tol, so the
    walk stops at the first block that holds one.  It also stops at the
    first row where g_i or some g_i w_ij overflows: a violation in an
    earlier row is then the witness, and otherwise a ``SpecError`` names the
    row.  ``notes`` are added to a FACTORS certificate; ``meta`` holds the
    remaining certificate fields.
    """
    meta.update(tol=tol, truncation=n)
    if not any(np.abs(a_rows(lo, hi)).max() > tol for lo, hi in _block_bounds(n)):
        return Certificate(verdict=Verdict.INCONCLUSIVE, residual=0.0,
                           notes=("zero operator: nontrivial operator required",
                                  EVIDENCE_NOTE), **meta)

    g_vals = np.zeros(n)
    live = np.zeros(n, dtype=bool)
    residual = 0.0
    # an overflow shows as a non-finite deviation, which ends the walk below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _block_bounds(n):
            w, ar = w_rows(lo, hi), a_rows(lo, hi)
            rows = np.arange(hi - lo)
            dev = np.abs(w)  # the buffer is reused for the deviation below
            first = (dev > pivot_tol).argmax(axis=1)
            pivot = w[rows, first]
            live[lo:hi] = np.abs(pivot) > pivot_tol
            g = g_vals[lo:hi]
            np.divide(ar[rows, first], pivot, out=g, where=live[lo:hi])
            np.multiply(g[:, None], w, out=dev)
            np.subtract(ar, dev, out=dev)
            np.abs(dev, out=dev)
            top, end = dev.max(initial=0.0), hi - lo
            if not np.isfinite(top):  # the first row where some g_i w_ij overflows
                fits = np.isfinite(g[:, None] * w).all(axis=1)
                end = int(np.argmin(np.append(fits, False)))
                dev = dev[:end]
                top = dev.max(initial=0.0)
            residual = max(residual, top)
            if residual > tol:
                i, j = np.unravel_index(int(np.argmax(dev > tol)), dev.shape)
                return Certificate(
                    verdict=Verdict.DOES_NOT_FACTOR, residual=float(dev[i, j]),
                    # + 0.0 turns a -0.0 product into 0.0
                    witness={"i": lo + int(i) + 1, "j": int(j) + 1,
                             "expected": float(g[i] * w[i, j]) + 0.0,
                             "actual": float(ar[i, j])},
                    notes=(EVIDENCE_NOTE,), **meta)
            if end < hi - lo:
                k = lo + end + 1
                raise SpecError(
                    f"recovered g_{k} = a_ij / (b_ij h_j) overflows the float range"
                    if not np.isfinite(g[end]) else
                    f"recovered g_{k} = {float(g[end])!r} times b_ij h_j overflows "
                    "the float range")

    notes = (EVIDENCE_NOTE, *notes)
    dead = np.flatnonzero(~live)
    if dead.size:
        notes += (f"{dead.size} row(s) of B M_h vanish, first i={dead[0] + 1}; "
                  "g_i = 0 recorded for them",)
    g_norm = None if g_exp is None else (lp_norm(g_vals, g_exp), g_exp)
    return Certificate(verdict=Verdict.FACTORS,
                       g=TruncatedSeq(g_vals, IndexDomain.NAT1), g_norm=g_norm,
                       residual=float(residual), notes=notes, **meta)


def cesaro_factor_check(a, h: TruncatedSeq, p: Exponent, q: Exponent,
                        r: Exponent, tol: float = EXACT_TOL) -> Certificate:
    """Decide factorization through the running-averages operator with inner
    multiplier h, for any h that is not all zero.

    With j0 the first index where h is nonzero, the factorization forces
    zeros in the rows and columns before j0 and above the diagonal, and the
    shape a_ij = h_j * a_ij0 / h_j0 on the triangle from (j0, j0).  The
    recovered outer multiplier is g_i = i * a_ij0 / h_j0 (0 before j0), and
    its norm is reported at the multiplier exponent of the (r, q) pair;
    alpha_(i-j0+1) = a_ij0 / h_j0 is column j0 of A from row j0 on.
    """
    p, q, r = Exponent(p), Exponent(q), Exponent(r)
    _require_range("p", p, 1, INF, low_open=False, high_open=True)
    _require_range("q", q, 1, INF, low_open=True, high_open=True)
    _require_range("r", r, 1, INF, low_open=True, high_open=True)
    if len(h) != a.n:
        raise LengthMismatch(f"multiplier length {len(h)} != matrix size {a.n}")
    hv = h.coeffs
    nonzero = np.flatnonzero(hv != 0.0)
    if nonzero.size == 0:
        raise AllZeroMultiplier("h is identically zero")
    j0 = int(nonzero[0]) + 1
    s_rq = multiplier_exponent(r, q)
    s_pr = multiplier_exponent(p, r)
    n = a.n
    column = np.empty(n)

    def a_rows(lo, hi):
        rows = a.rows(lo, hi)
        column[lo:hi] = rows[:, j0 - 1]
        return rows

    cert = _sandwich_check(
        n, a_rows, _cesaro_w_rows(hv, n), tol, s_rq,
        notes=(f"shifted shape with j0={j0}",) if j0 > 1 else (),
        h=h, h_norm=(lp_norm(hv, s_pr), s_pr),
        exponents={"p": p, "q": q, "r": r, "s_rq": s_rq, "s_pr": s_pr})
    if cert.verdict is not Verdict.FACTORS:
        return cert
    alpha = column[j0 - 1:] / hv[j0 - 1]
    return replace(cert, alpha=TruncatedSeq(alpha, IndexDomain.NAT1))


# the shifted check's former name, kept while sfbench/shim.py wraps it by name
cesaro_factor_check_j0 = cesaro_factor_check


def fourier_factor_check(tphi, r: Exponent, p: Exponent, q: Exponent,
                         tol: float = EXACT_TOL) -> Certificate:
    """Decide factorization through the trigonometric coefficient operator.

    Column j of ``tphi`` holds the coefficient image of the j-th basis
    function.  The factorization forces a diagonal matrix; the diagonal is the
    recovered multiplier, measured at the multiplier exponent of (r', q).
    """
    r, p, q = Exponent(r), Exponent(p), Exponent(q)
    _require_range("r", r, 1, 2, low_open=True, high_open=False)
    _require_range("q", q, 1, INF, low_open=True, high_open=False)
    if not (r <= p and p < INF):
        raise ExponentRange(f"p={p} outside [r, inf) with r={r}")
    s = multiplier_exponent(conjugate(r), q)
    return _sandwich_check(tphi.n, tphi.rows, _Identity(tphi.n).rows,
                           tol, s, exponents={"r": r, "p": p, "q": q, "s_rprime_q": s})


def matrix_factor_check(a, b, h: TruncatedSeq, tol: float = EXACT_TOL) -> Certificate:
    """Decide factorization of A through a general matrix operator B and the
    inner multiplier h: requires a_ij = 0 wherever b_ij vanishes, and the
    ratios a_ij / (b_ij h_j) constant along each row elsewhere; the row
    constants form the recovered g.

    Entries with |b_ij| <= tol count as vanishing.  Row recovery uses the
    first index j with |b_ij h_j| > tol; rows with none get g_i = 0 with a
    recorded note.
    """
    if a.n != b.n:
        raise SizeMismatch(f"matrix sizes differ: {a.n} vs {b.n}")
    if len(h) != a.n:
        raise LengthMismatch(f"multiplier length {len(h)} != matrix size {a.n}")
    g_exp = None
    if b.codomain.kind is SpaceKind.LP and a.codomain.kind is SpaceKind.LP:
        g_exp = multiplier_exponent(b.codomain.p, a.codomain.p)

    def w_rows(lo, hi):
        b_rows = b.rows(lo, hi)
        w = b_rows * h.coeffs
        w[np.abs(b_rows) <= tol] = 0.0
        return w

    # reading g_i at |b_ij h_j| > tol keeps a difference below tol from being
    # divided by a tiny b_ij h_j
    return _sandwich_check(a.n, a.rows, w_rows, tol, g_exp, pivot_tol=tol, h=h,
                           exponents={} if g_exp is None else {"s": g_exp})


# ---------------------------------------------------------------------------
# inequality certifiers

@dataclass(frozen=True)
class CertifierResult:
    """Outcome of a sign-pattern sweep.

    ``refuted`` is the shape check's DOES_NOT_FACTOR: ``pattern`` then
    lies on the witness row, with RHS exactly 0 and LHS a positive multiple
    of the witness's 2 x 2 minor (0 only where that minor rounds to 0), and
    ``c_hat`` is inf.  Otherwise ``c_hat`` is the attained constant, the
    ratio on ``pattern``, which is built from the g that the check
    recovers and attains sup LHS/RHS over [-1, 1]^(N x N), and is never
    below ``c_hat_vertex``.  ``c_hat_vertex`` is the largest ratio LHS/RHS
    over the searched +-1 vertex patterns: all of them up to 4 x 4, else
    the seeded starts.  Either way ``lhs`` and ``rhs`` are the evaluator's
    values on ``pattern``.  A ratio that overflows makes both constants
    inf without a refutation.  ``rows`` and ``cols`` are N, but in the row
    form (closed form at s = inf) ``pattern`` is a vector on row ``rows``
    of A, counted from 1.
    """

    c_hat: float
    pattern: SignPattern
    lhs: float
    rhs: float
    refuted: bool
    c_hat_vertex: float
    rows: int
    cols: int

    def to_json(self) -> dict:
        return {
            "c_hat": _json_number(self.c_hat),
            "c_hat_vertex": _json_number(self.c_hat_vertex),
            "pattern": self.pattern.to_json(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "refuted": self.refuted,
            "rows": self.rows,
            "cols": self.cols,
        }


#: exhaustive vertex enumeration is guaranteed up to this many pattern entries
EXHAUSTIVE_LIMIT = 16


class _Form:
    """LHS = sum_ij r_ij a_ij and RHS = (sum_i wt_i |sum_j w_ij r_ij|^s')^(1/s')
    of the weighted inequality, evaluated on stacks of n x n patterns."""

    def __init__(self, ent: np.ndarray, w: np.ndarray, wt: np.ndarray, sp: float):
        self.ent, self.w, self.wt, self.sp = ent, w, wt, sp

    def evaluate(self, r: np.ndarray):
        """LHS and RHS of each pattern in a stack of shape (P, n, n).

        Each sum runs over one row of one pattern at a time: einsum, unlike
        BLAS, then reduces each pattern in the same order whatever P is, so
        a pattern scores the same alone as inside a stack.  (A single
        "pij,ij->p" contraction does not: at P = 1 it reduces a pattern of
        more than 8192 entries in another order.)
        """
        lhs = np.einsum("pij,ij->pi", r, self.ent).sum(axis=1)
        rows = np.einsum("pij,ij->pi", r, self.w)
        rhs_pow = np.einsum("pi,i->p", np.abs(rows) ** self.sp, self.wt)
        return lhs, rhs_pow ** (1.0 / self.sp)


def _select(stack, lhs: np.ndarray, rhs: np.ndarray):
    """The best vertex (ratio, pattern, lhs, rhs) over the patterns with
    RHS > 0, earliest on ties, or None when the stack has none.  ``stack``
    is an array of patterns, scored by ``lhs`` and ``rhs``."""
    bounded = rhs > 0.0
    if not bounded.any():
        return None
    ratios = np.where(bounded, lhs / np.where(bounded, rhs, 1.0), -math.inf)
    k = int(np.argmax(ratios))
    return float(ratios[k]), stack[k].copy(), float(lhs[k]), float(rhs[k])


def _exhaustive_vertex_max(form, n: int, m: int):
    """Best ratio over all 2^(n*m) sign matrices.

    Enumeration order is the binary code order, and ties keep the earliest
    pattern, so the result is deterministic.
    """
    k = n * m
    # entry b of pattern c is -1 or +1 as bit b of c is 0 or 1; k <= 16 bits
    # of each little-endian code are unpacked as bytes, and no 0/1 copy of
    # them outlives the +-1 stack
    codes = np.arange(1 << k, dtype="<u4").view(np.uint8).reshape(-1, 4)
    stack = np.array([-1.0, 1.0])[
        np.unpackbits(codes, axis=1, count=k, bitorder="little")].reshape(-1, n, m)
    return _select(stack, *form.evaluate(stack))


def _sampled_vertex_max(form, n: int, m: int, patterns: int, seed: int):
    """Best ratio over ``patterns`` seeded +-1 starts.

    The starts are drawn and scored in the row blocks of
    ``operators._block_bounds``, one n x m pattern a row, so no stack of
    all of them is held.  ``Generator.random`` fills arrays in sequence, so
    the blocks hold the values of one (patterns, n, m) draw, and the
    evaluator scores a pattern the same inside any stack: the result is
    that of scoring the one draw whole, earliest start on ties.
    """
    rng = np.random.default_rng(seed)
    vertex = None
    for lo, hi in _block_bounds(n * m, 0, patterns):
        starts = rng.random((hi - lo, n, m))
        np.subtract(starts, 0.5, out=starts)
        np.copysign(1.0, starts, out=starts)  # -1 below 0.5, else +1
        best = _select(starts, *form.evaluate(starts))
        if best is not None and (vertex is None or best[0] > vertex[0]):
            vertex = best
    return vertex


def _closed_form(ent: np.ndarray, w: np.ndarray, wt: np.ndarray, sp: float):
    """``_select``'s best vertex, and ``rows``, when row i of w has one
    nonzero entry, w_ic_i.  Every +-1 vertex has the same RHS, so the
    sign-matched one is optimal.  At s' = 1 a ratio of row sums is at most
    its largest row ratio, so the row form is exact: a vector pattern on
    row k of A, with LHS = sum_j r_kj a_kj against RHS = wt_k |w_kc_k r_kc_k|.
    A row's LHS rounds as np.dot's (a lone -0.0 product sums to +0.0); the
    last power is the scalar ``**``, correctly rounded more often than
    np.power."""
    n = ent.shape[0]
    col, k = (w != 0.0).argmax(axis=1), np.arange(n)
    stack = np.sign(ent)[None]
    stack += stack == 0.0  # sign(a_ij), and 1 where a_ij = 0
    if sp != 1.0:
        lhs = np.array([(r * ent).sum() for r in stack])
        rhs_pow = (wt * np.abs(w[k, col] * stack[:, k, col]) ** sp).sum(axis=1)
        return _select(stack, lhs, np.array([float(x) ** (1.0 / sp) for x in rhs_pow])), n
    # row t of the stack is a vector pattern on row t of A
    lhs = (stack[:, :, None, :] @ ent[:, :, None]).reshape(n)
    stack = stack.reshape(n, n)
    rhs = wt * np.abs(w[k, col] * stack[k, col])
    vertex = _select(stack, lhs, rhs)
    if vertex is None:
        return None, n
    # _select took the first row scoring the reported (lhs, rhs)
    return vertex, 1 + int(np.argmax((lhs == vertex[2]) & (rhs == vertex[3])))


def _refutation(ent: np.ndarray, w: np.ndarray, i: int, j: int) -> np.ndarray:
    """The pattern that refutes on row i (0-based) when a_ij breaks the
    shape: with p the first nonzero entry of row i of w, r_ij = t w_ip and
    r_ip = -t w_ij, zero elsewhere.  t = +-2^k is the largest power of two
    with max |r| <= 1, signed to make LHS = t (a_ij w_ip - a_ip w_ij)
    positive; scaling by 2^k is exact, so both products in row i's sum are
    the same float and the RHS is exactly 0.  A row of w that is all zero
    gets r_ij = sign(a_ij) alone."""
    r = np.zeros_like(ent)
    support = np.flatnonzero(w[i])
    if support.size == 0:
        r[i, j] = np.sign(ent[i, j])
        return r
    p = support[0]
    frac, e = math.frexp(max(abs(w[i, p]), abs(w[i, j])))
    k = (frac == 0.5) - e
    t = math.copysign(1.0, ent[i, j] * w[i, p] - ent[i, p] * w[i, j])
    r[i, j] = math.ldexp(t * w[i, p], k)
    r[i, p] = math.ldexp(-t * w[i, j], k) + 0.0  # + 0.0 turns -0.0 into 0.0
    return r


def _attained(form, g: TruncatedSeq) -> np.ndarray | None:
    """The n x n pattern that attains sup LHS/RHS over [-1, 1]^(n x n) when
    row i of A is g_i wt_i^(1/s') w_i, or None when there is none to build.

    Then LHS = sum_i g_i wt_i^(1/s') S_i with S_i = sum_j w_ij r_ij, so by
    homogeneity the supremum is ||g||_s, attained by S_i = f_i wt_i^(-1/s')
    with f the l^s' extremizer of ``dual_norm``, scaled so that
    |S_i| <= ||w_i||_1 with equality on some row, and
    r_i = (S_i / ||w_i||_1) sign(w_i).
    """
    w, wt, sp = form.w, form.wt, form.sp
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = np.abs(w).sum(axis=1)
        q = np.divide(dual_norm(g, Exponent(sp))[1].coeffs * wt ** (-1.0 / sp), norms,
                      out=np.zeros_like(norms), where=norms > 0.0)
        peak = np.abs(q).max()
        if not 0.0 < peak < math.inf:
            return None
        return (q / peak)[:, None] * np.sign(w)


def _sweep(a, w_rows, w: np.ndarray, wt: np.ndarray, s: Exponent, patterns: int,
           seed: int) -> CertifierResult:
    """Certify the inequality that ``_Form(A, w, wt, s')`` scores, where
    ``w_rows`` reads the rows wt_i^(1/s') w_i of B M_h for the shape kernel.

    The kernel decides refutation and constant: on DOES_NOT_FACTOR,
    ``_refutation`` builds the pattern from the witness; on FACTORS,
    ``_attained`` builds it from the recovered g, and gives ``c_hat``
    unless a searched vertex scores higher; on a zero operator the best
    vertex is reported.  The vertex search (``c_hat_vertex``) is
    ``_closed_form`` when each row of w has exactly one nonzero entry,
    else the enumeration of the +-1 vertices up to EXHAUSTIVE_LIMIT
    entries, else the seeded starts.  The row form keeps its vector
    pattern, which is exact already.  An LHS or RHS that overflows at the
    sign pattern of A or of w, the largest there is, is a SpecError,
    raised before the kernel runs."""
    n, sp = a.n, float(conjugate(s))
    ent = a.rows(0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for side, top in ("LHS", np.abs(ent).sum()), ("RHS", wt @ np.abs(w).sum(axis=1) ** sp):
            if not np.isfinite(top):
                raise SpecError(f"the {side} of a sign pattern overflows the float range")
    cert = _sandwich_check(n, lambda lo, hi: ent[lo:hi], w_rows, EXACT_TOL, s)
    form, rows = _Form(ent, w, wt, sp), n
    closed = (np.count_nonzero(w, axis=1) == 1).all()
    rowform = closed and sp == 1.0
    with np.errstate(over="ignore"):
        if closed:
            vertex, rows = _closed_form(ent, w, wt, sp)
        elif n * n <= EXHAUSTIVE_LIMIT:
            vertex = _exhaustive_vertex_max(form, n, n)
        else:
            vertex = _sampled_vertex_max(form, n, n, patterns, seed)
        if vertex is None:
            # no searched vertex has a nonvanishing RHS: report the all-ones pattern
            ones = np.ones((1, n, n))
            lhs, rhs = form.evaluate(ones)
            vertex = (0.0, ones[0], float(lhs[0]), float(rhs[0]))
        c_vertex = max(vertex[0], 0.0)
        if cert.verdict is Verdict.DOES_NOT_FACTOR:
            i = cert.witness["i"] - 1
            r = _refutation(ent, w, i, cert.witness["j"] - 1)
            if rowform:  # row i as a vector
                r, rows = r[i], i + 1
                lhs, rhs = float(r @ ent[i]), float(wt[i] * abs(r @ w[i]))
            else:
                lhs, rhs = (float(x[0]) for x in form.evaluate(r[None]))
            return CertifierResult(math.inf, SignPattern(r), lhs, rhs, True, c_vertex,
                                   rows, n)
        best = vertex
        if cert.verdict is Verdict.FACTORS and not rowform:
            r = _attained(form, cert.g)
            attained = None if r is None else _select(r[None], *form.evaluate(r[None]))
            if attained and attained[0] >= vertex[0]:
                best = attained
    ratio, pattern, lhs, rhs = best
    return CertifierResult(max(ratio, 0.0), SignPattern(pattern), lhs, rhs, False, c_vertex,
                           rows, n)


def _cesaro_w_rows(hv: np.ndarray, n: int):
    """Rows lo..hi-1 of C_N M_h, as ``_sandwich_check`` reads w."""
    c = CesaroOp(n)

    def w_rows(lo, hi):
        w = c.rows(lo, hi)
        w *= hv
        return w

    return w_rows


def certify_inequality_cesaro(a, h: TruncatedSeq, s_rq: Exponent, patterns: int = 64,
                              seed: int = 0) -> CertifierResult:
    """Sweep sign patterns through the running-averages inequality, LHS =
    sum_ij r_ij a_ij against RHS = (sum_i i^(-s') |sum_{j<=i} h_j r_ij|^s')^(1/s')
    with s' conjugate to the multiplier exponent: ``_sweep`` with
    w_ij = h_j on j <= i and wt_i = i^(-s'), in closed form when only h_1 is
    nonzero.  A refutation is reported as c_hat = inf with the refuting
    pattern as witness.  Deterministic given the seed."""
    s_rq = Exponent(s_rq)
    if s_rq == Exponent(1):
        raise DegenerateExponent("multiplier exponent 1 has infinite conjugate")
    if len(h) != a.n:
        raise LengthMismatch(f"multiplier length {len(h)} != matrix size {a.n}")
    if patterns < 1:
        raise SpecError("patterns must be >= 1")
    n, hv = a.n, h.coeffs
    wt = np.arange(1, n + 1, dtype=float) ** (-float(conjugate(s_rq)))
    return _sweep(a, _cesaro_w_rows(hv, n), np.tri(n) * hv, wt, s_rq, patterns, seed)


def certify_inequality_fourier(tphi, s: Exponent) -> CertifierResult:
    """Sweep sign patterns through the coefficient-operator inequality,
    LHS = sum_ij r_ij a_ij against the l^(s') norm of r's diagonal: ``_sweep``
    with w = I and wt = 1, which takes the closed form.  Nothing is sampled."""
    s = Exponent(s)
    if s == Exponent(1):
        raise DegenerateExponent("multiplier exponent 1 has infinite conjugate")
    ident = _Identity(tphi.n)
    return _sweep(tphi, ident.rows, ident.rows(0, tphi.n), np.ones(tphi.n), s,
                  patterns=1, seed=0)


# ---------------------------------------------------------------------------
# representing-operator verification

def verify_representing(t_impl, basis: BasisSpec, h, tol: float = QUADRATURE_TOL) -> Certificate:
    """Decide the two-sides-diagonal identity T(x)_k = g_k * alpha_k(h x),
    with alpha the basis-coefficient map, and recover g.

    ``t_impl`` maps a GridFunction to its coefficient sequence (anything
    indexable to ``basis.count`` entries); ``h`` is a pointwise multiplier
    callable.  Both sides are linear in x, so the identity holds on the span
    of the family's first m basis functions exactly when it holds on each of
    them: a_kv = g_k w_kv with a_kv = T(phi_v)_k and w_kv = alpha_k(h phi_v).
    m is ``basis.count``, or 2 max(1, count // 2) + 1 for the trigonometric
    family, whose span is then every polynomial of degree max(1, count // 2).
    The shape kernel decides the count x m identity, reading g_k at the
    first |w_kv| > tol.  Injectivity requires every recovered g_k to be
    nonzero.
    """
    count = basis.count
    rule = default_rule(basis.family)
    m = 2 * max(1, count // 2) + 1 if basis.family is BasisFamily.TRIG_REAL else count
    probes = [GridFunction(rule, phi)
              for phi in _basis_matrix(BasisSpec(basis.family, m), m, rule)]
    a = np.stack([np.asarray(t_impl(x), dtype=float)[:count] for x in probes], axis=1)
    w = np.stack([fourier_coeffs(x.multiplied(h), basis, count).coeffs for x in probes],
                 axis=1)
    cert = _sandwich_check(count, lambda lo, hi: a[lo:hi], lambda lo, hi: w[lo:hi],
                           tol, None, notes=(f"decided on the first {m} basis functions",),
                           pivot_tol=tol)
    if cert.g is not None and not cert.g.coeffs.all():
        k = int(np.argmin(np.abs(cert.g.coeffs))) + 1  # the first zero
        raise ZeroDiagonal(f"g_{k} = 0 breaks injectivity")
    return cert
