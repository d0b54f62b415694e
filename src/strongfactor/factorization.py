"""Checkers and certifiers for strong factorization through the Fourier and
running-averages operators.

Two complementary routes are provided for each operator family and are never
merged:

* **shape checkers** decide the verdict from the closed matrix shape that an
  exact factorization forces, recovering the outer multiplier when it exists.
  All of them read a factorization A = M_g B M_h of N x N truncations as
  a_ij = g_i w_ij with w_ij = b_ij h_j, and one kernel decides that identity;
  the Cesàro (B = C_N, h with any leading zeros), Fourier (B = I, h = 1)
  and general matrix checkers are thin wrappers that build w and check
  exponents.  The representing-operator check T = M_g alpha M_h is the
  fourth caller: it hands the kernel T and alpha M_h applied to the first
  basis functions;
* **inequality certifiers** score sign patterns r in the equivalent inequality
  sum_ij r_ij a_ij <= C (sum_i wt_i |sum_j w_ij r_ij|^s')^(1/s'): one form
  for both families (Cesàro: w_ij = h_j on j <= i, wt_i = i^(-s'); Fourier:
  w = I, wt = 1) and one driver, in closed form when each row of w has one
  nonzero entry.  A pattern with vanishing right-hand side and positive
  left-hand side is a genuine refutation; without one, the sweep reports
  the truncation's constant with a pattern that attains it.  A finite
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

#: a pattern refutes when RHS falls below this while LHS exceeds the LHS floor
REFUTE_RHS_TOL = 1e-12
REFUTE_LHS_TOL = 1e-9

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
    c = CesaroOp(n)
    column = np.empty(n)

    def a_rows(lo, hi):
        rows = a.rows(lo, hi)
        column[lo:hi] = rows[:, j0 - 1]
        return rows

    def w_rows(lo, hi):
        w = c.rows(lo, hi)
        w *= hv
        return w

    cert = _sandwich_check(
        n, a_rows, w_rows, tol, s_rq,
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

    ``c_hat_vertex`` is the largest ratio LHS/RHS over the searched +-1
    vertex patterns: all of them up to 4 x 4, else the seeded starts.
    When a refuting pattern (RHS ~ 0 < LHS, zeroed entries allowed) is
    found, ``c_hat`` is inf and ``pattern`` is the refuting pattern.
    Otherwise ``c_hat`` is the attained constant: the ratio on ``pattern``,
    which attains sup LHS/RHS over [-1, 1]^(N x N) when every row of A is
    proportional to w's, and is never below ``c_hat_vertex``.  Either way
    ``lhs`` and ``rhs`` are the evaluator's values on ``pattern``.  A ratio
    that overflows makes both constants inf without a refutation.  ``rows``
    and ``cols`` are N, but in the row form (closed form at s = inf)
    ``pattern`` is a vector on row ``rows`` of A, counted from 1.
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


def _max_dot_with_zero_sum(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Maximize c . r over r in [-1, 1]^k subject to w . r = 0.

    Exact small LP: the dual piecewise-linear objective is minimized where the
    step function sum_j w_j sign(c_j - lambda w_j) crosses zero, which leaves
    at most one fractional coordinate.  The zero vector is feasible, so the
    optimum is always >= 0.  In the order of c_j / w_j, each r_j flips from
    sign(w_j) to -sign(w_j) while the gap sum |w_j| - 2 sum |w_flipped| stays
    >= 0; the gaps are one sequential ``subtract.accumulate``, which rounds
    as subtracting the steps one at a time does, and they never grow, so
    the crossing is a ``searchsorted``.
    """
    k = c.size
    r = np.zeros(k)
    active = np.flatnonzero(w != 0.0)
    free = np.flatnonzero(w == 0.0)
    r[free] = np.sign(c[free])
    if active.size == 0:
        return r
    with np.errstate(over="ignore"):  # an overflow is +-inf, which sorts alike
        lam = c[active] / w[active]
    order = active[np.argsort(lam, kind="stable")]
    sign = np.sign(w[order])
    gaps = np.subtract.accumulate(np.r_[np.abs(w[active]).sum(), 2.0 * np.abs(w[order])])
    cross = int(np.searchsorted(-gaps[1:], 0.0, side="right"))  # the first gap < 0
    r[order] = sign
    r[order[:cross]] = -sign[:cross]
    if cross < order.size:
        j = order[cross]
        r[j] = 0.0
        # |r_j| <= 1 holds in exact arithmetic at the crossing; clip guards
        # against summation rounding when w_j is tiny relative to the rest
        r[j] = min(1.0, max(-1.0, -float(np.dot(w, r)) / w[j]))
    return r


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


def _refutes(lhs, rhs):
    """Whether each (lhs, rhs) refutes: the RHS vanishes, the LHS does not."""
    return (rhs <= REFUTE_RHS_TOL) & (lhs > REFUTE_LHS_TOL)


def _select(stack, lhs: np.ndarray, rhs: np.ndarray):
    """The best vertex (ratio, pattern, lhs, rhs) over the patterns with
    RHS > REFUTE_RHS_TOL, earliest on ties, and the first refuting
    (pattern, lhs, rhs); either is None when the stack has none.  ``stack``
    is an array of patterns, scored by ``lhs`` and ``rhs``."""
    bounded = rhs > REFUTE_RHS_TOL
    refutes = _refutes(lhs, rhs)
    vertex = refute = None
    if bounded.any():
        ratios = np.where(bounded, lhs / np.where(bounded, rhs, 1.0), -math.inf)
        k = int(np.argmax(ratios))
        vertex = (float(ratios[k]), stack[k].copy(), float(lhs[k]), float(rhs[k]))
    if refutes.any():
        k = int(np.argmax(refutes))
        refute = (stack[k].copy(), float(lhs[k]), float(rhs[k]))
    return vertex, refute


def _exhaustive_vertex_max(form, n: int, m: int):
    """Best ratio over all 2^(n*m) sign matrices; first refuting vertex if any.

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
    """Best ratio over ``patterns`` seeded +-1 starts, and the first start
    that refutes, which ends the sweep.

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
        lhs, rhs = form.evaluate(starts)
        cut = int(np.argmax(np.append(_refutes(lhs, rhs), True))) + 1
        best, refute = _select(starts[:cut], lhs[:cut], rhs[:cut])
        if best is not None and (vertex is None or best[0] > vertex[0]):
            vertex = best
        if refute is not None:
            return vertex, refute
    return vertex, None


def _closed_form(ent: np.ndarray, w: np.ndarray, wt: np.ndarray, sp: float):
    """``_select``'s best vertex and first refutation, and ``rows``, when row
    i of w has one nonzero entry, w_ic_i.  Every +-1 vertex has the same
    RHS, so the sign-matched one is optimal; zeroed at each c_i it has RHS 0.
    At s' = 1 a ratio of row sums is at most its largest row ratio, so the
    row form is exact: a vector pattern on row k of A, with LHS =
    sum_j r_kj a_kj against RHS = wt_k |w_kc_k r_kc_k|.  A row's LHS rounds
    as np.dot's (a lone -0.0 product sums to +0.0); the last power is the
    scalar ``**``, correctly rounded more often than np.power."""
    n = ent.shape[0]
    col, k = (w != 0.0).argmax(axis=1), np.arange(n)
    rowform = sp == 1.0
    stack = np.empty((2, n, n))
    vert, zeroed = stack
    np.sign(ent, out=zeroed)
    np.add(zeroed, zeroed == 0.0, out=vert)  # sign(a_ij), and 1 where a_ij = 0
    if rowform:
        zeroed[:] = vert
    zeroed[k, col] = 0.0
    if rowform:  # row t of the stack is a vector pattern on row t % n of A
        lhs = (stack[:, :, None, :] @ ent[:, :, None]).reshape(2 * n)
        stack, k = stack.reshape(2 * n, n), np.tile(k, 2)
        rhs = wt[k] * np.abs(w[k, col[k]] * stack[np.arange(2 * n), col[k]])
    else:
        lhs = np.array([(r * ent).sum() for r in stack])
        rhs_pow = (wt * np.abs(w[k, col] * stack[:, k, col]) ** sp).sum(axis=1)
        rhs = np.array([float(x) ** (1.0 / sp) for x in rhs_pow])
    vertex, refute = _select(stack, lhs, rhs)
    if not rowform or not (vertex or refute):
        return vertex, refute, n
    # _select took the first row scoring the reported (lhs, rhs)
    found = refute[1:] if refute else vertex[2:]
    return vertex, refute, 1 + int(np.argmax((lhs == found[0]) & (rhs == found[1]))) % n


def _attained(form) -> np.ndarray | None:
    """The n x n pattern that attains sup LHS/RHS over [-1, 1]^(n x n) when
    every row of A is gamma_i w_i, or None when there is none to build.

    Then LHS = sum_i gamma_i S_i with S_i = sum_j w_ij r_ij, so by
    homogeneity the supremum is ||c||_s with c_i = gamma_i wt_i^(-1/s'),
    attained by S_i = f_i wt_i^(-1/s') with f the l^s' extremizer of
    ``dual_norm``, scaled so that |S_i| <= ||w_i||_1 with equality on some
    row, and r_i = (S_i / ||w_i||_1) sign(w_i).  gamma_i is read as
    a_i . w_i / w_i . w_i, over w_i scaled by its largest |w_ij| so that
    neither product underflows; a zero row gets gamma_i = 0.
    """
    ent, w, wt, sp = form.ent, form.w, form.wt, form.sp
    top = np.abs(w).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.divide(w, top, out=np.zeros_like(w), where=top > 0.0)
        uu = np.einsum("ij,ij->i", u, u)
        gamma = np.divide(np.einsum("ij,ij->i", ent, u), uu * top[:, 0],
                          out=np.zeros_like(uu), where=uu > 0.0)
        lift = wt ** (-1.0 / sp)
        c = gamma * lift
        if not np.isfinite(c).all():
            return None
        norms = np.abs(w).sum(axis=1)
        q = np.divide(dual_norm(c, Exponent(sp))[1].coeffs * lift, norms,
                      out=np.zeros_like(norms), where=norms > 0.0)
        peak = np.abs(q).max()
        if not 0.0 < peak < math.inf:
            return None
        return (q / peak)[:, None] * np.sign(w)


def _sweep(ent: np.ndarray, w: np.ndarray, wt: np.ndarray, sp: float, patterns: int,
           seed: int) -> CertifierResult:
    """Certify the inequality that ``_Form(ent, w, wt, sp)`` scores.

    The vertex search (``c_hat_vertex``) is ``_closed_form`` when each row
    of w has exactly one nonzero entry, else the enumeration of the +-1
    vertices up to EXHAUSTIVE_LIMIT entries, else the seeded starts.
    Failing a refutation there, a per-row search over patterns with zeroed
    entries looks for one; failing that too, every row of A is
    proportional to w's, and ``_attained``'s pattern gives ``c_hat``
    unless a searched vertex scores higher.  The row form keeps its
    vector pattern, which is exact already.  An LHS or RHS that overflows
    at the sign pattern of A or of w, the largest there is, is a
    SpecError."""
    n = ent.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for side, top in ("LHS", np.abs(ent).sum()), ("RHS", wt @ np.abs(w).sum(axis=1) ** sp):
            if not np.isfinite(top):
                raise SpecError(f"the {side} of a sign pattern overflows the float range")
    form, rows = _Form(ent, w, wt, sp), n
    closed = (np.count_nonzero(w, axis=1) == 1).all()
    with np.errstate(over="ignore"):
        if closed:
            vertex, refute, rows = _closed_form(ent, w, wt, sp)
        elif n * n <= EXHAUSTIVE_LIMIT:
            vertex, refute = _exhaustive_vertex_max(form, n, n)
        else:
            vertex, refute = _sampled_vertex_max(form, n, n, patterns, seed)
        if refute is None and not closed:
            # per row, maximize the LHS subject to sum_j w_ij r_ij = 0, up to
            # w's last nonzero entry (all of a zero row: each r_ij is free)
            r = np.sign(ent)[None]
            for i, end in enumerate(n - (w[:, ::-1] != 0.0).argmax(axis=1)):
                r[0, i, :end] = _max_dot_with_zero_sum(ent[i, :end], w[i, :end])
            refute = _select(r, *form.evaluate(r))[1]
        if vertex is None:
            # no searched vertex has a nonvanishing RHS: report the all-ones pattern
            ones = np.ones((1, n, n))
            lhs, rhs = form.evaluate(ones)
            vertex = _select(ones, lhs, rhs)[0] or (0.0, ones[0], float(lhs[0]), float(rhs[0]))
        best = vertex
        if refute is None and not (closed and sp == 1.0):
            r = _attained(form)
            attained = None if r is None else _select(r[None], *form.evaluate(r[None]))[0]
            if attained and attained[0] >= vertex[0]:
                best = attained
    c_vertex, c_best = max(vertex[0], 0.0), max(best[0], 0.0)
    pattern, lhs, rhs = refute or best[1:]
    return CertifierResult(math.inf if refute else c_best, SignPattern(pattern), lhs, rhs,
                           refute is not None, c_vertex, rows, pattern.shape[-1])


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
    sp, n = float(conjugate(s_rq)), a.n
    return _sweep(a.rows(0, n), np.tri(n) * h.coeffs,
                  np.arange(1, n + 1, dtype=float) ** (-sp), sp, patterns, seed)


def certify_inequality_fourier(tphi, s: Exponent) -> CertifierResult:
    """Sweep sign patterns through the coefficient-operator inequality,
    LHS = sum_ij r_ij a_ij against the l^(s') norm of r's diagonal: ``_sweep``
    with w = I and wt = 1, which takes the closed form.  Nothing is sampled."""
    s = Exponent(s)
    if s == Exponent(1):
        raise DegenerateExponent("multiplier exponent 1 has infinite conjugate")
    n = tphi.n
    return _sweep(tphi.rows(0, n), _Identity(n).rows(0, n), np.ones(n), float(conjugate(s)),
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
