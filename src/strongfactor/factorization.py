"""Checkers and certifiers for strong factorization through the Fourier and
running-averages operators.

Two complementary routes are provided for each operator family and are never
merged:

* **shape checkers** decide the verdict from the closed matrix shape that an
  exact factorization forces, recovering the outer multiplier when it exists.
  All of them read a factorization A = M_g B M_h of N x N truncations as
  a_ij = g_i w_ij with w_ij = b_ij h_j, and one kernel decides that identity;
  the Cesàro (B = C_N), shifted-Cesàro, Fourier (B = I, h = 1) and general
  matrix checkers are thin wrappers that build w and check exponents;
* **inequality certifiers** evaluate the equivalent vector-norm inequality on
  sign patterns.  A finite sweep can never prove the full inequality, so a
  bounded ratio is reported as finite-truncation evidence only, while a
  pattern with vanishing right-hand side and positive left-hand side is a
  genuine refutation.

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
    ZeroPivot,
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
from .operators import CesaroOp, MatrixOp, _block_bounds, _Sandwich
from .seq_spaces import IndexDomain, SpaceKind, TruncatedSeq, lp_norm

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
        arr = np.asarray(self.r, dtype=float)
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise SpecError("pattern entries must lie in [-1, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "r", arr)

    def to_json(self):
        return np.asarray(self.r).tolist()


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
    seed: int | None = None
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
            "seed": self.seed,
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

def _sandwich_check(a: MatrixOp | _Sandwich, w_rows, tol: float, g_exp: Exponent | None,
                    notes: tuple[str, ...] = (), pivot_tol: float = 0.0,
                    pivots: np.ndarray | None = None, **meta) -> Certificate:
    """Decide a_ij = g_i * w_ij for some g, where w_ij = b_ij * h_j and every
    forced zero of w is stored as an exact 0.

    Neither A nor w is held whole.  Both are walked in the row blocks of
    ``operators._block_bounds``: A by the operator's ``a.rows(lo, hi)``, and
    w by ``w_rows(lo, hi)``, which returns a fresh array of rows lo..hi-1 of
    w.  A first walk stops at the first block with some |a_ij| > tol; when
    there is none, A is a zero operator.  g_i is read at the first entry of
    row i of w with |w_ij| > pivot_tol, and ``pivots``, when given, receives
    a_ij there; a row with no such entry gets g_i = 0.  The witness is the
    first row-major entry whose deviation |a_ij - g_i w_ij| exceeds tol, so
    the walk stops at the first block that holds one.  It also stops at the
    first row where g_i or some g_i w_ij overflows: a violation in an
    earlier row is then the witness, and otherwise a ``SpecError`` names the
    row.  ``notes`` are added to a FACTORS certificate; ``meta`` holds the
    remaining certificate fields.
    """
    n = a.n
    meta.update(tol=tol, truncation=n)
    if not any(np.abs(a.rows(lo, hi)).max() > tol for lo, hi in _block_bounds(n)):
        return Certificate(verdict=Verdict.INCONCLUSIVE, residual=0.0,
                           notes=("zero operator: nontrivial operator required",
                                  EVIDENCE_NOTE), **meta)

    g_vals = np.zeros(n)
    live = np.zeros(n, dtype=bool)
    residual = 0.0
    # an overflow shows as a non-finite deviation, which ends the walk below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _block_bounds(n):
            w, ar = w_rows(lo, hi), a.rows(lo, hi)
            rows = np.arange(hi - lo)
            dev = np.abs(w)  # the buffer is reused for the deviation below
            first = (dev > pivot_tol).argmax(axis=1)
            pivot = w[rows, first]
            live[lo:hi] = np.abs(pivot) > pivot_tol
            g = g_vals[lo:hi]
            a_pivot = ar[rows, first]
            if pivots is not None:
                pivots[lo:hi] = a_pivot
            np.divide(a_pivot, pivot, out=g, where=live[lo:hi])
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


def cesaro_factor_check(a: MatrixOp | _Sandwich, h: TruncatedSeq, p: Exponent, q: Exponent,
                        r: Exponent, tol: float = EXACT_TOL,
                        seed: int | None = None) -> Certificate:
    """Decide factorization through the running-averages operator with inner
    multiplier h, for h with nonzero leading entry.

    The factorization forces zeros above the diagonal and the rank-one-scaled
    shape a_ij = h_j * a_i1 / h_1 below it; the recovered outer multiplier is
    g_i = i * a_i1 / h_1 and its norm is reported at the multiplier exponent
    of the (r, q) pair.
    """
    if float(h.coeffs[0]) == 0.0:
        raise ZeroPivot("h_1 = 0: use the shifted variant")
    return cesaro_factor_check_j0(a, h, p, q, r, tol=tol, seed=seed)


def cesaro_factor_check_j0(a: MatrixOp | _Sandwich, h: TruncatedSeq, p: Exponent, q: Exponent,
                           r: Exponent, tol: float = EXACT_TOL,
                           seed: int | None = None) -> Certificate:
    """Shifted variant keyed to j0, the first index where h is nonzero: rows
    and columns before j0 must vanish and the triangular shape starts at
    (j0, j0).  Collapses to the unshifted check when h_1 != 0.
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

    def w_rows(lo, hi):
        w = c.rows(lo, hi)
        w *= hv
        return w

    # the default pivot_tol = 0 reads row i >= j0 at column j0, where
    # w_ij0 = (1/i) h_j0 is nonzero
    column = np.empty(n)
    cert = _sandwich_check(
        a, w_rows, tol, s_rq,
        notes=(f"shifted shape with j0={j0}",) if j0 > 1 else (),
        pivots=column, h=h, h_norm=(lp_norm(hv, s_pr), s_pr), seed=seed,
        exponents={"p": p, "q": q, "r": r, "s_rq": s_rq, "s_pr": s_pr})
    if cert.verdict is not Verdict.FACTORS:
        return cert
    column = column[j0 - 1:]
    # rows where (1/i) h_j0 underflows to 0 were read at another column
    for k in np.flatnonzero((1.0 / np.arange(j0, n + 1)) * hv[j0 - 1] == 0.0):
        column[k] = a.rows(j0 - 1 + k, j0 + k)[0, j0 - 1]
    alpha = column / hv[j0 - 1]
    return replace(cert, alpha=TruncatedSeq(alpha, IndexDomain.NAT1))


def fourier_factor_check(tphi: MatrixOp | _Sandwich, r: Exponent, p: Exponent, q: Exponent,
                         tol: float = EXACT_TOL,
                         seed: int | None = None) -> Certificate:
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
    return _sandwich_check(tphi, lambda lo, hi: np.eye(hi - lo, tphi.n, lo),
                           tol, s, seed=seed,
                           exponents={"r": r, "p": p, "q": q, "s_rprime_q": s})


def matrix_factor_check(a: MatrixOp | _Sandwich, b: MatrixOp | CesaroOp, h: TruncatedSeq,
                        tol: float = EXACT_TOL,
                        seed: int | None = None) -> Certificate:
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
    return _sandwich_check(a, w_rows, tol, g_exp, pivot_tol=tol, h=h,
                           seed=seed,
                           exponents={} if g_exp is None else {"s": g_exp})


# ---------------------------------------------------------------------------
# inequality certifiers

@dataclass(frozen=True)
class CertifierResult:
    """Outcome of a sign-pattern sweep.

    ``c_hat_vertex`` is the largest ratio LHS/RHS over the searched +-1
    vertex patterns.  ``c_hat`` equals it unless a refuting pattern
    (RHS ~ 0 < LHS, zeroed entries allowed) was found, in which case
    ``c_hat`` is inf and ``pattern`` is the refuting pattern.
    """

    c_hat: float
    pattern: SignPattern
    lhs: float
    rhs: float
    refuted: bool
    c_hat_vertex: float
    rows: int
    cols: int
    seed: int

    def to_json(self) -> dict:
        return {
            "c_hat": _json_number(self.c_hat),
            "c_hat_vertex": self.c_hat_vertex,
            "pattern": self.pattern.to_json(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "refuted": self.refuted,
            "rows": self.rows,
            "cols": self.cols,
            "seed": self.seed,
        }


#: exhaustive vertex enumeration is guaranteed up to this many pattern entries
EXHAUSTIVE_LIMIT = 16

_ASCENT_PASSES = 8


def _max_dot_with_zero_sum(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Maximize c . r over r in [-1, 1]^k subject to w . r = 0.

    Exact small LP: the dual piecewise-linear objective is minimized where the
    step function sum_j w_j sign(c_j - lambda w_j) crosses zero, which leaves
    at most one fractional coordinate.  The zero vector is feasible, so the
    optimum is always >= 0.
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
    r[order] = np.sign(w[order])
    gap = float(np.abs(w[active]).sum())
    for j in order:
        step = 2.0 * abs(w[j])
        if gap - step >= 0.0:
            r[j] = -np.sign(w[j])
            gap -= step
            continue
        r[j] = 0.0
        # |r_j| <= 1 holds in exact arithmetic at the crossing; clip guards
        # against summation rounding when w_j is tiny relative to the rest
        r[j] = min(1.0, max(-1.0, -float(np.dot(w, r)) / w[j]))
        break
    return r


class _CesaroForm:
    """LHS/RHS of the running-averages inequality at fixed s', evaluated on
    stacks of n x n patterns."""

    def __init__(self, ent: np.ndarray, hv: np.ndarray, sp: float):
        n = ent.shape[0]
        self.ent = ent
        self.sp = sp
        self.w = np.tri(n) * hv  # row i holds h_j on j <= i
        self.inv_pow = np.arange(1, n + 1, dtype=float) ** (-sp)

    def evaluate(self, r: np.ndarray):
        """LHS, RHS, the row sums sum_{j<=i} h_j r_ij and RHS^s' of each
        pattern in a stack of shape (P, n, n).

        einsum, unlike BLAS, reduces each pattern in the same order whatever
        P is, so a pattern scores the same alone as inside a stack.
        """
        lhs = np.einsum("pij,ij->p", r, self.ent)
        rows = np.einsum("pij,ij->pi", r, self.w)
        rhs_pow = np.einsum("pi,i->p", np.abs(rows) ** self.sp, self.inv_pow)
        return lhs, rhs_pow ** (1.0 / self.sp), rows, rhs_pow


class _FourierForm:
    """LHS/RHS of the coefficient-operator inequality at multiplier exponent
    s.  At finite s a pattern is n x n, with LHS = sum_ij r_ij a_ij against
    the l^(s') norm of its diagonal.  At s = inf the entrywise row form
    applies (``rowform``): row k of an n x n stack is a vector pattern on
    row k of A, with LHS = sum_j r_kj a_kj against RHS = |r_kk|."""

    def __init__(self, ent: np.ndarray, s: Exponent):
        self.ent = ent
        self.rowform = s.is_inf
        self.sp = None if self.rowform else float(conjugate(s))

    def evaluate(self, r: np.ndarray):
        """LHS and RHS of each pattern in the stack r.  The batched matmul
        rounds each row's LHS as np.dot does (a lone -0.0 product sums to
        +0.0), and the final power is the scalar ``**``, which is correctly
        rounded more often than np.power."""
        if self.rowform:
            lhs = (r[:, None, :] @ self.ent[:, :, None])[:, 0, 0]
            return lhs, np.abs(np.diagonal(r))
        lhs = (r * self.ent).sum(axis=(1, 2))
        rhs_pow = (np.abs(np.diagonal(r, axis1=1, axis2=2)) ** self.sp).sum(axis=1)
        return lhs, np.array([float(x) ** (1.0 / self.sp) for x in rhs_pow])


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
    codes = np.arange(1 << k, dtype=np.int64)
    # no 0/1 copy of the bits outlives the +-1 stack
    stack = (2.0 * ((codes[:, None] >> np.arange(k)) & 1) - 1.0).reshape(-1, n, m)
    return _select(stack, *form.evaluate(stack)[:2])


def _ascend_lockstep(form, r: np.ndarray, lhs, rhs, rows, rhs_pow) -> None:
    """Single-entry sign flips on every pattern of the stack r, in place and
    in lockstep, while a flip raises that pattern's ratio.

    (lhs, rhs, rows, rhs_pow) is the evaluator's score of r.  The ascent
    updates it incrementally, one P-vector operation at a time, and it
    steers the flips only.  Every power is ``np.power``, which gives an
    element the same bits whatever the vector length, so each pattern takes
    the flips it would take alone.  A pattern stops after a pass with no
    accepted flip, or after a flip that refutes by the incremental score;
    the other patterns go on.  The caller re-scores every end with the
    evaluator and cuts the records at the first that refutes, so the
    patterns after a refuting one are ascended but never reported.
    """
    ent, w, sp, inv_pow = form.ent, form.w, form.sp, form.inv_pow
    inv_sp = 1.0 / sp
    n = r.shape[1]
    # r indexed (i, j, pattern), and d[i, j] the changes in LHS and in row
    # sum i that flipping r_ij makes, negated with every accepted flip
    rt = r.transpose(1, 2, 0)
    d = -2.0 * rt[:, :, None] * np.stack((ent, w), axis=-1)[..., None]
    rows = rows.T.copy()
    lhs_row = np.stack((lhs, rows[0]))  # LHS and the row sum of the row visited
    rhs, rhs_pow = rhs.copy(), rhs_pow.copy()
    active = np.ones(len(r), dtype=bool)
    # A flip at j > i with ent[i, j] == 0 changes neither LHS nor RHS, so it
    # is never accepted, and it refutes only if the current state refutes.
    # That state is a start that does not refute (the sweep ends at the
    # first start that does) or an accepted one, whose RHS exceeds
    # REFUTE_RHS_TOL.  So those flips are skipped.
    cols = [[j for j in range(n) if j <= i or ent[i, j] != 0.0] for i in range(n)]
    with np.errstate(divide="ignore", invalid="ignore"):
        # each pattern's current ratio; +inf once it is inactive, so that
        # no flip of it is accepted
        cur = np.where(rhs_pow > 0.0, lhs / rhs, -math.inf)
        for _pass in range(_ASCENT_PASSES):
            improved = np.zeros_like(active)
            for i in range(n):
                if not active.any():
                    return
                lhs_row[1] = rows[i]
                row_pow, inv_pow_i = np.power(np.abs(rows[i]), sp), inv_pow[i]
                for j in cols[i]:
                    new = lhs_row + d[i, j]
                    if j <= i:
                        new_row_pow = np.power(np.abs(new[1]), sp)
                        new_pow = rhs_pow + inv_pow_i * (new_row_pow - row_pow)
                        new_rhs = np.power(np.maximum(new_pow, 0.0), inv_sp)
                    else:  # outside the triangle a flip leaves the RHS alone
                        new_rhs = rhs
                    vanish = new_rhs <= REFUTE_RHS_TOL
                    any_vanish = np.count_nonzero(vanish)
                    if any_vanish:
                        refute = active & _refutes(new[0], new_rhs)
                        np.negative(rt[i, j], out=rt[i, j], where=refute)
                        active &= ~refute
                        cur[refute] = math.inf
                    ratio = new[0] / new_rhs
                    accept = ratio > cur
                    if any_vanish:
                        accept &= ~vanish
                    if not np.count_nonzero(accept):
                        continue
                    improved |= accept
                    np.negative(rt[i, j], out=rt[i, j], where=accept)
                    np.negative(d[i, j], out=d[i, j], where=accept)
                    np.copyto(lhs_row, new, where=accept)
                    np.copyto(cur, ratio, where=accept)
                    if j <= i:
                        np.copyto(row_pow, new_row_pow, where=accept)
                        np.copyto(rhs_pow, new_pow, where=accept)
                        np.copyto(rhs, new_rhs, where=accept)
                rows[i] = lhs_row[1]
            active &= improved
            cur[~active] = math.inf


def _sampled_vertex_max(form, n: int, m: int, patterns: int, seed: int):
    """Seeded sampling plus deterministic single-entry sign flips, run on
    every sampled pattern at once.

    The starting patterns come from one draw, the same stream as one draw
    per pattern.  Each start, and the pattern its ascent ends at, is a
    record; the records are taken in visit order (start_0, end_0, start_1,
    ...) and cut at the first that refutes, so only the patterns before the
    first refuting start are ascended.  The records are scored by the form's
    evaluator, which scores a pattern the same inside any stack, so every
    reported (lhs, rhs) is its value on the reported pattern.
    """
    rng = np.random.default_rng(seed)
    starts = np.where(rng.random((patterns, n, m)) < 0.5, -1.0, 1.0)
    lhs0, rhs0, rows, rhs_pow = form.evaluate(starts)
    refuting = np.flatnonzero(_refutes(lhs0, rhs0))
    k = int(refuting[0]) if refuting.size else patterns
    ends = starts[:k].copy()
    _ascend_lockstep(form, ends, lhs0[:k], rhs0[:k], rows[:k], rhs_pow[:k])
    # start_0, end_0, start_1, ..., then the refuting start if any
    records = np.concatenate((np.stack((starts[:k], ends), axis=1).reshape(-1, n, m),
                              starts[k:k + 1]))
    lhs, rhs = form.evaluate(records)[:2]
    refuting = np.flatnonzero(_refutes(lhs, rhs))
    cut = int(refuting[0]) + 1 if refuting.size else len(records)
    return _select(records[:cut], lhs[:cut], rhs[:cut])


def _certifier_result(vertex: tuple, refute: tuple | None, rows: int,
                      seed: int) -> CertifierResult:
    """Result of a sweep from its best vertex (ratio, pattern, lhs, rhs) and
    a refuting (pattern, lhs, rhs), which is reported instead when given."""
    ratio, *found = vertex
    c_vertex = max(ratio, 0.0)
    refuted = refute is not None
    pattern, lhs, rhs = refute if refuted else found
    return CertifierResult(math.inf if refuted else c_vertex, SignPattern(pattern),
                           lhs, rhs, refuted, c_vertex, rows, pattern.shape[-1], seed)


def certify_inequality_cesaro(a: MatrixOp | _Sandwich, h: TruncatedSeq, s_rq: Exponent,
                              patterns: int = 64, seed: int = 0) -> CertifierResult:
    """Sweep sign patterns through the running-averages inequality:
    LHS = sum_ij r_ij a_ij against
    RHS = (sum_i i^(-s') |sum_{j<=i} h_j r_ij|^(s'))^(1/s'),
    with s' conjugate to the multiplier exponent.

    Finite ratios come from +-1 vertex patterns, enumerated exhaustively when
    the matrix has at most EXHAUSTIVE_LIMIT entries and otherwise sampled
    (seeded) with coordinate-ascent sign flips.  A separate per-row search
    over patterns with zeroed entries looks for a refutation, reported as
    c_hat = inf with the refuting pattern as witness.  Deterministic given
    the seed.
    """
    s_rq = Exponent(s_rq)
    if s_rq == Exponent(1):
        raise DegenerateExponent("multiplier exponent 1 has infinite conjugate")
    if len(h) != a.n:
        raise LengthMismatch(f"multiplier length {len(h)} != matrix size {a.n}")
    if patterns < 1:
        raise SpecError("patterns must be >= 1")
    sp = float(conjugate(s_rq))
    n = a.n
    ent = a.rows(0, n)
    form = _CesaroForm(ent, h.coeffs, sp)

    if n * n <= EXHAUSTIVE_LIMIT:
        vertex, refute = _exhaustive_vertex_max(form, n, n)
    else:
        vertex, refute = _sampled_vertex_max(form, n, n, patterns, seed)

    if refute is None:
        # targeted refutation: per row, maximize the LHS subject to a vanishing
        # weighted prefix sum; entries beyond the constrained prefix are free
        r = np.sign(ent)[None]
        for i in range(n):
            r[0, i, :i + 1] = _max_dot_with_zero_sum(ent[i, :i + 1], h.coeffs[:i + 1])
        refute = _select(r, *form.evaluate(r)[:2])[1]

    if vertex is None:
        # no searched vertex has a nonvanishing RHS: report the all-ones pattern
        ones = np.ones((1, n, n))
        lhs, rhs = form.evaluate(ones)[:2]
        vertex = _select(ones, lhs, rhs)[0] or (0.0, ones[0], float(lhs[0]), float(rhs[0]))
    return _certifier_result(vertex, refute, n, seed)


def certify_inequality_fourier(tphi: MatrixOp | _Sandwich, s: Exponent,
                               seed: int = 0) -> CertifierResult:
    """Sweep sign patterns through the coefficient-operator inequality that
    ``_FourierForm`` scores.  The sign-matched vertex attains the vertex
    optimum, as every +-1 vertex has the same RHS; zeroing its diagonal
    refutes whenever any off-diagonal mass is present.  Nothing is sampled.
    """
    s = Exponent(s)
    if s == Exponent(1):
        raise DegenerateExponent("multiplier exponent 1 has infinite conjugate")
    ent = tphi.rows(0, tphi.n)
    form = _FourierForm(ent, s)
    sign = np.sign(ent)
    vert = np.where(sign == 0.0, 1.0, sign)
    zeroed = (vert if form.rowform else sign).copy()
    np.fill_diagonal(zeroed, 0.0)
    if not form.rowform:
        vert, zeroed = vert[None], zeroed[None]
    vert_lhs, vert_rhs = form.evaluate(vert)
    zero_lhs, zero_rhs = form.evaluate(zeroed)
    vertex = _select(vert, vert_lhs, vert_rhs)[0]
    refute = _select(zeroed, zero_lhs, zero_rhs)[1]
    rows = tphi.n
    if form.rowform:
        # _select takes the earliest best ratio (each vertex RHS is 1) or the
        # first refutation, so every earlier row has a smaller LHS
        lhs, reported = (zero_lhs, refute[1]) if refute else (vert_lhs, vertex[2])
        rows = 1 + int(np.argmax(lhs == reported))
    return _certifier_result(vertex, refute, rows, seed)


# ---------------------------------------------------------------------------
# representing-operator verification

def verify_representing(t_impl, basis: BasisSpec, h, g: TruncatedSeq,
                        samples: int = 20, tol: float = QUADRATURE_TOL,
                        seed: int = 0) -> Certificate:
    """Verify the two-sides-diagonal identity T(x)_j = g_j * alpha_j(h x) on
    seeded random inputs, with alpha the basis-coefficient map.

    ``t_impl`` maps a GridFunction to its coefficient sequence (anything
    indexable to ``basis.count`` entries); ``h`` is a pointwise multiplier
    callable.  Injectivity requires every diagonal entry g_j to be nonzero.
    Both sides are linear in x, so the verdict is invariant under rescaling
    of the samples.
    """
    count = basis.count
    if len(g) < count:
        raise LengthMismatch(f"diagonal length {len(g)} < requested count {count}")
    zero = np.flatnonzero(g.coeffs[:count] == 0.0)
    if zero.size:
        raise ZeroDiagonal(f"g_{int(zero[0]) + 1} = 0 breaks injectivity")
    if samples < 1:
        raise SpecError("samples must be >= 1")
    rule = default_rule(basis.family)
    # a trigonometric sample has degree max(1, count // 2): every index to count
    m = 2 * max(1, count // 2) + 1 if basis.family is BasisFamily.TRIG_REAL else count
    span = _basis_matrix(BasisSpec(basis.family, m), m, rule)
    gv = g.coeffs[:count]
    worst = (-1.0, 0, 0)  # deviation, sample index, coefficient index
    for k in range(samples):
        x = GridFunction(rule, np.random.default_rng(seed * 100003 + k).standard_normal(m) @ span)
        tx = np.asarray(t_impl(x), dtype=float)[:count]
        alpha = fourier_coeffs(x.multiplied(h), basis, count).coeffs
        dev = np.abs(tx - gv * alpha)
        j = int(np.argmax(dev))
        if float(dev[j]) > worst[0]:
            worst = (float(dev[j]), k, j + 1)
    residual, sample_idx, coeff_idx = worst
    common = dict(g=TruncatedSeq(gv), tol=tol, seed=seed, truncation=count)
    if residual <= tol:
        return Certificate(verdict=Verdict.FACTORS, residual=residual,
                           notes=(EVIDENCE_NOTE,
                                  f"verified on {samples} seeded samples"),
                           **common)
    return Certificate(
        verdict=Verdict.DOES_NOT_FACTOR, residual=residual,
        witness={"sample": sample_idx, "j": coeff_idx, "deviation": residual},
        notes=(EVIDENCE_NOTE,), **common)
