"""N x N truncations of infinite-matrix operators between sequence spaces.

An operator is either a ``MatrixOp``, which stores its entries as a dense
array, or the running-averages operator ``CesaroOp``, which stores only its
size and makes its entries on demand.  Both give their rows through
``rows(lo, hi)``, and the factorization checks and ``diagonal_sandwich`` read
them that way, by blocks of about ``_BLOCK_ENTRIES`` entries, so that neither
builds a second N x N array.  Both multiply by ``matvec(x)`` and ``rmatvec(y)``.
The constructors here hand their freshly built arrays to ``MatrixOp``
read-only, so it keeps them without a copy.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch, ParseError, SizeMismatch, SpecError
from .exponents import TWO
from .seq_spaces import (
    SeqSpaceSpec,
    SpaceKind,
    TruncatedSeq,
    lp_space,
    space_norm,
)


@dataclass(frozen=True)
class MatrixOp:
    """N x N truncation of an infinite matrix operator.

    Column j holds the image of the j-th unit vector, so ``entries[i, j]``
    is the i-th coordinate of T(e^j).

    ``entries`` is stored read-only and in C order.  A C-ordered float array
    that is already read-only and owns its memory is kept as it is, since
    nothing can write to it; any other input, such as a caller's writable
    array or a view, is copied.  Shape and finiteness are checked either way.
    """

    entries: np.ndarray
    domain: SeqSpaceSpec
    codomain: SeqSpaceSpec

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise SizeMismatch(f"matrix must be square and nonempty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise SpecError("matrix entries must be finite")
        flags = arr.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous):
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a read-only view."""
        return self.entries[lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ _vector(x, self.n)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return _vector(y, self.n) @ self.entries

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": self.entries.tolist(),
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
        }


def _vector(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise LengthMismatch(f"vector shape {x.shape} != ({n},)")
    return x


def _fresh(entries: np.ndarray, domain: SeqSpaceSpec,
           codomain: SeqSpaceSpec) -> MatrixOp:
    """MatrixOp that takes over an array built here and held nowhere else."""
    entries.flags.writeable = False
    return MatrixOp(entries, domain, codomain)


_L2 = lp_space(TWO)

#: entries per row block when an operator is read by rows: 256 KB per float array
_BLOCK_ENTRIES = 1 << 15


def _block_bounds(n: int):
    """(lo, hi) of the row blocks of an N x N operator."""
    step = max(1, _BLOCK_ENTRIES // n)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


class CesaroOp:
    """Running-averages operator C_N on l^2, held implicitly: entry (i, j) is
    1/i for j <= i, else 0.  Only ``rows`` builds entries."""

    def __init__(self, n: int):
        if n < 1:
            raise SpecError("matrix size must be >= 1")
        self.n = n
        self.domain = self.codomain = _L2

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a fresh array."""
        out = np.tri(hi - lo, self.n, lo)
        out *= (1.0 / np.arange(lo + 1, hi + 1))[:, None]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """(C x)_i = (x_1 + ... + x_i) / i."""
        return np.cumsum(_vector(x, self.n)) / np.arange(1, self.n + 1)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """(C^T y)_j = sum over i >= j of y_i / i."""
        return np.cumsum((_vector(y, self.n) / np.arange(1, self.n + 1))[::-1])[::-1]


def cesaro_matrix(n: int) -> MatrixOp:
    """Running-averages operator as a dense ``MatrixOp`` on l^2."""
    return _fresh(CesaroOp(n).rows(0, n), _L2, _L2)


def identity_matrix(n: int) -> MatrixOp:
    """Identity on l^2."""
    return _fresh(np.eye(n), _L2, _L2)


def random_lower_triangular(n: int, seed: int) -> MatrixOp:
    """Standard normal entries on and below the diagonal, on l^2."""
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, n))
    np.copyto(entries, 0.0, where=~np.tri(n, dtype=bool))  # np.tril, in place
    return _fresh(entries, _L2, _L2)


def factorable_matrix(alpha: TruncatedSeq, h: TruncatedSeq, j0: int = 1) -> MatrixOp:
    """Matrix with the rank-one-scaled triangular shape that factors through
    the running-averages operator: entry (i, j) = h_j * alpha_{i-j0+1} on the
    shifted triangle j0 <= j <= i, zero elsewhere.
    """
    a, hv = alpha.coeffs, h.coeffs
    n = hv.size
    if j0 < 1 or j0 > n:
        raise SpecError(f"shift j0={j0} outside 1..{n}")
    entries = np.zeros((n, n))
    for i in range(j0, n + 1):
        entries[i - 1, j0 - 1:i] = hv[j0 - 1:i] * a[i - j0]
    return _fresh(entries, _L2, _L2)


def perturb_entry(op: MatrixOp, i: int, j: int, eps: float) -> MatrixOp:
    """Copy of op with eps added at 1-based entry (i, j)."""
    if not (1 <= i <= op.n and 1 <= j <= op.n):
        raise SpecError(f"entry ({i}, {j}) outside 1..{op.n}")
    entries = op.entries.copy()
    entries[i - 1, j - 1] += eps
    return _fresh(entries, op.domain, op.codomain)


def diagonal_sandwich(g: TruncatedSeq, op: MatrixOp | CesaroOp,
                      h: TruncatedSeq) -> MatrixOp:
    """Matrix of M_g . S . M_h: entries (g_i * s_ij) * h_j, filled by row
    blocks of S."""
    if len(g) != op.n or len(h) != op.n:
        raise LengthMismatch("multiplier lengths must equal the matrix size")
    entries = np.empty((op.n, op.n))
    gv = g.coeffs[:, None]
    for lo, hi in _block_bounds(op.n):
        block = entries[lo:hi]
        np.multiply(gv[lo:hi], op.rows(lo, hi), out=block)
        block *= h.coeffs
    return _fresh(entries, op.domain, op.codomain)


class NormEstimate(NamedTuple):
    """Norm lower bound, Lanczos steps and convergence (0, False off l^2)."""
    value: float
    steps: int
    converged: bool


#: Golub-Kahan-Lanczos step limit and relative residual of the stopping rule
_LANCZOS_STEPS = 300
_LANCZOS_TOL = 1e-14
#: random directions tried, besides the coordinate vectors, off l^2
_NORM_TRIALS = 64


def operator_norm_estimate(op: MatrixOp | CesaroOp, seed: int = 0) -> NormEstimate:
    """Certified lower bound on the operator norm of the truncation, seeded:
    on plain l^2 a Golub-Kahan-Lanczos estimate, in any other space the
    largest ratio over the coordinate vectors and ``_NORM_TRIALS`` random
    directions, with no upper-bound claim."""
    n = op.n
    rng = np.random.default_rng(seed)
    if all(s.kind is SpaceKind.LP and s.p == TWO for s in (op.domain, op.codomain)):
        return _lanczos_norm(op, rng.standard_normal(n))
    a = op.rows(0, n)
    pairs = itertools.chain(((np.eye(1, n, j)[0], a[:, j]) for j in range(n)),
                            ((x, op.matvec(x)) for x in rng.standard_normal((_NORM_TRIALS, n))))
    best = max((space_norm(TruncatedSeq(y), op.codomain) / dn for x, y in pairs
                if (dn := space_norm(TruncatedSeq(x), op.domain)) > 0), default=0.0)
    return NormEstimate(best, 0, False)


def _lanczos_norm(op: MatrixOp | CesaroOp, x: np.ndarray) -> NormEstimate:
    """Golub-Kahan-Lanczos from x with full reorthogonalisation, op V_k = U_k B_k
    with the alphas on B_k's diagonal and the betas above it; converged when
    beta_k |e_k^T p| <= _LANCZOS_TOL sigma, (sigma, p) B_k's top left pair."""
    us, vs, alphas, betas = [], [x / np.linalg.norm(x)], [], []
    for k in range(1, _LANCZOS_STEPS + 1):
        u = op.matvec(vs[-1]) - (betas[-1] * us[-1] if us else 0.0)
        alphas.append(_reorthogonalise(u, us))
        us.append(u / alphas[-1] if alphas[-1] else u)  # u = 0: op V_k lies in span U
        v = op.rmatvec(us[-1]) - alphas[-1] * vs[-1]
        betas.append(_reorthogonalise(v, vs))
        left, sigma, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
        if betas[-1] * abs(left[-1, 0]) <= _LANCZOS_TOL * sigma[0]:
            return NormEstimate(float(sigma[0]), k, True)
        vs.append(v / betas[-1])
    return NormEstimate(float(sigma[0]), _LANCZOS_STEPS, False)


def _reorthogonalise(w: np.ndarray, basis: list) -> float:
    """Norm of w after removing, in place, its parts along the orthonormal basis."""
    for q in basis:
        w -= (q @ w) * q
    return float(np.linalg.norm(w))


# ---------------------------------------------------------------------------
# ingestion / serialization

def _nonblank_lines(path) -> list[tuple[int, str]]:
    with open(path) as fh:
        return [(k, text) for k, ln in enumerate(fh, start=1) if (text := ln.strip())]


def _read_csv(path, width: int, lines: list[tuple[int, str]]) -> np.ndarray:
    """(len(lines), width) array from a file's (line number, text) pairs.
    The one CSV format of matrix, sequence and grid files: each text holds
    width fields that float() accepts, all finite; errors name path:line."""
    out = np.empty((len(lines), width))
    for r, (k, text) in enumerate(lines):
        fields = text.split(",")
        if len(fields) != width:  # numpy would broadcast a single field
            raise ParseError(f"{path}:{k}: expected {width} values, found {len(fields)}")
        try:
            out[r] = fields  # numpy converts each field with float()
        except ValueError as exc:
            raise ParseError(f"{path}:{k}: {exc}") from None
    bad = ~np.isfinite(out)
    if bad.any():
        r, j = np.unravel_index(int(bad.argmax()), bad.shape)
        raise ParseError(f"{path}:{lines[r][0]}: non-finite value "
                         f"{float(out[r, j])!r} in column {j + 1}")
    return out


def _write_csv(path, rows: np.ndarray, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:  # one row of Python floats at a time, not all N^2
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def matrix_to_csv(op: MatrixOp, path) -> None:
    _write_csv(path, op.entries, header=f"N={op.n}")


def matrix_from_csv(path) -> MatrixOp:
    """Row-major CSV with a one-line header ``N=<n>``, as an operator on l^2."""
    lines = _nonblank_lines(path)
    if not lines or not lines[0][1].startswith("N="):
        raise ParseError(f"{path}:1: expected header 'N=<n>'")
    k, header = lines[0]
    try:
        n = int(header[2:])
    except ValueError:
        raise ParseError(f"{path}:{k}: malformed size in header {header!r}") from None
    if len(lines) - 1 != n:
        raise ParseError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    return _fresh(_read_csv(path, n, lines[1:]), _L2, _L2)


def matrix_from_json_file(path) -> MatrixOp:
    """JSON object with ``entries`` (a list of rows), ``domain`` and
    ``codomain``, as written by ``MatrixOp.to_json``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    try:
        entries = np.asarray(obj["entries"], dtype=float)
        domain = SeqSpaceSpec.from_json(obj["domain"])
        codomain = SeqSpaceSpec.from_json(obj["codomain"])
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ParseError(f"{path}: entries must be a square list of rows, "
                         f"got shape {entries.shape}")
    bad = ~np.isfinite(entries)  # a null, NaN or Infinity entry
    if bad.any():
        i, j = np.unravel_index(int(bad.argmax()), bad.shape)
        raise ParseError(f"{path}: row {i + 1}, column {j + 1}: entry is null or not finite")
    return _fresh(entries, domain, codomain)


def seq_to_csv(x: TruncatedSeq, path) -> None:
    _write_csv(path, x.coeffs[:, None])


def seq_from_csv(path) -> TruncatedSeq:
    """Single-column CSV of coefficients, indexed 1..N."""
    coeffs = _read_csv(path, 1, _nonblank_lines(path))[:, 0]
    if not coeffs.size:
        raise ParseError(f"{path}: empty sequence")
    return TruncatedSeq(coeffs)
