"""N x N truncations of infinite-matrix operators between sequence spaces.

An operator is either a ``MatrixOp``, which stores its entries as a dense
array, or the running-averages operator ``CesaroOp``, which stores only its
size and makes its entries on demand.  Both give their rows through
``rows(lo, hi)``, and the factorization checks and ``diagonal_sandwich`` read
them that way, by blocks of about ``_BLOCK_ENTRIES`` entries, so that neither
builds a second N x N array.  The constructors here hand their freshly built
arrays to ``MatrixOp`` read-only, so it keeps them without a copy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, ParseError, SizeMismatch, SpecError
from .exponents import Exponent, TWO
from .seq_spaces import (
    IndexDomain,
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": self.entries.tolist(),
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
        }


def _fresh(entries: np.ndarray, domain: SeqSpaceSpec,
           codomain: SeqSpaceSpec) -> MatrixOp:
    """MatrixOp that takes over an array built here and held nowhere else."""
    entries.flags.writeable = False
    return MatrixOp(entries, domain, codomain)


#: entries per row block when an operator is read by rows: 256 KB per float array
_BLOCK_ENTRIES = 1 << 15


def _block_bounds(n: int):
    """(lo, hi) of the row blocks of an N x N operator."""
    step = max(1, _BLOCK_ENTRIES // n)
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


class CesaroOp:
    """Running-averages operator C_N on l^r, held implicitly: entry (i, j) is
    1/i for j <= i, else 0.  Only ``rows`` builds entries."""

    def __init__(self, n: int, r: Exponent = TWO):
        if n < 1:
            raise SpecError("matrix size must be >= 1")
        self.n = n
        self.domain = self.codomain = lp_space(r)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a fresh array."""
        out = np.tri(hi - lo, self.n, lo)
        out *= (1.0 / np.arange(lo + 1, hi + 1))[:, None]
        return out


def cesaro_matrix(n: int, r: Exponent = TWO) -> MatrixOp:
    """Running-averages operator as a dense ``MatrixOp``."""
    op = CesaroOp(n, r)
    return _fresh(op.rows(0, n), op.domain, op.codomain)


def identity_matrix(n: int, p: Exponent = TWO, q: Exponent | None = None) -> MatrixOp:
    return _fresh(np.eye(n), lp_space(p), lp_space(q if q is not None else p))


def random_lower_triangular(n: int, seed: int, p: Exponent = TWO) -> MatrixOp:
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((n, n))
    np.copyto(entries, 0.0, where=~np.tri(n, dtype=bool))  # np.tril, in place
    spec = lp_space(p)
    return _fresh(entries, spec, spec)


def factorable_matrix(alpha: TruncatedSeq, h: TruncatedSeq, j0: int = 1,
                      domain: SeqSpaceSpec | None = None,
                      codomain: SeqSpaceSpec | None = None) -> MatrixOp:
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
    return _fresh(entries, domain or lp_space(TWO), codomain or lp_space(TWO))


def perturb_entry(op: MatrixOp, i: int, j: int, eps: float) -> MatrixOp:
    """Copy of op with eps added at 1-based entry (i, j)."""
    if not (1 <= i <= op.n and 1 <= j <= op.n):
        raise SpecError(f"entry ({i}, {j}) outside 1..{op.n}")
    entries = op.entries.copy()
    entries[i - 1, j - 1] += eps
    return _fresh(entries, op.domain, op.codomain)


def apply(op: MatrixOp, x: TruncatedSeq) -> TruncatedSeq:
    """Matrix-vector product as a NAT1 sequence."""
    if len(x) != op.n:
        raise LengthMismatch(f"vector length {len(x)} != matrix size {op.n}")
    return TruncatedSeq(op.entries @ x.coeffs, IndexDomain.NAT1)


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


def operator_norm_estimate(op: MatrixOp, trials: int = 64, seed: int = 0) -> float:
    """Certified lower bound on the operator norm of the truncation.

    Sampling: coordinate vectors (exact column norms), seeded random
    directions normalized in the domain norm, and power-iteration refinement
    when domain and codomain are both plain l^2 (where the refined value is
    the spectral norm itself up to iteration tolerance).  No upper-bound
    claim is made outside the l^2 case.  Deterministic given the seed.
    """
    if trials < 1:
        raise SpecError("trials must be >= 1")
    a = op.entries
    n = op.n
    best = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dn = space_norm(TruncatedSeq(e), op.domain)
        if dn > 0:
            best = max(best, space_norm(TruncatedSeq(a[:, j]), op.codomain) / dn)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.standard_normal(n)
        dn = space_norm(TruncatedSeq(x), op.domain)
        if dn == 0:
            continue
        best = max(best, space_norm(TruncatedSeq(a @ x), op.codomain) / dn)
    both_l2 = (
        op.domain.kind is SpaceKind.LP and op.codomain.kind is SpaceKind.LP
        and op.domain.p == TWO and op.codomain.p == TWO
    )
    if both_l2:
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        prev = 0.0
        for _ in range(10000):
            y = a @ x
            z = a.T @ y
            val = np.linalg.norm(z)
            if val == 0.0:
                break
            x = z / val
            sigma = np.sqrt(val)
            if abs(sigma - prev) <= 1e-14 * max(sigma, 1.0):
                prev = sigma
                break
            prev = sigma
        best = max(best, prev)
    return best


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


def matrix_from_csv(path, domain: SeqSpaceSpec | None = None,
                    codomain: SeqSpaceSpec | None = None) -> MatrixOp:
    """Row-major CSV with a one-line header ``N=<n>``."""
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
    spec2 = lp_space(TWO)
    return _fresh(_read_csv(path, n, lines[1:]), domain or spec2, codomain or spec2)


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


def seq_from_csv(path, index_domain: IndexDomain = IndexDomain.NAT1) -> TruncatedSeq:
    """Single-column CSV of coefficients."""
    coeffs = _read_csv(path, 1, _nonblank_lines(path))[:, 0]
    if not coeffs.size:
        raise ParseError(f"{path}: empty sequence")
    return TruncatedSeq(coeffs, index_domain)
