"""N x N truncations of infinite-matrix operators between sequence spaces.

A ``MatrixOp`` stores its entries as a dense array.  Every other operator
here stores only what makes its entries, and makes them on demand: the
running-averages operator ``CesaroOp`` and the identity store their size,
``random_lower_triangular`` its seed, the sandwich M_g S M_h that
``diagonal_sandwich`` returns g, S and h, and ``perturb_entry`` the operator,
the entry and the change.  All of them share ``n``, ``domain``,
``codomain``, ``rows(lo, hi)``, ``matvec(x)`` and ``rmatvec(y)``, so the
norm estimate here and the checks and certifiers of ``factorization`` take
any of them.  The factorization checks read an operator through ``rows``, by
blocks of about ``_BLOCK_ENTRIES`` entries, so that none of them builds an
N x N array; ``rows(0, n)`` is how any of them gives all its entries, and
only a ``MatrixOp`` has ``.entries``.  The constructors here hand their
freshly built arrays to ``MatrixOp`` read-only, so it keeps them without a
copy.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import tempfile
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


def _block_bounds(n: int, lo: int = 0, hi: int | None = None):
    """(lo, hi) of the row blocks of an N x N operator, over rows lo..hi-1."""
    step = max(1, _BLOCK_ENTRIES // n)
    hi = n if hi is None else hi
    return ((k, min(k + step, hi)) for k in range(lo, hi, step))


def _size(n: int) -> int:
    if n < 1:
        raise SizeMismatch(f"matrix must be square and nonempty, got shape ({n}, {n})")
    return n


class CesaroOp:
    """Running-averages operator C_N on l^2, held implicitly: entry (i, j) is
    1/i for j <= i, else 0.  Only ``rows`` builds entries."""

    def __init__(self, n: int):
        self.n = _size(n)
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


class _Identity:
    """Identity on l^2, held as its size: ``rows`` builds the entries."""

    def __init__(self, n: int):
        self.n = _size(n)
        self.domain = self.codomain = _L2

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a fresh array."""
        return np.eye(hi - lo, self.n, lo)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _vector(x, self.n).copy()

    rmatvec = matvec


def identity_matrix(n: int) -> _Identity:
    """Identity on l^2."""
    return _Identity(n)


class _RandomLower:
    """Standard normal entries on and below the diagonal, on l^2, held as the
    seed.  Row i holds draws i*n .. (i+1)*n - 1 of ``default_rng(seed)``, as
    in one draw of the whole matrix in C order; ``rows`` draws on from where
    the stream stands.  A read that starts before that draws again from the
    start of the previous read, or, before that too, from the seed: so two
    readers that take turns on the same rows, such as A and B = A in a
    check, draw each row twice, not the whole stream again for each block."""

    def __init__(self, n: int, seed: int):
        self.n, self.seed = _size(n), seed
        self.domain = self.codomain = _L2
        self._rng, self._at = np.random.default_rng(seed), 0  # the first row not drawn
        # (row, stream state) at row 0 and at the previous read's first row
        self._start = self._mark = (0, self._rng.bit_generator.state)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a fresh array, drawn by row blocks."""
        if lo < self._at:
            if lo < self._mark[0]:
                self._mark = self._start
            self._at, self._rng.bit_generator.state = self._mark
        for k, m in _block_bounds(self.n, self._at, lo):  # the rows before lo
            self._rng.standard_normal((m - k, self.n))
        self._mark = (lo, self._rng.bit_generator.state)
        out = np.empty((hi - lo, self.n))
        for k, m in _block_bounds(self.n, lo, hi):
            block = out[k - lo:m - lo]
            self._rng.standard_normal(out=block)
            np.copyto(block, 0.0, where=~np.tri(m - k, self.n, k, dtype=bool))
        self._at = hi
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = _vector(x, self.n)
        return np.concatenate([self.rows(lo, hi) @ x for lo, hi in _block_bounds(self.n)])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = _vector(y, self.n)
        return sum(y[lo:hi] @ self.rows(lo, hi) for lo, hi in _block_bounds(self.n))


def random_lower_triangular(n: int, seed: int) -> _RandomLower:
    """Standard normal entries on and below the diagonal, on l^2."""
    return _RandomLower(n, seed)


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


class _Perturbed:
    """op with eps added at 0-based entry (i, j), held as op, (i, j) and eps:
    ``rows`` returns op's rows, and adds eps in the block that holds row i,
    a copy of it when op returns its own array."""

    def __init__(self, op, i: int, j: int, eps: float):
        self.op, self.i, self.j, self.eps = op, i, j, eps
        self.n, self.domain, self.codomain = op.n, op.domain, op.codomain

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based): op's, or a fresh array when they hold row i."""
        out = self.op.rows(lo, hi)
        if lo <= self.i < hi:
            if not out.flags.writeable:  # a view of a MatrixOp's array
                out = out.copy()
            out[self.i - lo, self.j] += self.eps
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = _vector(x, self.n)
        out = self.op.matvec(x)
        out[self.i] += self.eps * x[self.j]
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = _vector(y, self.n)
        out = self.op.rmatvec(y)
        out[self.j] += self.eps * y[self.i]
        return out


def perturb_entry(op, i: int, j: int, eps: float) -> _Perturbed:
    """op with eps added at 1-based entry (i, j).  The other entries are op's
    and already finite, so only the new one is checked."""
    if not (1 <= i <= op.n and 1 <= j <= op.n):
        raise SpecError(f"entry ({i}, {j}) outside 1..{op.n}")
    out = _Perturbed(op, i - 1, j - 1, eps)
    with np.errstate(over="ignore"):
        if not np.isfinite(out.rows(i - 1, i)[0, j - 1]):
            raise SpecError("matrix entries must be finite")
    return out


class _Sandwich:
    """M_g . S . M_h held as g, S and h: entry (i, j) is (g_i * s_ij) * h_j,
    made by ``rows``."""

    def __init__(self, g: np.ndarray, op, h: np.ndarray):
        self.g, self.s, self.h = g, op, h
        self.n, self.domain, self.codomain = op.n, op.domain, op.codomain

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0-based), as a fresh array, filled by row blocks of S."""
        out = np.empty((hi - lo, self.n))
        for k, m in _block_bounds(self.n, lo, hi):
            block = out[k - lo:m - lo]
            np.multiply(self.g[k:m, None], self.s.rows(k, m), out=block)
            block *= self.h
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.g * self.s.matvec(self.h * _vector(x, self.n))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.h * self.s.rmatvec(self.g * _vector(y, self.n))


def diagonal_sandwich(g: TruncatedSeq, op, h: TruncatedSeq) -> _Sandwich:
    """M_g . S . M_h, held implicitly, with every entry checked finite.

    Rounding is monotone, so max|g| * max|s| * max|h|, multiplied in the
    entries' order, bounds every entry; with a margin for rounding it proves
    them finite, and only where it fails are the row blocks walked.  max|s|
    is 1 for the Cesàro operator and the identity, and read by row blocks
    of S otherwise.
    """
    if len(g) != op.n or len(h) != op.n:
        raise LengthMismatch("multiplier lengths must equal the matrix size")
    out = _Sandwich(g.coeffs, op, h.coeffs)
    s_max = 1.0 if isinstance(op, (CesaroOp, _Identity)) else max(
        max(s.max(), -s.min()) for s in (op.rows(lo, hi) for lo, hi in _block_bounds(op.n)))
    bound = float(np.abs(g.coeffs).max()) * float(s_max) * float(np.abs(h.coeffs).max())
    if not bound * (1.0 + 2.0 ** -50) < np.finfo(float).max:
        with np.errstate(over="ignore", invalid="ignore"):
            if not all(np.isfinite(out.rows(lo, hi)).all() for lo, hi in _block_bounds(op.n)):
                raise SpecError("matrix entries must be finite")
    return out


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


def operator_norm_estimate(op, seed: int = 0) -> NormEstimate:
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
    best = max((space_norm(y, op.codomain) / dn for x, y in pairs
                if (dn := space_norm(x, op.domain)) > 0), default=0.0)
    return NormEstimate(best, 0, False)


def _lanczos_norm(op, x: np.ndarray) -> NormEstimate:
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

def _lines(path, digest=None):
    """(line number, text) of each line of the file as ``open(path,
    encoding="utf-8")`` reads it, line end kept.  The bytes go to
    ``digest.update`` as they are read, when a digest is given.  A file that
    cannot be read, and a line that is not UTF-8, are a ParseError."""
    try:
        # a byte that is not UTF-8 becomes a lone surrogate in the line that holds it
        with (open(path, encoding="utf-8", errors="surrogateescape") if digest is None
              else io.TextIOWrapper(io.BufferedReader(_Digesting(path, digest)),
                                    encoding="utf-8", errors="surrogateescape")) as fh:
            for k, ln in enumerate(fh, start=1):
                if not ln.isascii():
                    try:
                        ln.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(f"{path}:{k}: not valid UTF-8") from None
                yield k, ln
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None


class _Digesting(io.RawIOBase):
    """The file at path, read in binary, each byte fed to digest as it is read."""

    def __init__(self, path, digest):
        self._fh, self._digest = open(path, "rb", buffering=0), digest

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        size = self._fh.readinto(buf)
        self._digest.update(memoryview(buf)[:size])
        return size

    def close(self) -> None:
        self._fh.close()
        super().close()


def _nonblank_lines(path, digest=None) -> list[tuple[int, str]]:
    return [(k, text) for k, ln in _lines(path, digest) if (text := ln.strip())]


def _read_text(path) -> str:
    """The file's text as ``open(path, encoding="utf-8").read()`` gives it."""
    return "".join(ln for _, ln in _lines(path))


def _read_csv(path, width: int, lines: list[tuple[int, str]]) -> np.ndarray:
    """(len(lines), width) array from a file's (line number, text) pairs.
    The one CSV format of matrix and sequence files: each text holds
    width fields that float() accepts, all finite; errors name path:line.
    Well-formed texts take one C pass, which accepts a subset of float()'s
    spellings with the same values; the rest go to _read_csv_lines."""
    out = None
    if lines:  # loadtxt warns on no data
        try:
            out = np.loadtxt([text for _, text in lines], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if out is None or out.shape != (len(lines), width):
        out = _read_csv_lines(path, width, lines)
    bad = ~np.isfinite(out)
    if bad.any():
        r, j = np.unravel_index(int(bad.argmax()), bad.shape)
        raise ParseError(f"{path}:{lines[r][0]}: non-finite value "
                         f"{float(out[r, j])!r} in column {j + 1}")
    return out


def _read_csv_lines(path, width: int, lines: list[tuple[int, str]]) -> np.ndarray:
    """One float() per field: every error, and spellings like ``1_0`` and ``١``."""
    out = np.empty((len(lines), width))
    for r, (k, text) in enumerate(lines):
        fields = text.split(",")
        if len(fields) != width:  # numpy would broadcast a single field
            raise ParseError(f"{path}:{k}: expected {width} values, found {len(fields)}")
        try:
            out[r] = fields  # numpy converts each field with float()
        except ValueError as exc:
            raise ParseError(f"{path}:{k}: {exc}") from None
    return out


def _write_csv(path, rows: np.ndarray, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:  # one row of Python floats at a time, not all N^2
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def matrix_to_csv(op, path) -> None:
    _write_csv(path, op.rows(0, op.n), header=f"N={op.n}")


def matrix_from_csv(path) -> MatrixOp:
    """Row-major CSV with a one-line header ``N=<n>``, as an operator on l^2.

    A file of 1 MiB or more (``_CACHE_MIN_BYTES``) is parsed once per content:
    the parsed array is kept in the user's cache directory under a hash of the
    file's bytes and of this reader, and a later read of the same bytes loads
    it.  The cache changes no result; when it cannot be used, the file is
    parsed."""
    try:
        size = os.stat(path).st_size
    except OSError:
        size = 0  # the reader reports it
    return _fresh(_cached_parse(path, size) if size >= _CACHE_MIN_BYTES
                  else _parse_matrix_csv(path), _L2, _L2)


def _parse_matrix_csv(path, digest=None) -> np.ndarray:
    lines = _nonblank_lines(path, digest)
    n = _matrix_size(path, *(lines[0] if lines else (1, "")))
    if len(lines) - 1 != n:
        raise ParseError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    return _read_csv(path, n, lines[1:])


def _matrix_size(path, k: int, header: str) -> int:
    """N from the header ``N=<n>``, the first nonblank line (line k); N >= 1."""
    if not header.startswith("N="):
        raise ParseError(f"{path}:{k}: expected header 'N=<n>'")
    try:
        n = int(header[2:])
    except ValueError:
        raise ParseError(f"{path}:{k}: malformed size in header {header!r}") from None
    if n < 1:
        raise ParseError(f"{path}:{k}: size in header must be at least 1, got {header!r}")
    return n


#: matrix CSV files of at least this many bytes are parsed once per content
_CACHE_MIN_BYTES = 1 << 20
#: total size of the files in the cache directory; the least recently used go first
_CACHE_MAX_BYTES = 1 << 30
#: hashed ahead of numpy's version, this module's source and a file's bytes
_CACHE_TAG = b"strongfactor matrix_from_csv: float64 .npy 1.0\n"


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/strongfactor``, or ``~/.cache/strongfactor`` when that
    variable is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "strongfactor")


def _cache_digest():
    """A BLAKE2b hash fed the entry format, numpy's version and this module's
    source, so that an entry is found only by the reader that wrote it.
    CPython's own BLAKE2b: ``hashlib`` would load OpenSSL, 3.5 MB of RSS."""
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    with open(__file__, "rb") as fh:
        source = fh.read()
    return blake2b(_CACHE_TAG + np.__version__.encode() + b"\n" + source, digest_size=32)


def _cached_parse(path, size: int) -> np.ndarray:
    """``_parse_matrix_csv(path)``, loaded from the entry of the file's bytes
    when a valid one exists; otherwise parsed, and stored if the parse
    succeeds.  The bytes stored under a key are the bytes parsed.  An entry is
    ``<size>-<hex digest>.npy``, size the file's length in bytes when it was
    read, so that a file whose length no entry has is hashed once, not twice."""
    try:
        digest = _cache_digest()
    except OSError:
        return _parse_matrix_csv(path)
    folder, prefix = _cache_dir(), f"{size}-"
    with contextlib.suppress(ParseError, OSError, ValueError):  # any failure is a miss
        if any(name.startswith(prefix) for name in os.listdir(folder)):
            first = next(((k, t) for k, ln in _lines(path) if (t := ln.strip())), (1, ""))
            entry = os.path.join(folder, prefix + _hex_digest(path, digest.copy()) + ".npy")
            out = _load_entry(entry, _matrix_size(path, *first))
            with contextlib.suppress(OSError):
                os.utime(entry)  # most recently used
            return out
    out = _parse_matrix_csv(path, digest)
    with contextlib.suppress(OSError):
        _store(out, folder, prefix + digest.hexdigest() + ".npy")
    return out


def _hex_digest(path, digest) -> str:
    """The digest of the file's bytes, fed in 64 KiB pieces."""
    piece = bytearray(1 << 16)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(piece):
            digest.update(memoryview(piece)[:size])
    return digest.hexdigest()


def _load_entry(entry: str, n: int) -> np.ndarray:
    """The entry's array if it is N x N, C-order, native float64 (``<f8``)
    and finite; ValueError otherwise.  Only the .npy header is parsed, so no
    pickle is ever read, and the array owns its memory."""
    with open(entry, "rb") as fh:
        if (np.lib.format.read_magic(fh) != (1, 0)
                or np.lib.format.read_array_header_1_0(fh) != ((n, n), False, np.dtype(float))
                or os.fstat(fh.fileno()).st_size != fh.tell() + 8 * n * n):
            raise ValueError(f"{entry}: not the entry of an N={n} file")
        out = np.empty((n, n))
        if fh.readinto(out) != out.nbytes:
            raise ValueError(f"{entry}: truncated")
    if not np.isfinite(out).all():
        raise ValueError(f"{entry}: non-finite entries")
    return out


def _store(entries: np.ndarray, folder: str, name: str) -> None:
    """Write the entry through a temporary file and ``os.replace``, then
    remove the least recently used files, a writer's leftover temporary file
    among them, until the folder holds at most ``_CACHE_MAX_BYTES``; an array
    above the bound is not stored."""
    if entries.nbytes > _CACHE_MAX_BYTES:
        return
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.lib.format.write_array(fh, entries, version=(1, 0))
        os.replace(tmp, os.path.join(folder, name))
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    with os.scandir(folder) as found:
        held = [(e.name == name, e.stat().st_mtime_ns, e.stat().st_size, e.path) for e in found]
    total = sum(size for _, _, size, _ in held)
    for _, _, size, old in sorted(held):  # oldest first, the new entry last
        if total <= _CACHE_MAX_BYTES:
            break
        os.unlink(old)
        total -= size


def matrix_from_json_file(path) -> MatrixOp:
    """JSON object with ``entries`` (a list of rows), ``domain`` and
    ``codomain``, as written by ``MatrixOp.to_json``."""
    try:
        obj = json.loads(_read_text(path))
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
