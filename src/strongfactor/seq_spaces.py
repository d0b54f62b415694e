"""Truncated sequences and norm evaluation for the supported sequence spaces.

A :class:`TruncatedSeq` stands for a sequence that is exactly zero outside its
window, so every norm here is exact for such sequences (no tail bookkeeping).
Supported spaces: plain ``l^p``, weighted ``l^p(W)``, and the dyadic-block
mixed-norm space over bilateral indices.

Block convention for the mixed norm: index 0 forms its own block; positive
indices are banded by [2^(m-1), 2^m] and each index is assigned to the band of
smallest m containing it (so the bands {1,2}, {3,4}, {5..8}, ... partition the
positive integers); negative indices mirror this.  The literal band bounds
share endpoints at powers of two, and the smallest-m assignment is what makes
the blocks a partition, which the p = q collapse onto ``l^p`` requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainMismatch, IndexOutOfRange, LengthMismatch, SpecError
from .exponents import Exponent, conjugate


class IndexDomain(Enum):
    NAT1 = "NAT1"  # indices 1..N
    ZSYM = "ZSYM"  # indices -M..M


@dataclass(frozen=True)
class TruncatedSeq:
    """Finite coefficient window of an (implicitly zero-extended) sequence."""

    coeffs: np.ndarray
    index_domain: IndexDomain = IndexDomain.NAT1

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise SpecError("coefficient array must be one-dimensional")
        if arr.size == 0:
            raise SpecError("coefficient array must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise SpecError("coefficients must be finite")
        if self.index_domain is IndexDomain.ZSYM and arr.size % 2 == 0:
            raise DomainMismatch("ZSYM window -M..M has odd length")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size

    @property
    def window(self) -> int:
        """Half-width M for ZSYM; N for NAT1."""
        if self.index_domain is IndexDomain.ZSYM:
            return (self.coeffs.size - 1) // 2
        return self.coeffs.size

    def indices(self) -> np.ndarray:
        if self.index_domain is IndexDomain.ZSYM:
            m = self.window
            return np.arange(-m, m + 1)
        return np.arange(1, self.coeffs.size + 1)

    def value_at(self, k: int) -> float:
        """Coefficient at mathematical index k; zero outside the window."""
        if self.index_domain is IndexDomain.ZSYM:
            pos = k + self.window
        else:
            pos = k - 1
        if 0 <= pos < self.coeffs.size:
            return float(self.coeffs[pos])
        return 0.0

    def to_json(self) -> dict:
        return {
            "index_domain": self.index_domain.value,
            "coeffs": self.coeffs.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedSeq":
        return cls(obj["coeffs"], IndexDomain(obj.get("index_domain", "NAT1")))


class SpaceKind(Enum):
    LP = "lp"
    LP_WEIGHTED = "lp_weighted"
    KELLOGG_MIXED = "kellogg_mixed"


@dataclass(frozen=True)
class SeqSpaceSpec:
    """Descriptor of a sequence space: which norm, and its parameters."""

    kind: SpaceKind
    p: Exponent
    q: Exponent | None = None
    weight: TruncatedSeq | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", Exponent(self.p))
        if self.kind is SpaceKind.KELLOGG_MIXED:
            if self.q is None:
                raise SpecError("mixed-norm space needs the outer exponent q")
            object.__setattr__(self, "q", Exponent(self.q))
        if self.kind is SpaceKind.LP_WEIGHTED:
            if self.weight is None:
                raise SpecError("weighted space needs a weight sequence")
            _positive(self.weight.coeffs)

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "p": self.p.to_json()}
        if self.q is not None:
            out["q"] = self.q.to_json()
        if self.weight is not None:
            out["weight"] = self.weight.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SeqSpaceSpec":
        weight = obj.get("weight")
        return cls(
            SpaceKind(obj["kind"]),
            Exponent.from_json(obj["p"]),
            Exponent.from_json(obj["q"]) if "q" in obj else None,
            TruncatedSeq.from_json(weight) if weight is not None else None,
        )


def lp_space(p) -> SeqSpaceSpec:
    return SeqSpaceSpec(SpaceKind.LP, Exponent(p))


def _coeffs(x) -> np.ndarray:
    if isinstance(x, TruncatedSeq):
        return x.coeffs
    return np.asarray(x, dtype=float)


def _positive(weight: np.ndarray) -> np.ndarray:
    """The weight, once every entry is checked finite and strictly positive."""
    if not (weight.min(initial=math.inf) > 0 and weight.max(initial=0.0) < math.inf):
        raise SpecError("weight entries must be finite and strictly positive")
    return weight


def _scaled_lp(v: np.ndarray, p: Exponent, weight=1.0):
    """(m, t) with m = max v and t = (sum W_i (v_i/m)^p)^(1/p), for v >= 0,
    taken over the last axis: floats for a vector, and for a stack arrays
    that hold, bit for bit, the floats of each row taken alone.

    The norm is m*t.  Every power is taken of a ratio at most 1, so no term
    overflows and the largest does not underflow (Blue 1978; LAPACK dnrm2).
    A zero or non-finite m, or the max at p = inf (weight ignored), comes with
    t = 1.  At p = 1 no power is taken: t is the plain sum, with m = 1.
    """
    pf = float(p)
    if pf == 1.0:
        t = (weight * v).sum(axis=-1)
        return (np.ones_like(t), t) if v.ndim > 1 else (1.0, float(t))
    if v.ndim > 1:
        # max is exact, and faster over a contiguous copy with the last axis first
        m = np.ascontiguousarray(np.moveaxis(v, -1, 0)).max(axis=0, initial=0.0)
        ok = (m != 0.0) & np.isfinite(m)
        with np.errstate(over="ignore"):  # overflows only in rows that t = 1 replaces
            sums = (weight * (v / np.where(ok, m, 1.0)[..., None]) ** pf).sum(axis=-1)
        # each distinct sum is rooted once, as a vector's is, by the scalar **,
        # whose bits np.power does not keep (at p = inf the root is x^0 = 1)
        distinct = np.unique(sums)
        t = np.array([x ** (1.0 / pf) for x in distinct.tolist()])
        return m, np.where(ok, t[np.searchsorted(distinct, sums)], 1.0)
    m = float(v.max(initial=0.0))
    if p.is_inf or m == 0.0 or not math.isfinite(m):
        return m, 1.0
    return m, float((weight * (v / m) ** pf).sum() ** (1.0 / pf))


def lp_norm(x, p: Exponent) -> float:
    """(sum |x_i|^p)^(1/p), evaluated scaled by max |x_i|; max |x_i| for
    p = inf."""
    m, t = _scaled_lp(np.abs(_coeffs(x)), Exponent(p))
    return m * t


def weighted_lp_norm(x, p: Exponent, weight) -> float:
    """(sum W_i |x_i|^p)^(1/p) for finite W_i > 0, evaluated scaled by max |x_i|.

    For p = inf the weight is ignored and the sup norm is returned; the
    weighted sup case never arises here and this convention keeps the
    operation total.
    """
    v = np.abs(_coeffs(x))
    w = _positive(_coeffs(weight))
    if v.size != w.size:
        raise LengthMismatch(f"sequence length {v.size} != weight length {w.size}")
    m, t = _scaled_lp(v, Exponent(p), w)
    return m * t


def _block_ids(k):
    """sign(k) * max(1, frexp exponent of |k| - 1), elementwise: the smallest m
    with |k| <= 2^m, 0 at k = 0; exact while |k| - 1 is, for |k| <= 2^53."""
    return np.sign(k) * np.maximum(1, np.frexp(np.abs(k) - 1)[1])


def dyadic_block_id(k: int) -> int:
    """Block label for index k under the smallest-|m| assignment, |k| <= 2^53."""
    if abs(k) > 2 ** 53:
        raise IndexOutOfRange(f"index {k} outside |k| <= 2^53, where block labels are exact")
    return int(_block_ids(k))


def kellogg_norm(lam: TruncatedSeq, p: Exponent, q: Exponent) -> float:
    """Mixed norm: l^p within each dyadic block, combined in l^q over blocks."""
    if not isinstance(lam, TruncatedSeq) or lam.index_domain is not IndexDomain.ZSYM:
        raise DomainMismatch("mixed-norm evaluation needs a ZSYM sequence")
    ids = _block_ids(lam.indices())
    return lp_norm([lp_norm(lam.coeffs[ids == b], p) for b in np.unique(ids)], q)


def space_norm(x, spec: SeqSpaceSpec) -> float:
    """Norm of x in the described space."""
    if spec.kind is SpaceKind.LP:
        return lp_norm(x, spec.p)
    if spec.kind is SpaceKind.LP_WEIGHTED:
        return weighted_lp_norm(x, spec.p, spec.weight)
    return kellogg_norm(x, spec.p, spec.q)


def dual_norm(c, s: Exponent) -> tuple[float, TruncatedSeq]:
    """Closed-form Hoelder pairing: returns (||c||_{s'}, extremizer).

    The extremizer f is the unit vector of l^s achieving
    sum f_i c_i = ||c||_{s'}; sign-matched, with |f_i| proportional to
    |c_i|^(s'-1).  Zero input returns (0, zero vector).  Ties in the s = 1
    case resolve to the first maximal index.
    """
    seq = c if isinstance(c, TruncatedSeq) else TruncatedSeq(c)
    v = seq.coeffs
    s = Exponent(s)
    sp = conjugate(s)
    m, t = _scaled_lp(np.abs(v), sp)
    value = m * t
    if value == 0.0:
        return 0.0, TruncatedSeq(np.zeros_like(v), seq.index_domain)
    if s == Exponent(1):
        f = np.zeros_like(v)
        i = int(np.argmax(np.abs(v)))
        f[i] = np.sign(v[i])
        return value, TruncatedSeq(f, seq.index_domain)
    if s.is_inf:
        return value, TruncatedSeq(np.sign(v), seq.index_domain)
    # |f_i| = (|v_i|/m)^(s'-1) / t^(s'-1) with value = m*t: scaled, like the norm
    spf = float(sp)
    f = np.sign(v) * (np.abs(v) / m) ** (spf - 1.0) / t ** (spf - 1.0)
    return value, TruncatedSeq(f, seq.index_domain)
