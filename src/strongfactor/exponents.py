"""Exact arithmetic on extended exponents p in [1, inf].

An :class:`Exponent` is either a finite rational p >= 1 (kept as an exact
``fractions.Fraction``, so conjugation round-trips without drift) or the
distinguished value :data:`INF`.  Floats are converted to their exact binary
rational, which keeps the identities exact for float inputs too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import ExponentRange

_INF_TOKENS = {"inf", "infinity", "oo"}


@total_ordering
class Exponent:
    """A value p in [1, inf] with exact conjugation arithmetic."""

    __slots__ = ("_frac",)

    def __init__(self, value):
        if isinstance(value, Exponent):
            self._frac = value._frac
            return
        if isinstance(value, str):
            token = value.strip().lower()
            if token in _INF_TOKENS:
                self._frac = None
                return
            try:
                value = Fraction(token)
            except (ValueError, ZeroDivisionError):
                raise ExponentRange(f"not an exponent: {value!r}") from None
        if isinstance(value, float):
            if math.isinf(value):
                self._frac = None
                return
            if math.isnan(value):
                raise ExponentRange("exponent must not be NaN")
            value = Fraction(value)
        frac = Fraction(value)
        if frac < 1:
            raise ExponentRange(f"exponent must satisfy p >= 1, got {frac}")
        self._frac = frac

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ExponentRange("infinite exponent has no finite value")
        return self._frac

    def __float__(self) -> float:
        return math.inf if self._frac is None else float(self._frac)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Exponent):
            try:
                other = Exponent(other)
            except (ExponentRange, ValueError, TypeError):
                return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other) -> bool:
        if not isinstance(other, Exponent):
            other = Exponent(other)
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __repr__(self) -> str:
        return "Exponent(inf)" if self._frac is None else f"Exponent({self._frac})"

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def to_json(self):
        """Serialize as a plain number, or the string ``"inf"``."""
        return "inf" if self._frac is None else float(self._frac)

    @classmethod
    def from_json(cls, obj) -> "Exponent":
        return cls(obj)


#: the distinguished infinite exponent
INF = Exponent("inf")

ONE = Exponent(1)
TWO = Exponent(2)


def conjugate(p: Exponent) -> Exponent:
    """Conjugate exponent p' with 1/p + 1/p' = 1; conjugate(1) = inf."""
    p = Exponent(p)
    if p.is_inf:
        return ONE
    f = p.as_fraction()
    if f == 1:
        return INF
    return Exponent(f / (f - 1))


def multiplier_exponent(p: Exponent, q: Exponent) -> Exponent:
    """Exponent s of the pointwise-multiplier space from level p into level q.

    Three cases: pq/(p-q) for 1 <= q < p < inf, q for 1 <= q < p = inf,
    and inf for p <= q.
    """
    p, q = Exponent(p), Exponent(q)
    if p <= q:
        return INF
    if p.is_inf:
        return q
    pf, qf = p.as_fraction(), q.as_fraction()
    return Exponent(pf * qf / (pf - qf))
