"""Sampled functions, orthonormal bases, and basis-coefficient computation.

Each basis family comes with a fixed Gaussian quadrature rule that integrates
against the family's orthogonality measure w(x) dx:

* real trigonometric system on [-pi, pi]: composite Gauss-Legendre panels
  (w = 1); 32 panels of order 20 make products of degree <= 32 trigonometric
  polynomials exact to machine precision,
* Legendre on [-1, 1]: composite Gauss-Legendre panels (w = 1),
* Chebyshev (both kinds): the closed-form Gauss-Chebyshev rules, which absorb
  the singular/vanishing endpoint weight exactly,
* Laguerre on (0, inf): Gauss-Laguerre, absorbing exp(-x).

``quad_integral`` therefore integrates against the family measure; for the
trigonometric and Legendre families that measure is plain Lebesgue dx.
Coefficient computations use fixed summation order, so results are bitwise
independent of any surrounding parallelism.

Completeness of a family cannot be checked at finite truncation; the rules
here verify orthonormality only and completeness is assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainMismatch, ExponentRange, IndexOutOfRange, SpecError
from .exponents import Exponent
from .seq_spaces import IndexDomain, TruncatedSeq, weighted_lp_norm

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)


class BasisFamily(Enum):
    TRIG_REAL = "trig_real"
    LEGENDRE = "legendre"
    CHEBYSHEV1 = "chebyshev1"
    CHEBYSHEV2 = "chebyshev2"
    LAGUERRE = "laguerre"


@dataclass(frozen=True)
class BasisSpec:
    """A basis family together with how many of its functions are in play."""

    family: BasisFamily
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise SpecError("basis count must be >= 1")

    @property
    def interval(self) -> tuple[float, float]:
        return default_rule(self.family).interval


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights integrating against a fixed measure on (a, b)."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    label: str

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise SpecError("nodes and weights must be matching 1-D arrays")
        if np.any(np.diff(nodes) <= 0):
            raise SpecError("nodes must be strictly increasing")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def composite_gauss_legendre(a: float, b: float, panels: int, order: int) -> QuadRule:
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]  # one panel per row
    half = 0.5 * (hi - lo)
    return QuadRule((half * ref_x + 0.5 * (lo + hi)).ravel(), (half * ref_w).ravel(), (a, b),
                    f"gl[{panels}x{order}]({a:g},{b:g})")


def gauss_chebyshev1(n: int) -> QuadRule:
    k = np.arange(1, n + 1)
    nodes = np.cos((2 * k - 1) * math.pi / (2 * n))[::-1]
    weights = np.full(n, math.pi / n)
    return QuadRule(nodes, weights, (-1.0, 1.0), f"gc1[{n}]")


def gauss_chebyshev2(n: int) -> QuadRule:
    k = np.arange(1, n + 1)
    t = k * math.pi / (n + 1)
    nodes = np.cos(t)[::-1]
    weights = (math.pi / (n + 1)) * np.sin(t) ** 2
    return QuadRule(nodes, weights[::-1], (-1.0, 1.0), f"gc2[{n}]")


def gauss_laguerre(n: int) -> QuadRule:
    nodes, weights = np.polynomial.laguerre.laggauss(n)
    return QuadRule(nodes, weights, (0.0, math.inf), f"glag[{n}]")


#: each family's quadrature rule, whose interval is the family's interval
_DEFAULT_RULES = {
    BasisFamily.TRIG_REAL: lambda: composite_gauss_legendre(-math.pi, math.pi, panels=32, order=20),
    BasisFamily.LEGENDRE: lambda: composite_gauss_legendre(-1.0, 1.0, panels=8, order=16),
    BasisFamily.CHEBYSHEV1: lambda: gauss_chebyshev1(256),
    BasisFamily.CHEBYSHEV2: lambda: gauss_chebyshev2(256),
    BasisFamily.LAGUERRE: lambda: gauss_laguerre(64),
}


@functools.cache
def default_rule(family: BasisFamily) -> QuadRule:
    return _DEFAULT_RULES[family]()


@dataclass(frozen=True)
class GridFunction:
    """Function values at the nodes of a quadrature rule."""

    rule: QuadRule
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.rule.nodes.shape:
            raise DomainMismatch("values must be given at every rule node")
        if not np.all(np.isfinite(vals)):
            raise SpecError("function values must be finite at every node")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def interval(self) -> tuple[float, float]:
        return self.rule.interval

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.rule, c * self.values)

    def multiplied(self, factor) -> "GridFunction":
        """Pointwise product with a callable or a per-node value array."""
        other = factor(self.rule.nodes) if callable(factor) else factor
        return GridFunction(self.rule, self.values * np.asarray(other, dtype=float))


def from_callable(fn, spec: BasisSpec) -> GridFunction:
    rule = default_rule(spec.family)
    return GridFunction(rule, fn(rule.nodes))


def constant(c: float, spec: BasisSpec) -> GridFunction:
    rule = default_rule(spec.family)
    return GridFunction(rule, np.full(rule.nodes.shape, float(c)))


# ---------------------------------------------------------------------------
# basis evaluation

def _poly_rows(family: BasisFamily, count: int, x: np.ndarray) -> np.ndarray:
    """Rows 1..count of the orthonormal polynomial family at points x.

    One three-term recurrence on the classical polynomials,
    p_(n+1) = (a_n p_n - b_n p_(n-1)) / c_n from p_0 = 1 and the family's p_1,
    with row n scaled so that the Gram matrix against the family weight is
    the identity.  A factor or divisor of exactly 1 leaves the bits alone.
    """
    if family is BasisFamily.LEGENDRE:
        p1, coef = x, lambda n: ((2 * n + 1) * x, n, n + 1)
        scale = lambda n: math.sqrt((2 * n + 1) / 2.0)
    elif family is BasisFamily.LAGUERRE:
        p1, coef, scale = 1.0 - x, lambda n: (2 * n + 1 - x, n, n + 1), lambda n: 1.0
    elif family in (BasisFamily.CHEBYSHEV1, BasisFamily.CHEBYSHEV2):
        first = family is BasisFamily.CHEBYSHEV1
        norm = math.sqrt(2.0 / math.pi)
        p1, coef = (x if first else 2.0 * x), lambda n: (2.0 * x, 1, 1)
        scale = lambda n: 1.0 / SQRT_PI if first and n == 0 else norm
    else:
        raise SpecError(f"not a polynomial family: {family}")
    polys = [np.ones_like(x), p1]
    for n in range(1, count - 1):
        a, b, c = coef(n)
        polys.append((a * polys[n] - b * polys[n - 1]) / c)
    return np.stack([p * scale(n) for n, p in enumerate(polys[:count])])


def _trig_rows(count: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((count, x.size))
    out[0] = 1.0 / SQRT_2PI
    for n in range(2, count + 1):
        k = n // 2
        if n % 2 == 0:
            out[n - 1] = np.cos(k * x) / SQRT_PI
        else:
            out[n - 1] = np.sin(k * x) / SQRT_PI
    return out


def basis_rows(spec: BasisSpec, count: int, x: np.ndarray) -> np.ndarray:
    """Matrix with row n-1 holding basis function n at the points x."""
    if count < 1 or count > spec.count:
        raise IndexOutOfRange(f"count {count} outside 1..{spec.count}")
    x = np.asarray(x, dtype=float)
    if spec.family is BasisFamily.TRIG_REAL:
        return _trig_rows(count, x)
    return _poly_rows(spec.family, count, x)


_BASIS_CACHE: dict[tuple, np.ndarray] = {}


def _basis_matrix(spec: BasisSpec, count: int, rule: QuadRule) -> np.ndarray:
    key = (spec.family, count, rule.label)
    mat = _BASIS_CACHE.get(key)
    if mat is None:
        mat = basis_rows(spec, count, rule.nodes)
        mat.flags.writeable = False
        _BASIS_CACHE[key] = mat
    return mat


def eval_basis(spec: BasisSpec, n: int, x) -> float | np.ndarray:
    """Value of the n-th (1-based) basis function at x."""
    if n < 1 or n > spec.count:
        raise IndexOutOfRange(f"basis index {n} outside 1..{spec.count}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    row = basis_rows(spec, n, arr)[n - 1]
    return float(row[0]) if np.isscalar(x) or np.ndim(x) == 0 else row


def basis_element(spec: BasisSpec, n: int) -> GridFunction:
    if n < 1 or n > spec.count:
        raise IndexOutOfRange(f"basis index {n} outside 1..{spec.count}")
    rule = default_rule(spec.family)
    return GridFunction(rule, _basis_matrix(spec, n, rule)[n - 1])


def random_trig_poly(degree: int, seed: int) -> tuple[GridFunction, TruncatedSeq]:
    """Seeded random trigonometric polynomial; also returns its coefficients."""
    if degree < 0:
        raise SpecError("degree must be >= 0")
    rule = default_rule(BasisFamily.TRIG_REAL)
    count = 2 * degree + 1
    spec = BasisSpec(BasisFamily.TRIG_REAL, count)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(count)
    values = coeffs @ _basis_matrix(spec, count, rule)
    return GridFunction(rule, values), TruncatedSeq(coeffs, IndexDomain.NAT1)


def quad_integral(f: GridFunction) -> float:
    """Integral of f against the rule's measure (dx for trig/Legendre)."""
    return float(np.dot(f.rule.weights, f.values))


def fourier_coeffs(f: GridFunction, spec: BasisSpec, count: int) -> TruncatedSeq:
    """First `count` basis coefficients of f: a_n = integral of f * phi_n
    against the family measure."""
    if count < 1 or count > spec.count:
        raise IndexOutOfRange(f"count {count} outside 1..{spec.count}")
    if f.interval != spec.interval:
        raise DomainMismatch(
            f"function on {f.interval} cannot be expanded on {spec.interval}")
    mat = _basis_matrix(spec, count, f.rule)
    coeffs = mat @ (f.rule.weights * f.values)
    return TruncatedSeq(coeffs, IndexDomain.NAT1)


def lp_function_norm(f: GridFunction, p: Exponent) -> float:
    """(integral |f|^p)^(1/p) against the rule's measure: the weighted l^p norm
    of the samples with the rule's weights as the weight; p = inf rejected."""
    if Exponent(p).is_inf:
        raise ExponentRange("sup norm is not defined for sampled functions")
    return weighted_lp_norm(f.values, p, f.rule.weights)


def representing_setup(spec: BasisSpec):
    """Weight w of the family and the square-root multiplier h = w^(1/2).

    For the unweighted families (trig, Legendre) both come back identically
    one: the trivial-weight case rather than an error.
    """
    fam = spec.family
    if fam is BasisFamily.CHEBYSHEV1:
        w = lambda x: (1.0 - np.asarray(x) ** 2) ** -0.5
        h = lambda x: (1.0 - np.asarray(x) ** 2) ** -0.25
    elif fam is BasisFamily.CHEBYSHEV2:
        w = lambda x: (1.0 - np.asarray(x) ** 2) ** 0.5
        h = lambda x: (1.0 - np.asarray(x) ** 2) ** 0.25
    elif fam is BasisFamily.LAGUERRE:
        w = lambda x: np.exp(-np.asarray(x))
        h = lambda x: np.exp(-0.5 * np.asarray(x))
    else:
        w = lambda x: np.ones_like(np.asarray(x, dtype=float))
        h = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return w, h


def _representing_op(spec: BasisSpec, g: TruncatedSeq, permute: bool):
    """h = w^(1/2) and the representing operator t(x) = g . alpha(h x), alpha
    the first spec.count coefficients; ``permute`` swaps t's first two.  The
    family's default rule resolves at most as many coefficients as it has
    nodes, so a larger count is refused."""
    nodes = default_rule(spec.family).nodes.size
    if spec.count > nodes:
        raise SpecError(f"count {spec.count} exceeds the {nodes} nodes of the "
                        f"{spec.family.value} quadrature rule")
    if permute and spec.count < 2:
        raise SpecError(f"permuting needs at least two coefficients, got {spec.count}")
    _, h = representing_setup(spec)

    def t(x: GridFunction) -> np.ndarray:
        coeffs = fourier_coeffs(x.multiplied(h), spec, spec.count).coeffs * g.coeffs
        if permute:
            coeffs[[0, 1]] = coeffs[[1, 0]]
        return coeffs

    return h, t
