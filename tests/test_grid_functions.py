import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strongfactor.errors import (
    DomainMismatch,
    ExponentRange,
    IndexOutOfRange,
    SpecError,
)
from strongfactor.exponents import Exponent, INF, conjugate
from strongfactor.grid_functions import (
    BasisFamily,
    BasisSpec,
    GridFunction,
    QuadRule,
    basis_element,
    basis_rows,
    composite_gauss_legendre,
    constant,
    default_rule,
    eval_basis,
    fourier_coeffs,
    from_callable,
    _representing_op,
    lp_function_norm,
    quad_integral,
    random_trig_poly,
    representing_setup,
)
from strongfactor.seq_spaces import TruncatedSeq, lp_norm

TRIG8 = BasisSpec(BasisFamily.TRIG_REAL, 8)

#: (c, p) where the unscaled sum of c^p underflowed or overflowed
EXTREME_CONSTANTS = [(1e-5, 100), (1e-200, 2), (10.0, 1000), (1e200, 2)]


class TestEvalBasis:
    def test_trig_constant_mode(self):
        assert eval_basis(TRIG8, 1, 0.7) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_trig_cosine_mode(self):
        assert eval_basis(TRIG8, 2, 0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-15)
        x = 0.4
        assert eval_basis(TRIG8, 4, x) == pytest.approx(math.cos(2 * x) / math.sqrt(math.pi))
        assert eval_basis(TRIG8, 5, x) == pytest.approx(math.sin(2 * x) / math.sqrt(math.pi))

    def test_legendre_constant_mode(self):
        spec = BasisSpec(BasisFamily.LEGENDRE, 4)
        for x in (-0.9, 0.0, 0.3):
            assert eval_basis(spec, 1, x) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_chebyshev_first_kind_values(self):
        spec = BasisSpec(BasisFamily.CHEBYSHEV1, 5)
        x = 0.37
        # T_2(x) = 2x^2 - 1 under the sqrt(2/pi) normalization
        expected = (2 * x * x - 1) * math.sqrt(2 / math.pi)
        assert eval_basis(spec, 3, x) == pytest.approx(expected, rel=1e-13)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            eval_basis(TRIG8, 0, 0.0)
        with pytest.raises(IndexOutOfRange):
            eval_basis(TRIG8, 9, 0.0)
        with pytest.raises(IndexOutOfRange):
            basis_element(TRIG8, 9)

    def test_vectorized(self):
        x = np.linspace(-1, 1, 7)
        vals = eval_basis(BasisSpec(BasisFamily.LEGENDRE, 3), 2, x)
        assert vals.shape == x.shape


def reference_poly_rows(family, count, x):
    """The three-branch recurrence that ``basis_rows`` replaced, kept as the
    bit-for-bit reference for the polynomial families."""
    out = np.empty((count, x.size))
    prev2 = np.ones_like(x)
    if family is BasisFamily.LEGENDRE:
        out[0] = prev2 * math.sqrt(0.5)
        if count == 1:
            return out
        prev1 = x.copy()
        out[1] = prev1 * math.sqrt(1.5)
        for n in range(1, count - 1):
            cur = ((2 * n + 1) * x * prev1 - n * prev2) / (n + 1)
            out[n + 1] = cur * math.sqrt((2 * n + 3) / 2.0)
            prev2, prev1 = prev1, cur
        return out
    if family in (BasisFamily.CHEBYSHEV1, BasisFamily.CHEBYSHEV2):
        c = math.sqrt(2.0 / math.pi)
        if family is BasisFamily.CHEBYSHEV1:
            out[0] = prev2 / math.sqrt(math.pi)
            prev1 = x.copy()
        else:
            out[0] = prev2 * c
            prev1 = 2.0 * x
        if count == 1:
            return out
        out[1] = prev1 * c
        for n in range(1, count - 1):
            cur = 2.0 * x * prev1 - prev2
            out[n + 1] = cur * c
            prev2, prev1 = prev1, cur
        return out
    out[0] = prev2
    if count == 1:
        return out
    prev1 = 1.0 - x
    out[1] = prev1
    for n in range(1, count - 1):
        cur = ((2 * n + 1 - x) * prev1 - n * prev2) / (n + 1)
        out[n + 1] = cur
        prev2, prev1 = prev1, cur
    return out


class TestPolynomialRecurrence:
    @pytest.mark.parametrize("family", [f for f in BasisFamily if f is not BasisFamily.TRIG_REAL])
    @pytest.mark.parametrize("count", [1, 2, 3, 17, 64])
    def test_matches_three_branch_reference(self, family, count):
        rng = np.random.default_rng(count)
        lo, hi = (0.0, 60.0) if family is BasisFamily.LAGUERRE else (-1.0, 1.0)
        x = np.concatenate((default_rule(family).nodes, rng.uniform(lo, hi, 50),
                            [lo, hi, -0.0, 0.0]))
        got = basis_rows(BasisSpec(family, count), count, x)
        assert got.tobytes() == reference_poly_rows(family, count, x).tobytes()


class TestQuadrature:
    def test_constant_integral(self):
        assert quad_integral(constant(1.0, TRIG8)) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_cosine_integral_vanishes(self):
        f = from_callable(np.cos, TRIG8)
        assert abs(quad_integral(f)) < 1e-10

    def test_cosine_squared(self):
        f = from_callable(lambda x: np.cos(x) ** 2, TRIG8)
        assert quad_integral(f) == pytest.approx(math.pi, abs=1e-10)

    def test_composite_rule_partitions_interval(self):
        rule = composite_gauss_legendre(0.0, 1.0, panels=4, order=5)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("family, interval", [
        (BasisFamily.TRIG_REAL, (-math.pi, math.pi)),
        (BasisFamily.LEGENDRE, (-1.0, 1.0)),
        (BasisFamily.CHEBYSHEV1, (-1.0, 1.0)),
        (BasisFamily.CHEBYSHEV2, (-1.0, 1.0)),
        (BasisFamily.LAGUERRE, (0.0, math.inf)),
    ])
    def test_family_interval_is_its_rule_interval(self, family, interval):
        assert BasisSpec(family, 1).interval == interval
        assert default_rule(family).interval == interval
        assert default_rule(family) is default_rule(family)


class TestOrthonormality:
    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_gram_identity(self, family):
        spec = BasisSpec(family, 8)
        rule = default_rule(family)
        mat = basis_rows(spec, 8, rule.nodes)
        gram = (mat * rule.weights) @ mat.T
        assert np.abs(gram - np.eye(8)).max() < 1e-8


class TestFourierCoeffs:
    def test_basis_element_maps_to_unit_vector(self):
        f = basis_element(TRIG8, 2)
        coeffs = fourier_coeffs(f, TRIG8, 8).coeffs
        expected = np.zeros(8)
        expected[1] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-9

    def test_constant_function(self):
        coeffs = fourier_coeffs(constant(1.0, TRIG8), TRIG8, 8).coeffs
        assert coeffs[0] == pytest.approx(math.sqrt(2 * math.pi), abs=1e-9)
        assert np.abs(coeffs[1:]).max() < 1e-9

    def test_linear_combination(self):
        f3 = basis_element(TRIG8, 3)
        f5 = basis_element(TRIG8, 5)
        f = GridFunction(f3.rule, 2.0 * f3.values - f5.values)
        coeffs = fourier_coeffs(f, TRIG8, 8).coeffs
        expected = np.zeros(8)
        expected[2], expected[4] = 2.0, -1.0
        assert np.abs(coeffs - expected).max() < 1e-9

    def test_domain_mismatch(self):
        f = constant(1.0, TRIG8)
        with pytest.raises(DomainMismatch):
            fourier_coeffs(f, BasisSpec(BasisFamily.LEGENDRE, 4), 4)

    def test_count_bounds(self):
        with pytest.raises(IndexOutOfRange):
            fourier_coeffs(constant(1.0, TRIG8), TRIG8, 9)


# each input check as (call, error, message)
INPUT_CHECKS = {
    "rule-unsorted": (lambda: QuadRule(np.array([0.5, 0.1]), np.ones(2), (0.0, 1.0), "x"),
                      SpecError, "nodes must be strictly increasing"),
    "rule-mismatched": (lambda: QuadRule(np.array([0.1, 0.5]), np.ones(3), (0.0, 1.0), "x"),
                        SpecError, "nodes and weights must be matching 1-D arrays"),
    "rule-2d": (lambda: QuadRule(np.ones((1, 2)), np.ones((1, 2)), (0.0, 1.0), "x"),
                SpecError, "nodes and weights must be matching 1-D arrays"),
    "grid-shape": (lambda: GridFunction(default_rule(BasisFamily.LEGENDRE), np.ones(3)),
                   DomainMismatch, "values must be given at every rule node"),
    "basis-count": (lambda: BasisSpec(BasisFamily.LEGENDRE, 0),
                    SpecError, "basis count must be >= 1"),
    "trig-degree": (lambda: random_trig_poly(-1, seed=0), SpecError, "degree must be >= 0"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_check_raises(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestFunctionNorm:
    def test_constant(self):
        f = constant(1.0, TRIG8)
        assert lp_function_norm(f, Exponent(2)) == pytest.approx(math.sqrt(2 * math.pi))

    def test_orthonormal_element_has_unit_norm(self):
        f = basis_element(TRIG8, 2)
        assert lp_function_norm(f, Exponent(2)) == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self):
        f, _ = random_trig_poly(5, seed=1)
        p = Exponent(Fraction(4, 3))
        assert lp_function_norm(f.scaled(-2.5), p) == pytest.approx(
            2.5 * lp_function_norm(f, p), rel=1e-12)

    def test_sup_rejected(self):
        with pytest.raises(ExponentRange):
            lp_function_norm(constant(1.0, TRIG8), INF)

    @pytest.mark.parametrize("c, p", EXTREME_CONSTANTS)
    def test_extreme_constants(self, c, p):
        # the Legendre rule's weights add up to 2, the length of [-1, 1]
        f = constant(c, BasisSpec(BasisFamily.LEGENDRE, 1))
        with np.errstate(all="raise"):
            got = lp_function_norm(f, Exponent(p))
        assert abs(got - c * 2.0 ** (1 / p)) <= math.ulp(c * 2.0 ** (1 / p))

    # Laguerre is left out: its weights reach 2e-101, so at p = 1 a weighted
    # sample times 2^-800 leaves the normal range
    @settings(deadline=None)
    @given(st.sampled_from([BasisFamily.TRIG_REAL, BasisFamily.LEGENDRE,
                            BasisFamily.CHEBYSHEV1, BasisFamily.CHEBYSHEV2]),
           arrays(np.float64, st.integers(1, 24), elements=st.one_of(
               st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))),
           st.sampled_from([1, Fraction(4, 3), 2, 3, 100, 1000]),
           st.integers(-800, 800))
    @example(BasisFamily.LEGENDRE, np.array([1e-5]), 100, 16)
    @example(BasisFamily.LEGENDRE, np.array([1e-200]), 2, 664)
    @example(BasisFamily.LEGENDRE, np.array([10.0]), 1000, -3)
    @example(BasisFamily.LEGENDRE, np.array([1e200]), 2, -664)
    def test_exactly_homogeneous_at_every_scale(self, family, v, p, k):
        # v repeats over the nodes; 2^k times it stays normal, and so do the norms
        rule = default_rule(family)
        values = np.resize(v, rule.nodes.size)
        e = Exponent(p)
        assert lp_function_norm(GridFunction(rule, np.ldexp(values, k)), e) == math.ldexp(
            lp_function_norm(GridFunction(rule, values), e), k)


class TestParsevalHausdorffYoung:
    def test_parseval(self):
        spec = BasisSpec(BasisFamily.TRIG_REAL, 65)
        for seed in range(5):
            f, coeffs = random_trig_poly(32, seed=seed)
            computed = fourier_coeffs(f, spec, 65)
            assert np.abs(computed.coeffs - coeffs.coeffs).max() < 1e-12
            assert lp_norm(computed, Exponent(2)) == pytest.approx(
                lp_function_norm(f, Exponent(2)), abs=1e-9)

    def test_coefficient_norm_bounded(self):
        spec = BasisSpec(BasisFamily.TRIG_REAL, 65)
        for seed in range(5):
            f, _ = random_trig_poly(16, seed=seed)
            coeffs = fourier_coeffs(f, spec, 65)
            for r in (Fraction(4, 3), Fraction(3, 2), 2):
                rr = Exponent(r)
                assert lp_norm(coeffs, conjugate(rr)) <= lp_function_norm(f, rr) + 1e-9


class TestRepresentingSetup:
    def test_chebyshev_first_kind_weight(self):
        w, h = representing_setup(BasisSpec(BasisFamily.CHEBYSHEV1, 4))
        x = 0.5
        assert w(x) == pytest.approx((1 - x * x) ** -0.5)
        assert h(x) == pytest.approx((1 - x * x) ** -0.25)

    def test_chebyshev_second_kind_weight(self):
        w, _ = representing_setup(BasisSpec(BasisFamily.CHEBYSHEV2, 4))
        assert w(0.5) == pytest.approx(math.sqrt(0.75))

    def test_laguerre_weight(self):
        w, h = representing_setup(BasisSpec(BasisFamily.LAGUERRE, 4))
        assert w(2.0) == pytest.approx(math.exp(-2.0))
        assert h(2.0) == pytest.approx(math.exp(-1.0))

    def test_trivial_weight(self):
        for family in (BasisFamily.LEGENDRE, BasisFamily.TRIG_REAL):
            w, h = representing_setup(BasisSpec(family, 4))
            x = np.array([0.1, 0.2])
            assert np.all(w(x) == 1.0)
            assert np.all(h(x) == 1.0)


class TestRepresentingOp:
    """The built-in representing operator takes at most as many
    coefficients as the family's default rule has nodes."""

    @pytest.mark.parametrize("family", list(BasisFamily))
    def test_count_up_to_the_node_count(self, family):
        nodes = default_rule(family).nodes.size
        ones = TruncatedSeq(np.ones(nodes + 1))
        _representing_op(BasisSpec(family, nodes), ones, permute=False)
        with pytest.raises(SpecError, match=f"count {nodes + 1} exceeds the {nodes} nodes"):
            _representing_op(BasisSpec(family, nodes + 1), ones, permute=False)


class TestRandomTrigPoly:
    def test_random_poly_deterministic(self):
        f1, c1 = random_trig_poly(6, seed=42)
        f2, c2 = random_trig_poly(6, seed=42)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(c1.coeffs, c2.coeffs)
