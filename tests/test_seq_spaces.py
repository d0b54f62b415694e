import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strongfactor.errors import DomainMismatch, IndexOutOfRange, LengthMismatch, SpecError
from strongfactor.exponents import INF, Exponent, conjugate
from strongfactor.seq_spaces import (
    IndexDomain,
    SeqSpaceSpec,
    SpaceKind,
    TruncatedSeq,
    _scaled_lp,
    dual_norm,
    dyadic_block_id,
    kellogg_norm,
    lp_norm,
    space_norm,
    weighted_lp_norm,
)

finite_vectors = arrays(
    np.float64, st.integers(1, 24),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


#: entries 0 or of magnitude in [1e-3, 1e3]: times 2^k, |k| <= 800, still 0 or
#: normal, and so are the norms
scalable_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
scalable_vectors = arrays(np.float64, st.integers(1, 24), elements=scalable_entries)
scales = st.integers(-800, 800)
scale_exponents = st.sampled_from([1, Fraction(4, 3), 2, 3, 100, 1000, "inf"])

BAD_WEIGHT = "^weight entries must be finite and strictly positive$"


def zsym(values):
    return TruncatedSeq(np.asarray(values, dtype=float), IndexDomain.ZSYM)


class TestTruncatedSeq:
    def test_rejects_nonfinite(self):
        with pytest.raises(SpecError):
            TruncatedSeq([1.0, math.nan])
        with pytest.raises(SpecError):
            TruncatedSeq([math.inf])

    def test_zsym_needs_odd_length(self):
        with pytest.raises(DomainMismatch):
            zsym([1.0, 2.0])

    @pytest.mark.parametrize("coeffs, message", [
        (np.ones((2, 2)), "coefficient array must be one-dimensional"),
        (np.array([]), "coefficient array must be nonempty"),
    ])
    def test_rejects_shape(self, coeffs, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            TruncatedSeq(coeffs)

    def test_indices_and_lookup(self):
        s = zsym([5.0, 6.0, 7.0])
        assert list(s.indices()) == [-1, 0, 1]
        assert s.value_at(-1) == 5.0
        assert s.value_at(2) == 0.0  # zero extension outside the window

    def test_json_round_trip(self):
        s = zsym([1.0, 2.0, 3.0])
        back = TruncatedSeq.from_json(s.to_json())
        assert back.index_domain is IndexDomain.ZSYM
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_coeffs_immutable(self):
        s = TruncatedSeq([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 9.0


class TestLpNorm:
    def test_l1(self):
        assert lp_norm(TruncatedSeq([1.0, 1.0, 1.0]), Exponent(1)) == 3.0

    def test_l2(self):
        assert lp_norm(TruncatedSeq([3.0, 4.0]), Exponent(2)) == 5.0

    def test_sup(self):
        assert lp_norm(TruncatedSeq([-2.0, 1.0, 0.0]), INF) == 2.0

    @settings(deadline=None)
    @given(finite_vectors, st.sampled_from([1, Fraction(4, 3), 2, 3, "inf"]))
    def test_homogeneous_and_monotone(self, v, p):
        e = Exponent(p)
        base = lp_norm(v, e)
        assert lp_norm(3.0 * v, e) == pytest.approx(3.0 * base, rel=1e-12, abs=1e-12)
        # shrinking any entry in absolute value cannot increase the norm
        smaller = v.copy()
        smaller[0] *= 0.5
        assert lp_norm(smaller, e) <= base + 1e-12

    @settings(deadline=None)
    @given(finite_vectors, st.integers(-150, 150),
           st.sampled_from([Fraction(4, 3), 2, 3, 100, 1000]))
    def test_homogeneous_at_every_scale(self, v, k, p):
        # entries that decide the norm stay normal floats after scaling
        assume(np.abs(v).max() >= 1e-100)
        e, c = Exponent(p), 10.0 ** k
        assert lp_norm(c * v, e) == pytest.approx(c * lp_norm(v, e), rel=1e-12)

    def test_tiny_entries_at_high_power(self):
        # |x_i|^100 underflows to 0 unless the sum is scaled by max |x_i|
        assert lp_norm(np.full(4, 1e-5), Exponent(100)) == pytest.approx(
            4.0 ** 0.01 * 1e-5, rel=1e-14)

    def test_large_entries_at_high_power(self):
        # 10^1000 overflows unless the sum is scaled by max |x_i|
        with np.errstate(over="raise"):
            assert lp_norm(np.full(3, 10.0), Exponent(1000)) == pytest.approx(
                3.0 ** 0.001 * 10.0, rel=1e-14)


class TestWeightedNorm:
    def test_unit_vector_power_weight(self):
        # weight (n+1)^(p-2) turns the n-th unit vector norm into (n+1)^((p-2)/p)
        p = Exponent(Fraction(4, 3))
        pf = float(p)
        n = 64
        idx = np.arange(1, n + 1, dtype=float)
        weight = TruncatedSeq(1.0 / (idx + 1.0) ** (2.0 - pf))
        for k in (1, 5, 64):
            e = np.zeros(n)
            e[k - 1] = 1.0
            expected = (1.0 / (k + 1.0)) ** ((2.0 - pf) / pf)
            assert weighted_lp_norm(e, p, weight) == pytest.approx(expected, rel=1e-12)

    def test_unit_weight_collapse(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(17)
        w = TruncatedSeq(np.ones(17))
        for p in (1, Fraction(3, 2), 2, 5):
            assert weighted_lp_norm(x, Exponent(p), w) == pytest.approx(
                lp_norm(x, Exponent(p)), rel=1e-12)

    def test_l1_with_weights(self):
        assert weighted_lp_norm([1.0, 1.0], Exponent(1), [2.0, 3.0]) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_lp_norm([1.0, 2.0], Exponent(2), [1.0])

    def test_sup_ignores_weight(self):
        assert weighted_lp_norm([1.0, -4.0], INF, [100.0, 0.5]) == 4.0

    @pytest.mark.parametrize("weight", [(-1.0, -1.0), (-1.0, 0.5), (math.inf, 1.0)])
    def test_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(SpecError, match=BAD_WEIGHT):
            weighted_lp_norm([1.0, 1.0], Exponent(2), weight)

    def test_extreme_scales(self):
        w = [1.0, 2.0, 0.5, 1.0]
        assert weighted_lp_norm(np.full(4, 1e-5), Exponent(100), w) == pytest.approx(
            4.5 ** 0.01 * 1e-5, rel=1e-14)
        with np.errstate(over="raise"):
            assert weighted_lp_norm(np.full(4, 10.0), Exponent(1000), w) == pytest.approx(
                4.5 ** 0.001 * 10.0, rel=1e-14)


def oracle_block_assignment(k: int) -> int:
    """Independent dyadic band lookup: scan bands [2^(m-1), 2^m] in order of
    |m| and return the first containing k."""
    if k == 0:
        return 0
    a = abs(k)
    m = 1
    while not (2 ** (m - 1) <= a <= 2 ** m):
        m += 1
    return m if k > 0 else -m


def reference_kellogg(lam: TruncatedSeq, p: Exponent, q: Exponent) -> float:
    """Mixed norm from the per-index oracle: blocks in ascending label order."""
    blocks = {}
    for k, v in zip(lam.indices(), lam.coeffs):
        blocks.setdefault(oracle_block_assignment(int(k)), []).append(v)
    inner = [lp_norm(np.asarray(vs), p) for _, vs in sorted(blocks.items())]
    return lp_norm(np.asarray(inner), q)


class TestKelloggNorm:
    def test_block_assignment_matches_oracle(self):
        for k in range(-70, 71):
            assert dyadic_block_id(k) == oracle_block_assignment(k)

    def test_block_labels_at_powers_of_two(self):
        for m in range(41):
            for k in (2 ** m - 1, 2 ** m, 2 ** m + 1):
                assert dyadic_block_id(k) == oracle_block_assignment(k), k
                assert dyadic_block_id(-k) == oracle_block_assignment(-k), -k

    def test_block_labels_refused_where_inexact(self):
        # |k| - 1 = 2^54 - 1 rounds up to 2^54 as a float
        assert dyadic_block_id(-2 ** 53) == -53
        with pytest.raises(IndexOutOfRange, match="2\\^53"):
            dyadic_block_id(2 ** 54)

    def test_wide_window_matches_per_index_reference(self):
        lam = zsym(np.random.default_rng(12).standard_normal(2 * 2 ** 12 + 1))
        p, q = Exponent(Fraction(4, 3)), Exponent(Fraction(5, 2))
        assert kellogg_norm(lam, p, q) == reference_kellogg(lam, p, q)

    def test_origin_is_own_block(self):
        lam = zsym([0.0, 0.0, 2.5, 0.0, 0.0])
        assert kellogg_norm(lam, Exponent(7), Exponent(3)) == pytest.approx(2.5)

    def test_exponent_collapse(self):
        rng = np.random.default_rng(11)
        lam = zsym(rng.standard_normal(41))
        for p in (1, 2, 3):
            e = Exponent(p)
            assert kellogg_norm(lam, e, e) == pytest.approx(
                lp_norm(lam.coeffs, e), rel=1e-12)

    def test_adjacent_pair_single_block(self):
        # indices 1 and 2 share the first positive band
        a, b = 0.7, -1.9
        vals = np.zeros(9)
        vals[4 + 1], vals[4 + 2] = a, b
        p, q = Exponent(3), Exponent(17)
        expected = (abs(a) ** 3 + abs(b) ** 3) ** (1 / 3)
        assert kellogg_norm(zsym(vals), p, q) == pytest.approx(expected, rel=1e-12)

    def test_against_block_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, 64))
            lam = zsym(rng.standard_normal(2 * m + 1))
            p, q = Exponent(Fraction(5, 2)), Exponent(2)
            assert kellogg_norm(lam, p, q) == reference_kellogg(lam, p, q)

    def test_embedding_into_lp(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = zsym(rng.standard_normal(129))
            pp = conjugate(Exponent(Fraction(3, 2)))
            assert lp_norm(lam.coeffs, pp) <= kellogg_norm(lam, pp, Exponent(2)) + 1e-12

    def test_rejects_nat1(self):
        with pytest.raises(DomainMismatch):
            kellogg_norm(TruncatedSeq([1.0, 2.0]), Exponent(2), Exponent(2))

    def test_homogeneous(self):
        rng = np.random.default_rng(7)
        lam = zsym(rng.standard_normal(33))
        scaled = zsym(-4.0 * lam.coeffs)
        p, q = Exponent(Fraction(4, 3)), Exponent(2)
        assert kellogg_norm(scaled, p, q) == pytest.approx(
            4.0 * kellogg_norm(lam, p, q), rel=1e-12)


class TestWeightedHomogeneity:
    def test_weighted_norm_homogeneous(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(12)
        w = TruncatedSeq(rng.uniform(0.5, 2.0, 12))
        p = Exponent(Fraction(5, 2))
        assert weighted_lp_norm(2.5 * x, p, w) == pytest.approx(
            2.5 * weighted_lp_norm(x, p, w), rel=1e-12)

    def test_weighted_norm_monotone(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(12)
        w = TruncatedSeq(rng.uniform(0.5, 2.0, 12))
        smaller = x.copy()
        smaller[3] *= 0.25
        p = Exponent(3)
        assert weighted_lp_norm(smaller, p, w) <= weighted_lp_norm(x, p, w) + 1e-12


class TestScaleEquivariance:
    """Every norm is exactly 2^k-homogeneous while entries and results stay
    normal: the scaled sums take powers of ratios to the largest entry, which
    a power of two leaves alone."""

    @settings(deadline=None)
    @given(scalable_vectors, scale_exponents, scales)
    def test_lp_norm(self, v, p, k):
        e = Exponent(p)
        assert lp_norm(np.ldexp(v, k), e) == math.ldexp(lp_norm(v, e), k)

    @settings(deadline=None)
    @given(scalable_vectors, scale_exponents, scales, st.data())
    def test_weighted_lp_norm(self, v, p, k, data):
        w = data.draw(arrays(np.float64, v.size, elements=st.floats(0.5, 2.0)))
        e = Exponent(p)
        assert weighted_lp_norm(np.ldexp(v, k), e, w) == math.ldexp(weighted_lp_norm(v, e, w), k)

    @settings(deadline=None)
    @given(arrays(np.float64, st.integers(0, 20).map(lambda m: 2 * m + 1),
                  elements=scalable_entries),
           scale_exponents, scale_exponents, scales)
    def test_kellogg_norm(self, v, p, q, k):
        p, q = Exponent(p), Exponent(q)
        assert kellogg_norm(zsym(np.ldexp(v, k)), p, q) == math.ldexp(
            kellogg_norm(zsym(v), p, q), k)

    @settings(deadline=None)
    @given(scalable_vectors, st.sampled_from([1, Fraction(4, 3), 2, 3, 100, "inf"]), scales)
    def test_dual_norm(self, v, s, k):
        e = Exponent(s)
        value, f = dual_norm(v, e)
        scaled_value, scaled_f = dual_norm(np.ldexp(v, k), e)
        assert scaled_value == math.ldexp(value, k)
        assert scaled_f.coeffs.tobytes() == f.coeffs.tobytes()


class TestScaledStack:
    """``_scaled_lp`` on a stack gives each row the bits that the row gives
    alone, as floats."""

    @staticmethod
    def assert_rows_alone(stack, p, weight=1.0):
        m, t = _scaled_lp(stack, p, weight)
        assert m.shape == t.shape == stack.shape[:-1]
        for k in np.ndindex(stack.shape[:-1]):
            alone = _scaled_lp(stack[k], p, weight)
            assert all(type(x) is float for x in alone)
            assert repr((float(m[k]), float(t[k]))) == repr(alone)

    @settings(deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: arrays(
               np.float64, st.tuples(st.integers(1, 6), st.just(n)),
               elements=st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))),
           st.sampled_from([1, Fraction(4, 3), 2, 3, 1001, "inf"]))
    def test_rows_match_vectors(self, stack, p):
        self.assert_rows_alone(stack, Exponent(p))

    @pytest.mark.parametrize("p", [1, Fraction(4, 3), 2, 1001, "inf"])
    def test_zero_and_non_finite_rows(self, p):
        rng = np.random.default_rng(12)
        stack = np.abs(rng.standard_normal((2, 5, 9))) * 10.0 ** rng.uniform(-300, 300, (2, 5, 1))
        stack[0, 0] = 0.0
        stack[0, 1, 3] = np.inf
        stack[1, 2, 0] = 1.7e308
        self.assert_rows_alone(stack, Exponent(p))
        self.assert_rows_alone(stack, Exponent(p), rng.uniform(0.25, 1.0, 9))


class TestDualNorm:
    def test_unit_vector(self):
        value, f = dual_norm(TruncatedSeq([1.0, 0.0, 0.0]), Exponent(2))
        assert value == 1.0
        assert np.allclose(f.coeffs, [1.0, 0.0, 0.0])

    def test_s_one_takes_first_max(self):
        value, f = dual_norm(TruncatedSeq([1.0, 1.0]), Exponent(1))
        assert value == 1.0
        assert np.array_equal(f.coeffs, [1.0, 0.0])

    def test_cauchy_schwarz_extremizer(self):
        value, f = dual_norm(TruncatedSeq([3.0, 4.0]), Exponent(2))
        assert value == 5.0
        assert np.allclose(f.coeffs, [0.6, 0.8])

    def test_zero_input(self):
        value, f = dual_norm(TruncatedSeq([0.0, 0.0]), Exponent(3))
        assert value == 0.0
        assert np.all(f.coeffs == 0.0)

    @settings(deadline=None)
    @given(finite_vectors, st.sampled_from([1, Fraction(4, 3), 2, 3, "inf"]))
    @example(v=np.array([1.42784668e-81]), s=Fraction(4, 3))  # |v|^4 underflows unscaled
    def test_extremizer_invariants(self, v, s):
        e = Exponent(s)
        value, f = dual_norm(TruncatedSeq(v), e)
        assert value == lp_norm(v, conjugate(e))
        if value > 0:
            assert lp_norm(f, e) == pytest.approx(1.0, abs=1e-12)
            assert float(np.dot(f.coeffs, v)) == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestSpaceSpec:
    def test_weight_must_be_positive(self):
        with pytest.raises(SpecError, match=BAD_WEIGHT):
            SeqSpaceSpec(SpaceKind.LP_WEIGHTED, Exponent(2),
                         weight=TruncatedSeq([1.0, 0.0]))

    def test_kellogg_needs_q(self):
        with pytest.raises(SpecError):
            SeqSpaceSpec(SpaceKind.KELLOGG_MIXED, Exponent(2))

    def test_weighted_needs_weight(self):
        with pytest.raises(SpecError, match="^weighted space needs a weight sequence$"):
            SeqSpaceSpec(SpaceKind.LP_WEIGHTED, Exponent(2))

    def test_dispatch_and_json(self):
        spec = SeqSpaceSpec(SpaceKind.LP_WEIGHTED, Exponent(2),
                            weight=TruncatedSeq([2.0, 3.0]))
        x = TruncatedSeq([1.0, 1.0])
        assert space_norm(x, spec) == pytest.approx(math.sqrt(5.0))
        back = SeqSpaceSpec.from_json(spec.to_json())
        assert space_norm(x, back) == pytest.approx(math.sqrt(5.0))
        mixed = SeqSpaceSpec(SpaceKind.KELLOGG_MIXED, Exponent(2), q=Exponent(3))
        lam = zsym([1.0, 2.0, 3.0])
        assert space_norm(lam, mixed) == pytest.approx(
            kellogg_norm(lam, Exponent(2), Exponent(3)))
