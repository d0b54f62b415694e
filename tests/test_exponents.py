import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongfactor.errors import ExponentRange
from strongfactor.exponents import INF, Exponent, conjugate, multiplier_exponent


def rational_exponents():
    return st.fractions(min_value=1, max_value=64, max_denominator=12)


class TestConstruction:
    def test_rejects_below_one(self):
        with pytest.raises(ExponentRange):
            Exponent(0.5)
        with pytest.raises(ExponentRange):
            Exponent(Fraction(9, 10))

    def test_rejects_nan(self):
        with pytest.raises(ExponentRange):
            Exponent(float("nan"))

    @pytest.mark.parametrize("token", ["abc", "1/0", ""])
    def test_rejects_malformed_strings(self, token):
        with pytest.raises(ExponentRange):
            Exponent(token)

    def test_accepts_strings(self):
        assert Exponent("4/3").as_fraction() == Fraction(4, 3)
        assert Exponent("inf").is_inf
        assert Exponent("2").as_fraction() == 2

    def test_float_infinity(self):
        assert Exponent(math.inf).is_inf
        assert float(INF) == math.inf

    def test_ordering(self):
        assert Exponent(1) < Exponent("4/3") < Exponent(2) < INF
        assert not INF < INF
        assert INF <= INF
        assert Exponent(2) == Exponent(2.0)

    def test_json(self):
        assert Exponent(2).to_json() == 2.0
        assert INF.to_json() == "inf"
        p = Exponent("4/3")
        assert Exponent.from_json(p.to_json()) == Exponent(float(p))


class TestConjugate:
    def test_self_conjugate_point(self):
        assert conjugate(Exponent(2)) == Exponent(2)

    def test_endpoints(self):
        assert conjugate(Exponent(1)) == INF
        assert conjugate(INF) == Exponent(1)

    def test_four_thirds(self):
        assert conjugate(Exponent("4/3")) == Exponent(4)

    @settings(deadline=None)
    @given(rational_exponents())
    def test_round_trip_exact(self, p):
        e = Exponent(p)
        assert conjugate(conjugate(e)) == e

    @settings(deadline=None)
    @given(rational_exponents())
    def test_harmonic_identity(self, p):
        e = Exponent(p)
        q = conjugate(e)
        if not q.is_inf:
            assert Fraction(1, 1) / e.as_fraction() + Fraction(1, 1) / q.as_fraction() == 1


class TestMultiplierExponent:
    def test_finite_case(self):
        assert multiplier_exponent(Exponent(4), Exponent(2)) == Exponent(4)

    def test_dominated_case_is_infinite(self):
        assert multiplier_exponent(Exponent(2), Exponent(4)) == INF
        assert multiplier_exponent(Exponent(3), Exponent(3)) == INF
        assert multiplier_exponent(INF, INF) == INF

    def test_infinite_source(self):
        assert multiplier_exponent(INF, Exponent(3)) == Exponent(3)

    def test_koethe_dual_consistency(self):
        for p in (Exponent(1), Exponent("4/3"), Exponent(2), Exponent(7), INF):
            assert multiplier_exponent(p, Exponent(1)) == conjugate(p)

    def test_equals_one_only_at_corner(self):
        assert multiplier_exponent(INF, Exponent(1)) == Exponent(1)

    @settings(deadline=None)
    @given(rational_exponents(), rational_exponents())
    def test_three_case_formula(self, p, q):
        s = multiplier_exponent(Exponent(p), Exponent(q))
        if q < p:
            assert s.as_fraction() == p * q / (p - q)
        else:
            assert s.is_inf

    @settings(deadline=None)
    @given(rational_exponents(), rational_exponents())
    def test_never_one_for_finite_pairs(self, p, q):
        assert multiplier_exponent(Exponent(p), Exponent(q)) != Exponent(1)
