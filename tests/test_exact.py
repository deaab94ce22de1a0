"""Exact scalars: parsing 'p/q' strings, and the one rule for exact
versus float mode (`scalars`, `nonneg`, `same`)."""

from fractions import Fraction

import pytest

from polybox.exact import TOL, R0, R1, Rational, nonneg, rat, same, scalars


class TestRat:
    def test_strings(self):
        assert rat("2/7") == rat(2, 7)
        assert rat("-3") == rat(-3)
        assert rat("0.25") == rat(1, 4)

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_bad_input(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            rat(text)

    def test_malformed_string_is_bad_input(self):
        with pytest.raises(ValueError):
            rat("1/x")


class TestModes:
    def test_scalars_exact_when_every_value_is_rational(self):
        values, exact = scalars([1, Fraction(1, 2), rat(1, 3)])
        assert exact
        assert values == (R1, rat(1, 2), rat(1, 3))
        assert all(isinstance(v, Rational) for v in values)

    def test_scalars_float_when_any_value_is_a_float(self):
        values, exact = scalars([1, rat(1, 2), 0.25])
        assert not exact
        assert values == (1.0, 0.5, 0.25)
        assert all(type(v) is float for v in values)

    def test_nonneg(self):
        assert nonneg(R0) and nonneg(rat(1, 10**30))
        assert not nonneg(rat(-1, 10**30))
        # a float may fall short of 0 by the tolerance, not more
        assert nonneg(0.0) and nonneg(-TOL / 2)
        assert not nonneg(-2 * TOL)

    def test_same(self):
        assert same(rat(1, 3), rat(2, 6))
        assert not same(rat(1, 3), rat(1, 3) + rat(1, 10**30))
        # one float side makes the comparison approximate
        assert same(1.0 / 3.0, rat(1, 3))
        assert same(1.0, 1.0 + TOL / 2)
        assert not same(1.0, 1.0 + 10 * TOL)
