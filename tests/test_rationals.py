from fractions import Fraction

import pytest

from sbchain.rationals import as_exact, format_rational, parse_rational


class TestParseRational:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1/2", Fraction(1, 2)),
            ("0", Fraction(0)),
            ("-3/6", Fraction(-1, 2)),
            ("+7", Fraction(7)),
            ("10/4", Fraction(5, 2)),
            (" 2/3 ", Fraction(2, 3)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "1/2/3", "1/-2", "", "a/b", "1.0/2"])
    def test_rejects_non_integers(self, text):
        with pytest.raises(ValueError, match="not an exact rational"):
            parse_rational(text)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


class TestFormatRational:
    def test_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"

    def test_integers_have_no_slash(self):
        assert format_rational(Fraction(6, 3)) == "2"

    def test_round_trip(self):
        for q in (Fraction(3, 7), Fraction(-5, 9), Fraction(0), Fraction(4)):
            assert parse_rational(format_rational(q)) == q


class TestAsExact:
    def test_accepts_int_str_fraction(self):
        assert as_exact(3) == Fraction(3)
        assert as_exact("3/4") == Fraction(3, 4)
        assert as_exact(Fraction(1, 5)) == Fraction(1, 5)

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="floats are not accepted"):
            as_exact(0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool(self, value):
        with pytest.raises(TypeError, match="got bool"):
            as_exact(value)
