import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbchain import markov_core, sbp_model, simulation
from sbchain.rationals import as_exact, format_rational, parse_rational, require_int


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

    # Arabic-Indic 1/2 and 3, an ASCII/Arabic-Indic mix, fullwidth 1/2, Devanagari 1.
    @pytest.mark.parametrize(
        "text", ["\u0661/\u0662", "\u0663", "1/\u0662", "\uff11/\uff12", "\u0967"]
    )
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ValueError, match="not an exact rational"):
            parse_rational(text)


class TestFormatRational:
    def test_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"

    def test_integers_have_no_slash(self):
        assert format_rational(Fraction(6, 3)) == "2"

    def test_round_trip(self):
        for q in (Fraction(3, 7), Fraction(-5, 9), Fraction(0), Fraction(4)):
            assert parse_rational(format_rational(q)) == q


# 10**5001 + 7: above CPython's default int/str limit of 4300 digits, with a
# long run of zeros where a split into decimal chunks needs its padding.
BIG = "1" + "0" * 5000 + "7"


class TestHugeRationals:
    def test_format_above_ten_to_the_5000(self):
        n = 10**5001 + 7
        assert format_rational(Fraction(n)) == BIG
        assert format_rational(Fraction(-n, 3)) == f"-{BIG}/3"
        assert format_rational(Fraction(2, n)) == f"2/{BIG}"

    def test_digits_of_a_power_of_two(self):
        n = 2**20000
        text = format_rational(Fraction(n))
        assert len(text) == 6021  # floor(20000 log10 2) + 1
        assert text[-60:] == str(n % 10**60).zfill(60)
        assert int(text[:60]) == n // 10 ** (len(text) - 60)
        assert sum(map(int, text)) % 9 == n % 9

    def test_interpreter_limit_untouched(self):
        get = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = get()
        format_rational(Fraction(2**20000, 3))
        assert get() == before

    # Numerators of 4301 to 6001 digits, past CPython's default int/str limit.
    @given(st.integers(10**4300, 10**6000), st.booleans(), st.integers(1, 10**6000))
    @settings(max_examples=30, deadline=None)
    def test_parse_inverts_format_past_the_limit(self, num, negative, den):
        x = Fraction(-num if negative else num, den)
        assert parse_rational(format_rational(x)) == x

    def test_parse_above_ten_to_the_5000(self):
        assert parse_rational(f"-{BIG}/3") == Fraction(-(10**5001 + 7), 3)
        assert parse_rational(f"+2/{BIG}") == Fraction(2, 10**5001 + 7)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/" + "0" * 5000)


class TestRequireInt:
    def test_lower_bound_is_optional(self):
        require_int("k", -5)
        require_int("k", 1, 1)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            require_int("k", 0, 1)

    @pytest.mark.parametrize("value, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")])
    def test_type_is_checked_before_the_bound(self, value, shown):
        with pytest.raises(ValueError, match=rf"^k must be an int, got {shown}$"):
            require_int("k", value, 1)


HUGE = 10**5000
SBP = sbp_model.sbp_chain()
M_T_HUGE = {**simulation.indicator(sbp_model.Awakening.M_H), sbp_model.Awakening.M_T: HUGE}
M_T_HUGE_FRACTION = {**M_T_HUGE, sbp_model.Awakening.M_T: Fraction(HUGE, 3)}


class TestHugeIntDiagnostics:
    """A rejected int, or a Fraction part, past the digit limit is written
    whole, not as CPython's "Exceeds the limit" message."""

    @pytest.mark.parametrize(
        "call, message, tail",
        [
            (lambda: markov_core.matrix_power(SBP.matrix, -HUGE), "matrix power needs n >= 0", ""),
            (lambda: markov_core.n_step_distribution(SBP, -HUGE), "step index must be >= 1", ""),
            (lambda: markov_core.convergence_report(SBP, -HUGE), "n_max must be >= 1", ""),
            (lambda: sbp_model.exact_distribution(-HUGE), "awakening index must be >= 1", ""),
            (lambda: simulation.SimulationConfig(HUGE, 1, 1), "seed must be a 64-bit", ""),
            (lambda: simulation.SimulationConfig(0, -HUGE, 1), "n_experiments must be >= 1", ""),
            (lambda: simulation.SimulationConfig(0, 1, -HUGE), "checkpoint_stride must be >= 1",
             ""),
            (lambda: simulation.forced_run("H", -HUGE), "checkpoint_stride must be >= 1", ""),
            (lambda: markov_core.period(SBP.matrix, HUGE), "state index ",
             " out of range for 3 states"),
            (lambda: simulation.lln_trace(simulation.SimulationConfig(0, 1, 1), M_T_HUGE),
             "f(M_T) must be a finite real number, got ", ""),
            (lambda: sbp_model.project_labels([HUGE]), "position 0: expected an Awakening", ""),
            (lambda: sbp_model.project_labels([Fraction(HUGE, 3)]),
             "position 0: expected an Awakening, got Fraction(1", ", 3)"),
            (lambda: simulation.lln_trace(simulation.SimulationConfig(0, 1, 1), M_T_HUGE_FRACTION),
             "f(M_T) must be a finite real number, got Fraction(1", ", 3)"),
            (lambda: sbp_model.decode_observations([HUGE]),
             "position 0: expected an Observation", ""),
            (lambda: sbp_model.validate_labeled_sequence([HUGE]),
             "position 0: expected an Awakening", ""),
            (lambda: sbp_model.parse_coin_tokens([HUGE]), "not a coin toss: ",
             " (expected H or T)"),
            (lambda: simulation.forced_run([HUGE]), "not a coin toss: ", " (expected H or T)"),
            (lambda: sbp_model.parse_labeled_tokens([HUGE]), "not an awakening token: ",
             " (expected MH, MT, TU, or ?)"),
        ],
        ids=[
            "matrix_power", "n_step_distribution", "convergence_report",
            "exact_distribution", "config_seed", "config_n_experiments",
            "config_checkpoint_stride", "forced_run", "period", "lln_trace",
            "project_labels", "project_labels_fraction", "lln_trace_fraction",
            "decode_observations", "validate_labeled_sequence",
            "parse_coin_tokens", "forced_run_coins", "parse_labeled_tokens",
        ],
    )
    def test_message_names_the_value(self, call, message, tail):
        with pytest.raises(ValueError) as caught:
            call()
        text = str(caught.value)
        assert text.startswith(message)
        assert text.endswith("1" + "0" * 5000 + tail)


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

    def test_rejects_float_subclass_as_a_float(self):
        class Real(float):
            pass

        with pytest.raises(TypeError, match="^floats are not accepted, got Real: 0.5;"):
            as_exact(Real(0.5))

    @pytest.mark.parametrize("value, shown", [(None, "NoneType: None"), (["1/2"], "list: ['1/2']")])
    def test_other_types_name_the_accepted_kinds(self, value, shown):
        with pytest.raises(TypeError) as caught:
            as_exact(value)
        assert str(caught.value) == (
            f'only Fractions, ints and strings are accepted, got {shown};'
            ' write rationals as strings like "1/2"'
        )
