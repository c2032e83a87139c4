"""Unit tests for the repetition chain and the sequence correspondences."""

from fractions import Fraction

import pytest

from sbchain.markov_core import (
    DistributionVector,
    ergodicity_report,
    n_step_distribution,
    total_variation_distance,
)
from sbchain.sbp_model import (
    Awakening,
    EmptyInput,
    MalformedObservation,
    Observation,
    Toss,
    UndeterminedSymbol,
    decode_observations,
    encode_coins,
    exact_distribution,
    format_tokens,
    parse_coin_tokens,
    parse_labeled_tokens,
    parse_observed_tokens,
    project_labels,
    sbp_chain,
    validate_labeled_sequence,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

MH, MT, TU, UNK = Awakening.M_H, Awakening.M_T, Awakening.TU, Awakening.UNDETERMINED
M, OTU = Observation.M, Observation.TU


class TestChain:
    def test_states_and_grid(self):
        chain = sbp_chain()
        assert chain.states.labels == ("M_H", "M_T", "Tu")
        assert chain.matrix.rows == (
            (HALF, HALF, 0),
            (0, 0, 1),
            (HALF, HALF, 0),
        )
        assert chain.initial.weights == (HALF, HALF, 0)

    def test_is_ergodic_with_uniform_stationary(self):
        report = ergodicity_report(sbp_chain().matrix)
        assert report.ergodic
        assert report.period == 1
        assert report.stationary.weights == (THIRD, THIRD, THIRD)


class TestExactDistribution:
    def test_first_awakening(self):
        assert exact_distribution(1).weights == (HALF, HALF, 0)

    def test_second_awakening(self):
        assert exact_distribution(2).weights == (Fraction(1, 4), Fraction(1, 4), HALF)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_matrix_recursion(self, n):
        assert exact_distribution(n) == n_step_distribution(sbp_chain(), n)

    def test_matches_matrix_recursion_to_300(self):
        chain = sbp_chain()
        for n in range(1, 301):
            closed = exact_distribution(n)
            assert closed == n_step_distribution(chain, n)
            sign = 1 if n % 2 == 1 else -1
            monday = closed[0]
            assert (monday.numerator, monday.denominator) == ((2**n + sign) // 3, 2**n)

    def test_oscillation_sign(self):
        # Odd steps overshoot 1/3 on the Mondays, even steps undershoot.
        for n in range(1, 12):
            monday = exact_distribution(n)[0]
            assert (monday > THIRD) == (n % 2 == 1)

    def test_distance_to_stationary_halves_each_step(self):
        pi = DistributionVector([THIRD, THIRD, THIRD])
        for n in range(1, 20):
            tv = total_variation_distance(exact_distribution(n), pi)
            assert tv == Fraction(1, 3 * 2 ** (n - 1))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_index(self, n):
        with pytest.raises(ValueError, match=">= 1"):
            exact_distribution(n)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_rejects_non_int_index(self, n):
        with pytest.raises(ValueError, match="must be an int"):
            exact_distribution(n)


class TestEncode:
    def test_single_heads(self):
        assert encode_coins([Toss.HEADS]) == [MH]

    def test_single_tails(self):
        assert encode_coins([Toss.TAILS]) == [MT, TU]

    def test_double_tails(self):
        assert encode_coins([Toss.TAILS, Toss.TAILS]) == [MT, TU, MT, TU]

    def test_mixed_run(self):
        assert encode_coins("HTH") == [MH, MT, TU, MH]

    def test_accepts_lowercase_strings(self):
        assert encode_coins(["h", "t"]) == [MH, MT, TU]

    def test_accepts_members_and_padded_strings(self):
        assert encode_coins(iter([Toss.TAILS, " h\n", "T"])) == [MT, TU, MH, MT, TU]

    def test_length_is_heads_plus_twice_tails(self):
        coins = "HTTHTHHT"
        labels = encode_coins(coins)
        assert len(labels) == coins.count("H") + 2 * coins.count("T")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            encode_coins([])

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError, match="not a coin toss"):
            encode_coins(["H", "X"])


class TestNonIterableRejected:
    @pytest.mark.parametrize("items", [5, None])
    @pytest.mark.parametrize("convert, what", [
        (encode_coins, "tokens"),
        (parse_coin_tokens, "tokens"),
        (parse_labeled_tokens, "tokens"),
        (parse_observed_tokens, "tokens"),
        (project_labels, "Awakenings"),
        (decode_observations, "Observations"),
        (validate_labeled_sequence, "Awakenings"),
    ])
    def test_value_error_names_what_was_expected(self, convert, what, items):
        with pytest.raises(ValueError) as info:
            convert(items)
        assert type(info.value) is ValueError
        assert str(info.value) == f"expected an iterable of {what}, got {items!r}"


class TestProject:
    def test_erases_subscripts(self):
        assert project_labels([MH, MT, TU]) == [M, M, OTU]

    def test_undetermined_rejected_with_position(self):
        with pytest.raises(UndeterminedSymbol, match="position 2"):
            project_labels([MH, MH, UNK])

    def test_empty_is_fine(self):
        assert project_labels([]) == []

    @pytest.mark.parametrize(
        "seq, error, message",
        [
            ([MH, MT, TU, UNK, None], UndeterminedSymbol,
             "cannot project undetermined awakening at position 3"),
            ((a for a in [MT, TU, "MH", UNK]), ValueError,
             "position 2: expected an Awakening, got 'MH'"),
            ((MH, {}, UNK), ValueError, "position 1: expected an Awakening, got {}"),
            ([MH, M], ValueError, "position 1: expected an Awakening, got <Observation.M: 'M'>"),
        ],
    )
    def test_first_bad_item_and_its_position(self, seq, error, message):
        with pytest.raises(error) as info:
            project_labels(seq)
        assert type(info.value) is error and str(info.value) == message

    def test_any_iterable(self):
        assert project_labels(iter([MT, TU, MH])) == [M, OTU, M]


class TestMembersOnly:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: decode_observations([M, "TU"], complete=True),
             "position 1: expected an Observation, got 'TU'"),
            (lambda: project_labels([MT, None]), "position 1: expected an Awakening, got None"),
            (lambda: validate_labeled_sequence(["TU", "TU"]),
             "position 0: expected an Awakening, got 'TU'"),
            (lambda: project_labels([MH, []]), "position 1: expected an Awakening, got []"),
        ],
    )
    def test_non_member_rejected_with_position(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestDecode:
    def test_m_before_tu_is_tails_monday(self):
        assert decode_observations([M, OTU]) == [MT, TU]

    def test_m_before_m_is_heads_monday(self):
        assert decode_observations([M, M, OTU]) == [MH, MT, TU]

    def test_trailing_m_undetermined_by_default(self):
        assert decode_observations([M]) == [UNK]

    def test_trailing_m_heads_when_complete(self):
        assert decode_observations([M], complete=True) == [MH]

    def test_longer_complete_record(self):
        obs = [M, OTU, M, M, OTU, M]
        assert decode_observations(obs, complete=True) == [MT, TU, MH, MT, TU, MH]

    def test_leading_tu_rejected(self):
        with pytest.raises(MalformedObservation, match="start with Tu"):
            decode_observations([OTU, M])

    def test_double_tu_rejected(self):
        with pytest.raises(MalformedObservation, match="consecutive Tu"):
            decode_observations([M, OTU, OTU])

    def test_empty_decodes_to_empty(self):
        assert decode_observations([]) == []

    # With several faults, the one at the lowest position is reported.
    @pytest.mark.parametrize("obs, error, message", [
        ([OTU, None], MalformedObservation, "observed sequence cannot start with Tu"),
        ([None, OTU], ValueError, "position 0: expected an Observation, got None"),
        ([M, OTU, OTU, "x"], MalformedObservation, "two consecutive Tu at positions 1, 2"),
        ([M, "x", OTU, OTU], ValueError, "position 1: expected an Observation, got 'x'"),
        ([M, OTU, 7, OTU], ValueError, "position 2: expected an Observation, got 7"),
        ([M, [1], OTU], ValueError, "position 1: expected an Observation, got [1]"),
        (iter([M, OTU, "TU"]), ValueError, "position 2: expected an Observation, got 'TU'"),
    ])
    def test_first_fault_wins(self, obs, error, message):
        with pytest.raises(ValueError) as info:
            decode_observations(obs)
        assert (type(info.value), str(info.value)) == (error, message)

    def test_one_pass_iterator(self):
        assert decode_observations(iter([M, M, OTU, M])) == [MH, MT, TU, UNK]

    @pytest.mark.parametrize("complete", ["no", 1, None, 0.0])
    def test_non_bool_complete_rejected(self, complete):
        with pytest.raises(ValueError) as info:
            decode_observations([M], complete=complete)
        assert str(info.value) == f"complete must be a bool, got {complete!r}"


class TestRoundTrips:
    @pytest.mark.parametrize("coins", ["H", "T", "HT", "TH", "TT", "HTHTT", "THHHT"])
    def test_decode_inverts_project_on_complete_runs(self, coins):
        labels = encode_coins(coins)
        assert decode_observations(project_labels(labels), complete=True) == labels

    def test_prefix_decode_marks_only_the_cut(self):
        labels = encode_coins("HTH")
        prefix = project_labels(labels)[:-1] + [M]
        assert decode_observations(prefix) == [MH, MT, TU, UNK]


class TestValidateLabeledSequence:
    def test_accepts_encoded_runs(self):
        validate_labeled_sequence(encode_coins("HTTHT"))

    def test_accepts_trailing_undetermined(self):
        validate_labeled_sequence([MH, UNK])

    def test_rejects_leading_tu(self):
        with pytest.raises(ValueError, match="start with Tu"):
            validate_labeled_sequence([TU, MH])

    def test_rejects_mt_without_tu(self):
        with pytest.raises(ValueError, match="not followed by Tu"):
            validate_labeled_sequence([MT, MH])

    def test_rejects_trailing_mt(self):
        with pytest.raises(ValueError, match="not followed by Tu"):
            validate_labeled_sequence([MH, MT])

    def test_rejects_tu_after_mh(self):
        with pytest.raises(ValueError, match="not preceded by M_T"):
            validate_labeled_sequence([MH, TU])

    def test_rejects_interior_undetermined(self):
        with pytest.raises(ValueError, match="non-final"):
            validate_labeled_sequence([MH, UNK, MH])

    def test_one_pass_iterator(self):
        validate_labeled_sequence(iter([MT, TU, MH, UNK]))
        with pytest.raises(ValueError, match="M_T at position 1 is not followed by Tu"):
            validate_labeled_sequence(iter([MH, MT]))
        with pytest.raises(ValueError, match="non-final position 0"):
            validate_labeled_sequence(iter([UNK, MH]))


class TestTokens:
    def test_parse_coins_case_insensitive(self):
        assert parse_coin_tokens(["h", "T"]) == [Toss.HEADS, Toss.TAILS]

    def test_parse_labeled(self):
        assert parse_labeled_tokens(["mh", "MT", "tu", "?"]) == [MH, MT, TU, UNK]

    def test_parse_observed(self):
        assert parse_observed_tokens(["m", "TU"]) == [M, OTU]

    def test_parse_labeled_bad_token(self):
        with pytest.raises(ValueError, match="not an awakening token"):
            parse_labeled_tokens(["MH", "XX"])

    def test_parse_observed_bad_token(self):
        with pytest.raises(ValueError, match="not an observed-day token"):
            parse_observed_tokens(["MH"])

    def test_parse_coins_strips_and_passes_members(self):
        assert parse_coin_tokens([" h\n", Toss.TAILS]) == [Toss.HEADS, Toss.TAILS]

    @pytest.mark.parametrize(
        "parse, token, message",
        [
            (parse_coin_tokens, 1, "not a coin toss"),
            (parse_coin_tokens, MH, "not a coin toss"),
            (parse_labeled_tokens, 1, "not an awakening token"),
            (parse_labeled_tokens, ["MH"], "not an awakening token"),
            (parse_labeled_tokens, MH, "not an awakening token"),
            (parse_observed_tokens, None, "not an observed-day token"),
        ],
    )
    def test_non_string_token_rejected(self, parse, token, message):
        with pytest.raises(ValueError, match=message):
            parse([token])

    @pytest.mark.parametrize(
        "parse, tokens, message",
        [
            (parse_coin_tokens, ["H", "x"], "not a coin toss: 'x' (expected H or T)"),
            (parse_coin_tokens, iter(["h", Toss.TAILS, "HT"]),
             "not a coin toss: 'HT' (expected H or T)"),
            (parse_coin_tokens, "HTX", "not a coin toss: 'X' (expected H or T)"),
            (parse_labeled_tokens, ["MH", ["MH"]],
             "not an awakening token: ['MH'] (expected MH, MT, TU, or ?)"),
            (parse_labeled_tokens, ["MX", []],
             "not an awakening token: 'MX' (expected MH, MT, TU, or ?)"),
            (parse_observed_tokens, (d for d in ["m", {}, "X"]),
             "not an observed-day token: {} (expected M or TU)"),
            (parse_observed_tokens, ["M", M], "not an observed-day token: "
             "<Observation.M: 'M'> (expected M or TU)"),
        ],
    )
    def test_first_bad_token_named_exactly(self, parse, tokens, message):
        with pytest.raises(ValueError) as info:
            parse(tokens)
        assert str(info.value) == message

    def test_format_uppercase(self):
        assert format_tokens([MH, MT, TU]) == "MH MT TU"
        assert format_tokens([Toss.HEADS, Toss.TAILS]) == "H T"
        assert format_tokens([M, OTU]) == "M TU"

    def test_token_round_trip(self):
        labels = encode_coins("HTT")
        assert parse_labeled_tokens(format_tokens(labels).split()) == labels
