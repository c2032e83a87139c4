"""Unit tests for the exact chain machinery.

The structural checks (irreducibility, period) are verified against
independent brute-force oracles that work directly from matrix powers,
not from the graph algorithms under test.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction
from math import gcd

import pytest

from sbchain import markov_core
from sbchain.markov_core import (
    Chain,
    DimensionMismatch,
    DistributionVector,
    DuplicateState,
    EmptyStateSpace,
    ErgodicityReport,
    MarkovError,
    MissingInitialDistribution,
    NonStochasticRow,
    NotErgodic,
    NotIrreducible,
    StateSpace,
    TransitionMatrix,
    convergence_report,
    ergodicity_report,
    expectation,
    is_aperiodic,
    is_ergodic,
    is_irreducible,
    matrix_power,
    n_step_distribution,
    new_chain,
    period,
    stationary_distribution,
    total_variation_distance,
)

import fraction_oracle

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

SBP_GRID = [[HALF, HALF, 0], [0, 0, 1], [HALF, HALF, 0]]
SWAP = TransitionMatrix([[0, 1], [1, 0]])
BLOCK_DIAGONAL = TransitionMatrix([[1, 0], [0, 1]])
SINGLETON = TransitionMatrix([[1]])


def sbp_chain():
    return new_chain(("M_H", "M_T", "Tu"), SBP_GRID, initial=[HALF, HALF, 0])


# --- independent oracles ---------------------------------------------------


def mul(a, b):
    """Plain O(k^3) exact matrix product on lists of Fraction rows."""
    k = len(a)
    return [
        [sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k)] for i in range(k)
    ]


def brute_force_irreducible(matrix: TransitionMatrix) -> bool:
    """All pairs communicate iff sum of the first k powers is entrywise positive."""
    k = matrix.dimension
    rows = [list(r) for r in matrix.rows]
    acc = [[Fraction(0)] * k for _ in range(k)]
    power = rows
    for _ in range(k):
        acc = [[x + y for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power = mul(power, rows)
    return all(entry > 0 for row in acc for entry in row)


def brute_force_period(matrix: TransitionMatrix, state: int, max_n: int = 24) -> int:
    """GCD of return times {n > 0 : P^n[state][state] > 0}, truncated at max_n."""
    rows = [list(r) for r in matrix.rows]
    power = rows
    g = 0
    for n in range(1, max_n + 1):
        if power[state][state] > 0:
            g = gcd(g, n)
        power = mul(power, rows)
    return g


# --- construction and validation ------------------------------------------


class TestConstruction:
    def test_sbp_grid_is_valid(self):
        chain = sbp_chain()
        assert chain.matrix.dimension == 3
        assert chain.states.labels == ("M_H", "M_T", "Tu")
        assert chain.matrix.rows[1] == (0, 0, 1)

    def test_singleton_chain(self):
        chain = new_chain(["only"], [[1]])
        assert chain.matrix.dimension == 1

    def test_row_not_summing_to_one(self):
        with pytest.raises(NonStochasticRow, match="row 1 sums to 2/3"):
            new_chain(["a", "b"], [[HALF, HALF], [THIRD, THIRD]])

    def test_entry_outside_unit_interval(self):
        with pytest.raises(NonStochasticRow, match="outside"):
            TransitionMatrix([[Fraction(3, 2), Fraction(-1, 2)], [0, 1]])

    def test_non_square_grid(self):
        with pytest.raises(DimensionMismatch):
            TransitionMatrix([[HALF, HALF]])

    def test_grid_state_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_chain(["a", "b", "c"], [[1, 0], [0, 1]])

    def test_duplicate_states(self):
        with pytest.raises(DuplicateState):
            StateSpace(["a", "a"])

    def test_empty_state_space(self):
        with pytest.raises(EmptyStateSpace):
            StateSpace([])

    # Labels are strings, as the chain spec reader demands.
    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: StateSpace(5), "5"),
            (lambda: StateSpace(None), "None"),
            (lambda: new_chain(5, [[1]]), "5"),
            (lambda: StateSpace([[1], [2]]), "[[1], [2]]"),
            (lambda: StateSpace([1, 2]), "[1, 2]"),
            (lambda: StateSpace(["a", None]), "['a', None]"),
        ],
        ids=["int", "none", "int-in-new-chain", "unhashable-labels", "int-labels", "none-label"],
    )
    def test_labels_that_are_not_strings(self, build, shown):
        with pytest.raises(MarkovError) as info:
            build()
        assert str(info.value) == f"state labels must be an iterable of strings, got {shown}"

    def test_labels_from_any_iterable_of_strings(self):
        assert StateSpace(iter(["a", "b"])).labels == ("a", "b")
        assert StateSpace("ab").labels == ("a", "b")

    def test_initial_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_chain(["a", "b"], [[1, 0], [0, 1]], initial=[1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="floats are not accepted"):
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            TransitionMatrix([[True, False], [False, True]])
        with pytest.raises(TypeError, match="bool"):
            DistributionVector([True, False])

    def test_distribution_negative_weight(self):
        with pytest.raises(NonStochasticRow):
            DistributionVector([Fraction(3, 2), Fraction(-1, 2)])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([Fraction(10**5000 + 1, 10**5000), 0], "distribution, entry 0: 1{z}1/1{z}0 outside"),
            ([Fraction(1, 10**5000)] * 2, "distribution sums to 1/5{z}, expected 1"),
        ],
    )
    def test_huge_entries_in_messages(self, weights, message):
        # Past the interpreter's int/str digit limit, str() of these raises.
        with pytest.raises(NonStochasticRow) as caught:
            DistributionVector(weights)
        assert message.format(z="0" * 4999) in str(caught.value)

    def test_string_entries_accepted(self):
        matrix = TransitionMatrix([["1/2", "1/2"], ["1/3", "2/3"]])
        assert matrix.rows[1][0] == THIRD

    @pytest.mark.parametrize(
        "build, message",
        [
            # A mapping's keys are not its weights.
            (lambda: DistributionVector({0: "1/2", 1: "1/2"}), "distribution must be a list or tuple, got dict"),
            (lambda: new_chain(["a", "b"], [[0, 1], [1, 0]], {1: 0, 0: 0}), "distribution .* got dict"),
            # A set has no order to match the states to.
            (lambda: DistributionVector({HALF, THIRD, Fraction(1, 6)}), "distribution .* got set"),
            (lambda: TransitionMatrix({(0, 1), (1, 0)}), "transition matrix .* got set"),
            # Text is not a row of entries, one per character.
            (lambda: new_chain(["a", "b"], ["10", "01"]), "row 0 must be a list or tuple, got str"),
            (lambda: TransitionMatrix([[1, 0], b"\x00\x01"]), "row 1 .* got bytes"),
            (lambda: TransitionMatrix("1"), "transition matrix .* got str"),
            (lambda: TransitionMatrix(None), "transition matrix must be a list or tuple, got NoneType"),
            (lambda: TransitionMatrix([[1, 0], 5]), "row 1 .* got int"),
            (lambda: DistributionVector(x for x in [1]), "distribution .* got generator"),
        ],
        ids=["dict-weights", "dict-initial", "set-weights", "set-grid", "str-rows",
             "bytes-row", "str-grid", "none-grid", "int-row", "generator-weights"],
    )
    def test_only_sequences_accepted(self, build, message):
        with pytest.raises(MarkovError, match=message):
            build()

    def test_empty_laws(self):
        with pytest.raises(EmptyStateSpace):
            TransitionMatrix([])
        with pytest.raises(EmptyStateSpace):
            DistributionVector(())

    def test_tuples_and_other_sequences_accepted(self):
        assert TransitionMatrix(((1, 0), [0, 1])) == TransitionMatrix([[1, 0], [0, 1]])
        assert DistributionVector(range(2)[::-1]).weights == (1, 0)


class TestMatrixPower:
    def test_zeroth_power_is_identity(self):
        p0 = matrix_power(TransitionMatrix(SBP_GRID), 0)
        assert p0.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_first_power_unchanged(self):
        p = TransitionMatrix(SBP_GRID)
        assert matrix_power(p, 1) == p

    def test_sbp_square(self):
        # Hand-multiplied: rows M_H and Tu both give [1/4, 1/4, 1/2],
        # row M_T gives [1/2, 1/2, 0].
        expected = (
            (Fraction(1, 4), Fraction(1, 4), HALF),
            (HALF, HALF, Fraction(0)),
            (Fraction(1, 4), Fraction(1, 4), HALF),
        )
        assert matrix_power(TransitionMatrix(SBP_GRID), 2).rows == expected

    def test_rows_stay_stochastic_at_large_exponent(self):
        p30 = matrix_power(TransitionMatrix(SBP_GRID), 30)
        for row in p30.rows:
            assert sum(row) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            matrix_power(TransitionMatrix(SBP_GRID), -1)


class TestNStepDistribution:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (HALF, HALF, Fraction(0))),
            (2, (Fraction(1, 4), Fraction(1, 4), HALF)),
            (3, (Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))),
        ],
    )
    def test_first_steps(self, n, expected):
        assert n_step_distribution(sbp_chain(), n).weights == expected

    def test_requires_initial(self):
        chain = Chain(StateSpace(["a"]), SINGLETON)
        with pytest.raises(MissingInitialDistribution):
            n_step_distribution(chain, 1)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            n_step_distribution(sbp_chain(), 0)


FOUR_STATE = TransitionMatrix(
    [
        [HALF, HALF, 0, 0],
        [0, 0, Fraction(2, 3), THIRD],
        [Fraction(1, 5), 0, 0, Fraction(4, 5)],
        [0, 1, 0, 0],
    ]
)


def cycle_row(i):
    row = [0] * 8
    row[i], row[(i + 1) % 8] = THIRD, Fraction(2, 3)
    return row


# Each state keeps 1/3 of its weight and passes the rest on around the cycle;
# state 0 passes half of that to state 4 instead. Irreducible and aperiodic.
EIGHT_ROWS = [cycle_row(i) for i in range(8)]
EIGHT_ROWS[0][1:5] = [THIRD, 0, 0, THIRD]
EIGHT_STATE = new_chain(
    [f"s{i}" for i in range(8)], EIGHT_ROWS, [Fraction(i + 1, 36) for i in range(8)]
)


class TestPowering:
    def test_matches_repeated_multiplication(self):
        chain = Chain(
            StateSpace("abcd"),
            FOUR_STATE,
            DistributionVector([Fraction(1, 7), 0, Fraction(2, 7), Fraction(4, 7)]),
        )
        rows = [list(r) for r in FOUR_STATE.rows]
        power = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        for n in range(66):
            if n in (0, 1, 2, 3, 31, 32, 33, 63, 64, 65):
                assert [list(r) for r in matrix_power(FOUR_STATE, n).rows] == power
                expected = [
                    sum(w * power[i][j] for i, w in enumerate(chain.initial.weights))
                    for j in range(4)
                ]
                assert list(n_step_distribution(chain, n + 1).weights) == expected
            power = mul(power, rows)

    def test_computes_only_used_products(self, monkeypatch):
        calls = []
        product = markov_core._int_mul
        monkeypatch.setattr(
            markov_core, "_int_mul", lambda a, b: calls.append(len(a)) or product(a, b)
        )
        matrix = TransitionMatrix(SBP_GRID)
        matrix_power(matrix, 32)
        assert len(calls) == 5
        calls.clear()
        matrix_power(matrix, 33)
        assert len(calls) == 6
        calls.clear()
        n_step_distribution(sbp_chain(), 33)
        assert calls == [3] * 5 + [1]
        for n in (1, 2, 9):
            calls.clear()
            convergence_report(sbp_chain(), n)
            assert calls == [1] * (n - 1)
        # At k = 8, 32 steps of the row (32 k^2 products) cost less than
        # powering (5 k^3 + k^2), and 64 steps cost more than 6 k^3 + k^2.
        calls.clear()
        n_step_distribution(EIGHT_STATE, 33)
        assert calls == [1] * 32
        calls.clear()
        n_step_distribution(EIGHT_STATE, 65)
        assert calls == [8] * 6 + [1]

    def test_a_tie_steps(self, monkeypatch):
        # k = 2 and n = 7: m = 6 steps make 6 k^2 scalar products, and powering
        # (two squarings, two row products) makes 2 k^3 + 2 k^2, as many.
        calls = []
        product = markov_core._int_mul
        monkeypatch.setattr(
            markov_core, "_int_mul", lambda a, b: calls.append(len(a)) or product(a, b)
        )
        chain = new_chain(["a", "b"], [[HALF, HALF], [1, 0]], [1, 0])
        dist = n_step_distribution(chain, 7)
        assert calls == [1] * 6  # powering would make [2, 1, 2, 1]
        rows, initial = chain.matrix.rows, chain.initial.weights
        assert dist.weights == fraction_oracle.n_step_distribution(rows, initial, 7)

    @pytest.mark.parametrize("chain", [sbp_chain(), EIGHT_STATE], ids=["k=3", "k=8"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 33, 65])
    def test_either_path_equals_fraction_oracle(self, chain, n):
        dist = n_step_distribution(chain, n)
        rows, initial = chain.matrix.rows, chain.initial.weights
        assert dist.weights == fraction_oracle.n_step_distribution(rows, initial, n)


# k = 12 rows whose denominators are twelve distinct primes, so the common
# denominator D is their product (about 2^240) and P^16 carries D^16.
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
          1000117, 1000121, 1000133, 1000151, 1000159, 1000171)


def coprime_row(i, q):
    head = [Fraction((7 * i + 13 * j) % 50 + 1, q) for j in range(11)]
    return head + [1 - sum(head)]


COPRIME_ROWS = [coprime_row(i, q) for i, q in enumerate(PRIMES)]


class TestFractionOracle:
    def test_large_coprime_denominators(self):
        matrix = TransitionMatrix(COPRIME_ROWS)
        assert [row[-1].denominator for row in matrix.rows] == list(PRIMES)
        power = matrix_power(matrix, 16)
        assert power.rows == fraction_oracle.matrix_power(matrix.rows, 16)
        assert all(type(x) is Fraction for row in power.rows for x in row)
        pi = stationary_distribution(matrix)
        assert list(pi.weights) == fraction_oracle.stationary(matrix.rows)
        assert all(type(x) is Fraction for x in pi.weights)


@pytest.mark.parametrize("value", [2.0, True, "2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: matrix_power(TransitionMatrix(SBP_GRID), v),
        lambda v: n_step_distribution(sbp_chain(), v),
        lambda v: convergence_report(sbp_chain(), v),
        lambda v: period(TransitionMatrix(SBP_GRID), v),
    ],
    ids=["matrix_power", "n_step_distribution", "convergence_report", "period"],
)
def test_integer_arguments_reject_non_ints(call, value):
    with pytest.raises(ValueError, match="must be an int"):
        call(value)


MATRIX_TYPE = "matrix must be a TransitionMatrix, got "


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: matrix_power(5, 2), MATRIX_TYPE + "5", id="matrix_power"),
        pytest.param(lambda: n_step_distribution(5, 1), "chain must be a Chain, got 5", id="n_step_distribution"),
        pytest.param(lambda: stationary_distribution(5), MATRIX_TYPE + "5", id="stationary_distribution"),
        pytest.param(lambda: ergodicity_report(None), MATRIX_TYPE + "None", id="ergodicity_report"),
        pytest.param(lambda: convergence_report(5, 3), "chain must be a Chain, got 5", id="convergence_report"),
        pytest.param(lambda: period(5, 0), MATRIX_TYPE + "5", id="period"),
        pytest.param(lambda: is_irreducible(5), MATRIX_TYPE + "5", id="is_irreducible"),
        pytest.param(lambda: is_aperiodic(5), MATRIX_TYPE + "5", id="is_aperiodic"),
        pytest.param(lambda: is_ergodic(5), MATRIX_TYPE + "5", id="is_ergodic"),
        pytest.param(lambda: total_variation_distance(5, 5), "p must be a DistributionVector, got 5",
                     id="total_variation_distance"),
        pytest.param(lambda: total_variation_distance(sbp_chain().initial, SBP_GRID),
                     "q must be a DistributionVector, got [[", id="total_variation_distance-q"),
        pytest.param(lambda: expectation([1, 1, 1], 5), "pi must be a DistributionVector, got 5", id="expectation"),
        pytest.param(lambda: Chain(5, 5), "states must be a StateSpace, got 5", id="chain-states"),
        pytest.param(lambda: Chain(sbp_chain().states, SBP_GRID), MATRIX_TYPE + "[[", id="chain-grid"),
        pytest.param(lambda: Chain(sbp_chain().states, sbp_chain().matrix, 5),
                     "initial must be a DistributionVector, got 5", id="chain-initial"),
    ],
)
def test_typed_arguments_reject_other_types(call, message):
    # Each raised AttributeError or TypeError before its type was checked.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


# --- structure checks ------------------------------------------------------


class TestIrreducibility:
    def test_sbp_is_irreducible(self):
        assert is_irreducible(TransitionMatrix(SBP_GRID))

    def test_block_diagonal_is_not(self):
        assert not is_irreducible(BLOCK_DIAGONAL)

    def test_two_state_swap_is_irreducible(self):
        assert is_irreducible(SWAP)

    def test_matches_power_oracle(self):
        for matrix in (TransitionMatrix(SBP_GRID), SWAP, BLOCK_DIAGONAL, SINGLETON):
            assert is_irreducible(matrix) == brute_force_irreducible(matrix)

    def test_one_way_absorption_is_reducible(self):
        absorbing = TransitionMatrix([[HALF, HALF], [0, 1]])
        assert not is_irreducible(absorbing)
        assert not brute_force_irreducible(absorbing)


class TestPeriod:
    def test_sbp_period_one(self):
        assert period(TransitionMatrix(SBP_GRID), 0) == 1

    def test_swap_period_two(self):
        assert period(SWAP, 0) == 2

    def test_singleton_self_loop(self):
        assert period(SINGLETON, 0) == 1

    def test_three_cycle(self):
        cycle = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert period(cycle, 0) == 3

    def test_matches_return_time_oracle(self):
        cycle = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        for matrix in (TransitionMatrix(SBP_GRID), SWAP, SINGLETON, cycle):
            for i in range(matrix.dimension):
                assert period(matrix, i) == brute_force_period(matrix, i)

    def test_requires_irreducible(self):
        with pytest.raises(NotIrreducible):
            period(BLOCK_DIAGONAL, 0)

    def test_state_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            period(SWAP, 5)


class TestAperiodicityAndErgodicity:
    def test_sbp(self):
        p = TransitionMatrix(SBP_GRID)
        assert is_aperiodic(p)
        assert is_ergodic(p)

    def test_swap_is_periodic(self):
        assert not is_aperiodic(SWAP)
        assert not is_ergodic(SWAP)

    def test_self_loop_forces_aperiodicity(self):
        lazy = TransitionMatrix([[HALF, HALF], [HALF, HALF]])
        assert is_aperiodic(lazy)

    def test_reducible_is_not_ergodic(self):
        assert not is_ergodic(BLOCK_DIAGONAL)

    def test_aperiodicity_requires_irreducible(self):
        with pytest.raises(NotIrreducible):
            is_aperiodic(BLOCK_DIAGONAL)


class TestStationaryDistribution:
    def test_sbp_uniform(self):
        pi = stationary_distribution(TransitionMatrix(SBP_GRID))
        assert pi.weights == (THIRD, THIRD, THIRD)

    def test_swap_half_half(self):
        # Periodic but irreducible: stationary distribution still unique.
        assert stationary_distribution(SWAP).weights == (HALF, HALF)

    def test_singleton(self):
        assert stationary_distribution(SINGLETON).weights == (Fraction(1),)

    def test_fixed_point_exactly(self):
        pi = stationary_distribution(TransitionMatrix(SBP_GRID))
        chain = new_chain(("M_H", "M_T", "Tu"), SBP_GRID, initial=pi.weights)
        assert n_step_distribution(chain, 2) == pi

    def test_asymmetric_chain(self):
        # pi solves pi P = pi: pi = [b/(a+b), a/(a+b)] for P = [[1-a, a], [b, 1-b]].
        p = TransitionMatrix([[Fraction(3, 4), Fraction(1, 4)], [HALF, HALF]])
        assert stationary_distribution(p).weights == (Fraction(2, 3), THIRD)

    def test_refuses_reducible(self):
        with pytest.raises(NotIrreducible):
            stationary_distribution(BLOCK_DIAGONAL)


class TestTotalVariation:
    def test_identical_distributions(self):
        p = DistributionVector([HALF, HALF, 0])
        assert total_variation_distance(p, p) == 0

    def test_disjoint_support(self):
        p = DistributionVector([1, 0, 0])
        q = DistributionVector([0, 1, 0])
        assert total_variation_distance(p, q) == 1

    def test_second_step_distance(self):
        p = DistributionVector([Fraction(1, 4), Fraction(1, 4), HALF])
        pi = DistributionVector([THIRD, THIRD, THIRD])
        assert total_variation_distance(p, pi) == Fraction(1, 6)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            total_variation_distance(
                DistributionVector([1]), DistributionVector([HALF, HALF])
            )


class TestExpectation:
    def test_indicator_of_first_state(self):
        pi = DistributionVector([THIRD, THIRD, THIRD])
        assert expectation([1, 0, 0], pi) == THIRD

    def test_constant_one_normalizes(self):
        pi = DistributionVector([Fraction(1, 5), Fraction(4, 5)])
        assert expectation([1, 1], pi) == 1

    def test_linear_values(self):
        pi = DistributionVector([THIRD, THIRD, THIRD])
        assert expectation([1, 2, 3], pi) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation([1, 2], DistributionVector([1]))

    @pytest.mark.parametrize(
        "values", [(v for v in [1, 0, 0]), None, "100"], ids=["generator", "None", "string"]
    )
    def test_values_must_be_a_list_or_tuple(self, values):
        with pytest.raises(MarkovError, match="function values must be a list or tuple"):
            expectation(values, DistributionVector([THIRD, THIRD, THIRD]))

    def test_float_values_rejected(self):
        with pytest.raises(TypeError, match="floats are not accepted"):
            expectation([0.5, 0, 0], DistributionVector([THIRD, THIRD, THIRD]))


class TestErgodicityReport:
    def test_sbp_report(self):
        report = ergodicity_report(TransitionMatrix(SBP_GRID))
        assert report.irreducible and report.aperiodic and report.ergodic
        assert report.period == 1
        assert report.stationary.weights == (THIRD, THIRD, THIRD)

    def test_swap_report(self):
        report = ergodicity_report(SWAP)
        assert report.irreducible and not report.aperiodic and not report.ergodic
        assert report.period == 2
        assert report.stationary.weights == (HALF, HALF)

    def test_reducible_report(self):
        report = ergodicity_report(BLOCK_DIAGONAL)
        assert not report.irreducible and not report.ergodic
        assert report.period is None
        assert report.stationary is None

    def test_report_needs_period_and_stationary_iff_irreducible(self):
        with pytest.raises(MarkovError, match="iff irreducible"):
            ErgodicityReport(irreducible=True, period=1, stationary=None)
        with pytest.raises(MarkovError, match="iff irreducible"):
            ErgodicityReport(irreducible=False, period=2, stationary=None)

    def test_irreducibility_decided_once(self, monkeypatch):
        calls = []
        check = markov_core._structure
        monkeypatch.setattr(
            markov_core, "_structure", lambda matrix: calls.append(matrix) or check(matrix)
        )
        ergodicity_report(TransitionMatrix(SBP_GRID))
        assert len(calls) == 1
        convergence_report(sbp_chain(), 3)
        assert len(calls) == 2


class TestKeptFacts:
    """A matrix works out its integer rows, period and stationary law once,
    and keeps them where equality, hashing and repr do not look."""

    def test_bench_sequence_works_each_fact_out_once(self, monkeypatch):
        chain = sbp_chain()
        calls = {"_structure": 0, "_stationary": 0, "_scaled": 0}

        def counted(name):
            real = getattr(markov_core, name)

            def call(arg):
                if name != "_scaled" or arg is chain.matrix.rows:
                    calls[name] += 1
                return real(arg)

            return call

        for name in list(calls):
            monkeypatch.setattr(markov_core, name, counted(name))
        ergodicity_report(chain.matrix)
        stationary_distribution(chain.matrix)
        matrix_power(chain.matrix, 32)
        n_step_distribution(chain, 33)
        convergence_report(chain, 33)
        period(chain.matrix, 0)
        # Worked out in each call instead, they would run 4, 3 and 6 times.
        assert calls == {"_structure": 1, "_stationary": 1, "_scaled": 1}

    @pytest.mark.parametrize(
        "grid", [SBP_GRID, SWAP.rows, BLOCK_DIAGONAL.rows], ids=["ergodic", "periodic", "reducible"]
    )
    def test_reading_facts_changes_nothing_seen(self, grid):
        fresh, read = TransitionMatrix(grid), TransitionMatrix(grid)
        report = ergodicity_report(read)
        matrix_power(read, 3)
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert [field.name for field in dataclasses.fields(read)] == ["rows"]
        for copied in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read)):
            assert copied == fresh
            assert ergodicity_report(copied) == report == ergodicity_report(fresh)


class TestConvergenceReport:
    def test_first_row(self):
        rows = convergence_report(sbp_chain(), 1)
        assert rows == [(1, DistributionVector([HALF, HALF, 0]), THIRD)]

    def test_second_row_distance(self):
        rows = convergence_report(sbp_chain(), 2)
        assert rows[1].distance == Fraction(1, 6)

    def test_stationary_initial_has_zero_distance(self):
        chain = new_chain(("M_H", "M_T", "Tu"), SBP_GRID, initial=[THIRD, THIRD, THIRD])
        assert all(row.distance == 0 for row in convergence_report(chain, 8))

    def test_distances_strictly_decreasing(self):
        rows = convergence_report(sbp_chain(), 20)
        distances = [row.distance for row in rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_requires_ergodic(self):
        chain = new_chain(["a", "b"], [[0, 1], [1, 0]], initial=[1, 0])
        with pytest.raises(NotErgodic):
            convergence_report(chain, 3)

    def test_requires_initial(self):
        chain = new_chain(("M_H", "M_T", "Tu"), SBP_GRID)
        with pytest.raises(MissingInitialDistribution):
            convergence_report(chain, 3)
