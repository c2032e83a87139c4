"""Unit tests for the exact chain machinery.

The structural checks (irreducibility, period) are verified against
independent brute-force oracles that work directly from matrix powers,
not from the graph algorithms under test.
"""

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

    def test_initial_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_chain(["a", "b"], [[1, 0], [0, 1]], initial=[1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError, match="floats are not accepted"):
            TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])

    def test_distribution_negative_weight(self):
        with pytest.raises(NonStochasticRow):
            DistributionVector([Fraction(3, 2), Fraction(-1, 2)])

    def test_string_entries_accepted(self):
        matrix = TransitionMatrix([["1/2", "1/2"], ["1/3", "2/3"]])
        assert matrix.rows[1][0] == THIRD


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
        check = markov_core.is_irreducible
        monkeypatch.setattr(
            markov_core, "is_irreducible", lambda matrix: calls.append(matrix) or check(matrix)
        )
        ergodicity_report(TransitionMatrix(SBP_GRID))
        assert len(calls) == 1
        convergence_report(sbp_chain(), 3)
        assert len(calls) == 2


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
