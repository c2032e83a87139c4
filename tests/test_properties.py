"""Property-based tests over random chains, coin sequences, and runs."""

import bisect
import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from sbchain import cli, markov_core, simulation
from sbchain.markov_core import (
    Chain,
    DistributionVector,
    NotIrreducible,
    StateSpace,
    TransitionMatrix,
    convergence_report,
    ergodicity_report,
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
from sbchain.sbp_model import (
    Awakening,
    Observation,
    Toss,
    decode_observations,
    encode_coins,
    exact_distribution,
    format_tokens,
    project_labels,
    validate_labeled_sequence,
)
from sbchain.simulation import (
    BLOCK_SIZE,
    GENERATOR_NAME,
    Checkpoint,
    SimulationConfig,
    SimulationRecord,
    _draws,
    _fold,
    forced_run,
    lln_trace,
    record_from_json,
    record_to_csv,
    record_to_json,
    run_simulation,
    state_frequencies,
)
import fraction_oracle
import record_oracle
import sequence_oracle
import toss_oracle
from test_markov_core import brute_force_irreducible, brute_force_period, mul
from test_simulation import oracle_heads, oracle_trace


@st.composite
def stochastic_matrices(draw, max_dim=4):
    """Random row-stochastic matrix with small-denominator rational entries."""
    k = draw(st.integers(1, max_dim))
    rows = []
    for _ in range(k):
        weights = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
        if sum(weights) == 0:
            weights[draw(st.integers(0, k - 1))] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return TransitionMatrix(rows)


@st.composite
def positive_matrices(draw, max_dim=4):
    """Entrywise-positive stochastic matrix: irreducible and aperiodic."""
    k = draw(st.integers(1, max_dim))
    rows = []
    for _ in range(k):
        weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return TransitionMatrix(rows)


@st.composite
def periodic_matrices(draw, max_dim=6):
    """Irreducible matrix of period p >= 2: states split into p non-empty
    classes, and each row spreads positive weight over the next class only."""
    k = draw(st.integers(2, max_dim))
    p = draw(st.integers(2, k))
    cls = list(range(p)) + draw(st.lists(st.integers(0, p - 1), min_size=k - p, max_size=k - p))
    rows = []
    for c in cls:
        targets = [j for j in range(k) if cls[j] == (c + 1) % p]
        weights = draw(st.lists(st.integers(1, 6), min_size=len(targets), max_size=len(targets)))
        row = [Fraction(0)] * k
        for j, w in zip(targets, weights):
            row[j] = Fraction(w, sum(weights))
        rows.append(row)
    return TransitionMatrix(rows)


@st.composite
def distributions(draw, k):
    weights = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    if sum(weights) == 0:
        weights[draw(st.integers(0, k - 1))] = 1
    total = sum(weights)
    return DistributionVector([Fraction(w, total) for w in weights])


coin_sequences = st.lists(st.sampled_from("HT"), min_size=1, max_size=60)


class TestMatrixProperties:
    @given(stochastic_matrices(), st.integers(0, 8))
    def test_powers_stay_stochastic(self, matrix, n):
        for row in matrix_power(matrix, n).rows:
            assert sum(row) == 1
            assert all(0 <= entry <= 1 for entry in row)

    @given(stochastic_matrices(max_dim=3), st.integers(0, 5), st.integers(0, 5))
    def test_power_exponent_law(self, matrix, a, b):
        combined = matrix_power(matrix, a + b)
        split = mul(
            [list(r) for r in matrix_power(matrix, a).rows],
            [list(r) for r in matrix_power(matrix, b).rows],
        )
        assert [list(r) for r in combined.rows] == split

    @given(stochastic_matrices())
    def test_irreducibility_matches_power_oracle(self, matrix):
        assert is_irreducible(matrix) == brute_force_irreducible(matrix)

    @given(stochastic_matrices())
    def test_period_consistent_across_states(self, matrix):
        if not is_irreducible(matrix):
            return
        periods = {period(matrix, i) for i in range(matrix.dimension)}
        assert len(periods) == 1

    @given(stochastic_matrices(max_dim=3))
    @settings(max_examples=60)
    def test_period_matches_return_time_oracle(self, matrix):
        if not is_irreducible(matrix):
            return
        assert period(matrix, 0) == brute_force_period(matrix, 0)

    @given(positive_matrices())
    def test_stationary_is_exact_fixed_point(self, matrix):
        pi = stationary_distribution(matrix)
        k = matrix.dimension
        image = tuple(
            sum(pi[i] * matrix.entry(i, j) for i in range(k)) for j in range(k)
        )
        assert image == pi.weights
        assert sum(pi.weights) == 1


class TestDistributionProperties:
    @given(st.data(), stochastic_matrices(), st.integers(1, 10))
    def test_step_recursion(self, data, matrix, n):
        k = matrix.dimension
        initial = data.draw(distributions(k))
        labels = [f"s{i}" for i in range(k)]
        chain = new_chain(labels, [list(r) for r in matrix.rows], initial.weights)
        stepped = n_step_distribution(chain, n + 1).weights
        manual = tuple(
            sum(
                n_step_distribution(chain, n)[i] * matrix.entry(i, j)
                for i in range(k)
            )
            for j in range(k)
        )
        assert stepped == manual

    @given(st.data(), st.integers(1, 5))
    def test_total_variation_is_a_metric(self, data, k):
        p = data.draw(distributions(k))
        q = data.draw(distributions(k))
        r = data.draw(distributions(k))
        assert total_variation_distance(p, q) == total_variation_distance(q, p)
        assert total_variation_distance(p, q) >= 0
        assert (total_variation_distance(p, q) == 0) == (p == q)
        assert total_variation_distance(p, r) <= total_variation_distance(
            p, q
        ) + total_variation_distance(q, r)


def started(matrix):
    """A chain over ``matrix`` itself, so that it reads the matrix's kept facts."""
    k = matrix.dimension
    states = StateSpace([f"s{i}" for i in range(k)])
    return Chain(states, matrix, DistributionVector([1] + [0] * (k - 1)))


FACT_QUERIES = {
    "report": ergodicity_report,
    "stationary": stationary_distribution,
    "irreducible": is_irreducible,
    "aperiodic": is_aperiodic,
    "ergodic": is_ergodic,
    "period": lambda matrix: period(matrix, matrix.dimension - 1),
    "power": lambda matrix: matrix_power(matrix, 5),
    "n_step": lambda matrix: n_step_distribution(started(matrix), 6),
    "convergence": lambda matrix: convergence_report(started(matrix), 4),
}


def outcome(query, matrix):
    """What ``query`` returns for ``matrix``, or the type and text of its error."""
    try:
        return query(matrix)
    except markov_core.MarkovError as exc:
        return type(exc), str(exc)


class TestKeptFacts:
    @given(
        st.one_of(stochastic_matrices(), periodic_matrices()),
        st.permutations(sorted(FACT_QUERIES)),
    )
    @example(TransitionMatrix([[1, 0], [0, 1]]), sorted(FACT_QUERIES))
    @example(TransitionMatrix([[0, 1], [1, 0]]), sorted(FACT_QUERIES, reverse=True))
    @settings(deadline=None)
    def test_any_order_reads_what_a_fresh_matrix_gives(self, matrix, order):
        for name in order + order:
            query = FACT_QUERIES[name]
            assert outcome(query, matrix) == outcome(query, TransitionMatrix(matrix.rows))
        if not is_irreducible(matrix):
            for _ in range(3):
                with pytest.raises(NotIrreducible):
                    stationary_distribution(matrix)


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


class TestFractionOracle:
    """The integer kernel equals the plain Fraction routines exactly."""

    @given(st.one_of(stochastic_matrices(max_dim=6), periodic_matrices()), st.integers(0, 9))
    @settings(deadline=None)
    def test_matrix_power(self, matrix, n):
        power = matrix_power(matrix, n)
        assert power.rows == fraction_oracle.matrix_power(matrix.rows, n)
        assert all(all_fractions(row) for row in power.rows)

    @given(st.data(), stochastic_matrices(max_dim=6), st.integers(1, 10))
    @settings(deadline=None)
    def test_n_step_distribution(self, data, matrix, n):
        initial = data.draw(distributions(matrix.dimension))
        chain = new_chain([f"s{i}" for i in range(matrix.dimension)], matrix.rows, initial.weights)
        dist = n_step_distribution(chain, n)
        assert dist.weights == fraction_oracle.n_step_distribution(matrix.rows, initial.weights, n)
        assert all_fractions(dist.weights)

    @given(st.one_of(stochastic_matrices(max_dim=6).filter(is_irreducible), periodic_matrices()))
    @settings(deadline=None)
    def test_stationary_distribution(self, matrix):
        pi = stationary_distribution(matrix)
        assert list(pi.weights) == fraction_oracle.stationary(matrix.rows)
        assert all_fractions(pi.weights)

    @given(st.data(), stochastic_matrices(max_dim=6).filter(is_ergodic), st.integers(1, 10))
    @settings(deadline=None)
    def test_convergence_report(self, data, matrix, n_max):
        initial = data.draw(distributions(matrix.dimension))
        chain = new_chain([f"s{i}" for i in range(matrix.dimension)], matrix.rows, initial.weights)
        rows = convergence_report(chain, n_max)
        expected = fraction_oracle.convergence(matrix.rows, initial.weights, n_max)
        assert [(row.distribution.weights, row.distance) for row in rows] == expected
        assert [row.n for row in rows] == list(range(1, n_max + 1))
        assert all(all_fractions(row.distribution.weights + (row.distance,)) for row in rows)


def assert_stored_stochastic(weights):
    """``weights`` is a tuple of Fractions that the public check passes unchanged."""
    assert type(weights) is tuple and all_fractions(weights)
    assert markov_core._stochastic(weights, "law") == weights


class TestDerivedLaws:
    """Laws the core derives skip the stochastic check; they must still pass it."""

    @given(st.data(), st.one_of(stochastic_matrices(max_dim=6), periodic_matrices()))
    @settings(deadline=None)
    def test_every_derived_law_is_stochastic(self, data, matrix):
        k = matrix.dimension
        power = matrix_power(matrix, data.draw(st.integers(0, 9)))
        assert type(power.rows) is tuple
        for row in power.rows:
            assert_stored_stochastic(row)
        initial = data.draw(distributions(k))
        chain = new_chain([f"s{i}" for i in range(k)], matrix.rows, initial.weights)
        # n = 2 always steps the row and n = 33 always powers it at these k
        # (32 > 5 k + 1 for k <= 6); a drawn n falls on either side.
        for n in (1, 2, 33, data.draw(st.integers(1, 40))):
            assert_stored_stochastic(n_step_distribution(chain, n).weights)
        report = ergodicity_report(matrix)
        if report.irreducible:
            assert_stored_stochastic(report.stationary.weights)
            assert_stored_stochastic(stationary_distribution(matrix).weights)
        if report.ergodic:
            for row in convergence_report(chain, data.draw(st.integers(1, 12))):
                assert_stored_stochastic(row.distribution.weights)

    def test_closed_form_is_stochastic(self):
        for n in range(1, 301):
            assert_stored_stochastic(exact_distribution(n).weights)


def checked(fn, *args):
    """What ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# 2^61 - 1 is prime, so an entry off by 1/P leaves a sum no small lcm can hide.
P = 2**61 - 1


@st.composite
def written(draw, q):
    """``q`` as a Fraction, an "a/b" string not always in lowest terms, or an int."""
    scale = draw(st.integers(1, 4))
    forms = [q, f"{q.numerator * scale}/{q.denominator * scale}"]
    if q.denominator == 1:
        forms += [q.numerator, str(q.numerator)]
    return draw(st.sampled_from(forms))


@st.composite
def candidate_rows(draw):
    """Rows of every kind the stochastic check meets: good, off by 1/P, out of
    [0, 1], arbitrary, or holding one item that is not an exact rational."""
    k = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k))
    entries = [Fraction(w, sum(weights) or 1) for w in weights]
    j = draw(st.integers(0, k - 1))
    flaw = draw(st.sampled_from(["none", "off", "outside", "arbitrary", "item"]))
    if flaw == "off":
        entries[j] += draw(st.sampled_from([1, -1])) * Fraction(1, P)
    elif flaw == "outside":
        entries[j] = draw(st.sampled_from([Fraction(-1, P), 1 + Fraction(1, P), -2, 3]))
        if draw(st.booleans()):
            entries[(j + 1) % k] += Fraction(1) - sum(entries)
    elif flaw == "arbitrary":
        entries = [Fraction(draw(st.integers(-3, 7)), draw(st.integers(1, 5))) for _ in entries]
    row = [draw(written(Fraction(e))) for e in entries]
    if flaw == "item":
        row[j] = draw(st.sampled_from([0.5, True, None, "0.5", "1/0", "1/-2", "\u0661/\u0662"]))
    return row


@st.composite
def wide_distributions(draw, k):
    weights = draw(st.lists(st.integers(0, 10**12), min_size=k, max_size=k))
    if sum(weights) == 0:
        weights[draw(st.integers(0, k - 1))] = 1
    return DistributionVector([Fraction(w, sum(weights)) for w in weights])


class TestIntegerCheckOracle:
    """The integer stochastic check and TV distance equal the Fraction ones."""

    @given(candidate_rows(), st.sampled_from(["row 0", "distribution"]))
    def test_stochastic(self, row, name):
        got = checked(markov_core._stochastic, row, name)
        assert got == checked(fraction_oracle.stochastic, row, name)

    @given(candidate_rows())
    def test_distribution_vector(self, row):
        got = checked(lambda r: DistributionVector(r).weights, row)
        assert got == checked(fraction_oracle.stochastic, row, "distribution")

    @given(st.data(), st.integers(1, 6), st.sampled_from([0, 0, 0, 1]))
    def test_total_variation_distance(self, data, k, extra):
        p = data.draw(wide_distributions(k))
        q = data.draw(wide_distributions(k + extra) | distributions(k + extra))
        for a, b in [(p, q), (q, p)]:
            got = checked(total_variation_distance, a, b)
            assert got == checked(fraction_oracle.total_variation_distance, a, b)


class TestSequenceProperties:
    @given(coin_sequences)
    def test_decode_inverts_project_after_encode(self, coins):
        labels = encode_coins(coins)
        assert decode_observations(project_labels(labels), complete=True) == labels

    @given(coin_sequences)
    def test_encoded_stream_structure(self, coins):
        labels = encode_coins(coins)
        validate_labeled_sequence(labels)
        assert labels[0] is not Awakening.TU
        assert labels.count(Awakening.M_T) == labels.count(Awakening.TU)
        assert len(labels) == coins.count("H") + 2 * coins.count("T")
        for a, b in zip(labels, labels[1:]):
            assert not (a is Awakening.TU and b is Awakening.TU)

    @given(coin_sequences)
    def test_encoded_length_counts_awakenings(self, coins):
        record = forced_run(coins)
        assert record.total_awakenings == len(encode_coins(coins))


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


observations = st.lists(st.sampled_from(list(Observation)), max_size=12)
awakenings = st.lists(st.sampled_from(list(Awakening)), max_size=12)
coin_items = st.lists(
    st.sampled_from([Toss.HEADS, Toss.TAILS, "H", "t", " h ", "X", None, []]), max_size=10
)
strangers = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.integers(),
    st.sampled_from([*Toss, *Observation, *Awakening]),
)


class TestSequenceOracle:
    """The table-driven converters equal the branchy reference on members, and
    reject any other item at its own position."""

    # Each side gets its own copy of the coins, as a list or a one-pass iterator.
    @given(coin_items, st.sampled_from([list, iter]))
    def test_encode_coins(self, coins, form):
        assert outcome(encode_coins, form(coins)) == outcome(sequence_oracle.encode_coins, form(coins))

    @given(coin_items, st.sampled_from([list, iter]))
    def test_forced_run_counts_heads(self, coins, form):
        heads = outcome(lambda c: forced_run(c).heads_experiments, form(coins))
        assert heads == outcome(sequence_oracle.forced_heads, form(coins))

    @given(awakenings)
    def test_project_labels(self, seq):
        assert outcome(project_labels, seq) == outcome(sequence_oracle.project_labels, seq)

    @given(observations, st.booleans())
    def test_decode_observations(self, obs, complete):
        assert outcome(decode_observations, obs, complete) == outcome(
            sequence_oracle.decode_observations, obs, complete
        )

    @given(
        st.one_of(
            awakenings,
            coin_sequences.map(encode_coins),
            coin_sequences.map(lambda coins: [*encode_coins(coins), Awakening.UNDETERMINED]),
        )
    )
    def test_validate_labeled_sequence(self, seq):
        assert outcome(validate_labeled_sequence, seq) == outcome(
            sequence_oracle.validate_labeled_sequence, seq
        )

    @given(coin_sequences, st.data())
    def test_non_member_names_its_position(self, coins, data):
        labels = encode_coins(coins)
        observed = project_labels(labels)
        for convert, base, kind, expected in [
            (project_labels, labels, Awakening, "an Awakening"),
            (validate_labeled_sequence, labels, Awakening, "an Awakening"),
            (lambda obs: decode_observations(obs, data.draw(st.booleans())), observed, Observation,
             "an Observation"),
            (format_tokens, labels, (Toss, Awakening, Observation), "a Toss, Awakening or Observation"),
        ]:
            item = data.draw(strangers.filter(lambda x: not isinstance(x, kind)))
            i = data.draw(st.integers(0, len(base)))
            with pytest.raises(ValueError) as info:
                convert([*base[:i], item, *base[i:]])
            assert str(info.value) == f"position {i}: expected {expected}, got {item!r}"


class TestRunProperties:
    @given(coin_sequences)
    def test_camp_identity(self, coins):
        # Exact link between the camps: per-awakening frequency h/(2-h)
        # where h is the per-experiment frequency.
        record = forced_run(coins)
        h = Fraction(record.heads_experiments, record.total_experiments)
        thirder = Fraction(record.heads_awakenings, record.total_awakenings)
        assert thirder == h / (2 - h)

    @given(coin_sequences)
    def test_tails_states_balance_exactly(self, coins):
        record = forced_run(coins)
        counts = record.state_counts
        assert counts.m_t == counts.tu
        assert counts.m_h + counts.m_t + counts.tu == record.total_awakenings
        freqs = state_frequencies(record)
        assert freqs[1] == freqs[2]

    @given(st.integers(0, 2**32), st.integers(1, 500))
    @settings(max_examples=40)
    def test_seeded_run_satisfies_camp_identity(self, seed, n):
        cfg = SimulationConfig(seed=seed, n_experiments=n, checkpoint_stride=n)
        record = run_simulation(cfg)
        h = Fraction(record.heads_experiments, record.total_experiments)
        assert Fraction(record.heads_awakenings, record.total_awakenings) == h / (2 - h)

    @given(
        st.integers(0, 2**32),
        st.integers(1, 300),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_constant_function_averages_exactly(self, seed, n, c):
        cfg = SimulationConfig(seed=seed, n_experiments=n, checkpoint_stride=64)
        f = {Awakening.M_H: c, Awakening.M_T: c, Awakening.TU: c}
        trace = lln_trace(cfg, f)
        assert all(avg == c for _, avg in trace.running_averages)


# Properties over large outputs run without Hypothesis's explain phase, which
# traces every line a failing example runs: over 1e5 elements that takes
# minutes and gigabytes. They report a failure by its first differing item,
# as pytest's diff of two long sequences takes as much.
NO_EXPLAIN = [p for p in Phase if p is not Phase.explain]


def assert_same(observed, expected):
    """``observed == expected``, a failure naming only the first differing item."""
    if observed != expected:
        pairs = enumerate(itertools.zip_longest(observed, expected))
        first = next(((i, o, e) for i, (o, e) in pairs if o != e), None)
        pytest.fail(f"first differing (index, observed, expected): {first}", pytrace=False)


# Whole blocks and any part of one, with extra weight on counts below 8 and
# counts that are not a multiple of 4 or 8, where a byte reader could slip.
block_counts = st.integers(1, BLOCK_SIZE) | st.integers(1, 17) | st.sampled_from(
    [9, 13, 4095, 4097, 4098, BLOCK_SIZE - 3, BLOCK_SIZE - 1, BLOCK_SIZE]
)


class TestTossStreamOracle:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), block_counts)
    @settings(deadline=None, phases=NO_EXPLAIN)
    def test_block_heads_equal_generator_integers(self, seed, block_index, count):
        expected = toss_oracle.block_heads(seed, block_index, count)
        assert_same(next(_draws(seed, [(block_index, count)])).tolist(), expected.tolist())

    # The pure-Python Philox costs about 0.3 µs a toss, so draws stay short
    # here and one whole block is checked below.
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 4099))
    @settings(deadline=None, phases=NO_EXPLAIN)
    def test_block_heads_equal_published_philox(self, seed, block_index, count):
        expected = toss_oracle.philox_heads(seed, block_index, count)
        assert_same(next(_draws(seed, [(block_index, count)])).tolist(), expected)

    def test_whole_block_equals_published_philox(self):
        top = 2**64 - 1
        assert next(_draws(top, [(top, BLOCK_SIZE)])).tolist() == toss_oracle.philox_heads(top, top, BLOCK_SIZE)


@st.composite
def fold_blocks(draw):
    """One to three blocks, whole but for perhaps the last: seeded tosses, all
    Heads (a(j) = j) or all Tails (a(j) = 2j), the two ends of j <= a(j) <= 2j."""
    sizes = [BLOCK_SIZE] * draw(st.integers(0, 2)) + [draw(block_counts)]
    seed = draw(st.integers(0, 2**64 - 1))
    kinds = st.sampled_from(["seeded", "heads", "tails"])
    return [
        toss_oracle.block_heads(seed, b, size) if kind == "seeded" else np.full(size, kind == "heads", np.uint8)
        for b, (size, kind) in enumerate(zip(sizes, draw(st.lists(kinds, min_size=len(sizes), max_size=len(sizes)))))
    ]


# Marks on the first and last toss of a block, and odd strides over Tails,
# whose awakening marks fall on the first count of their span.
fold_strides = st.integers(1, 3 * BLOCK_SIZE) | st.sampled_from(
    [1, 3, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE - 1, 2 * BLOCK_SIZE, 2 * BLOCK_SIZE + 1]
)


def lone_awakening_marks(test):
    """Examples with one awakening mark in the second of two all-Heads or
    all-Tails blocks (H = L or H = 0, where the span's bounds are tight), on
    its first, middle and last awakening; the second block whole or not."""
    for kind in (1, 0):
        for size in (BLOCK_SIZE, 999):
            blocks = [np.full(BLOCK_SIZE, kind, np.uint8), np.full(size, kind, np.uint8)]
            before, wakes = (2 - kind) * BLOCK_SIZE, (2 - kind) * size
            for r in (1, wakes // 2, wakes):
                test = example(blocks=blocks, stride=before + r, per_awakening=True)(test)
    return test


class TestSpanFoldOracle:
    @given(fold_blocks(), fold_strides, st.booleans())
    @lone_awakening_marks
    @settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
    def test_fold_equals_running_counts(self, blocks, stride, per_awakening):
        # Heads, and units (experiments or awakenings), after the first j tosses.
        heads = [0, *itertools.accumulate(t for block in blocks for t in block.tolist())]
        units = [2 * j - h for j, h in enumerate(heads)] if per_awakening else range(len(heads))
        expected = []
        for q in record_oracle.checkpoint_marks(units[-1], stride):
            j = bisect.bisect_right(units, q) - 1
            expected.append((q, j, heads[j]))
        folded = _fold(iter(blocks), stride, per_awakening)
        assert_same([row for arrays in folded for row in zip(*(a.tolist() for a in arrays))], expected)

    @given(fold_blocks(), fold_strides, st.integers(0, 2**64 - 1))
    @settings(max_examples=20, deadline=None, phases=NO_EXPLAIN)
    def test_fold_records_pass_the_construction_check(self, blocks, stride, seed):
        # The records that the fold derives are built unchecked; the check
        # that a caller's record goes through accepts each of them as it is.
        heads = np.concatenate(blocks)
        coins = np.where(heads, "H", "T").tolist()
        for record in (forced_run(coins, stride), run_simulation(SimulationConfig(seed, len(coins), stride))):
            columns = record.checkpoints._columns
            assert [(c.dtype, c.flags.writeable) for c in columns] == [(np.int64, False)] * 2
            assert record == SimulationRecord(record.config, tuple(record.checkpoints))


# --- record boundary ----------------------------------------------------------

record_coins = st.lists(st.sampled_from("HT"), min_size=1, max_size=200)
record_strides = st.integers(1, 50)


def leaf_paths(node, path=()):
    """Paths to every scalar in a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def changed_leaf(data, record):
    """The JSON document of ``record`` with one leaf drawn and changed."""
    doc = json.loads(record_to_json(record))
    *parents, last = data.draw(st.sampled_from(list(leaf_paths(doc))))
    target = doc
    for key in parents:
        target = target[key]
    value = target[last]
    up = data.draw(st.booleans())
    if isinstance(value, int):
        target[last] = value + (1 if up else -1)
    elif isinstance(value, float):
        target[last] = math.nextafter(value, math.inf if up else -math.inf)
    else:
        target[last] = None if isinstance(value, str) else GENERATOR_NAME
    return doc


class TestRecordBoundary:
    @given(record_coins, record_strides)
    def test_json_round_trips_both_ways(self, coins, stride):
        record = forced_run(coins, checkpoint_stride=stride)
        text = record_to_json(record)
        assert record_from_json(text) == record
        assert record_to_json(record_from_json(text)) == text

    @given(st.data(), record_coins, record_strides)
    def test_any_changed_leaf_is_rejected(self, data, coins, stride):
        # Every leaf of a forced record follows from its coins, so no single
        # changed value describes a record the writer could have produced.
        doc = changed_leaf(data, forced_run(coins, checkpoint_stride=stride))
        with pytest.raises(ValueError):
            record_from_json(json.dumps(doc))

    @given(st.data(), record_coins, record_strides)
    def test_any_changed_leaf_is_rejected_in_the_written_layout(self, data, coins, stride):
        # indent=2 lays the changed document out as the writer does, so the
        # reader first renders its candidate, which must then decline.
        doc = changed_leaf(data, forced_run(coins, checkpoint_stride=stride))
        with pytest.raises(ValueError) as compact:
            record_from_json(json.dumps(doc))
        with pytest.raises(ValueError) as written:
            record_from_json(json.dumps(doc, indent=2))
        assert str(written.value) == str(compact.value)

    @given(st.data(), record_coins, record_strides, st.integers(0, 2**64 - 1), st.booleans())
    @settings(deadline=None)
    def test_edited_text_reads_as_json_reads_it(self, data, coins, stride, seed, seeded):
        # Only the writer's own bytes may skip json.loads: any other text
        # gives the record, or the error, that the json path gives.
        if seeded:
            record = run_simulation(SimulationConfig(seed, len(coins), stride))
        else:
            record = forced_run(coins, checkpoint_stride=stride)
        text = record_to_json(record)
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            i = data.draw(st.integers(0, len(text)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            put = data.draw(st.sampled_from(["", *'0123456789 \n,.-e"}]']), label="put")
            text = text[:i] + put + text[i + cut:]
        assert checked(record_from_json, text) == checked(simulation._loads, text)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 3000), st.integers(1, 3000))
    @example(seed=3, n=100, stride=1)  # about 140 bytes of text per experiment: re-run
    @example(seed=3, n=3000, stride=3000)  # one row, about 0.14 bytes: json.loads
    @settings(deadline=None)
    def test_rerun_and_json_loads_agree(self, seed, n, stride):
        # A seeded record is re-run from its config when n <= len(text) // 2,
        # and read by json.loads otherwise; both give the record that json.loads
        # gives for the same document in another layout.
        record = run_simulation(SimulationConfig(seed, n, stride))
        text = record_to_json(record)
        runs = []

        def run(config):
            runs.append(run_simulation(config))
            return runs[-1]

        loads = mock.Mock(wraps=simulation._loads)
        with mock.patch.object(simulation, "run_simulation", run), mock.patch.object(simulation, "_loads", loads):
            read = record_from_json(text)
        assert read == record
        rerun = n <= len(text) // 2
        assert len(runs) == rerun
        assert loads.call_count == (not rerun)
        if rerun:
            assert read is runs[0]
        assert simulation._loads(text) == record
        assert simulation._loads(json.dumps(json.loads(text))) == record

    @given(record_coins, record_strides, st.integers(0, 2**64 - 1), st.booleans())
    @settings(deadline=None)
    def test_kept_columns_write_what_their_checkpoints_write(self, coins, stride, seed, seeded):
        # Engine and reader records keep their int64 columns; a plain tuple
        # of the same checkpoints is walked int by int.
        if seeded:
            record = run_simulation(SimulationConfig(seed, len(coins), stride))
        else:
            record = forced_run(coins, checkpoint_stride=stride)
        for kept in (record, record_from_json(record_to_json(record))):
            plain = SimulationRecord(kept.config, tuple(kept.checkpoints))
            for write in (record_to_json, record_to_csv):
                assert write(kept) == write(plain)

    @given(record_coins, record_strides, st.integers(0, 2**64 - 1), st.booleans())
    @settings(deadline=None)
    def test_each_checkpoint_reads_as_its_tuple_item(self, coins, stride, seed, seeded):
        if seeded:
            record = run_simulation(SimulationConfig(seed, len(coins), stride))
        else:
            record = forced_run(coins, checkpoint_stride=stride)
        for view in (record.checkpoints, record_from_json(record_to_json(record)).checkpoints):
            items = tuple(view)
            for i in range(-len(items), len(items)):
                assert view[i] == items[i]


def assert_writers_match_oracle(record):
    # Compared as lists of lines, so that a failure names the first
    # differing line.
    for write, oracle in [
        (record_to_json, record_oracle.record_to_json),
        (record_to_csv, record_oracle.record_to_csv),
    ]:
        assert_same(write(record).splitlines(True), oracle(record).splitlines(True))


# Anywhere up to three blocks, or within a few experiments of a block edge.
seeded_lengths = st.integers(1, 3 * BLOCK_SIZE + 5) | st.builds(
    lambda k, d: k * BLOCK_SIZE + d, st.integers(1, 3), st.integers(-2, 5)
)


@st.composite
def checkpoint_counts(draw):
    """(m, a) with 1 <= m <= 2**53 and m <= a <= 2m, weighted to the edges of
    the writers:
    - awakenings past 2**53;
    - a frequency on or next to a ".6f" rounding tie: p/128, whose x·1e6 is
      a half-integer for odd p, or p/(2·10**6), whose double lies within
      1e-10 of one;
    - a statistic p/q with short digits, q a power of 2 or of 10;
    - a statistic next to a 16-digit decimal, where repr needs 16 digits or
      17;
    - a halfer below 1e-4, which repr writes with an exponent;
    - h = 0 or h = m, whose statistics are 0.0 or 1.0."""
    kind = draw(st.sampled_from([
        "any", "past 2**53", "halfer", "thirder", "tails",
        "short", "16 digits", "below 1e-4", "0 or 1",
    ]))
    if kind == "any":
        m = draw(st.integers(1, 2**53))
        return m, draw(st.integers(m, 2 * m))
    if kind == "past 2**53":
        m = draw(st.integers(2**52 + 1, 2**53))
        return m, draw(st.integers(2**53 + 1, 2 * m))
    if kind == "0 or 1":
        m = draw(st.integers(1, 2**53))
        return m, draw(st.sampled_from([m, 2 * m]))
    if kind == "below 1e-4":
        m = draw(st.integers(10**4, 2**53))
        return m, 2 * m - draw(st.integers(1, m // 10**4))
    if kind == "16 digits":
        # h/den within 2/den of c·10**-(15 + j), a 16-digit decimal in [10**-j, 10**(1-j)).
        j = draw(st.integers(1, 4))
        den = draw(st.integers(2**48, 2**53))
        num = draw(st.integers(10**15, 10**16 - 1)) * den // 10 ** (15 + j)
        h = min(max(num + draw(st.integers(-2, 2)), 0), den)
        if draw(st.booleans()):  # h/m
            return den, 2 * den - h
        h ^= (den + h) % 2  # h/a, with h's parity flipped if a + h is odd
        return (den + h) // 2, den
    if kind == "short":
        q = draw(st.sampled_from([*(2**k for k in range(1, 53)), *(10**k for k in range(1, 16))]))
        kind = draw(st.sampled_from(["halfer", "thirder"]))
    else:
        q = draw(st.sampled_from([128, 2 * 10**6]))
    p = draw(st.integers(0, q))
    s = draw(st.integers(1, 2**52 // q))
    if kind == "halfer":  # h/m = p/q
        return q * s, 2 * q * s - p * s
    if kind == "thirder":  # h/a = p/q, with a + h even
        return q * s + p * s, 2 * q * s
    return q * s - p // 2 * s, q * s  # (a - m)/a = (p // 2)/q


class TestRecordWriterOracle:
    # Nine kinds of counts, three of them ".6f" ties: 180 examples draw as
    # many ties as the 100 did when those were three of five.
    @given(st.lists(checkpoint_counts(), min_size=1, max_size=30, unique_by=lambda c: c[0]))
    @settings(max_examples=180, deadline=None)
    def test_counts_near_rounding_ties(self, counts):
        checkpoints = tuple(Checkpoint(m, a) for m, a in sorted(counts))
        # Read back through the parser: each row is one a record can hold.
        record = record_from_json(record_to_json(SimulationRecord(None, checkpoints)))
        assert_writers_match_oracle(record)

    @given(st.data(), st.integers(0, 2**64 - 1), seeded_lengths)
    @settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
    def test_seeded_record(self, data, seed, n):
        # At most 4096 checkpoints keep the dict-per-checkpoint oracle quick.
        low = -(-n // 4096)
        stride = data.draw(st.integers(low, low + 100) | st.integers(low, 10**6), label="stride")
        assert_writers_match_oracle(run_simulation(SimulationConfig(seed, n, stride)))

    @given(record_coins, st.integers(1, 10**6))
    @settings(deadline=None)
    def test_forced_record(self, coins, stride):
        assert_writers_match_oracle(forced_run(coins, checkpoint_stride=stride))


# Counts up to 40, or on either side of 2**53 (the largest mark) and of int64.
domain_counts = st.integers(1, 40) | st.sampled_from([2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64])
# A config's run length: a config refuses more than 2**53 experiments.
config_lengths = st.integers(1, 40) | st.just(2**53)


@st.composite
def checkpoint_records(draw):
    """The config and checkpoints of a record, (m, a) with m, a >= 1, inside
    a record's domain or just outside it, with or without a config whose
    marks they may follow."""
    config = draw(st.none() | st.builds(
        SimulationConfig, st.integers(0, 2**64 - 1), config_lengths, domain_counts
    ))
    if config is not None and draw(st.booleans()):
        n, stride = config.n_experiments, config.checkpoint_stride
        # A mark list too long to draw quickly becomes its last mark alone.
        marks = record_oracle.checkpoint_marks(n, stride) if -(-n // stride) <= 40 else [n]
    else:
        marks = draw(st.lists(domain_counts, min_size=1, max_size=6))
        if draw(st.booleans()):
            marks = sorted(set(marks))
    if draw(st.booleans()):  # awakenings on and just past the edges of [m, 2m]
        pairs = [(m, draw(st.sampled_from([max(m - 1, 1), m, 2 * m, 2 * m + 1]))) for m in marks]
    else:
        pairs = [(m, draw(st.integers(m, 2 * m))) for m in marks]
    return config, tuple(Checkpoint(m, a) for m, a in pairs)


class TestRecordDomain:
    @given(checkpoint_records())
    @settings(deadline=None)
    def test_writers_refuse_exactly_what_the_reader_refuses(self, fields):
        # The oracle writes any fields, unchecked. Construction refuses
        # exactly what the reader refuses, with the same message, so no
        # writer is ever handed such a record.
        text = record_oracle.record_to_json(record_oracle.unchecked_record(*fields))
        try:
            read = record_from_json(text)
        except ValueError as refused:
            with pytest.raises(ValueError) as info:
                SimulationRecord(*fields)
            assert str(info.value) == str(refused)
        else:
            record = SimulationRecord(*fields)
            assert read == record
            assert_writers_match_oracle(record)


# Any finite float. Hypothesis draws subnormals and extremes on its own; the
# listed values also put the smallest and largest magnitudes into one f.
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)


def lone_trace_marks(test):
    """Examples with one awakening mark alone in the second of two seeded
    blocks, a third, a half and two thirds of the way through its
    awakenings: far enough in that probes narrow its span, and move its start
    past Heads that its count must carry."""
    n, low = 2 * BLOCK_SIZE, -(-4 * BLOCK_SIZE // 4096)
    before, wakes = (2 * BLOCK_SIZE - int(toss_oracle.block_heads(7, b, BLOCK_SIZE).sum()) for b in (0, 1))
    for r in (wakes // 3, wakes // 2, 2 * wakes // 3):
        test = example(seed=7, n=n, excess=before + r - low, values=(0.5, -3.25, 7.0))(test)
    return test


class TestLlnTraceOracle:
    @given(st.integers(0, 2**64 - 1), seeded_lengths, st.integers(0, 100) | st.integers(0, 10**6),
           st.tuples(*[finite_floats] * 3))
    @lone_trace_marks
    @settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
    def test_integer_averages_equal_fraction_formula(self, seed, n, excess, values):
        # At most 4096 checkpoints keep the Fraction oracle quick: the stride
        # is ``excess`` above 2n / 4096.
        stride = -(-2 * n // 4096) + excess
        f = dict(zip((Awakening.M_H, Awakening.M_T, Awakening.TU), values))
        trace = lln_trace(SimulationConfig(seed, n, stride), f)
        expected = oracle_trace(oracle_heads(seed, n), stride, f)
        assert_same(trace.running_averages, expected)
        assert all(type(avg) is float for _, avg in trace.running_averages)


# --- CLI boundary ---------------------------------------------------------------
# Numbers stay small enough that every call is fast: --n only reaches 10^4
# under simulate, since argparse reads --n as --n-max under exact.

CHAIN_SPECS = {
    "periodic.json": {"states": ["a", "b"], "matrix": [[0, 1], [1, 0]]},
    "reducible.json": {"states": ["a", "b"], "matrix": [[1, 0], [0, 1]], "initial": [1, 0]},
    "nonstochastic.json": {"states": ["a", "b"], "matrix": [["1/2", "1/3"], [0, 1]]},
    "float.json": {"states": ["a"], "matrix": [[1.0]]},
}
COMMAND_FLAGS = {
    "analyze": ("--chain", "--format"),
    "exact": ("--n-max", "--format"),
    "simulate": ("--n", "--seed", "--stride", "--format"),
    "convert": ("--complete",),
}
MODE_SYMBOLS = {"encode": ("H", "t"), "project": ("MH", "mt", " TU", "?"), "decode": ("M", "tu")}
SYMBOLS = tuple(symbol for symbols in MODE_SYMBOLS.values() for symbol in symbols) + ("x",)
no_digits = st.text(max_size=6).filter(lambda s: not any(c.isdigit() for c in s))
noise = st.one_of(
    st.sampled_from([*COMMAND_FLAGS, *SYMBOLS, "--n", "--seed", "-h"]),
    st.integers(-3, 50).map(str),
    no_digits,
)


@pytest.fixture(scope="module")
def chain_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    for name, spec in CHAIN_SPECS.items():
        (root / name).write_text(json.dumps(spec))
    (root / "truncated.json").write_text('{"states": [')
    return sorted(str(path) for path in root.iterdir())


def mostly(usual, rare):
    """Draws from ``usual`` nine times in ten, else from ``rare``."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else usual)


@st.composite
def argvs(draw, chain_paths):
    """Mostly a command with most of its flags; sometimes stray flags and tokens."""
    command = draw(mostly(st.sampled_from(sorted(COMMAND_FLAGS)), noise))
    values = {
        "--n": st.integers(-2, 10**4 if command == "simulate" else 50),
        "--n-max": st.integers(-2, 50),
        "--seed": st.integers(-2, 2**64 + 2),
        "--stride": st.integers(-2, 10**4),
        "--format": mostly(st.sampled_from(["text", "json", "csv"]), no_digits),
        "--chain": mostly(st.sampled_from(["sbp", *chain_paths]), no_digits),
    }
    argv = [command]
    if command == "convert":
        mode = draw(mostly(st.sampled_from(sorted(MODE_SYMBOLS)), noise))
        symbols = st.sampled_from(MODE_SYMBOLS.get(mode, SYMBOLS))
        argv += [mode, *draw(st.lists(mostly(symbols, st.sampled_from(SYMBOLS)), max_size=6))]
    usually = mostly(st.just(True), st.booleans())
    flags = [flag for flag in COMMAND_FLAGS.get(command, ()) if draw(usually)]
    flags += draw(mostly(st.just([]), st.lists(st.sampled_from(sorted(values)), max_size=2)))
    for flag in flags:
        argv.append(flag)
        if flag in values:
            argv.append(str(draw(values[flag])))
    return argv + draw(mostly(st.just([]), st.lists(noise, max_size=2)))


class TestCliBoundary:
    @given(st.data())
    @settings(deadline=None)
    def test_exit_code_and_no_traceback(self, chain_paths, data):
        argv = data.draw(argvs(chain_paths))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 2, 3, 4}, (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
