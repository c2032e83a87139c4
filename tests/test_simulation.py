"""Unit tests for the Monte Carlo engine: counting, determinism, serialization."""

import bisect
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sbchain import cli, simulation
from sbchain.sbp_model import Awakening, EmptyInput
from sbchain.simulation import (
    BLOCK_SIZE,
    GENERATOR_NAME,
    Checkpoint,
    LLNTrace,
    SimulationConfig,
    SimulationRecord,
    StateCounts,
    _draws,
    _fold,
    forced_run,
    halfer_statistic,
    indicator,
    lln_trace,
    record_from_json,
    record_to_csv,
    record_to_json,
    run_simulation,
    state_frequencies,
    thirder_statistic,
)
import record_oracle
import toss_oracle
from record_oracle import checkpoint_marks


class TestConfig:
    def test_valid(self):
        cfg = SimulationConfig(seed=7, n_experiments=100, checkpoint_stride=10)
        assert cfg.seed == 7

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            SimulationConfig(seed=seed, n_experiments=1, checkpoint_stride=1)

    def test_zero_experiments(self):
        with pytest.raises(ValueError, match="n_experiments"):
            SimulationConfig(seed=0, n_experiments=0, checkpoint_stride=1)

    def test_zero_stride(self):
        with pytest.raises(ValueError, match="checkpoint_stride"):
            SimulationConfig(seed=0, n_experiments=1, checkpoint_stride=0)

    @pytest.mark.parametrize("n", [2**53 + 1, 2**63, 2**64])
    def test_run_past_2_to_53_refused(self, n):
        # Every record refuses marks past 2**53, so such a config was refused
        # only after its whole run, and a CSV stream never refused it.
        with pytest.raises(ValueError, match=r"^a config's n_experiments must be at most 2\*\*53, got "):
            SimulationConfig(seed=0, n_experiments=n, checkpoint_stride=1)
        assert SimulationConfig(seed=0, n_experiments=2**53, checkpoint_stride=n).n_experiments == 2**53

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", True),
            ("seed", "1"),
            ("seed", 1.0),
            ("n_experiments", 10.5),
            ("n_experiments", False),
            ("checkpoint_stride", 2.0),
            ("checkpoint_stride", None),
        ],
    )
    def test_non_int_rejected(self, field, value):
        fields = {"seed": 0, "n_experiments": 10, "checkpoint_stride": 2}
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**fields)


class TestEntryPointTypes:
    """Each entry point refuses a value of another type than its config or
    record with ValueError naming the type, before it reads a field."""

    CONFIG = SimulationConfig(seed=1, n_experiments=100, checkpoint_stride=10)
    RECORD = run_simulation(CONFIG)

    @pytest.mark.parametrize("value", [5, None, {"seed": 1, "n_experiments": 100, "checkpoint_stride": 10}, RECORD],
                             ids=["int", "none", "dict", "record"])
    @pytest.mark.parametrize("call", [run_simulation, lambda c: lln_trace(c, indicator(Awakening.M_H))],
                             ids=["run_simulation", "lln_trace"])
    def test_config(self, call, value):
        with pytest.raises(ValueError, match=r"^config must be a SimulationConfig, got "):
            call(value)

    @pytest.mark.parametrize("value", [5, None, CONFIG, (CONFIG, RECORD.checkpoints)],
                             ids=["int", "none", "config", "tuple"])
    @pytest.mark.parametrize("call", [record_to_json, record_to_csv, halfer_statistic, thirder_statistic,
                                      state_frequencies])
    def test_record(self, call, value):
        with pytest.raises(ValueError, match=r"^record must be a SimulationRecord, got "):
            call(value)

    def test_message_shows_the_value(self):
        with pytest.raises(ValueError) as info:
            halfer_statistic(5)
        assert str(info.value) == "record must be a SimulationRecord, got 5"


class TestForcedRun:
    def test_one_heads_one_tails(self):
        # H gives one awakening, T gives two; 1 of 3 awakenings is a Heads day.
        record = forced_run(["H", "T"])
        assert record.heads_experiments == 1
        assert record.total_experiments == 2
        assert record.heads_awakenings == 1
        assert record.total_awakenings == 3
        assert record.state_counts == StateCounts(1, 1, 1)
        assert halfer_statistic(record) == 0.5
        assert thirder_statistic(record) == pytest.approx(1 / 3)

    def test_all_tails(self):
        record = forced_run("TTT")
        assert record.heads_experiments == 0
        assert record.total_awakenings == 6
        assert record.state_counts == StateCounts(0, 3, 3)
        assert thirder_statistic(record) == 0.0

    def test_all_heads(self):
        record = forced_run("H" * 10)
        assert record.total_awakenings == 10
        assert halfer_statistic(record) == 1.0
        assert thirder_statistic(record) == 1.0

    def test_no_rng_provenance(self):
        record = forced_run("HT")
        assert record.config is None
        assert record.generator is None

    def test_checkpoint_per_experiment(self):
        record = forced_run(["T", "H"], checkpoint_stride=1)
        assert record.checkpoints == (Checkpoint(1, 2), Checkpoint(2, 3))
        assert [c.halfer for c in record.checkpoints] == [0.0, 0.5]
        assert [c.thirder for c in record.checkpoints] == [0.0, 1 / 3]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            forced_run([])

    def test_float_stride_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_stride"):
            forced_run("HT", checkpoint_stride=2.0)

    @pytest.mark.parametrize("coins", [5, None])
    def test_non_iterable_rejected(self, coins):
        with pytest.raises(ValueError) as info:
            forced_run(coins)
        assert type(info.value) is ValueError
        assert str(info.value) == f"expected an iterable of tokens, got {coins!r}"

    def test_state_frequencies(self):
        freqs = state_frequencies(forced_run("HT"))
        assert freqs == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert sum(freqs) == pytest.approx(1.0)


class TestCheckpointMarks:
    @staticmethod
    def marks(n, stride):
        checkpoints = run_simulation(SimulationConfig(0, n, stride)).checkpoints
        return [c.experiments for c in checkpoints]

    def test_exact_multiple(self):
        assert self.marks(100, 25) == [25, 50, 75, 100]

    def test_remainder_appends_final(self):
        assert self.marks(10, 4) == [4, 8, 10]

    def test_stride_larger_than_total(self):
        assert self.marks(3, 100) == [3]


class TestDeterminism:
    CFG = SimulationConfig(seed=42, n_experiments=200_000, checkpoint_stride=50_000)

    def test_identical_configs_identical_records(self):
        assert run_simulation(self.CFG) == run_simulation(self.CFG)

    def test_different_seeds_differ(self):
        other = SimulationConfig(seed=43, n_experiments=200_000, checkpoint_stride=50_000)
        assert run_simulation(self.CFG) != run_simulation(other)

    def test_generator_recorded(self):
        assert run_simulation(self.CFG).generator == GENERATOR_NAME

    def test_frequencies_near_limits(self):
        record = run_simulation(self.CFG)
        assert halfer_statistic(record) == pytest.approx(0.5, abs=0.005)
        assert thirder_statistic(record) == pytest.approx(1 / 3, abs=0.005)

    def test_final_checkpoint_matches_totals(self):
        record = run_simulation(self.CFG)
        last = record.checkpoints[-1]
        assert last.experiments == record.total_experiments
        assert last.awakenings == record.total_awakenings
        assert last.halfer == halfer_statistic(record)
        assert last.thirder == thirder_statistic(record)


class TestTossStream:
    @pytest.mark.parametrize("count", [1, 3, 7, 8, 9, 13, 4099, BLOCK_SIZE - 1, BLOCK_SIZE])
    @pytest.mark.parametrize("seed, block_index", [(0, 0), (42, 3), (2**64 - 1, 2**64 - 1)])
    def test_top_bit_of_each_little_endian_byte(self, seed, block_index, count):
        # The contract as arithmetic on the raw words, with no byte view:
        # toss 8w + k is bit 8k + 7 of word w.
        key = np.array([seed, block_index], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(-(-count // 8))
        shifts = 8 * np.arange(8, dtype=np.uint64) + 7
        expected = ((raw[:, None] >> shifts) & 1).ravel()[:count]
        heads = next(_draws(seed, [(block_index, count)]))
        assert heads.dtype == np.uint8
        assert heads.tolist() == expected.tolist()


class TestRekeyedStream:
    """One Philox re-keyed per block draws what a fresh one per block would."""

    def test_a_reused_generator_forgets_the_block_before(self):
        # 9 tosses take 2 words of Philox's 4-word buffer, leaving 2 behind
        # and the counter past 0; the blocks after must use neither.
        blocks = [(0, 9), (1, BLOCK_SIZE), (5, 9)]
        drawn = [heads.tolist() for heads in simulation._draws(7, blocks)]
        assert drawn == [toss_oracle.block_heads(7, b, count).tolist() for b, count in blocks]

    def test_seeded_blocks_equal_the_oracle(self):
        n = 2 * BLOCK_SIZE + 9
        blocks = list(simulation._seeded_blocks(SimulationConfig(7, n, n)))
        expected = [toss_oracle.block_heads(7, b, size) for b, size in enumerate([BLOCK_SIZE, BLOCK_SIZE, 9])]
        assert [b.tolist() for b in blocks] == [b.tolist() for b in expected]

    def test_one_generator_per_stream(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        for n in (1, 5 * BLOCK_SIZE + 1):
            built.clear()
            assert len(list(simulation._seeded_blocks(SimulationConfig(3, n, n)))) == -(-n // BLOCK_SIZE)
            assert len(built) == 1


class TestInterleavedStreams:
    def test_streams_keep_their_own_state(self):
        # Two streams drawn in turn: each block must come from its own key.
        n = 2 * BLOCK_SIZE + 9
        streams = [simulation._seeded_blocks(SimulationConfig(seed, n, n)) for seed in (7, 8)]
        for b, size in enumerate([BLOCK_SIZE, BLOCK_SIZE, 9]):
            for seed, stream in zip((7, 8), streams):
                assert next(stream).tolist() == toss_oracle.block_heads(seed, b, size).tolist()


class TestAwakeningSpans:
    """An awakening mark's running count is taken over at most ``_SPAN``
    tosses once the count_nonzero probes have narrowed its span."""

    @staticmethod
    def cumsum_lengths(monkeypatch):
        lengths = []
        cumsum = np.cumsum

        def counted(a, *args, **kwargs):
            lengths.append(len(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted)
        return lengths

    def test_sparse_marks_read_narrow_spans(self, monkeypatch):
        # About 30 marks, each alone in its block: without probes a span ran
        # up to half a block.
        lengths = self.cumsum_lengths(monkeypatch)
        trace = lln_trace(SimulationConfig(11, 2_000_000, 100_003), indicator(Awakening.M_H))
        assert len(trace.running_averages) == 31
        assert len(lengths) == 30
        assert max(lengths) <= simulation._SPAN

    # Marks where a probe's a(mid) is the mark itself, found by replaying
    # the probes over this block: a probe there must keep narrowing.
    ON_A_PROBE = [36824, 43090, 49044, 55168, 61236]

    def test_every_lone_mark_reads_a_narrow_span(self, monkeypatch):
        # The same block twice, and one mark r in the second: stride a + r,
        # a the block's awakenings. Each span is at most _SPAN tosses, and
        # each mark still reads the right count.
        block = toss_oracle.block_heads(7, 0, BLOCK_SIZE)
        heads = [0, *itertools.accumulate(block.tolist())]
        units = [2 * j - h for j, h in enumerate(heads)]
        lengths = self.cumsum_lengths(monkeypatch)
        for r in [*range(1, units[-1] + 1, 11), *self.ON_A_PROBE]:
            lengths.clear()
            q, m, h = (a.tolist() for a in next(_fold([block, block], units[-1] + r, per_awakening=True)))
            j = bisect.bisect_right(units, r) - 1
            assert (q, m, h) == ([units[-1] + r], [BLOCK_SIZE + j], [heads[-1] + heads[j]])
            assert max(lengths) <= simulation._SPAN, r


class TestFoldPastInt32:
    """One block fed 33 000 times, so counts pass 2**31 (blocks without marks
    are only counted). Every mark's q, m and h must be the exact integer."""

    REPEATS = 33_000
    STRIDE = 2**30 + 3

    @pytest.mark.parametrize("per_awakening", [False, True], ids=["experiments", "awakenings"])
    @pytest.mark.parametrize("kind", ["ones", "mixed"])
    def test_counts_are_exact(self, kind, per_awakening):
        n = BLOCK_SIZE
        block = np.ones(n, np.uint8) if kind == "ones" else toss_oracle.block_heads(7, 0, n)
        # Heads, and units (experiments or awakenings), after the block's first j tosses.
        heads = [0, *itertools.accumulate(block.tolist())]
        units = [2 * j - h for j, h in enumerate(heads)] if per_awakening else list(range(n + 1))
        expected = []
        for q in checkpoint_marks(self.REPEATS * units[-1], self.STRIDE):
            k, r = divmod(q, units[-1])
            j = bisect.bisect_right(units, r) - 1
            expected.append((q, k * n + j, k * heads[-1] + heads[j]))
        folded = _fold(itertools.repeat(block, self.REPEATS), self.STRIDE, per_awakening)
        observed = [row for arrays in folded for row in zip(*(a.tolist() for a in arrays))]
        assert observed == expected
        assert observed[-1][1] == self.REPEATS * n > 2**31


class TestRecordShape:
    def test_only_underived_values_are_stored(self):
        assert [f.name for f in dataclasses.fields(SimulationRecord)] == [
            "config",
            "checkpoints",
        ]
        assert Checkpoint._fields == ("experiments", "awakenings")
        # Construction checks the checkpoints and keeps nothing else.
        assert vars(SimulationRecord(None, ((2, 3),))).keys() == {"config", "checkpoints"}
        with pytest.raises(ValueError, match=r"\[m, 2m\]"):
            SimulationRecord(None, ((2, 5),))

    def test_counters_follow_from_last_checkpoint(self):
        record = SimulationRecord(None, (Checkpoint(2, 3), Checkpoint(5, 7)))
        assert record.generator is None
        assert (record.total_experiments, record.total_awakenings) == (5, 7)
        assert record.heads_experiments == record.heads_awakenings == 3
        assert record.state_counts == StateCounts(3, 2, 2)
        config = SimulationConfig(seed=0, n_experiments=1, checkpoint_stride=1)
        assert SimulationRecord(config, (Checkpoint(1, 1),)).generator == GENERATOR_NAME

    def test_plain_pairs_read_as_checkpoints(self):
        plain = SimulationRecord(None, [(2, 3), (5, 7)])
        named = SimulationRecord(None, (Checkpoint(2, 3), Checkpoint(5, 7)))
        assert (plain.total_experiments, plain.total_awakenings, plain.state_counts) == (5, 7, StateCounts(3, 2, 2))
        for stat in (halfer_statistic, thirder_statistic, state_frequencies):
            assert stat(plain) == stat(named)
        for write in (record_to_json, record_to_csv):
            assert write(plain) == write(named)
        assert record_from_json(record_to_json(plain)) == named
        # Every record holds its checkpoints as a read-only Checkpoint view.
        for record in (plain, named):
            assert isinstance(record.checkpoints, simulation._Rows) and record.checkpoints._item is Checkpoint
            assert record.checkpoints == named.checkpoints and record == named
            assert not any(column.flags.writeable for column in record.checkpoints._columns)

    def test_invalid_records_are_refused_when_built(self):
        # Each was accepted once, and failed or gave a statistic only later.
        for config, checkpoints in [(None, 5), (5, ((1, 1),))]:
            with pytest.raises(ValueError, match="a SimulationConfig or None and a sequence of checkpoints"):
                SimulationRecord(config, checkpoints)
        record = run_simulation(SimulationConfig(1, 100, 10))
        for other in (SimulationConfig(1, 100, 20), SimulationConfig(1, 99, 10)):
            with pytest.raises(ValueError, match="checkpoint marks do not match the config"):
                dataclasses.replace(record, config=other)
        trace = lln_trace(SimulationConfig(5, 100, 7), indicator(Awakening.M_H))
        with pytest.raises(ValueError, match="checkpoint experiments and awakenings must be ints"):
            SimulationRecord(None, trace.running_averages)

    @pytest.mark.parametrize("counts", [(0, 0), (1, 5), (1, 0), (2, 1), (3, 7), (-2, -3), (None, None), ("1", "2"),
                                        (1.5, 2.0), (True, True), (2.0, 3), (2, 3.0), (np.int64(2), 3)])
    def test_checkpoint_statistics_need_the_record_domain(self, counts):
        # (0, 0) once raised ZeroDivisionError and (1, 5) gave a halfer of -3.0;
        # (None, None) raised TypeError, and (1.5, 2.0) gave 0.667.
        for statistic in ("halfer", "thirder"):
            with pytest.raises(ValueError, match=r"\[m, 2m\]"):
                getattr(Checkpoint(*counts), statistic)
        # The domain's edges: all Heads (a = m) and all Tails (a = 2m).
        assert (Checkpoint(3, 3).halfer, Checkpoint(3, 3).thirder) == (1.0, 1.0)
        assert (Checkpoint(3, 6).halfer, Checkpoint(3, 6).thirder) == (0.0, 0.0)

    @pytest.mark.parametrize("marks", [[30, 60, 100], [30, 60, 90, 99], [30, 61, 90, 100], [10, 30, 60, 90, 100]],
                             ids=["a-row-short", "last-not-n", "off-the-stride", "a-row-more"])
    def test_config_marks_are_n_and_the_stride_multiples_below_it(self, marks):
        # Each of the first three fails one clause of the check alone.
        config = SimulationConfig(seed=1, n_experiments=100, checkpoint_stride=30)
        record = run_simulation(config)
        assert [c.experiments for c in record.checkpoints] == [30, 60, 90, 100]
        assert SimulationRecord(config, tuple(record.checkpoints)) == record
        with pytest.raises(ValueError, match="checkpoint marks do not match the config"):
            SimulationRecord(config, [(m, m) for m in marks])

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    @pytest.mark.parametrize(
        "config, checkpoints",
        [
            pytest.param(None, 5, id="int-checkpoints"),
            pytest.param(None, None, id="no-checkpoints"),
            pytest.param(None, iter([(2, 3)]), id="iterator-checkpoints"),
            pytest.param(5, ((2, 3),), id="int-config"),
            pytest.param({"seed": 0, "n_experiments": 2, "checkpoint_stride": 2}, ((2, 3),), id="dict-config"),
        ],
    )
    def test_writers_refuse_a_record_of_other_types(self, write, config, checkpoints):
        with pytest.raises(ValueError, match="a SimulationConfig or None and a sequence of checkpoints"):
            write(SimulationRecord(config, checkpoints))


class TestSerialization:
    CFG = SimulationConfig(seed=9, n_experiments=1000, checkpoint_stride=250)

    def test_json_round_trip(self):
        record = run_simulation(self.CFG)
        assert record_from_json(record_to_json(record)) == record

    def test_json_round_trip_forced(self):
        record = forced_run("HTTH", checkpoint_stride=2)
        assert record_from_json(record_to_json(record)) == record

    def test_csv_header_and_shape(self):
        record = run_simulation(self.CFG)
        lines = record_to_csv(record).splitlines()
        assert lines[0] == "experiments,awakenings,halfer,thirder,freq_MH,freq_MT,freq_TU"
        assert len(lines) == 1 + len(record.checkpoints)

    def test_csv_six_digit_values(self):
        record = forced_run("HT", checkpoint_stride=2)
        lines = record_to_csv(record).splitlines()
        assert lines[1] == "2,3,0.500000,0.333333,0.333333,0.333333,0.333333"

    @pytest.mark.parametrize(
        "checkpoint, row",
        [
            # x·1e6 = 7812.5 exactly: both round half to even.
            ((128, 255), "128,255,0.007812,0.003922,0.003922,0.498039,0.498039"),
            # 5/2e6 as a double lies just above 2.5e-6, but x * 1e6 rounds to
            # 2.5 exactly, whose rint is 2: format gives 3.
            ((2 * 10**6, 4 * 10**6 - 5),
             "2000000,3999995,0.000003,0.000001,0.000001,0.499999,0.499999"),
            # Awakenings past 2**53 are not exact in a float64.
            ((2**53, 2**53 + 1),
             "9007199254740992,9007199254740993,1.000000,1.000000,1.000000,0.000000,0.000000"),
        ],
    )
    def test_csv_rows_near_a_rounding_tie(self, checkpoint, row):
        record = SimulationRecord(None, (Checkpoint(*checkpoint),))
        assert record_to_csv(record).splitlines()[1] == row

    @pytest.mark.parametrize("rows", [4095, 4096, 4097])
    def test_csv_across_a_chunk_edge(self, rows):
        # Stride 1 also moves m and a through every digit count up to 4.
        record = run_simulation(SimulationConfig(seed=3, n_experiments=rows, checkpoint_stride=1))
        assert record_to_csv(record) == record_oracle.record_to_csv(record)

    def test_csv_at_digit_count_boundaries(self):
        # Marks on each side of every power of ten a mark can reach, and 2**53,
        # with a = m, m + 1 and 2m: every digit count is the first or last of
        # its group of four (and of its word of eight), alone in a record, so
        # that it sets the record's width, and among all the others.
        marks = [*(m for k in range(1, 16) for m in (10**k - 1, 10**k)), 2**53]
        for wakes in (lambda m: m, lambda m: m + 1, lambda m: 2 * m):
            checkpoints = [Checkpoint(m, wakes(m)) for m in marks]
            for record in [SimulationRecord(None, (c,)) for c in checkpoints] + [
                SimulationRecord(None, tuple(checkpoints))
            ]:
                assert record_to_csv(record) == record_oracle.record_to_csv(record)

    @pytest.mark.parametrize("rows", [4095, 4096, 4097])
    def test_json_across_a_chunk_edge(self, rows):
        record = run_simulation(SimulationConfig(seed=3, n_experiments=rows, checkpoint_stride=1))
        assert record_to_json(record) == record_oracle.record_to_json(record)

    def test_json_statistics_are_repr_of_a_million_quotients(self):
        # Denominators of every bit length up to 2**54, the most awakenings a
        # record can hold; past 2**53 num / den is not Python's int / int.
        rng = np.random.default_rng(2024)
        den = rng.integers(1, 2 ** rng.integers(1, 55, 10**6), endpoint=True)
        num = rng.integers(0, den, endpoint=True)
        newline = np.full((2**16, 1), ord("\n"), np.uint8)
        rendered = []
        for i in range(0, len(den), 2**16):
            fields = simulation._shortest(num[i:i + 2**16], den[i:i + 2**16])
            rows = np.hstack([fields, newline[:len(fields)]])
            rendered += str(rows, "ascii").replace("\0", "").splitlines()
        pairs = zip(num.tolist(), den.tolist(), rendered)
        assert [(a, b, text) for a, b, text in pairs if text != repr(a / b)] == []

    def test_json_statistics_at_the_edge_of_the_shortest_digits_decade(self):
        # _shortest writes 0.1 <= x < 1 itself and leaves smaller x to repr.
        # Here: the doubles on either side of 0.1 and 0.1 itself, each as the
        # p/q nearest it with q <= 2**53; p/q just below and just above 1/10
        # at every scale; and h/m = 1/m for m from 10 to 100, many
        # of whose reprs take 17 digits.
        doubles = [np.nextafter(0.1, 0), 0.1, np.nextafter(0.1, 1)]
        pairs = [Fraction(x).limit_denominator(2**53).as_integer_ratio() for x in doubles]
        assert [p / q for p, q in pairs] == doubles
        for k in range(1, 16):
            pairs += [(10**k - 1, 10**(k + 1)), (10**k + 1, 10**(k + 1)),
                      (10**k, 10**(k + 1) + 1), (10**k, 10**(k + 1) - 1)]
        pairs += [(1, m) for m in range(10, 101)]
        num, den = (np.array(column) for column in zip(*pairs))
        rendered = [row.tobytes().replace(b"\0", b"").decode() for row in simulation._shortest(num, den)]
        assert rendered == [repr(p / q) for p, q in pairs]

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    @pytest.mark.parametrize(
        "config, checkpoints, message",
        [
            pytest.param(None, (), "at least one checkpoint", id="empty"),
            pytest.param(None, ((0, 0),), "within", id="zero-experiments"),
            pytest.param(None, ((3, 2),), r"\[m, 2m\]", id="awakenings-below-m"),
            pytest.param(None, ((3, 7),), r"\[m, 2m\]", id="awakenings-above-2m"),
            pytest.param(None, ((2**53 + 1, 2**53 + 2),), "within", id="mark-above-2-to-53"),
            pytest.param(None, ((2**64, 2**64),), "within", id="mark-past-int64"),
            pytest.param(None, ((2, 3), (2, 3)), "strictly increase", id="repeated-mark"),
            pytest.param(SimulationConfig(0, 4, 2), ((1, 2), (4, 6)), "config", id="not-config"),
            pytest.param(None, ((2.0, 3.0),), "must be ints", id="float-counts"),
            pytest.param(None, ((2.5, 3),), "must be ints", id="fractional-mark"),
            pytest.param(None, ((True, True),), "must be ints", id="bool-counts"),
            pytest.param(None, ((np.int64(2), np.int64(3)),), "must be ints", id="numpy-int64"),
        ],
    )
    def test_writers_refuse_what_the_reader_refuses(self, write, config, checkpoints, message):
        # Construction refuses these, so no writer is handed one.
        with pytest.raises(ValueError, match=message):
            write(SimulationRecord(config, tuple(Checkpoint(m, a) for m, a in checkpoints)))


class TestLLNTrace:
    CFG = SimulationConfig(seed=5, n_experiments=50_000, checkpoint_stride=20_000)

    def test_indicator_converges_to_one_third(self):
        trace = lln_trace(self.CFG, indicator(Awakening.M_H))
        _, final = trace.running_averages[-1]
        assert final == pytest.approx(1 / 3, abs=0.01)

    @pytest.mark.parametrize("state", ["M_H", Awakening.UNDETERMINED])
    def test_indicator_refuses_a_non_state(self, state):
        with pytest.raises(ValueError, match="indicator needs M_H, M_T or TU"):
            indicator(state)

    def test_constant_function_exact_at_every_checkpoint(self):
        c = 0.1
        f = {Awakening.M_H: c, Awakening.M_T: c, Awakening.TU: c}
        trace = lln_trace(self.CFG, f)
        assert all(avg == c for _, avg in trace.running_averages)

    def test_checkpoints_in_awakening_units(self):
        trace = lln_trace(self.CFG, indicator(Awakening.TU))
        marks = [n for n, _ in trace.running_averages]
        assert marks[:-1] == list(
            range(self.CFG.checkpoint_stride, marks[-1], self.CFG.checkpoint_stride)
        )

    def test_same_stream_as_run_simulation(self):
        # Averaging the all-ones function counts awakenings, which must agree
        # with the record's totals for the same config.
        record = run_simulation(self.CFG)
        trace = lln_trace(self.CFG, indicator(Awakening.M_H))
        total, final = trace.running_averages[-1]
        assert total == record.total_awakenings
        assert final == pytest.approx(
            record.state_counts.m_h / record.total_awakenings
        )

    @pytest.mark.parametrize("f", [None, 1.0, [1.0, 0.0, 0.0], set(simulation._STATES)])
    def test_non_mapping_rejected(self, f):
        with pytest.raises(ValueError, match="f must be a mapping"):
            lln_trace(self.CFG, f)

    def test_missing_state_rejected(self):
        with pytest.raises(ValueError, match="all three states"):
            lln_trace(self.CFG, {Awakening.M_H: 1.0})

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, None, "x", "0.5", True, " 1e0 ", 10**400]
    )
    def test_non_real_value_rejected(self, value):
        f = {**indicator(Awakening.M_H), Awakening.M_T: value}
        with pytest.raises(ValueError, match=r"f\(M_T\) must be a finite real number"):
            lln_trace(self.CFG, f)

    @pytest.mark.parametrize("value", [1, Fraction(1, 2), np.float64(0.25)])
    def test_real_values_accepted(self, value):
        f = {**indicator(Awakening.M_H), Awakening.M_T: value}
        assert lln_trace(self.CFG, f).f_values == (1.0, float(value), 0.0)

    @pytest.mark.parametrize(
        "f_values, averages, field",
        [
            (5, 5, "f_values"),
            ((1.0, 0.0), (), "f_values"),
            ([1.0, 0.0, 0.0], (), "f_values"),
            ((1, 0, 0), (), "f_values"),
            ((1.0, 0.0, True), (), "f_values"),
            ((1.0, 0.0, 0.0), 5, "running_averages"),
            ((1.0, 0.0, 0.0), None, "running_averages"),
            ((1.0, 0.0, 0.0), "1,0.5", "running_averages"),
            ((1.0, 0.0, 0.0), b"1,0.5", "running_averages"),
            ((1.0, 0.0, 0.0), iter([(1, 0.5)]), "running_averages"),
        ],
    )
    def test_a_trace_built_by_hand_is_checked(self, f_values, averages, field):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            LLNTrace(f_values, averages)

    def test_a_trace_rebuilt_from_its_fields_is_accepted(self):
        # lln_trace builds its trace unchecked; the check accepts it as it is.
        trace = lln_trace(self.CFG, indicator(Awakening.M_T))
        assert LLNTrace(trace.f_values, trace.running_averages) == trace
        assert LLNTrace(trace.f_values, tuple(trace.running_averages)) == trace
        assert LLNTrace((1.0, np.float64(0.5), -0.0), []).running_averages == []

    def test_exact_average_from_counts(self):
        # By hand on a tiny forced stream: verify against the seeded stream's
        # own counts using exact arithmetic.
        trace = lln_trace(self.CFG, {Awakening.M_H: 1.0, Awakening.M_T: 0.5, Awakening.TU: 0.0})
        record = run_simulation(self.CFG)
        n = record.total_awakenings
        expected = (
            Fraction(record.state_counts.m_h)
            + Fraction(1, 2) * record.state_counts.m_t
        ) / n
        assert trace.running_averages[-1][1] == float(expected)


class TestRecordFromJson:
    GOOD = forced_run("HTTHT", checkpoint_stride=2)

    def doc(self):
        return json.loads(record_to_json(self.GOOD))

    def seeded_doc(self):
        return json.loads(record_to_json(run_simulation(TestSerialization.CFG)))

    def load(self, doc):
        return record_from_json(json.dumps(doc))

    def test_good_document_loads(self):
        assert self.load(self.doc()) == self.GOOD

    @pytest.mark.parametrize("text", ["{}", "[]", "3", "null", '"record"', "{"])
    def test_not_a_record(self, text):
        with pytest.raises(ValueError):
            record_from_json(text)

    @pytest.mark.parametrize("value", [5, None, 2.5, ["{}"]])
    def test_non_text_rejected(self, value):
        with pytest.raises(ValueError, match="must be JSON text"):
            record_from_json(value)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            record_from_json("[" * 100_000)

    @pytest.mark.parametrize(
        "field",
        ["generator", "config", "heads_experiments", "total_awakenings",
         "state_counts", "checkpoints"],
    )
    def test_missing_field(self, field):
        doc = self.doc()
        del doc[field]
        with pytest.raises(ValueError):
            self.load(doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("heads_experiments",), "2", id="str-total"),
            pytest.param(("total_experiments",), 5.0, id="float-total"),
            pytest.param(("heads_awakenings",), True, id="bool-total"),
            pytest.param(("state_counts",), [2, 3, 3], id="list-state-counts"),
            pytest.param(("state_counts", "Tu"), None, id="null-state-count"),
            pytest.param(("checkpoints",), {}, id="object-checkpoints"),
            pytest.param(("checkpoints",), [], id="no-checkpoints"),
            pytest.param(("checkpoints",), "2", id="str-checkpoints"),
            pytest.param(("checkpoints", 0), [2, 3, 0.5, 1 / 3], id="list-checkpoint"),
            pytest.param(("checkpoints", 0, "experiments"), 2.0, id="float-mark"),
            pytest.param(("checkpoints", 0, "awakenings"), True, id="bool-awakenings"),
            pytest.param(("checkpoints", 0, "halfer"), "0.5", id="str-halfer"),
            pytest.param(("checkpoints", 0, "thirder"), 0, id="int-thirder"),
            pytest.param(("checkpoints", 0, "experiments"), 2**64, id="huge-mark"),
            pytest.param(("checkpoints", 0, "awakenings"), 2**64, id="huge-awakenings"),
            pytest.param(("config",), [0, 5, 2], id="list-config"),
            pytest.param(("config",), {"seed": 0, "n_experiments": 5}, id="short-config"),
            pytest.param(("config",), {"seed": 0, "n_experiments": 5,
                                       "checkpoint_stride": 2.0}, id="float-stride"),
            pytest.param(("bogus",), 1, id="extra-field"),
            pytest.param(("config", "bogus"), 1, id="extra-config-key"),
            pytest.param(("checkpoints", 0, "bogus"), 1, id="extra-checkpoint-key"),
        ],
    )
    def test_mistyped_field(self, path, value):
        # A forced record has no config to mistype, so config paths edit a
        # seeded one.
        doc = self.seeded_doc() if path[0] == "config" else self.doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError):
            self.load(doc)

    @pytest.mark.parametrize("value", [0, False])
    @pytest.mark.parametrize("key", ["halfer", "thirder"])
    def test_statistic_that_equals_but_is_not_a_float(self, key, value):
        # All Tails: both statistics are 0.0, which 0 and false equal.
        doc = json.loads(record_to_json(forced_run("TT")))
        doc["checkpoints"][0][key] = value
        with pytest.raises(ValueError, match="halfer/thirder"):
            self.load(doc)

    def test_checkpoint_missing_key(self):
        doc = self.doc()
        del doc["checkpoints"][1]["thirder"]
        with pytest.raises(ValueError):
            self.load(doc)

    @pytest.mark.parametrize("generator", ["mt19937", GENERATOR_NAME, 7])
    def test_unknown_or_mismatched_generator(self, generator):
        # Forced records carry no config, so their generator must be null.
        doc = self.doc()
        doc["generator"] = generator
        with pytest.raises(ValueError, match="generator"):
            self.load(doc)

    def test_seeded_generator_must_be_philox(self):
        doc = self.seeded_doc()
        doc["generator"] = "mt19937"
        with pytest.raises(ValueError, match="generator"):
            self.load(doc)

    def test_marks_must_strictly_increase(self):
        doc = self.doc()
        doc["checkpoints"][1] = dict(doc["checkpoints"][0])
        with pytest.raises(ValueError, match="strictly increase"):
            self.load(doc)

    def test_zero_mark_rejected(self):
        doc = self.doc()
        doc["checkpoints"][0].update(experiments=0, awakenings=0)
        with pytest.raises(ValueError, match=r"within \[1, 2\*\*53\]"):
            self.load(doc)

    @pytest.mark.parametrize("m", [2**53 + 1, 2**64])
    def test_marks_above_2_to_53_rejected(self, m):
        # The oracle writes through json.dumps; no record holds these.
        text = record_oracle.record_to_json(record_oracle.unchecked_record(None, (Checkpoint(m, m + 1),)))
        with pytest.raises(ValueError, match=r"within \[1, 2\*\*53\]"):
            record_from_json(text)

    @pytest.mark.parametrize("awakenings", [2**53, 2**53 + 3, 2**54 - 1, 2**54])
    def test_round_trip_at_2_to_53(self, awakenings):
        # Counts past 2**53 are not all floats, so h/a must be divided exactly
        # as the writer divides them, on ints.
        record = SimulationRecord(None, (Checkpoint(2**53, awakenings),))
        assert record_from_json(record_to_json(record)) == record

    def test_marks_must_match_config(self):
        doc = self.seeded_doc()
        del doc["checkpoints"][1]
        with pytest.raises(ValueError, match="config"):
            self.load(doc)

    @pytest.mark.parametrize("awakenings", [1, 5])
    def test_awakenings_outside_m_to_2m(self, awakenings):
        doc = self.doc()
        doc["checkpoints"][0]["awakenings"] = awakenings
        with pytest.raises(ValueError, match=r"\[m, 2m\]"):
            self.load(doc)

    @pytest.mark.parametrize("field", ["halfer", "thirder"])
    def test_statistics_must_follow_from_counts(self, field):
        doc = self.doc()
        doc["checkpoints"][0][field] = 0.9
        with pytest.raises(ValueError, match="h/m"):
            self.load(doc)

    def test_last_checkpoint_must_equal_totals(self):
        doc = self.doc()
        doc["checkpoints"].pop()
        with pytest.raises(ValueError, match="totals"):
            self.load(doc)

    def test_tampered_record(self):
        # One awakening after two experiments, a wrong halfer and a foreign
        # generator: every part of it is inconsistent.
        doc = self.seeded_doc()
        doc["generator"] = "mt19937"
        doc["checkpoints"][0].update(experiments=2, awakenings=1, halfer=0.9)
        with pytest.raises(ValueError):
            self.load(doc)


class TestRecordFromJsonText:
    """The reader's first step re-runs the seeded record that the text
    describes, renders it and compares bytes; any other text must read as
    ``json.loads`` reads it."""

    RECORD = run_simulation(TestSerialization.CFG)
    TEXT = record_to_json(RECORD)

    @staticmethod
    def loaded(monkeypatch):
        """The texts that ``record_from_json`` hands to ``_loads`` from now on."""
        texts, loads = [], simulation._loads
        monkeypatch.setattr(simulation, "_loads", lambda text: texts.append(text) or loads(text))
        return texts

    def test_written_text_skips_json_loads(self, monkeypatch):
        # Dense enough to re-run: n <= len(text) // 2.
        seeded = run_simulation(SimulationConfig(seed=9, n_experiments=1000, checkpoint_stride=10))
        loaded = self.loaded(monkeypatch)
        assert record_from_json(record_to_json(seeded)) == seeded
        assert loaded == []
        # A forced record has no config to re-run.
        forced = forced_run("HTTHT", checkpoint_stride=2)
        text = record_to_json(forced)
        assert record_from_json(text) == forced
        assert loaded == [text]

    def test_cli_json_output_skips_json_loads(self, monkeypatch):
        # simulate --format json ends its text with one "\n".
        argv = ["simulate", "--seed", "4", "--n", "100000", "--stride", "10", "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == cli.EXIT_OK
        monkeypatch.setattr(simulation, "_loads", None)
        assert record_from_json(out.getvalue()) == run_simulation(SimulationConfig(4, 100000, 10))

    def test_forged_huge_n_is_never_run(self, monkeypatch):
        def run(config):
            raise AssertionError("ran a simulation")

        monkeypatch.setattr(simulation, "run_simulation", run)
        text = self.TEXT.replace('"n_experiments": 1000,', f'"n_experiments": {2**53},', 1)
        with pytest.raises(ValueError, match="config"):
            record_from_json(text)

    def test_consistent_counts_from_another_stream_are_loaded(self, monkeypatch):
        # The config's marks with another seed's awakenings: a record the
        # writer writes, which the re-run misses and json.loads reads.
        config = SimulationConfig(seed=9, n_experiments=1000, checkpoint_stride=10)
        other = run_simulation(dataclasses.replace(config, seed=10))
        record = SimulationRecord(config, tuple(other.checkpoints))
        text = record_to_json(record)
        assert config.n_experiments <= len(text) // 2 and record != run_simulation(config)
        loaded = self.loaded(monkeypatch)
        assert record_from_json(text) == record
        assert loaded == [text]

    @staticmethod
    def refusal(text):
        """The message both paths give for ``text``, which neither may read."""
        messages = []
        for read in (record_from_json, simulation._loads):
            with pytest.raises(ValueError) as info:
                read(text)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        return messages[0]

    def test_changed_halfer_digit(self):
        at = self.TEXT.index('"halfer": 0.') + len('"halfer": 0.')
        digit = str((int(self.TEXT[at]) + 1) % 10)
        assert "h/m" in self.refusal(self.TEXT[:at] + digit + self.TEXT[at + 1:])

    # An all-Heads forced record writes 1.0 for both statistics; the first
    # row is edited.
    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param('"thirder": 1.0\n', '"thirder": 1.0,\n      "bogus": 1.0\n', id="extra-key"),
            pytest.param(',\n      "thirder": 1.0\n', "\n", id="missing-thirder"),
            pytest.param('"halfer": 1.0,', '"halfer": 1,', id="int-halfer"),
            pytest.param('"halfer": 1.0,', '"halfer": true,', id="bool-halfer"),
            pytest.param('"halfer": 1.0,', '"halfer": 0.0,', id="changed-digit"),
        ],
    )
    def test_row_other_than_its_checkpoint_writes(self, old, new):
        text = record_to_json(forced_run("HHH"))
        assert text.count(old) == 3
        message = self.refusal(text.replace(old, new, 1))
        assert message == "checkpoint halfer/thirder must equal h/m and h/awakenings"

    def test_changed_awakenings(self):
        first = self.RECORD.checkpoints[0].awakenings
        assert "h/m" in self.refusal(
            self.TEXT.replace(f'"awakenings": {first},', f'"awakenings": {first + 1},', 1)
        )

    def test_dropped_row(self):
        rows = self.TEXT.split("\n    },\n")
        assert "config" in self.refusal("\n    },\n".join(rows[:1] + rows[2:]))

    @pytest.mark.parametrize("extra", ["\n", " ", "\n\n  "])
    def test_trailing_whitespace_still_loads(self, extra):
        # json.loads takes white space after the document.
        assert record_from_json(self.TEXT + extra) == self.RECORD

    @pytest.mark.parametrize("indent", [None, 0, 4])
    def test_other_layouts_still_load(self, indent):
        assert record_from_json(json.dumps(json.loads(self.TEXT), indent=indent)) == self.RECORD

    def test_bytes_still_load(self):
        assert record_from_json(self.TEXT.encode()) == self.RECORD
        with pytest.raises(ValueError, match="h/m"):
            record_from_json(self.TEXT.replace('"halfer": 0.', '"halfer": 0.9', 1).encode())

    @staticmethod
    def as_loads(text):
        """The record or message ``record_from_json`` gives for ``text``,
        which must be what ``_loads`` gives; any other error fails."""
        outcomes = []
        for read in (record_from_json, simulation._loads):
            try:
                outcomes.append(read(text))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @pytest.mark.parametrize("value", [2**53 + 1, 2**63, 2**64 + 1000], ids=["2**53", "2**63", "2**64"])
    @pytest.mark.parametrize("field", ["n_experiments", "checkpoint_stride"])
    def test_config_past_2_to_53_or_int64(self, field, value):
        old = f'"{field}": {getattr(self.RECORD.config, field)}'
        assert "config" in self.as_loads(self.TEXT.replace(old, f'"{field}": {value}', 1))

    @pytest.mark.parametrize("stride", [2**53 + 1, 2**63 + 5, 2**64 + 7])
    def test_one_row_under_a_huge_stride(self, stride):
        record = run_simulation(SimulationConfig(seed=9, n_experiments=1000, checkpoint_stride=1000))
        text = record_to_json(record).replace('"checkpoint_stride": 1000', f'"checkpoint_stride": {stride}')
        config = SimulationConfig(seed=9, n_experiments=1000, checkpoint_stride=stride)
        assert self.as_loads(text) == SimulationRecord(config, record.checkpoints)
        # One mark, past int64, under as large a stride.
        text = text.replace('"n_experiments": 1000', f'"n_experiments": {stride}')
        assert "config" in self.as_loads(text)

    def test_a_forced_row_without_experiments(self):
        text = record_to_json(forced_run("HTTHT", checkpoint_stride=2))
        assert "malformed" in self.as_loads(text.replace('"experiments": 4', '"experiment": 4'))

    @pytest.mark.parametrize("n", [750, 1250, 1001])
    def test_rows_other_than_the_config_marks(self, n):
        # 4 rows against 3, 5 and 5 marks.
        text = self.TEXT.replace('"n_experiments": 1000,', f'"n_experiments": {n},', 1)
        assert "config" in self.as_loads(text)

    def test_repeated_row(self):
        rows = self.TEXT.split("\n    },\n")
        assert "strictly increase" in self.as_loads("\n    },\n".join(rows[:2] + rows[1:]))

    @pytest.mark.parametrize("digits", ["0{}", "00{}", "1" + "0" * 17, "1" + "0" * 18, "1" + "0" * 19,
                                        "9" * 18, str(2**64) + "{}", str(2**64 + 42), "9" * 25])
    @pytest.mark.parametrize("key", ["awakenings", "experiments"])
    @pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "forced"])
    def test_long_or_zero_led_counts(self, seeded, key, digits):
        # 2**64 followed by the count's digits would wrap to them in int64.
        record = self.RECORD if seeded else forced_run("HTTHT", checkpoint_stride=2)
        count = getattr(record.checkpoints[0], key)
        text = record_to_json(record).replace(f'"{key}": {count},', f'"{key}": {digits.format(count)},', 1)
        assert isinstance(self.as_loads(text), str)


class TestKeptColumns:
    """Records from the engine and the reader keep the int64 columns they
    were counted in, and any other checkpoint tuple is walked int by int into
    columns; every check on the columns runs when the record is built."""

    SEEDED = run_simulation(TestSerialization.CFG)
    FORCED = forced_run("HTTHT", checkpoint_stride=1)

    def records(self):
        written = [record_to_json(r) for r in (self.SEEDED, self.FORCED)]
        return [self.SEEDED, self.FORCED, *map(record_from_json, written)]

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    def test_another_config_is_refused(self, write):
        with pytest.raises(ValueError, match="checkpoint marks do not match the config"):
            write(dataclasses.replace(self.SEEDED, config=SimulationConfig(9, 1000, 125)))

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    @pytest.mark.parametrize("count", [1.0, True, np.int64(1)], ids=["float", "bool", "numpy-int64"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_tuple_built_by_hand_is_walked(self, write, count, at):
        # Equal to the forced record's checkpoints, whose first is (1, 1).
        first = list(self.FORCED.checkpoints[0])
        first[at] = count
        checkpoints = (Checkpoint(*first), *self.FORCED.checkpoints[1:])
        assert checkpoints == self.FORCED.checkpoints
        with pytest.raises(ValueError, match="must be ints"):
            write(SimulationRecord(None, checkpoints))

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    def test_a_trace_view_is_walked(self, write):
        # Its int64 and float64 columns are not a record's; its averages are floats.
        trace = lln_trace(SimulationConfig(5, 100, 7), indicator(Awakening.M_H))
        with pytest.raises(ValueError, match="must be ints"):
            write(SimulationRecord(None, trace.running_averages))

    @pytest.mark.parametrize("write", [record_to_json, record_to_csv])
    @pytest.mark.parametrize(
        "checkpoints", [((1, 1, 2), (2, 3)), ((1,), (2, 3)), (5, (2, 3))], ids=["triple", "single", "int"]
    )
    def test_a_checkpoint_that_is_not_a_pair_is_refused(self, write, checkpoints):
        # np.fromiter would read ((1, 1, 2), (2, 3)) as the rows (1, 1), (2, 2).
        with pytest.raises(ValueError, match="must be ints"):
            write(SimulationRecord(None, checkpoints))

    def test_copies_are_equal_and_write_the_same_bytes(self):
        for record in self.records():
            fields = dataclasses.asdict(record)
            config = fields["config"] and SimulationConfig(**fields["config"])
            copies = [
                copy.deepcopy(record),
                pickle.loads(pickle.dumps(record)),
                SimulationRecord(config, fields["checkpoints"]),
            ]
            for other in copies:
                assert other == record
                assert record_to_json(other) == record_to_json(record)
                assert record_to_csv(other) == record_to_csv(record)

    def test_kept_columns_are_read_only(self):
        for record in self.records():
            for column in record.checkpoints._columns:
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 2

    def test_canonical_records_are_not_walked(self, monkeypatch):
        records = [*self.records(), run_simulation(SimulationConfig(3, 10**5, 10))]
        texts = [(record_to_json(r), record_to_csv(r)) for r in records]

        def walk(*args, **kwargs):
            raise AssertionError("walked the checkpoint ints")

        monkeypatch.setattr(np, "fromiter", walk)
        monkeypatch.setattr(simulation, "_loads", None)
        with pytest.raises(AssertionError, match="walked"):
            record_to_csv(SimulationRecord(None, tuple(self.FORCED.checkpoints)))
        for record, (json_text, csv_text) in zip(records, texts):
            assert record_to_json(record) == json_text
            assert record_to_csv(record) == csv_text
            # Only a seeded text dense enough to re-run is read without json.loads.
            if record.config is None or record.config.n_experiments > len(json_text) // 2:
                continue
            read = record_from_json(json_text)
            assert read == record
            assert record_to_json(read) == json_text
            assert record_to_csv(read) == csv_text


class TestCheckpointView:
    """Engine and reader records hold their checkpoints as a read-only view
    over two int64 columns, which reads as the tuple of its Checkpoints;
    traces hold their running averages as the same view over an int64 and a
    float64 column, which reads as the tuple of its (n, average) pairs."""

    RECORDS = TestKeptColumns().records()
    MIXED = {Awakening.M_H: 0.5, Awakening.M_T: -3.25, Awakening.TU: 7.0}
    TRACES = [lln_trace(SimulationConfig(5, 300, 7), f) for f in (indicator(Awakening.M_H), MIXED)]

    @pytest.fixture(
        params=range(len(RECORDS) + len(TRACES)),
        ids=["seeded", "forced", "seeded-read", "forced-read", "trace", "trace-mixed"],
    )
    def view(self, request):
        views = [r.checkpoints for r in self.RECORDS] + [t.running_averages for t in self.TRACES]
        view = views[request.param]
        assert isinstance(view, simulation._Rows)
        return view

    def kind(self, view):
        """The type of ``view``'s items, and of the two values in each."""
        if any(view is record.checkpoints for record in self.RECORDS):
            return Checkpoint, (int, int)
        return tuple, (int, float)

    def test_index_reads_as_the_tuple(self, view):
        items = tuple(view)
        n = len(items)
        for i in [0, 1, n - 1, -1, -n, np.int64(n - 2), np.int64(-2), True]:
            assert view[i] == items[i]
        for i, error in [(n, IndexError), (-n - 1, IndexError), (2**70, IndexError),
                         (1.0, TypeError), ("1", TypeError), (None, TypeError)]:
            for checkpoints in (view, items):
                with pytest.raises(error):
                    checkpoints[i]

    def test_slices_are_views(self, view):
        items = tuple(view)
        for part in [slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, 100, 3), slice(4, 1)]:
            assert isinstance(view[part], simulation._Rows)
            assert view[part] == items[part]
            assert tuple(view[part]) == items[part]

    def test_sequence_methods_match_the_tuple(self, view):
        items = tuple(view)
        absent = Checkpoint(10**9, 10**9)
        assert len(view) == len(items)
        assert list(view) == list(items)
        assert list(reversed(view)) == list(reversed(items))
        assert items[-1] in view and tuple(items[0]) in view and absent not in view
        assert view.index(items[-1]) == items.index(items[-1])
        assert view.count(items[0]) == items.count(items[0]) == 1
        with pytest.raises(ValueError):
            view.index(absent)

    def test_equal_to_its_tuple_both_ways(self, view):
        items = tuple(view)
        assert view == items and items == view
        assert not (view != items or items != view)
        assert view != items[:-1] and items[:-1] != view
        assert view == view[:] and view != view[1:]
        assert view != list(items) and not view == list(items)
        assert hash(view) == hash(items)
        assert repr(view) == repr(items)

    def test_concatenates_as_its_tuple(self, view):
        # As a tuple would: a view and a tuple or another view join into a
        # tuple of their rows, and nothing else joins with a view.
        items, extra = tuple(view), ((10**9, 0.5),)
        for joined, expected in [(view[:-1] + extra, items[:-1] + extra), (extra + view[1:], extra + items[1:]),
                                 (view + view[:1], items + items[:1]), (() + view, items)]:
            assert type(joined) is tuple and joined == expected
        for other in ([], list(items), "ab", 1, None):
            with pytest.raises(TypeError):
                view + other
            with pytest.raises(TypeError):
                other + view

    def test_records_equal_their_tuple_copies(self):
        plains = [SimulationRecord(r.config, tuple(r.checkpoints)) for r in self.RECORDS]
        plains += [LLNTrace(t.f_values, tuple(t.running_averages)) for t in self.TRACES]
        for held, plain in zip(self.RECORDS + self.TRACES, plains):
            assert held == plain and plain == held
            assert hash(held) == hash(plain)
            assert repr(held) == repr(plain)

    def test_views_compare_their_awakenings(self):
        # The same marks 1..5; a Heads experiment wakes once, a Tails one twice.
        first = forced_run("HTTHT", checkpoint_stride=1)
        second = forced_run("THTHT", checkpoint_stride=1)
        assert first.checkpoints._columns[0].tolist() == second.checkpoints._columns[0].tolist()
        assert first.checkpoints != second.checkpoints
        assert not first.checkpoints == second.checkpoints
        assert first != second and not first == second

    def test_traces_compare_their_averages(self):
        config = SimulationConfig(5, 300, 7)
        first, second = (lln_trace(config, indicator(state)) for state in (Awakening.M_H, Awakening.M_T))
        assert first.running_averages._columns[0].tolist() == second.running_averages._columns[0].tolist()
        assert first.running_averages != second.running_averages
        assert not first.running_averages == second.running_averages
        assert first != second and not first == second

    def test_views_of_two_item_types_compare_as_their_tuples(self):
        # Checkpoint(2, 3) == (2, 3.0), so a record view equals a trace view
        # over the same numbers, and == stays transitive through the tuples.
        record = simulation._Rows(Checkpoint, np.array([2]), np.array([3]))
        trace = simulation._Rows(tuple, np.array([2]), np.array([3.0]))
        assert record == trace and trace == record
        assert not (record != trace or trace != record)
        assert hash(record) == hash(trace) == hash(((2, 3),))
        assert record != trace[:0] and trace[:0] != record

    def test_views_of_two_item_types_compare_exactly(self):
        # np.array_equal would cast the int64 column to float64, where
        # 2**53 + 1 rounds to 2.0**53; the tuples compare int and float exactly.
        record = simulation._Rows(Checkpoint, np.array([2**53]), np.array([2**53 + 1]))
        trace = simulation._Rows(tuple, np.array([2**53]), np.array([2.0**53]))
        assert tuple(record) != tuple(trace)
        assert record != trace and trace != record
        assert not record == trace and not trace == record

    def test_items_are_checkpoints_of_ints(self, view):
        # Or, in a trace, plain tuples of an int and a float.
        item_type, value_types = self.kind(view)
        for item in [view[0], view[-1], *view, *reversed(view)]:
            assert type(item) is item_type
            assert tuple(map(type, item)) == value_types

    def test_copies_keep_read_only_columns(self, view):
        item_type, value_types = self.kind(view)
        copies = [
            copy.deepcopy(view),
            pickle.loads(pickle.dumps(view)),
            dataclasses.asdict(LLNTrace((0.0, 0.0, 0.0), view))["running_averages"],
        ]
        if item_type is Checkpoint:  # a record refuses a trace's float averages
            copies.append(dataclasses.asdict(SimulationRecord(None, view))["checkpoints"])
        for other in copies:
            assert isinstance(other, simulation._Rows)
            assert other == view
            assert type(other[0]) is item_type
            for column, value_type in zip(other._columns, value_types, strict=True):
                assert column.dtype == {int: np.int64, float: np.float64}[value_type]
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 2


# --- block-boundary oracle --------------------------------------------------
# The whole-stream algorithm the block fold replaced: concatenate every block,
# take one cumsum over the run and index it at each mark.

B = BLOCK_SIZE


def oracle_heads(seed, n):
    sizes = [min(B, n - start) for start in range(0, n, B)]
    blocks = [toss_oracle.block_heads(seed, b, size) for b, size in enumerate(sizes)]
    return np.concatenate(blocks) == 1


def assert_matches_oracle(record, heads, stride, config):
    """Every value ``record`` reports equals the one counted from ``heads``."""
    n = len(heads)
    heads_cum = np.cumsum(heads, dtype=np.int64)
    total = int(heads_cum[-1])
    assert record.config == config
    assert record.generator == (None if config is None else GENERATOR_NAME)
    assert (record.total_experiments, record.total_awakenings) == (n, 2 * n - total)
    assert record.heads_experiments == record.heads_awakenings == total
    assert record.state_counts == StateCounts(total, n - total, n - total)
    expected = []
    for m in checkpoint_marks(n, stride):
        h = int(heads_cum[m - 1])
        expected.append((m, 2 * m - h, h / m, h / (2 * m - h)))
    observed = [(c.experiments, c.awakenings, c.halfer, c.thirder) for c in record.checkpoints]
    assert observed == expected


def oracle_trace(heads, stride, f):
    lengths = np.where(heads, 1, 2).astype(np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1])
    states = np.full(total, 2, dtype=np.uint8)
    states[starts[heads]] = 0
    states[starts[~heads]] = 1
    cum_mh = np.cumsum(states == 0, dtype=np.int64)
    cum_mt = np.cumsum(states == 1, dtype=np.int64)
    exact_f = [Fraction(f[s]) for s in (Awakening.M_H, Awakening.M_T, Awakening.TU)]
    averages = []
    for n in checkpoint_marks(total, stride):
        c_mh, c_mt = int(cum_mh[n - 1]), int(cum_mt[n - 1])
        c_tu = n - c_mh - c_mt
        avg = (c_mh * exact_f[0] + c_mt * exact_f[1] + c_tu * exact_f[2]) / n
        averages.append((n, float(avg)))
    return tuple(averages)


SIZES = [1, B - 1, B, B + 1, 3 * B + 5]
BOUNDARY_CASES = [
    (n, stride)
    for n in SIZES
    for stride in (1, 7, B, 10**6)
    if not (stride == 1 and n == SIZES[-1])
]
NON_INDICATOR = {Awakening.M_H: 0.1, Awakening.M_T: -2.5, Awakening.TU: 1 / 3}


@pytest.mark.parametrize("n, stride", BOUNDARY_CASES)
class TestBlockBoundaryOracle:
    SEED = 2024

    def test_run_simulation(self, n, stride):
        config = SimulationConfig(self.SEED, n, stride)
        assert_matches_oracle(
            run_simulation(config), oracle_heads(self.SEED, n), stride, config
        )

    @pytest.mark.parametrize(
        "f", [indicator(Awakening.M_T), NON_INDICATOR], ids=["indicator", "mixed"]
    )
    def test_lln_trace(self, n, stride, f):
        config = SimulationConfig(self.SEED, n, stride)
        expected = oracle_trace(oracle_heads(self.SEED, n), stride, f)
        assert lln_trace(config, f).running_averages == expected

    def test_forced_run(self, n, stride):
        heads = oracle_heads(self.SEED, n)
        coins = ["H" if x else "T" for x in heads.tolist()]
        assert_matches_oracle(forced_run(coins, checkpoint_stride=stride), heads, stride, None)


class TestMemory:
    CFG = SimulationConfig(seed=3, n_experiments=2**21, checkpoint_stride=10**6)
    LIMIT = 8 * 2**20

    @pytest.mark.parametrize("path", ["run_simulation", "lln_trace"])
    def test_peak_is_block_sized(self, path):
        # The whole-stream algorithm peaked at 34 MB (record) and 128 MB
        # (trace) on this config.
        run = {
            "run_simulation": lambda: run_simulation(self.CFG),
            "lln_trace": lambda: lln_trace(self.CFG, indicator(Awakening.M_H)),
        }[path]
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT

    @pytest.mark.parametrize("path", ["run_simulation", "record_from_json"])
    def test_a_record_retains_about_its_columns(self, path):
        # 1e5 checkpoints, whose two int64 columns take 1.6 MB. A record that
        # also held a Checkpoint tuple per row retained about 15 MB.
        config = SimulationConfig(seed=3, n_experiments=10**6, checkpoint_stride=10)
        text = record_to_json(run_simulation(config))
        make = {"run_simulation": lambda: run_simulation(config), "record_from_json": lambda: record_from_json(text)}[path]
        tracemalloc.start()
        try:
            record = make()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record.checkpoints) == 10**5
        assert retained < 4 * 2**20

    @pytest.mark.parametrize("path", ["run_simulation", "forced_run"])
    def test_a_dense_record_peaks_at_about_its_columns(self, path):
        # 1e6 checkpoints, whose two int64 columns take 16 MB. Joining each
        # block's columns and checking the joined record peaked 30.5 and
        # 31.5 MiB above them.
        coins = np.where(toss_oracle.block_heads(5, 0, 10**6), "H", "T").tolist()
        make = {"run_simulation": lambda: run_simulation(SimulationConfig(5, 10**6, 1)),
                "forced_run": lambda: forced_run(coins, checkpoint_stride=1)}[path]
        tracemalloc.start()
        try:
            record = make()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record.checkpoints) == 10**6
        assert peak - retained < self.LIMIT

    def test_json_writer_peak_is_a_small_multiple_of_its_text(self):
        # 1e5 checkpoints. Handing one dict per checkpoint to json.dumps
        # peaked at 8.4x the text; the row template stays under 2.5x.
        record = run_simulation(SimulationConfig(seed=3, n_experiments=10**6, checkpoint_stride=10))
        tracemalloc.start()
        try:
            text = record_to_json(record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_a_trace_retains_about_its_columns(self):
        # 300,107 marks, whose int64 and float64 columns take 4.8 MB. A tuple
        # of (n, average) tuples retained 37 MB.
        tracemalloc.start()
        try:
            trace = lln_trace(SimulationConfig(5, 2 * 10**5, 1), indicator(Awakening.M_H))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.running_averages) == 300_107
        assert retained < 10 * 2**20

    def test_json_reader_peak_is_below_twice_its_text(self):
        # 1e5 checkpoints. json.loads with a dict per checkpoint peaked at
        # 3.1x the text; rendering the text again to compare it needs 1.3x.
        record = run_simulation(SimulationConfig(seed=3, n_experiments=10**6, checkpoint_stride=10))
        text = record_to_json(record)
        tracemalloc.start()
        try:
            read = record_from_json(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == record
        assert peak < 2 * len(text)
