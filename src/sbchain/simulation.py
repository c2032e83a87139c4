"""Seeded Monte Carlo engine for the repeated experiment.

Each experiment is one fair coin toss; Heads contributes a single Heads-Monday
awakening, Tails a Tails-Monday followed by a Tuesday. A run reports both
camps' statistics: the per-experiment Heads frequency (halfer) and the
per-awakening Heads frequency (thirder), together with per-state occupation
frequencies and running law-of-large-numbers averages for arbitrary state
functions.

Reproducibility contract: tosses come from numpy's Philox counter-based
generator (philox4x64) keyed with (seed, block_index), one independent stream
per block of 65536 experiments. A run draws them all from one generator and
one state, which each block re-keys by writing its index into the key, at
counter 0 with no buffered words: Philox's output is a function of its key
and counter alone, so that is the stream a fresh ``Philox(key=...)`` gives.
A toss is the top bit of one byte of the block's raw 64-bit output, the
bytes of each word taken in little-endian order: Heads is a byte >= 128.
That equals ``Generator.integers(0, 2, dtype=np.uint8)`` on numpy 2.x,
but a record depends only on the BitGenerator stream, which numpy keeps
stable across releases (NEP 19); ``Generator`` method streams are not. The
toss stream depends only on the seed, so identical configs produce
bit-identical records. Every path is one fold over the blocks in experiment
order that keeps only running Heads counts, so memory is one block plus the
checkpoints for any run length.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from itertools import chain, repeat
from operator import eq, truediv
from typing import Iterable, Iterator, Mapping, NamedTuple

import json
import math
import numbers

import numpy as np

from .rationals import _decimal, _required, _shown, require_int
from .sbp_model import _HEADS, Awakening, EmptyInput, Toss, _parse_tokens

GENERATOR_NAME = "philox4x64"
BLOCK_SIZE = 1 << 16
_STATES = (Awakening.M_H, Awakening.M_T, Awakening.TU)


@dataclass(frozen=True)
class SimulationConfig:
    """Seed, run length, and checkpoint cadence (every ``checkpoint_stride``
    experiments)."""

    seed: int
    n_experiments: int
    checkpoint_stride: int

    def __post_init__(self):
        require_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {_decimal(self.seed)}")
        require_int("n_experiments", self.n_experiments, 1)
        require_int("checkpoint_stride", self.checkpoint_stride, 1)


class StateCounts(NamedTuple):
    m_h: int
    m_t: int
    tu: int


class Checkpoint(NamedTuple):
    """Counts after m = ``experiments`` complete experiments, whose
    h = 2m - ``awakenings`` Heads give both camps' statistics."""

    experiments: int
    awakenings: int

    @property
    def halfer(self) -> float:
        return (2 * self.experiments - self.awakenings) / self.experiments

    @property
    def thirder(self) -> float:
        return (2 * self.experiments - self.awakenings) / self.awakenings


_DOMAIN = "checkpoint experiments must strictly increase within [1, 2**53], awakenings in [m, 2m]"


@dataclass(frozen=True)
class SimulationRecord:
    """Config and checkpoints of one run; every counter derives from them.

    The last checkpoint holds the totals. ``config`` and ``generator`` are None
    for forced replays of an explicit coin list, which carry no RNG provenance.
    ``checkpoints`` is checked once, here, and kept as a read-only sequence
    over int64 columns (m, a), equal to the tuple of its Checkpoints, made as
    they are read; it is not a tuple, and ``tuple(record.checkpoints)`` gives
    one. ValueError unless ``config`` is a SimulationConfig or None and the
    checkpoints are a sequence of one or more, each a pair of ints (a
    Checkpoint or a plain ``(m, a)``), m strictly increasing within
    [1, 2**53], each a in [m, 2m], and the marks the config's. Only
    checkpoints other than a Checkpoint view are walked int by int.
    """

    config: SimulationConfig | None
    checkpoints: Sequence[Checkpoint]

    def __post_init__(self):
        checkpoints = self.checkpoints
        if not isinstance(self.config, (SimulationConfig, type(None))) or not isinstance(checkpoints, Sequence):
            raise ValueError("a record needs a SimulationConfig or None and a sequence of checkpoints")
        n = len(checkpoints)
        if n < 1:
            raise ValueError("a record needs at least one checkpoint")
        if isinstance(checkpoints, _Rows) and checkpoints._item is Checkpoint:
            m, a = checkpoints._columns
        else:
            # np.fromiter would cast a float, a bool or a numpy int without a word,
            # and read items other than pairs as one run of ints.
            if not (all(map(issubclass, set(map(type, checkpoints)), repeat(Sequence)))
                    and set(map(len, checkpoints)) == {2}
                    and set(map(type, chain.from_iterable(checkpoints))) <= {int}):
                raise ValueError("checkpoint experiments and awakenings must be ints, a pair per checkpoint")
            try:
                flat = np.fromiter(chain.from_iterable(checkpoints), np.int64, 2 * n)
            except OverflowError:  # a count past int64
                raise ValueError(_DOMAIN) from None
            m, a = flat[0::2], flat[1::2]
            object.__setattr__(self, "checkpoints", _Rows(Checkpoint, m, a))
        # Each test runs only once the ones before it hold, so 2 * m fits.
        if m[0] < 1 or m[-1] > 2**53 or (m[1:] <= m[:-1]).any() or ((a < m) | (a > 2 * m)).any():
            raise ValueError(_DOMAIN)
        if self.config is not None and not np.array_equal(m, _marks(self.config, n)):
            raise ValueError("checkpoint marks do not match the config")

    @property
    def generator(self) -> str | None:
        return None if self.config is None else GENERATOR_NAME

    @property
    def total_experiments(self) -> int:
        return self.checkpoints[-1].experiments

    @property
    def total_awakenings(self) -> int:
        return self.checkpoints[-1].awakenings

    @property
    def heads_experiments(self) -> int:
        return 2 * self.total_experiments - self.total_awakenings

    # Each Heads experiment has exactly one awakening.
    heads_awakenings = heads_experiments

    @property
    def state_counts(self) -> StateCounts:
        heads = self.heads_experiments
        tails = self.total_experiments - heads
        return StateCounts(heads, tails, tails)


@dataclass(frozen=True)
class LLNTrace:
    """Running averages of a state function over the awakening stream.

    ``f_values`` is the function in state order (M_H, M_T, Tu);
    ``running_averages`` pairs an awakening count n with the average of f over
    the first n awakenings. From :func:`lln_trace` it is a read-only sequence
    over an int64 and a float64 column, equal to the tuple of its ``(n,
    average)`` pairs of a Python int and float, made as they are read; it is
    not a tuple, and ``tuple(trace.running_averages)`` gives one.
    """

    f_values: tuple[float, float, float]
    running_averages: Sequence[tuple[int, float]]


def _draws(seed: int, blocks: Iterable[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Fair tosses as uint8, 1 meaning Heads, for each (block_index, count)
    in ``blocks``, from a Philox keyed to (seed, block_index).

    One Philox and one state serve the whole stream: each block writes its
    index into the key and sets the state whole, as the setter copies, so it
    starts where ``Philox(key=...)`` does, at counter 0 with no buffered
    words. ``Generator.integers(0, 2, dtype=np.uint8)`` draws the same
    tosses, as its bounded-integer loop never rejects on a range of 2.
    """
    # A seed spares the OS entropy that Philox() draws; the key replaces it.
    philox = np.random.Philox(0)
    # An explicit uint64 key: numpy reads a list such as [0, 2**64 - 1] as
    # float64, which rounds the key.
    key = np.array([seed, 0], dtype=np.uint64)
    zeros = np.zeros(4, np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for block_index, count in blocks:
        key[1] = block_index
        philox.state = state
        raw = philox.random_raw(-(-count // 8)).astype("<u8", copy=False).view(np.uint8)
        # A toss is its byte's top bit: Heads is byte >= 128, written in place as 0/1.
        yield np.greater_equal(raw, 128, out=raw.view(np.bool_)).view(np.uint8)[:count]


def _seeded_blocks(config: SimulationConfig) -> Iterator[np.ndarray]:
    # One generator and one state for the whole stream. Every seeded entry
    # point reads its config here first.
    n = _required("config", SimulationConfig, config).n_experiments
    sizes = (min(BLOCK_SIZE, n - start) for start in range(0, n, BLOCK_SIZE))
    return _draws(config.seed, enumerate(sizes))


# The widest span of a block that an awakening mark's running count is taken over,
# once probes have narrowed it.
_SPAN = 2048


def _fold(
    blocks: Iterable[np.ndarray], stride: int, per_awakening: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the toss blocks once, reading running Heads counts at marks.

    Each block holds at most ``BLOCK_SIZE`` tosses. Marks sit at every
    ``stride``-th experiment, or awakening if ``per_awakening``, plus the
    last one. Yields, for each block that holds marks, int64 arrays over its
    marks q: q, the number m of experiments complete within the first q
    units, and their Heads count h(m). After m experiments there have been
    a(m) = 2m - h(m) awakenings; an awakening mark with a(m) < q stops on the
    Monday of Tails experiment m + 1.

    A running count is taken only over a span [lo, hi) of the block, the
    Heads before it counted once, and each mark reads the count after its
    lo + k tosses, 0 <= k <= hi - lo. With the block's first and last marks
    r_a <= r_b in block-local units, the span is [r_a, r_b) for experiment
    marks. For awakening marks, let the block hold L tosses, H of them Heads,
    and h(j) and a(j) count over its first j. The j experiments complete at
    awakening mark r have a(j) <= r < a(j + 1). As j <= a(j) <= 2j,
    floor(r / 2) <= j <= r. The last L - j tosses hold at most L - j Heads,
    so H - (L - j) <= h(j) <= H and 2j - H <= a(j) <= j + L - H, which give
    r - (L - H) <= j <= floor((r + H) / 2). The span starts as
    [max(floor(r_a / 2), r_a - (L - H)), min(r_b, floor((r_b + H) / 2))].
    Probes then narrow it, each a ``count_nonzero`` from its start to its
    middle, since a(j) never decreases: a middle with a(mid) <= r_a becomes
    the start, its Heads count carried along, and one with a(mid) > r_b the
    end. Probing stops once the span holds at most ``_SPAN`` tosses, or when
    a middle falls between the marks, as it does at once at dense strides.
    """
    m0 = h0 = c0 = 0
    for block in blocks:
        size, heads = len(block), int(np.count_nonzero(block))
        m1, h1 = m0 + size, h0 + heads
        c1 = 2 * m1 - h1 if per_awakening else m1
        if c0 - c0 % stride + stride <= c1:  # the block holds a mark
            q = np.arange(c0 - c0 % stride + stride, c1 + 1, stride)
            first, last = int(q[0]) - c0, int(q[-1]) - c0  # block-local
            lo, hi = first, last
            if per_awakening:
                lo, hi = max(first // 2, first - (size - heads)), min(last, (last + heads) // 2)
            before = int(np.count_nonzero(block[:lo]))
            while per_awakening and hi - lo > _SPAN:
                mid = (lo + hi) // 2
                h = before + int(np.count_nonzero(block[lo:mid]))
                if 2 * mid - h <= first:
                    lo, before = mid, h
                elif 2 * mid - h > last:
                    hi = mid
                else:
                    break
            # local[k] is the Heads count of the span's first k tosses. Counts
            # within a block fit int32; only the values read at marks are
            # widened before the Heads ahead of them are added.
            local = np.zeros(hi - lo + 1, np.int32)
            np.cumsum(block[lo:hi], dtype=np.int32, out=local[1:])
            if per_awakening:
                # 2k - local[k] awakenings after the span's first k experiments:
                # a(lo + k) - 2lo + before, so the marks are moved the other way.
                wakes = np.arange(0, 2 * len(local), 2, dtype=np.int32)
                wakes -= local
                k = np.searchsorted(wakes, (q - (c0 + 2 * lo - before)).astype(np.int32), side="right") - 1
            else:
                k = q - (c0 + lo)
            yield q, k + (m0 + lo), local[k].astype(np.int64) + (h0 + before)
        m0, h0, c0 = m1, h1, c1
    if c0 % stride:
        yield np.array([c0]), np.array([m0]), np.array([h0])


class _Rows(Sequence):
    """Rows over columns that it keeps and marks read-only, each row an
    ``item`` of the row's Python scalars, made as it is read: a tuple type
    such as Checkpoint, or tuple itself. The view equals what the tuple of
    its rows equals, another view included; views of one item type compare
    column by column. Slices, copies and pickles are views too, while ``+``
    joins rows as a tuple does and gives a tuple. A Checkpoint view over the
    int64 columns (m, a) is what every SimulationRecord holds, and the
    writers render from its columns."""

    __slots__ = ("_item", "_columns")

    def __init__(self, item: type, *columns: np.ndarray):
        for column in columns:
            column.flags.writeable = False
        self._item, self._columns = item, columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Rows(self._item, *(column[i] for column in self._columns))
        i = range(len(self))[i]  # the index rules and error types of a tuple
        return tuple.__new__(self._item, [column.item(i) for column in self._columns])

    def __iter__(self):
        # tuple.__new__ skips the Python-level NamedTuple constructor.
        return map(tuple.__new__, repeat(self._item), zip(*(column.tolist() for column in self._columns)))

    def __eq__(self, other):
        if isinstance(other, _Rows) and self._item is other._item:
            return all(map(np.array_equal, self._columns, other._columns))
        # Not np.array_equal across item types: it casts int64 to float64,
        # so 2**53 + 1 would equal 2.0**53.
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _Rows)) else NotImplemented

    def __add__(self, other):
        return tuple(self) + other

    def __radd__(self, other):
        return other + tuple(self)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return _Rows, (self._item, *self._columns)


def _record(
    blocks: Iterable[np.ndarray], stride: int, config: SimulationConfig | None = None
) -> SimulationRecord:
    _, m, h = map(np.concatenate, zip(*_fold(blocks, stride)))
    return SimulationRecord(config, _Rows(Checkpoint, m, 2 * m - h))


def run_simulation(config: SimulationConfig) -> SimulationRecord:
    """Run ``config.n_experiments`` seeded experiments."""
    return _record(_seeded_blocks(config), config.checkpoint_stride, config)


def forced_run(
    coins: Iterable[Toss | str], checkpoint_stride: int = 1
) -> SimulationRecord:
    """Replay an explicit coin sequence through the same counting pipeline."""
    heads = np.frombuffer(_parse_tokens(_HEADS, coins, bytes), np.uint8)
    if not heads.size:
        raise EmptyInput("cannot run a simulation on an empty coin sequence")
    require_int("checkpoint_stride", checkpoint_stride, 1)
    blocks = (heads[i:i + BLOCK_SIZE] for i in range(0, len(heads), BLOCK_SIZE))
    return _record(blocks, checkpoint_stride)


def _totals(config: SimulationConfig) -> SimulationRecord:
    """The run of ``config`` at stride n, whose one checkpoint holds the
    totals: one count-only pass."""
    return run_simulation(replace(config, checkpoint_stride=config.n_experiments))


def halfer_statistic(record: SimulationRecord) -> float:
    """Per-experiment Heads frequency."""
    return _required("record", SimulationRecord, record).heads_experiments / record.total_experiments


def thirder_statistic(record: SimulationRecord) -> float:
    """Per-awakening Heads frequency."""
    return _required("record", SimulationRecord, record).heads_awakenings / record.total_awakenings


def state_frequencies(record: SimulationRecord) -> tuple[float, float, float]:
    """Occupation frequency of (M_H, M_T, Tu) in the awakening stream."""
    counts = _required("record", SimulationRecord, record).state_counts
    return tuple(count / record.total_awakenings for count in counts)


def _finite(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite ``numbers.Real``
    other than a bool, so text such as "0.5" and True are not converted."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, got {_shown(value)}")
    return x


def lln_trace(config: SimulationConfig, f: Mapping[Awakening, float]) -> LLNTrace:
    """Running averages of f over the awakening stream of a seeded run.

    Uses the same toss stream as :func:`run_simulation` for the same config.
    Checkpoints sit every ``config.checkpoint_stride`` awakenings plus the
    final one. Averages are computed in exact rational arithmetic from the
    per-state counts (so a constant f averages to exactly that constant) and
    rounded once to float.
    """
    if not isinstance(f, Mapping):
        raise ValueError(f"f must be a mapping from each state to a number, got {f!r}")
    missing = [s for s in _STATES if s not in f]
    if missing:
        raise ValueError(f"f must be defined on all three states; missing {missing}")
    f_values = tuple(_finite(f"f({s.name})", f[s]) for s in _STATES)
    # f = (a, b, c) / e on one power-of-two denominator e. int / int is
    # correctly rounded, exactly as float(Fraction) is, so each average below
    # is the exact rational average rounded once.
    ratios = [v.as_integer_ratio() for v in f_values]
    e = max(den for _, den in ratios)
    a, b, c = (num * (e // den) for num, den in ratios)
    folded = list(_fold(_seeded_blocks(config), config.checkpoint_stride, per_awakening=True))
    # h Heads Mondays and m - h Tuesdays; the other q - m awakenings are Tails
    # Mondays. Only one block's counts are Python ints at a time.
    counts = chain.from_iterable(zip(q.tolist(), h.tolist(), (q - m).tolist(), (m - h).tolist())
                                 for q, m, h in folded)
    averages = np.fromiter(((mh * a + mt * b + tu * c) / (n * e) for n, mh, mt, tu in counts), np.float64)
    return LLNTrace(f_values, _Rows(tuple, np.concatenate([q for q, _, _ in folded]), averages))


def indicator(state: Awakening) -> dict[Awakening, float]:
    """The function that is 1.0 on ``state`` and 0.0 elsewhere; ValueError
    unless ``state`` is one of the chain's three states."""
    if state not in _STATES:
        raise ValueError(f"indicator needs M_H, M_T or TU, got {_shown(state)}")
    return {s: 1.0 if s is state else 0.0 for s in _STATES}


# --- record serialization -------------------------------------------------
# JSON carries full-precision floats so parse(print(record)) == record, and
# is byte for byte what json.dumps(indent=2) writes for the same document;
# the CSV view renders one checkpoint per row with 6 fractional digits.


def _header(record: SimulationRecord) -> dict:
    """Every JSON field of ``record`` except its checkpoints, in schema order."""
    counts = record.state_counts
    return {
        "generator": record.generator,
        "config": None if record.config is None else asdict(record.config),
        "heads_experiments": record.heads_experiments,
        "total_experiments": record.total_experiments,
        "heads_awakenings": record.heads_awakenings,
        "total_awakenings": record.total_awakenings,
        "state_counts": {"M_H": counts.m_h, "M_T": counts.m_t, "Tu": counts.tu},
    }


def _marks(config: SimulationConfig, rows: int) -> np.ndarray:
    """The experiments m at each of ``rows`` checkpoints of a run of
    ``config``, as int64: every stride-th, then the last; ValueError unless
    the run has ``rows`` marks, none past 2**53. Both are tested on ints
    before any array is built, so the multiples of the stride fit int64."""
    n, stride = config.n_experiments, config.checkpoint_stride
    if n > 2**53 or rows != -(-n // stride):
        raise ValueError("checkpoint marks do not match the config")
    marks = np.arange(1, rows + 1, dtype=np.int64) * min(stride, n)
    marks[-1] = n
    return marks


_JSON_TAIL = "\n  ]\n}"


def _json_head(header: dict) -> str:
    # The header is small and goes through json, so _header stays the schema;
    # json's pure-Python indent encoder is far too slow for 1e5+ rows.
    head = json.dumps({**header, "checkpoints": []}, indent=2)
    return head.removesuffix("[]\n}") + "[\n"


_ROWS_KEY = '"checkpoints": ['


def _renders(record: SimulationRecord, text: str) -> bool:
    """Whether ``text`` is :func:`record_to_json` of ``record``, perhaps with
    the one "\\n" after it that ``simulate --format json`` writes. The text is
    rendered a chunk at a time and compared in place; repr is a function of
    the float, so equal text means equal statistics."""
    at = 0
    for chunk in _text("json", _json_head(_header(record)), [record.checkpoints._columns]):
        if not text.startswith(chunk, at):
            return False
        at += len(chunk)
    return text[at:at + 2] in ("", "\n")


def _reread(text: str) -> SimulationRecord | None:
    """The seeded record whose :func:`record_to_json` is ``text``, or None.

    A seeded record is a function of its config, so the candidate is the
    config's :func:`run_simulation`, kept only if it :func:`_renders` as
    ``text``. It is run only when n <= len(text) // 2, about 2 bytes of text
    per experiment, so a forged header never starts a run larger than its own
    text; sparser strides and forced records are left to :func:`_loads`.
    """
    try:
        end = text.index(_ROWS_KEY) + len(_ROWS_KEY)
        # A forced record's config, null, raises TypeError here.
        config = SimulationConfig(**json.loads(text[:end] + "]}")["config"])
    except (KeyError, TypeError, ValueError, RecursionError):
        return None
    rerun = config.n_experiments <= len(text) // 2 and run_simulation(config)
    if rerun and _renders(rerun, text):
        return rerun
    return None


def record_from_json(text: str) -> SimulationRecord:
    """Parse :func:`record_to_json` output.

    Raises ValueError for any document that function could not have written.
    Two paths, the second taken only when the first gives no record:

    - re-run: a seeded record whose n is at most len(text) // 2 is run again
      from its config, and kept if it renders as ``text``, with or without
      the one "\\n" that ``simulate --format json`` adds after it;
    - ``json.loads``, for every other text and any layout: its config and row
      counts give a record, and the document must be, field for field, what
      :func:`record_to_json` writes for that record.
    """
    return isinstance(text, str) and _reread(text) or _loads(text)


def _loads(text: str) -> SimulationRecord:
    """:func:`record_from_json` by way of ``json.loads``, for any layout.

    The config and the rows' counts give the record, which checks its
    checkpoints as it is built. Each row must then equal its
    Checkpoint's four fields, with float statistics, and each header field
    the one :func:`_header` gives: field for field, what
    :func:`record_to_json` writes for the record.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("a record's JSON is nested too deeply") from None
    except TypeError:
        raise ValueError(f"a record must be JSON text, got {type(text).__name__}") from None
    if not isinstance(doc, dict):
        raise ValueError("a record must be a JSON object")
    try:
        config = None if doc["config"] is None else SimulationConfig(**doc["config"])
        rows = doc["checkpoints"]
        counts = tuple((row["experiments"], row["awakenings"]) for row in rows)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record: {exc!r}") from None
    record = SimulationRecord(config, counts)
    # Each row streamed against its Checkpoint's; == lets 1 or true pass for
    # 1.0, so the statistics' type is tested too. The counts are ints already.
    written = ({"experiments": c.experiments, "awakenings": c.awakenings, "halfer": c.halfer,
                "thirder": c.thirder} for c in record.checkpoints)
    if not (all(map(eq, rows, written))
            and {type(row[key]) for row in rows for key in ("halfer", "thirder")} <= {float}):
        raise ValueError("checkpoint halfer/thirder must equal h/m and h/awakenings")
    header = _header(record)
    if doc.keys() != {*header, "checkpoints"}:
        raise ValueError(
            f"a record has exactly the fields {[*header, 'checkpoints']}, got {list(doc)}"
        )
    for key, expected in header.items():
        # Compared as JSON text so that 5.0 or true cannot stand in for an int.
        if json.dumps(doc[key], sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise ValueError(
                f"{key} must be {expected!r}, derived from the config and the "
                f"checkpoint totals; got {doc[key]!r}"
            )
    return record


_CSV_HEADER = "experiments,awakenings,halfer,thirder,freq_MH,freq_MT,freq_TU\n"

# "0000" .. "9999" as little-endian words of four ASCII digits, indexed by
# value; _TOP is the same with NUL in place of leading zeros (0 is four NULs),
# for a number's top group.
_GROUP = np.frombuffer(("%04d" * 10**4 % (*range(10**4),)).encode(), "<u4")
_TOP = np.frombuffer(("%4s" * 10**4 % ("", *range(1, 10**4))).replace(" ", "\0").encode(), "<u4")
# y = x * 1e6 for a float64 x in [0, 1] lies within 2**-34 of the exact
# x·10**6, so rint(y) is the correctly rounded ".6f" value of x unless y lies
# this close to a half-integer.
_NEAR_TIE = 1e-6


def _digits(x: np.ndarray, groups: int) -> np.ndarray:
    """ASCII digits of each int64 x >= 0, one uint8 row of ``4 * groups``
    bytes each, right-aligned, with NUL in place of leading zeros."""
    out = np.empty((len(x), groups), "<u4")
    for j in reversed(range(groups)):  # the lowest group first
        q = x // 10**4
        r = x - q * 10**4
        out[:, j] = np.where(q > 0, _GROUP[r], _TOP[r])
        x = q
    return out.view(np.uint8)


def _millionths(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """h/m, h/a and (a - m)/a as ".6f" values in millionths, int64 of shape
    (3, len(m)).

    Each x = num / den is a float64 quotient, which is Python's correctly
    rounded int / int while den <= 2**53. Rows with a > 2**53, or a frequency
    near a rounding tie, take their values from ``format``.
    """
    t = a - m
    h = m - t
    y = np.stack([h / m, h / a, t / a]) * 1e6
    k = np.rint(y)
    near = (np.abs(y - k) > 0.5 - _NEAR_TIE).any(axis=0) | (a > 2**53)
    k = k.astype(np.int64)
    for i in np.flatnonzero(near).tolist():
        mi, ai = int(m[i]), int(a[i])
        hi = 2 * mi - ai
        k[:, i] = [int(f"{x:.6f}".replace(".", "")) for x in (hi / mi, hi / ai, (ai - mi) / ai)]
    return k


def _split(x):
    """Veltkamp's split of float64 x into hi + lo of 26 significant bits
    each, so that products of the halves are exact."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


# x in [10**-j, 10**(1-j)) for j = 5 - i, where i counts the entries <= x,
# puts v = x·10**p in [10**16, 10**17) for p = 21 - i. Each 10**p is an
# exact double, and x >= 10**-j exactly when x >= 1e-j, as each 1e-j rounds up.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1])
_SCALE = np.array([float(10**p) for p in range(21, 16, -1)])
_SCALE_HI, _SCALE_LO = _split(_SCALE)
# By 10·i + v's leading digit, NULs, "0.", j - 1 zeros and the digit as one
# 8-byte word, so that one flat gather fills them; _TAIL is _GROUP with
# trailing zeros NUL, built in numpy, as 1e4 strings would add 0.25 MB to the
# CLI's peak RSS.
_LEAD = np.frombuffer("".join("\0" * (i + 1) + "0." + "0" * (4 - i) + str(d) for i in range(5)
                              for d in range(10)).encode(), "<u8")
_TAIL = _GROUP.view(np.uint8).reshape(-1, 4)
_TAIL = np.where(np.logical_and.accumulate(_TAIL[:, ::-1] == ord("0"), 1)[:, ::-1], 0, _TAIL).view("<u4")[:, 0]


def _shortest(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """repr(num / den) for int64 columns 0 <= num <= den, one uint8 row of 24
    bytes each with NULs around it.

    For 1e-4 <= x < 1, repr writes "0.", j - 1 zeros and the shortest digits
    that read back as x, the nearest such if several do. Dekker's product
    gives v = x·10**p exactly as hi + lo, so with c17 = round(v) and r = v - c17,
    c16 = round(v / 10) and c15 = round(v / 100) follow from c17's last
    digits and r's sign. A candidate w·10**-p reads back as x when |w - v| is
    below h, half the gap from x to its neighbours in units of 10**-p (never
    equal: h is an odd multiple of half v's last bit). h < 11.1, so at most
    one multiple of 100 is that close, and shorter digits are c15's without
    its trailing zeros; c16 and c17 are the nearest of their length. An x =
    2**-k reads back as c15, whose digits are exact, so its narrower lower
    gap does not matter. Every other x, a tie, and den > 2**53, where num /
    den is not Python's int / int, take repr itself.
    """
    x = num / den
    i = np.searchsorted(_DECADES, x, "right")
    scale, s_hi, s_lo = _SCALE[i], _SCALE_HI[i], _SCALE_LO[i]
    x_hi, x_lo = _split(x)
    hi = x * scale
    lo = x_lo * s_lo - (((hi - x_hi * s_hi) - x_lo * s_hi) - x_hi * s_lo)  # x·10**p - hi
    r = lo - np.rint(lo)
    c17 = hi.astype(np.int64) + (lo - r).astype(np.int64)
    w, half = c17, np.ldexp(scale, np.frexp(x)[1] - 54)
    for unit in (10, 100):
        c, digits = np.divmod(c17, unit)
        c = (c + ((digits > unit // 2) | ((digits == unit // 2) & (r > 0)))) * unit
        w = np.where(np.abs((c - c17) - r) < half, c, w)
    fallback = (i == 0) | (x == 1) | (np.abs(r) == 0.5) | ((c17 % 10 == 5) & (r == 0)) | (den > 2**53)
    w[fallback] = 10**16
    out = np.empty((len(x), 6), "<u4")
    zeros = np.ones(len(x), bool)  # whether every lower group is 0000
    for j in range(5, 1, -1):
        w, rest = np.divmod(w, 10**4)
        out[:, j] = np.where(zeros, _TAIL[rest], _GROUP[rest])
        zeros &= rest == 0
    out.view("<u8")[:, 0] = _LEAD[10 * i + w]
    texts = map(repr, map(truediv, num[fallback].tolist(), den[fallback].tolist()))
    out[fallback] = np.frombuffer("".join(t.rjust(24, "\0") for t in texts).encode(), "<u4").reshape(-1, 6)
    return out.view(np.uint8)


def _rows(texts: list[str], m: np.ndarray, a: np.ndarray, *columns: np.ndarray) -> str:
    """Text of a row per checkpoint: texts[0], m, texts[1], a, texts[2],
    columns[0], ..., texts[-1], from int64 columns m and a, which a
    SimulationRecord accepts, and uint8 matrices with a row per
    checkpoint, NULs dropped. The rows are built as one byte matrix."""
    # Each count keeps only its largest number's digits, so the NUL replace
    # has nothing to remove where a chunk's numbers are all as wide; a >= m,
    # but a need not grow with m.
    wm, wa = len(str(m.max())), len(str(a.max()))
    counts = _digits(np.concatenate([m, a]), -(-wa // 4))
    columns = [counts[:len(m), -wm:], counts[len(m):, -wa:], *columns]
    shared = [np.broadcast_to(np.frombuffer(t.encode(), np.uint8), (len(m), len(t))) for t in texts]
    rows = np.hstack([*chain.from_iterable(zip(shared, columns)), shared[-1]])
    return rows.tobytes().replace(b"\0", b"").decode("ascii")


# One checkpoint object as json.dumps(indent=2) lays it out inside the list,
# and the ",\n" after it; json writes a float as its repr.
_JSON_CHECKPOINT = ('    {\n      "experiments": %,\n      "awakenings": %,\n'
                    '      "halfer": %,\n      "thirder": %\n    },\n').split("%")


def _json_rows(m: np.ndarray, a: np.ndarray) -> str:
    h = 2 * m - a
    stats = _shortest(np.concatenate([h, h]), np.concatenate([m, a]))
    # Less the leading bytes NUL on every row, found by an OR down each 8-byte
    # column on its own: numpy reduces a narrow axis 0 ten times slower.
    seen = np.array([np.bitwise_or.reduce(column) for column in stats.view("<u8").T])
    stats = stats[:, np.flatnonzero(seen.view(np.uint8))[0]:]
    return _rows(_JSON_CHECKPOINT, m, a, stats[:len(m)], stats[len(m):])[:-2]


def _csv_rows(m: np.ndarray, a: np.ndarray) -> str:
    # Each k <= 10**6 plus 10**7 as eight digits, "1d" and six decimals;
    # moving the d left and a "." into its place gives "d.dddddd".
    freq = _digits(_millionths(m, a).ravel() + 10**7, 2).reshape(3, len(m), 8)
    freq[:, :, 0] = freq[:, :, 1]
    freq[:, :, 1] = ord(".")
    return _rows(["", *",,,,,,", "\n"], m, a, freq[0], freq[1], freq[1], freq[2], freq[2])


# Rows rendered at a time, so that one block's rows at stride 1 are never all
# text at once. Where blocks hold fewer marks, successive blocks are joined
# until they hold _MERGE_ROWS, as numpy's cost per render is that of ~200 rows.
_CHUNK_ROWS = 4096
_MERGE_ROWS = 256
# Per format: the renderer of int64 columns (m, a) into rows, the text
# between two chunks of rows, and the text after the last.
_FORMATS = {"json": (_json_rows, ",\n", _JSON_TAIL), "csv": (_csv_rows, "", "")}


def _text(fmt: str, head: str, columns: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
    """Record text in ``fmt`` ("json" or "csv"): ``head``, then the rows of
    the pairs of columns (m, a), then the tail. Consecutive pairs are held
    until they hold ``_MERGE_ROWS`` rows or the pairs end, joined unless one
    is held alone, and rendered ``_CHUNK_ROWS`` rows at a time."""
    render, separator, tail = _FORMATS[fmt]
    held, rows = [], 0
    for pair in chain(columns, [None]):
        if pair is not None:
            held.append(pair)
            rows += len(pair[0])
        if held and (rows >= _MERGE_ROWS or pair is None):
            m, a = held[0] if len(held) == 1 else map(np.concatenate, zip(*held))
            for start in range(0, rows, _CHUNK_ROWS):
                yield head + render(m[start:start + _CHUNK_ROWS], a[start:start + _CHUNK_ROWS])
                head = separator
            held, rows = [], 0
    yield tail


def record_to_json(record: SimulationRecord) -> str:
    """JSON text of ``record``, which :func:`record_from_json` reads back as
    an equal record; ValueError unless it is a SimulationRecord."""
    columns = _required("record", SimulationRecord, record).checkpoints._columns
    return "".join(_text("json", _json_head(_header(record)), [columns]))


def record_to_csv(record: SimulationRecord) -> str:
    """CSV text of ``record``; ValueError unless it is a SimulationRecord."""
    columns = _required("record", SimulationRecord, record).checkpoints._columns
    return "".join(_text("csv", _CSV_HEADER, [columns]))


def _record_chunks(config: SimulationConfig, fmt: str) -> Iterator[str]:
    """``record_to_json`` or ``record_to_csv`` (``fmt`` "json" or "csv") of
    ``run_simulation(config)``, rendered as the fold yields each block's
    marks, so memory is one block for any n."""
    if fmt == "json" and -(-config.n_experiments // config.checkpoint_stride) <= _MERGE_ROWS:
        # _text would join all the rows into one render anyway, so one pass
        # gives the header its totals.
        yield record_to_json(run_simulation(config))
        return
    # The JSON header needs the totals before any row; its config is the run's.
    head = _json_head({**_header(_totals(config)), "config": asdict(config)}) if fmt == "json" else _CSV_HEADER
    folded = _fold(_seeded_blocks(config), config.checkpoint_stride)
    yield from _text(fmt, head, ((m, 2 * m - h) for _, m, h in folded))
