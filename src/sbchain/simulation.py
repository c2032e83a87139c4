"""Seeded Monte Carlo engine for the repeated experiment.

Each experiment is one fair coin toss; Heads contributes a single Heads-Monday
awakening, Tails a Tails-Monday followed by a Tuesday. A run reports both
camps' statistics: the per-experiment Heads frequency (halfer) and the
per-awakening Heads frequency (thirder), together with per-state occupation
frequencies and running law-of-large-numbers averages for arbitrary state
functions.

Reproducibility contract: tosses come from numpy's Philox counter-based
generator (philox4x64) keyed with (seed, block_index), one independent stream
per block of 65536 experiments. A toss is the top bit of one byte of the
block's raw 64-bit output, the bytes of each word taken in little-endian
order. That equals ``Generator.integers(0, 2, dtype=np.uint8)`` on numpy 2.x,
but a record depends only on the BitGenerator stream, which numpy keeps
stable across releases (NEP 19); ``Generator`` method streams are not. The
toss stream depends only on the seed, so identical configs produce
bit-identical records. Every path is one fold over the blocks in experiment
order that keeps only running Heads counts, so memory is one block plus the
checkpoints for any run length.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import chain, repeat
from operator import add, eq, is_, le, lt, sub, truediv
from typing import Iterable, Iterator, Mapping, NamedTuple

import gc
import json
import math
import numbers

import numpy as np

from .rationals import _decimal, require_int
from .sbp_model import Awakening, EmptyInput, Toss, parse_coin_tokens

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
        for name in ("seed", "n_experiments", "checkpoint_stride"):
            require_int(name, getattr(self, name))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {_decimal(self.seed)}")
        for name in ("n_experiments", "checkpoint_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {_decimal(getattr(self, name))}")


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


@dataclass(frozen=True)
class SimulationRecord:
    """Config and checkpoints of one run; every counter derives from them.

    The last checkpoint holds the totals. ``config`` and ``generator`` are None
    for forced replays of an explicit coin list, which carry no RNG provenance.
    """

    config: SimulationConfig | None
    checkpoints: tuple[Checkpoint, ...]

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
    the first n awakenings.
    """

    f_values: tuple[float, float, float]
    running_averages: tuple[tuple[int, float], ...]


def _block_heads(seed: int, block_index: int, count: int) -> np.ndarray:
    """Fair tosses for one block as uint8: 1 means Heads.

    Philox is counter-based, so the stream is fully determined by the
    (seed, block_index) key regardless of what other blocks were generated.
    Toss i is the top bit of byte i of the raw 64-bit words, each read in
    little-endian order: what ``Generator.integers(0, 2, dtype=np.uint8)``
    draws, as its bounded-integer loop never rejects on a range of 2.
    """
    # An explicit uint64 key: numpy reads a list such as [0, 2**64 - 1] as
    # float64, which rounds the key.
    key = np.array([seed, block_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(-(-count // 8))
    heads = raw.astype("<u8", copy=False).view(np.uint8)
    np.right_shift(heads, 7, out=heads)
    return heads[:count]


def _seeded_blocks(config: SimulationConfig) -> Iterator[np.ndarray]:
    n = config.n_experiments
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield _block_heads(config.seed, b, min(BLOCK_SIZE, n - start))


def _checkpoint_marks(total: int, stride: int) -> list[int]:
    return [*range(stride, total, stride), total]


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
    """
    m0 = h0 = c0 = 0
    for block in blocks:
        m1 = m0 + len(block)
        h1 = h0 + int(np.count_nonzero(block))
        c1 = 2 * m1 - h1 if per_awakening else m1
        q = np.arange(c0 - c0 % stride + stride, c1 + 1, stride)
        if len(q):
            # Counts within a block fit int32; only the values read at marks
            # are widened before h0 is added.
            local = np.cumsum(block, dtype=np.int32)
            if per_awakening:
                # 2j - h_j awakenings after the block's first j experiments.
                wakes = np.arange(2, 2 * len(block) + 1, 2, dtype=np.int32)
                wakes -= local
                i = np.searchsorted(wakes, (q - c0).astype(np.int32), side="right")
            else:
                i = q - m0
            h = np.where(i > 0, local[i - 1], 0).astype(np.int64)
            h += h0
            yield q, i + m0, h
        m0, h0, c0 = m1, h1, c1
    if c0 % stride:
        yield np.array([c0]), np.array([m0]), np.array([h0])


def _make_checkpoints(experiments: list[int], awakenings: list[int]) -> tuple[Checkpoint, ...]:
    # tuple.__new__ skips the Python-level NamedTuple constructor, which
    # dominates at 1e5+ checkpoints. Tuples of ints cannot form a cycle, so
    # the cyclic collector is paused rather than run over them every 700.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(map(tuple.__new__, repeat(Checkpoint), zip(experiments, awakenings)))
    finally:
        if enabled:
            gc.enable()


def _record(
    blocks: Iterable[np.ndarray], stride: int, config: SimulationConfig | None = None
) -> SimulationRecord:
    _, m, h = map(np.concatenate, zip(*_fold(blocks, stride)))
    return SimulationRecord(config, _make_checkpoints(m.tolist(), (2 * m - h).tolist()))


def run_simulation(config: SimulationConfig) -> SimulationRecord:
    """Run ``config.n_experiments`` seeded experiments."""
    return _record(_seeded_blocks(config), config.checkpoint_stride, config)


def forced_run(
    coins: Iterable[Toss | str], checkpoint_stride: int = 1
) -> SimulationRecord:
    """Replay an explicit coin sequence through the same counting pipeline."""
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot run a simulation on an empty coin sequence")
    require_int("checkpoint_stride", checkpoint_stride)
    if checkpoint_stride < 1:
        raise ValueError(f"checkpoint_stride must be >= 1, got {_decimal(checkpoint_stride)}")
    heads = np.fromiter(map(is_, tosses, repeat(Toss.HEADS)), np.uint8, len(tosses))
    blocks = (heads[i:i + BLOCK_SIZE] for i in range(0, len(heads), BLOCK_SIZE))
    return _record(blocks, checkpoint_stride)


def halfer_statistic(record: SimulationRecord) -> float:
    """Per-experiment Heads frequency."""
    return record.heads_experiments / record.total_experiments


def thirder_statistic(record: SimulationRecord) -> float:
    """Per-awakening Heads frequency."""
    return record.heads_awakenings / record.total_awakenings


def state_frequencies(record: SimulationRecord) -> tuple[float, float, float]:
    """Occupation frequency of (M_H, M_T, Tu) in the awakening stream."""
    return tuple(count / record.total_awakenings for count in record.state_counts)


def _finite(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite ``numbers.Real``
    other than a bool, so text such as "0.5" and True are not converted."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
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
    folded = _fold(_seeded_blocks(config), config.checkpoint_stride, per_awakening=True)
    q, m, h = map(np.concatenate, zip(*folded))
    # h Heads Mondays and m - h Tuesdays; the other q - m awakenings are Tails Mondays.
    counts = zip(q.tolist(), h.tolist(), (q - m).tolist(), (m - h).tolist())
    averages = tuple((n, (mh * a + mt * b + tu * c) / (n * e)) for n, mh, mt, tu in counts)
    return LLNTrace(f_values=f_values, running_averages=averages)


def indicator(state: Awakening) -> dict[Awakening, float]:
    """The function that is 1.0 on ``state`` and 0.0 elsewhere."""
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


# One checkpoint object as json.dumps(indent=2) lays it out inside the list;
# json writes a finite float as its repr, and h/m and h/a are always finite.
_JSON_ROW = (
    '    {\n      "experiments": %d,\n      "awakenings": %d,\n'
    '      "halfer": %r,\n      "thirder": %r\n    }'
)
_JSON_TAIL = "\n  ]\n}"


def _json_head(record: SimulationRecord) -> str:
    # The header is small and goes through json, so _header stays the schema;
    # json's pure-Python indent encoder is far too slow for 1e5+ rows.
    head = json.dumps({**_header(record), "checkpoints": []}, indent=2)
    return head.removesuffix("[]\n}") + "[\n"


def _json_rows(checkpoints: Iterable[tuple[int, int]]) -> str:
    return ",\n".join([
        _JSON_ROW % (m, a, h / m, h / a) for m, a in checkpoints for h in (2 * m - a,)
    ])


def record_to_json(record: SimulationRecord) -> str:
    return f"{_json_head(record)}{_json_rows(record.checkpoints)}{_JSON_TAIL}"


_CHECKPOINT_FIELDS = ("experiments", "awakenings", "halfer", "thirder")


def _parse_checkpoints(columns: list[list]) -> tuple[Checkpoint, ...]:
    """Checkpoints from their JSON columns, which must follow from the counts."""
    exps, wakes, halfer, thirder = columns
    if not exps:
        raise ValueError("a record needs at least one checkpoint")
    if not set(map(type, exps)) | set(map(type, wakes)) <= {int}:
        raise ValueError("checkpoint experiments and awakenings must be ints")
    if not set(map(type, halfer)) | set(map(type, thirder)) <= {float}:
        raise ValueError("checkpoint halfer and thirder must be floats")
    if exps[0] < 1 or exps[-1] > 2**53 or not all(map(lt, exps, exps[1:])):
        raise ValueError("checkpoint experiments must strictly increase within [1, 2**53]")
    if not (all(map(le, exps, wakes)) and all(map(le, wakes, map(add, exps, exps)))):
        raise ValueError("checkpoint awakenings must lie in [m, 2m]")
    heads = list(map(sub, map(add, exps, exps), wakes))
    if not (all(map(eq, halfer, map(truediv, heads, exps)))
            and all(map(eq, thirder, map(truediv, heads, wakes)))):
        raise ValueError("checkpoint halfer/thirder must equal h/m and h/awakenings")
    return _make_checkpoints(exps, wakes)


def record_from_json(text: str) -> SimulationRecord:
    """Parse :func:`record_to_json` output.

    Raises ValueError for any document that function could not have written:
    missing, extra or mistyped fields, checkpoints whose statistics do not
    follow from their counts or whose marks do not match the config, and
    header fields other than those the config and checkpoints imply.
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
        config = doc["config"]
        if config is not None:
            config = SimulationConfig(
                config["seed"], config["n_experiments"], config["checkpoint_stride"]
            )
        items = doc["checkpoints"]
        columns = [[c[key] for c in items] for key in _CHECKPOINT_FIELDS]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed record: {exc!r}") from None
    # Every item yielded all four keys, so it is an object; a size of four
    # leaves no room for another key.
    if set(map(len, items)) - {len(_CHECKPOINT_FIELDS)}:
        raise ValueError(f"each checkpoint must have exactly the keys {_CHECKPOINT_FIELDS}")
    record = SimulationRecord(config, _parse_checkpoints(columns))
    if config is not None and columns[0] != _checkpoint_marks(
        config.n_experiments, config.checkpoint_stride
    ):
        raise ValueError("checkpoint marks do not match the config")
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


def _format_rows(checkpoints: Iterable[tuple[int, int]]) -> str:
    """CSV rows, one f-string each: what :func:`_csv_rows` renders in bulk,
    and the path for counts outside its domain."""
    return "".join(
        f"{m},{a},{h / m:.6f},{h / a:.6f},{h / a:.6f},{(m - h) / a:.6f},{(m - h) / a:.6f}\n"
        for m, a in checkpoints
        for h in (2 * m - a,)
    )


# Powers of ten an int64 holds, 10**0 .. 10**18.
_POW10 = np.array([10**i for i in range(19)], np.int64)
# ASCII "0" added to the last s of a word's 8 digit bytes, s = 0 .. 8, so
# that a number's leading zeros stay NUL.
_ASCII_ZERO = np.array(
    [(0x3030303030303030 << 8 * (8 - s)) % 2**64 for s in range(9)], np.uint64
)
# y = x * 1e6 for a float64 x in [0, 1] lies within 2**-34 of the exact
# x·10**6, so rint(y) is the correctly rounded ".6f" value of x unless y lies
# this close to a half-integer.
_NEAR_TIE = 1e-6
# The comma, the five "d.dddddd" frequencies between commas, and the newline
# that follow the awakenings in each row.
_ROW_TAIL = 46


def _digit_words(x: np.ndarray) -> np.ndarray:
    """uint64 words whose little-endian bytes are the 8 decimal digits of each
    uint64 x < 10**8 (byte values 0-9), most significant digit first."""
    # Four digits per 32-bit lane, then two per 16-bit lane, then one per
    # byte; (v * 10486) >> 20 is v // 100 for v < 10**4, (v * 103) >> 10 is
    # v // 10 for v < 100, and the masks keep each lane's quotient.
    q = x // 10**4
    w = q | ((x - q * 10**4) << 32)
    q = ((w * 10486) >> 20) & 0x0000007F0000007F
    w = q | ((w - 100 * q) << 16)
    q = ((w * 103) >> 10) & 0x000F000F000F000F
    return q | ((w - 10 * q) << 8)


def _decimal_bytes(x: np.ndarray) -> np.ndarray:
    """ASCII digits of each int64 x >= 1, one row each, right-aligned to the
    longest, with NUL in place of leading zeros."""
    digits = np.searchsorted(_POW10, x, side="right")
    width = int(digits.max())
    words = -(-width // 8)
    out = np.empty((len(x), words), "<u8")
    x = x.astype(np.uint64)
    for j in range(words):  # the last word holds the 8 lowest digits
        q = x // 10**8
        low = _digit_words(x - q * 10**8)
        out[:, -1 - j] = low + _ASCII_ZERO[np.clip(digits - 8 * j, 0, 8)]
        x = q
    return out.view(np.uint8)[:, 8 * words - width:]


def _frequency_bytes(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The ASCII ".6f" of h/m, h/a and (a - m)/a, shape (3, len(m), 8).

    Each x = num / den is a float64 quotient, which is Python's correctly
    rounded int / int while den <= 2**53. Rows with a > 2**53, or a frequency
    near a rounding tie, take their values from ``format``.
    """
    t = a - m
    h = m - t
    y = np.stack([h / m, h / a, t / a]) * 1e6
    k = np.rint(y)
    near = (np.abs(y - k) > 0.5 - _NEAR_TIE).any(axis=0) | (a > 2**53)
    k = k.astype(np.uint64)
    for i in np.flatnonzero(near).tolist():
        mi, ai = int(m[i]), int(a[i])
        hi = 2 * mi - ai
        k[:, i] = [int(f"{x:.6f}".replace(".", "")) for x in (hi / mi, hi / ai, (ai - mi) / ai)]
    # "d.dddddd" is the 6 digits of k % 10**6 behind "d." for d = k // 10**6.
    whole = k // 10**6
    words = _digit_words(k - whole * 10**6) + whole + 0x3030303030302E30
    return words.astype("<u8", copy=False).view(np.uint8).reshape(3, len(m), 8)


def _csv_rows(m: np.ndarray, a: np.ndarray) -> str:
    """:func:`_format_rows` of the checkpoints in int64 columns m and a,
    built as one byte matrix with a row per checkpoint."""
    t = a - m
    if not ((m >= 1) & (t >= 0) & (t <= m)).all():
        return _format_rows(zip(m.tolist(), a.tolist()))
    freq = _frequency_bytes(m, a)
    digits_m, digits_a = _decimal_bytes(m), _decimal_bytes(a)
    wm = digits_m.shape[1]
    o = wm + 1 + digits_a.shape[1]
    rows = np.empty((len(m), o + _ROW_TAIL), np.uint8)
    rows[:, :wm] = digits_m
    rows[:, wm + 1:o] = digits_a
    rows[:, wm] = rows[:, o::9] = ord(",")
    for j, f in enumerate((0, 1, 1, 2, 2)):
        rows[:, o + 9 * j + 1:o + 9 * j + 9] = freq[f]
    rows[:, -1] = ord("\n")
    return str(rows, "ascii").replace("\0", "")


# Rows rendered at a time, so that one block's rows at stride 1 are never all
# text at once.
_CHUNK_ROWS = 4096


def _chunked(render, m: np.ndarray, a: np.ndarray) -> Iterator[str]:
    """``render(m, a)`` over ``_CHUNK_ROWS`` rows of the columns at a time."""
    for start in range(0, len(m), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        yield render(m[rows], a[rows])


def record_to_csv(record: SimulationRecord) -> str:
    n = len(record.checkpoints)
    try:
        columns = np.fromiter(chain.from_iterable(record.checkpoints), np.int64, 2 * n)
    except OverflowError:
        # No run counts past int64, but such a record still formats.
        return _CSV_HEADER + _format_rows(record.checkpoints)
    return "".join(chain([_CSV_HEADER], _chunked(_csv_rows, columns[0::2], columns[1::2])))


def _json_columns(m: np.ndarray, a: np.ndarray) -> str:
    return _json_rows(zip(m.tolist(), a.tolist()))


def _record_chunks(config: SimulationConfig, fmt: str) -> Iterator[str]:
    """``record_to_json`` or ``record_to_csv`` (``fmt`` "json" or "csv") of
    ``run_simulation(config)``, rendered ``_CHUNK_ROWS`` rows at a time as the
    fold yields each block's marks, so memory is one block for any n."""
    if fmt == "json":
        # The header needs the totals before any row: one count-only pass.
        totals = run_simulation(replace(config, checkpoint_stride=config.n_experiments))
        prefix = _json_head(SimulationRecord(config, totals.checkpoints))
        render, separator, tail = _json_columns, ",\n", _JSON_TAIL
    else:
        prefix, render, separator, tail = _CSV_HEADER, _csv_rows, "", ""
    for _, m, h in _fold(_seeded_blocks(config), config.checkpoint_stride):
        for text in _chunked(render, m, 2 * m - h):
            yield prefix + text
            prefix = separator
    yield tail
