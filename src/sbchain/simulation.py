"""Seeded Monte Carlo engine for the repeated experiment.

Each experiment is one fair coin toss; Heads contributes a single Heads-Monday
awakening, Tails a Tails-Monday followed by a Tuesday. A run reports both
camps' statistics: the per-experiment Heads frequency (halfer) and the
per-awakening Heads frequency (thirder), together with per-state occupation
frequencies and running law-of-large-numbers averages for arbitrary state
functions.

Reproducibility contract: tosses come from numpy's Philox counter-based
generator (philox4x64) keyed with (seed, block_index), one independent stream
per block of 65536 experiments. The toss stream depends only on the seed, so
identical configs produce bit-identical records. Every path is one fold over
the blocks in experiment order that keeps only running Heads counts, so memory
is one block plus the checkpoints for any run length.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from operator import add, eq, is_, le, lt, sub, truediv
from typing import Iterable, Iterator, Mapping, NamedTuple

import json
import math
import numbers

import numpy as np

from .rationals import require_int
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
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_experiments < 1:
            raise ValueError(f"n_experiments must be >= 1, got {self.n_experiments}")
        if self.checkpoint_stride < 1:
            raise ValueError(
                f"checkpoint_stride must be >= 1, got {self.checkpoint_stride}"
            )


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
    """
    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def _seeded_blocks(config: SimulationConfig) -> Iterator[np.ndarray]:
    n = config.n_experiments
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield _block_heads(config.seed, b, min(BLOCK_SIZE, n - start))


def _checkpoint_marks(total: int, stride: int) -> list[int]:
    marks = list(range(stride, total + 1, stride))
    if not marks or marks[-1] != total:
        marks.append(total)
    return marks


def _fold(
    blocks: Iterable[np.ndarray], stride: int, per_awakening: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the toss blocks once, reading running Heads counts at marks.

    Marks sit at every ``stride``-th experiment, or awakening if
    ``per_awakening``, plus the last one. Returns per mark q: q, the number
    m of experiments complete within the first q units, and their Heads count
    h(m). After m experiments there have been a(m) = 2m - h(m) awakenings; an
    awakening mark with a(m) < q stops on the Monday of Tails experiment m + 1.
    """
    marks, done, heads = [], [], []
    m0 = h0 = c0 = 0
    for block in blocks:
        m1 = m0 + len(block)
        h1 = h0 + int(np.count_nonzero(block))
        c1 = 2 * m1 - h1 if per_awakening else m1
        q = np.arange(c0 - c0 % stride + stride, c1 + 1, stride)
        if len(q):
            h = np.cumsum(block, dtype=np.int64)
            h += h0
            if per_awakening:
                i = np.searchsorted(2 * np.arange(m0 + 1, m1 + 1) - h, q, side="right")
            else:
                i = q - m0
            marks.append(q)
            done.append(i + m0)
            heads.append(np.where(i > 0, h[i - 1], h0))
        m0, h0, c0 = m1, h1, c1
    if c0 % stride:
        marks.append([c0])
        done.append([m0])
        heads.append([h0])
    return np.concatenate(marks), np.concatenate(done), np.concatenate(heads)


def _make_checkpoints(experiments: list[int], awakenings: list[int]) -> tuple[Checkpoint, ...]:
    # tuple.__new__ skips the Python-level NamedTuple constructor, which
    # dominates at 1e5+ checkpoints.
    return tuple(map(tuple.__new__, repeat(Checkpoint), zip(experiments, awakenings)))


def _record(
    blocks: Iterable[np.ndarray], stride: int, config: SimulationConfig | None = None
) -> SimulationRecord:
    _, m, h = _fold(blocks, stride)
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
        raise ValueError(f"checkpoint_stride must be >= 1, got {checkpoint_stride}")
    heads = np.fromiter(map(is_, tosses, repeat(Toss.HEADS)), np.uint8, len(tosses))
    return _record([heads], checkpoint_stride)


def halfer_statistic(record: SimulationRecord) -> float:
    """Per-experiment Heads frequency."""
    return record.heads_experiments / record.total_experiments


def thirder_statistic(record: SimulationRecord) -> float:
    """Per-awakening Heads frequency."""
    return record.heads_awakenings / record.total_awakenings


def state_frequencies(record: SimulationRecord) -> tuple[float, float, float]:
    """Occupation frequency of (M_H, M_T, Tu) in the awakening stream."""
    total = record.total_awakenings
    return (
        record.state_counts.m_h / total,
        record.state_counts.m_t / total,
        record.state_counts.tu / total,
    )


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
    q, m, h = _fold(_seeded_blocks(config), config.checkpoint_stride, per_awakening=True)
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


def record_to_json(record: SimulationRecord) -> str:
    # The header is small and goes through json, so _header stays the schema;
    # json's pure-Python indent encoder is far too slow for 1e5+ rows.
    head = json.dumps({**_header(record), "checkpoints": []}, indent=2)
    head = head.removesuffix("[]\n}")
    rows = ",\n".join([
        _JSON_ROW % (m, a, h / m, h / a)
        for m, a in record.checkpoints
        for h in (2 * m - a,)
    ])
    return f"{head}[\n{rows}\n  ]\n}}"


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


def record_to_csv(record: SimulationRecord) -> str:
    lines = ["experiments,awakenings,halfer,thirder,freq_MH,freq_MT,freq_TU\n"]
    for m, a in record.checkpoints:
        heads = 2 * m - a
        freq_heads = f"{heads / a:.6f}"
        freq_tails = f"{(m - heads) / a:.6f}"
        lines.append(
            f"{m},{a},{heads / m:.6f},{freq_heads},"
            f"{freq_heads},{freq_tails},{freq_tails}\n"
        )
    return "".join(lines)
