"""The benchmark's workloads: seeded inputs, operations and output checks.

Only names exported by ``sbchain`` and the CLI entry point ``sbchain.cli.main``
are used, so the program's internals can be rewritten without editing the
benchmark. Every call into the program goes through ``tr.call`` so that a
traced run can put a span around it; with tracing off the call is direct.

An op returns the list of checks it failed; an empty list means its output
was verified. Checks are exact identities, except one statistical band on
``mc_bulk`` whose false-failure chance per op is below 1e-12.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sbchain as sb
from sbchain import cli

# --- input sizes ------------------------------------------------------------
# Part of each workload's definition. ``quick`` sizes exist for the self-test,
# which checks the harness end to end in seconds; they are never reported as a
# measurement of the workload.

FULL = {
    "bulk_n": 10**7,
    "bulk_stride": 10**6,
    "records_n": 10**6,
    "records_stride": 10,
    "coins": 10**5,
    "chain_sizes": (6, 12, 20),
}
QUICK = {
    "bulk_n": 10**5,
    "bulk_stride": 10**4,
    "records_n": 10**4,
    "records_stride": 10,
    "coins": 10**3,
    "chain_sizes": (3, 4, 6),
}
POWER = 32  # matrix_power(P, POWER); n-step and convergence use POWER + 1
SBP_STEPS = 200
# Random chains: each row has the cycle entry plus EDGE_SHARE of the other
# columns; see exact_core_input. MAX_WEIGHT bounds the initial weights and sets
# the largest row total.
EDGE_SHARE = 0.2
MAX_WEIGHT = 3
# Hoeffding: P(|H/n - 1/2| >= t) <= 2 exp(-2 n t^2) = BAND_FALSE_FAILURE.
BAND_FALSE_FAILURE = 1e-12

def expect(failures: list, ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def thirder_identity(record) -> bool:
    """thirder = h / (2 - h) exactly, with h the halfer value of the same counters."""
    h = Fraction(record.heads_experiments, record.total_experiments)
    exact = h / (2 - h)
    return (
        Fraction(record.heads_awakenings, record.total_awakenings) == exact
        and sb.thirder_statistic(record) == float(exact)
    )


def counters_consistent(record, n: int, stride: int) -> bool:
    marks = -(-n // stride)
    last = record.checkpoints[-1]
    return (
        record.total_experiments == n
        and record.total_awakenings == 2 * n - record.heads_experiments
        and len(record.checkpoints) == marks
        and (last.experiments, last.awakenings) == (n, record.total_awakenings)
    )


# --- mc_bulk ----------------------------------------------------------------


def mc_bulk_input(rng: random.Random, index: int, sizes: dict):
    return rng.getrandbits(64)


def mc_bulk_op(seed: int, tr, sizes: dict) -> list:
    n, stride = sizes["bulk_n"], sizes["bulk_stride"]
    config = sb.SimulationConfig(seed=seed, n_experiments=n, checkpoint_stride=stride)
    record = tr.call("simulation.run_simulation", sb.run_simulation, config)
    trace = tr.call(
        "simulation.lln_trace",
        sb.lln_trace,
        config,
        sb.indicator(sb.Awakening.M_H),
    )
    failures: list = []
    final_n, final_avg = trace.running_averages[-1]
    expect(failures, counters_consistent(record, n, stride), "record counters")
    expect(failures, final_n == record.total_awakenings, "lln_trace awakening total")
    expect(failures, final_avg == sb.thirder_statistic(record), "lln_trace final == thirder")
    expect(failures, thirder_identity(record), "thirder = h/(2-h)")
    band = math.sqrt(math.log(2 / BAND_FALSE_FAILURE) / (2 * n))
    # h -> h/(2-h) has slope below 1 near 1/2, so the thirder band is no wider.
    expect(failures, abs(sb.halfer_statistic(record) - 0.5) <= band, "halfer band")
    expect(failures, abs(sb.thirder_statistic(record) - 1 / 3) <= band, "thirder band")
    if tr.enabled:
        tr.count("simulation.experiments", n)
        tr.count("simulation.awakenings", record.total_awakenings)
        tr.count("simulation.checkpoints", len(record.checkpoints))
    return failures


# --- mc_records -------------------------------------------------------------


def mc_records_input(rng: random.Random, index: int, sizes: dict):
    return rng.getrandbits(64), rng.choices("HT", k=sizes["coins"])


def mc_records_op(inp, tr, sizes: dict) -> list:
    seed, coins = inp
    n, stride = sizes["records_n"], sizes["records_stride"]
    config = sb.SimulationConfig(seed=seed, n_experiments=n, checkpoint_stride=stride)
    record = tr.call("simulation.run_simulation", sb.run_simulation, config)
    text = tr.call("simulation.record_to_json", sb.record_to_json, record)
    back = tr.call("simulation.record_from_json", sb.record_from_json, text)
    csv = tr.call("simulation.record_to_csv", sb.record_to_csv, record)
    forced = tr.call("simulation.forced_run", sb.forced_run, coins)
    labels = tr.call("sbp_model.encode_coins", sb.encode_coins, coins)
    observed = tr.call("sbp_model.project_labels", sb.project_labels, labels)
    decoded = tr.call(
        "sbp_model.decode_observations", sb.decode_observations, observed, complete=True
    )
    failures: list = []
    heads = coins.count("H")
    expect(failures, counters_consistent(record, n, stride), "record counters")
    expect(failures, thirder_identity(record), "thirder = h/(2-h)")
    expect(failures, back == record, "JSON round trip")
    expect(failures, csv.count("\n") == len(record.checkpoints) + 1, "CSV rows")
    expect(failures, counters_consistent(forced, len(coins), 1), "forced_run counters")
    expect(failures, forced.heads_experiments == heads, "forced_run heads")
    expect(failures, len(labels) == forced.total_awakenings, "encoded length")
    expect(failures, decoded == labels, "decode(project(encode)) == encode")
    if tr.enabled:
        tr.count("simulation.experiments", n + len(coins))
        tr.count("simulation.awakenings", record.total_awakenings + forced.total_awakenings)
        tr.count("simulation.checkpoints", len(record.checkpoints) + len(forced.checkpoints))
        tr.count("simulation.json_bytes", len(text.encode()))
        tr.count("simulation.csv_bytes", len(csv.encode()))
        tr.count("sbp_model.symbols", len(labels) + len(observed) + len(decoded))
    return failures


# --- exact_core -------------------------------------------------------------


def exact_core_input(rng: random.Random, index: int, sizes: dict):
    """A random irreducible, aperiodic chain with rational entries.

    The cycle 0 -> 1 -> ... -> k-1 -> 0 makes it irreducible and the
    self-loop at state 0 makes it aperiodic. Every row also has ``extra``
    other entries at random columns. A row's denominator is its weight total:
    the seed deals the fixed list ``row_totals(k)`` out to the rows and splits
    each total into random positive weights. Fixing the totals and the entry
    count keeps the cost of one chain of size k steady from seed to seed,
    since Fraction cost follows the denominators' sizes.
    """
    sizes_k = sizes["chain_sizes"]
    k = sizes_k[index % len(sizes_k)]
    extra = extra_entries(k)
    totals = row_totals(k)
    rng.shuffle(totals)
    grid = []
    for i, total in enumerate(totals):
        nxt = (i + 1) % k
        cols = [nxt, 0] if i == 0 else [nxt]
        cols += rng.sample([j for j in range(k) if j not in cols], extra)
        cuts = sorted(rng.sample(range(1, total), len(cols) - 1))
        row = [0] * k
        for j, lo, hi in zip(cols, [0] + cuts, cuts + [total]):
            row[j] = Fraction(hi - lo, total)
        grid.append(row)
    init = [rng.randint(1, MAX_WEIGHT) for _ in range(k)]
    initial = [Fraction(x, sum(init)) for x in init]
    return tuple(f"s{i}" for i in range(k)), grid, initial


def extra_entries(k: int) -> int:
    """Off-cycle entries per row: a fifth of the other columns, at least one."""
    return max(1, round(EDGE_SHARE * (k - 1)))


def row_totals(k: int) -> list[int]:
    """Row denominators of a size-k chain, before the seed assigns them to rows.

    They run through extra + 2 .. 3 * (extra + 1) + 1, so that each row
    (extra + 1 entries, or extra + 2 in row 0) can be split into positive
    weights and no row is a single entry 1.
    """
    extra = extra_entries(k)
    low, high = extra + 2, MAX_WEIGHT * (extra + 1) + 1
    return [low + i % (high - low + 1) for i in range(k)]


def vec_mat(v, rows):
    """Row vector times matrix, in the benchmark's own Fraction arithmetic."""
    return tuple(
        sum((x * row[j] for x, row in zip(v, rows)), Fraction(0)) for j in range(len(rows))
    )


def power_mults(k: int, n: int) -> int:
    """Rational multiplications of binary powering P^n on a k x k matrix."""
    return (n.bit_length() - 1 + bin(n).count("1") - 1) * k**3


def exact_core_op(inp, tr, sizes: dict) -> list:
    labels, grid, initial = inp
    k = len(labels)
    chain = tr.call("markov_core.new_chain", sb.new_chain, labels, grid, initial)
    report = tr.call("markov_core.ergodicity_report", sb.ergodicity_report, chain.matrix)
    pi = tr.call("markov_core.stationary_distribution", sb.stationary_distribution, chain.matrix)
    power = tr.call("markov_core.matrix_power", sb.matrix_power, chain.matrix, POWER)
    dist = tr.call("markov_core.n_step_distribution", sb.n_step_distribution, chain, POWER + 1)
    rows = tr.call("markov_core.convergence_report", sb.convergence_report, chain, POWER + 1)
    sbp_rows = tr.call(
        "markov_core.convergence_report", sb.convergence_report, sb.sbp_chain(), SBP_STEPS
    )
    closed = tr.call(
        "sbp_model.exact_distribution",
        lambda: [sb.exact_distribution(n) for n in range(1, SBP_STEPS + 1)],
    )
    values = list(pi.weights) + [r.distance for r in rows]
    text = tr.call(
        "rationals.format_rational", lambda: [sb.format_rational(v) for v in values]
    )
    failures: list = []
    expect(failures, report.ergodic and report.stationary == pi, "ergodicity report")
    expect(failures, vec_mat(pi.weights, chain.matrix.rows) == pi.weights, "pi P == pi")
    expect(failures, vec_mat(initial, power.rows) == dist.weights, "initial P^n == n-step")
    expect(failures, rows[-1].distribution == dist, "iteration == squaring")
    expect(failures, rows[0].distribution.weights == tuple(initial), "first row is initial")
    expect(
        failures,
        all(a.distance >= b.distance for a, b in zip(rows, rows[1:])),
        "TV non-increasing",
    )
    expect(
        failures,
        [r.distribution for r in sbp_rows] == closed
        and all(r.distance == Fraction(1, 3 * 2 ** (r.n - 1)) for r in sbp_rows),
        "sbp rows == exact_distribution, TV = 1/(3*2^(n-1))",
    )
    expect(failures, [sb.parse_rational(t) for t in text] == values, "format round trip")
    if tr.enabled:
        outputs = [power.rows, [dist.weights, pi.weights], [r.distribution.weights for r in rows]]
        bits = max(x.denominator.bit_length() for rs in outputs for r in rs for x in r)
        tr.maximum("markov_core.max_den_bits", bits)
        tr.count(
            "markov_core.mults_computed",
            2 * power_mults(k, POWER) + k * k + POWER * k * k + (SBP_STEPS - 1) * 9,
        )
    return failures


# --- probe ------------------------------------------------------------------


def probe_op(tr) -> None:
    """Call each traced function once on a tiny fixed input.

    Traced passes end with this op so that every per-layer metric is measured
    on every workload; on a workload that does not use a function, its metric
    is this call alone. It records no counts and is excluded from pass times.
    """
    config = sb.SimulationConfig(seed=1, n_experiments=4096, checkpoint_stride=1024)
    coins = ["H", "T"] * 32
    record = tr.call("simulation.run_simulation", sb.run_simulation, config)
    tr.call("simulation.lln_trace", sb.lln_trace, config, sb.indicator(sb.Awakening.M_H))
    tr.call("simulation.forced_run", sb.forced_run, coins)
    text = tr.call("simulation.record_to_json", sb.record_to_json, record)
    tr.call("simulation.record_from_json", sb.record_from_json, text)
    tr.call("simulation.record_to_csv", sb.record_to_csv, record)
    labels = tr.call("sbp_model.encode_coins", sb.encode_coins, coins)
    observed = tr.call("sbp_model.project_labels", sb.project_labels, labels)
    tr.call("sbp_model.decode_observations", sb.decode_observations, observed, complete=True)
    chain = sb.sbp_chain()
    report = tr.call("markov_core.ergodicity_report", sb.ergodicity_report, chain.matrix)
    tr.call("markov_core.stationary_distribution", sb.stationary_distribution, chain.matrix)
    tr.call("markov_core.matrix_power", sb.matrix_power, chain.matrix, 4)
    tr.call("markov_core.n_step_distribution", sb.n_step_distribution, chain, 5)
    tr.call("markov_core.convergence_report", sb.convergence_report, chain, 5)
    tr.call("sbp_model.exact_distribution", sb.exact_distribution, 5)
    tr.call("rationals.format_rational", sb.format_rational, report.stationary.weights[0])


# --- CLI --------------------------------------------------------------------


def cli_in_process(argv) -> tuple[int, bytes]:
    """Run ``cli.main`` with stdout captured; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    pass_ops: int  # ops in one pass; every pass of a run runs the same inputs
    make_input: Callable
    run_op: Callable
    experiments_per_op: Callable[[dict], int]

    def inputs(self, seed: int, sizes: dict) -> list:
        """The inputs of one pass, made from ``seed`` alone."""
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_input(rng, i, sizes) for i in range(self.pass_ops)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_bulk",
            pass_ops=2,
            make_input=mc_bulk_input,
            run_op=mc_bulk_op,
            experiments_per_op=lambda s: s["bulk_n"],
        ),
        Workload(
            "mc_records",
            pass_ops=2,
            make_input=mc_records_input,
            run_op=mc_records_op,
            experiments_per_op=lambda s: s["records_n"] + s["coins"],
        ),
        Workload(
            "exact_core",
            pass_ops=6,  # two chains of each size
            make_input=exact_core_input,
            run_op=exact_core_op,
            experiments_per_op=lambda s: 0,
        ),
    )
}
