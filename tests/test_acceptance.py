"""Release acceptance gate.

One test per criterion; each prints a single verdict line

    ACCEPTANCE <name>: PASS|FAIL

(run with ``pytest tests/test_acceptance.py -s`` to see them live) and then
asserts. Exact claims are checked in rational arithmetic; Monte Carlo claims
use 30 fixed seeds at a million experiments each with a 0.002 tolerance,
four binomial standard errors for the per-experiment frequency.
"""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from sbchain.markov_core import (
    DistributionVector,
    TransitionMatrix,
    ergodicity_report,
    is_aperiodic,
    is_ergodic,
    is_irreducible,
    n_step_distribution,
    new_chain,
    period,
    stationary_distribution,
    total_variation_distance,
)
from sbchain.sbp_model import (
    decode_observations,
    encode_coins,
    exact_distribution,
    project_labels,
    sbp_chain,
)
from sbchain.simulation import (
    SimulationConfig,
    forced_run,
    record_to_json,
    run_simulation,
)

SEEDS = range(30)
N_EXPERIMENTS = 10**6
TOLERANCE = Fraction(2, 1000)
MICRO = Fraction(1, 10**6)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

PI = DistributionVector([THIRD, THIRD, THIRD])
SBP_MATRIX = sbp_chain().matrix


def verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def random_distribution(rng: random.Random, k: int = 3) -> DistributionVector:
    weights = [rng.randrange(100) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return DistributionVector([Fraction(w, total) for w in weights])


def propagate(initial: DistributionVector, steps: int) -> DistributionVector:
    chain = new_chain(("M_H", "M_T", "Tu"), [list(r) for r in SBP_MATRIX.rows], initial.weights)
    return n_step_distribution(chain, steps + 1)


@pytest.fixture(scope="module")
def seeded_records():
    return [
        run_simulation(
            SimulationConfig(
                seed=seed, n_experiments=N_EXPERIMENTS, checkpoint_stride=100_000
            )
        )
        for seed in SEEDS
    ]


def test_stationary_distribution():
    pi = stationary_distribution(SBP_MATRIX)
    verdict("stationary_distribution", pi.weights == (THIRD, THIRD, THIRD))


def test_ergodicity_detection():
    swap = TransitionMatrix([[0, 1], [1, 0]])
    block_diagonal = TransitionMatrix([[1, 0], [0, 1]])
    ok = (
        is_irreducible(SBP_MATRIX)
        and period(SBP_MATRIX, 0) == 1
        and is_aperiodic(SBP_MATRIX)
        and is_ergodic(SBP_MATRIX)
        and ergodicity_report(swap).period == 2
        and not is_ergodic(swap)
        and not is_irreducible(block_diagonal)
    )
    verdict("ergodicity_detection", ok)


def test_closed_form_identity():
    chain = sbp_chain()
    ok = all(
        exact_distribution(n) == n_step_distribution(chain, n) for n in range(1, 65)
    )
    verdict("closed_form_identity", ok)


def test_convergence_law():
    distances = [
        total_variation_distance(exact_distribution(n), PI) for n in range(1, 65)
    ]
    law = all(
        tv == Fraction(1, 3 * 2 ** (n - 1)) for n, tv in enumerate(distances, start=1)
    )
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    rng = random.Random(12345)
    random_starts = all(
        total_variation_distance(propagate(random_distribution(rng), 30), PI) < MICRO
        for _ in range(20)
    )
    verdict("convergence_law", law and decreasing and random_starts)


def test_initial_independence():
    rng = random.Random(54321)
    ok = True
    for _ in range(20):
        p = propagate(random_distribution(rng), 30)
        q = propagate(random_distribution(rng), 30)
        ok &= total_variation_distance(p, q) < MICRO
    verdict("initial_independence", ok)


def test_halfer_statistic(seeded_records):
    within = sum(
        abs(Fraction(r.heads_experiments, r.total_experiments) - HALF) <= TOLERANCE
        for r in seeded_records
    )
    verdict("halfer_statistic", within >= 29)


def test_thirder_statistic(seeded_records):
    within = 0
    for r in seeded_records:
        thirder_ok = (
            abs(Fraction(r.heads_awakenings, r.total_awakenings) - THIRD) <= TOLERANCE
        )
        freqs_ok = all(
            abs(Fraction(count, r.total_awakenings) - THIRD) <= TOLERANCE
            for count in r.state_counts
        )
        within += thirder_ok and freqs_ok
    verdict("thirder_statistic", within >= 29)


def test_camp_identity(seeded_records):
    rng = random.Random(99)
    forced = [
        forced_run([rng.choice("HT") for _ in range(rng.randrange(1, 60))])
        for _ in range(200)
    ]
    forced += [forced_run("H"), forced_run("T"), forced_run("H" * 40), forced_run("T" * 40)]
    ok = True
    for record in list(seeded_records) + forced:
        h = Fraction(record.heads_experiments, record.total_experiments)
        thirder = Fraction(record.heads_awakenings, record.total_awakenings)
        ok &= thirder == h / (2 - h)
    verdict("camp_identity", ok)


def test_stream_structure():
    from sbchain.sbp_model import Awakening

    rng = random.Random(20260821)
    ok = True
    for _ in range(10_000):
        coins = [rng.choice("HT") for _ in range(rng.randrange(1, 50))]
        labels = encode_coins(coins)
        ok &= labels[0] in (Awakening.M_H, Awakening.M_T)
        for a, b in zip(labels, labels[1:] + [None]):
            if a is Awakening.M_T:
                ok &= b is Awakening.TU
            ok &= not (a is Awakening.TU and b is Awakening.TU)
        ok &= decode_observations(project_labels(labels), complete=True) == labels
        if not ok:
            break
    verdict("stream_structure", ok)


def test_cli_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "sbchain",
        "simulate", "--seed", "42", "--n", "1000000",
        "--stride", "100000", "--format", "json",
    ]

    def run(name):
        proc = subprocess.run(argv, capture_output=True, check=True)
        out = tmp_path / name
        out.write_bytes(proc.stdout)
        return out

    first = run("first.json").read_bytes()
    second = run("second.json").read_bytes()
    config = SimulationConfig(seed=42, n_experiments=10**6, checkpoint_stride=100_000)
    in_process = (record_to_json(run_simulation(config)) + "\n").encode()
    verdict("cli_determinism", first == second == in_process)
