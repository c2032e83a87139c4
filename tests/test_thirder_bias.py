"""The paper's frequentist point at finite n: the per-awakening Heads
frequency of a short run averages above 1/3, exactly and on the engine."""

import math
from fractions import Fraction

from sbchain.simulation import SimulationConfig, run_simulation
from thirder_oracle import mean_thirder


def test_exact_mean_at_small_n():
    assert [mean_thirder(n) for n in (1, 2, 3)] == [Fraction(1, 2), Fraction(5, 12), Fraction(31, 80)]


def test_exact_mean_lies_above_one_third():
    assert all(mean_thirder(n) > Fraction(1, 3) for n in range(1, 60))


def test_bias_tends_to_4_27_at_rate_1_over_n():
    # n·(E - 1/3) - 4/27 is 0.0048, 0.00049 and 0.000049 at n = 10, 100, 1000.
    for n in (10, 100, 1000):
        gap = n * (mean_thirder(n) - Fraction(1, 3)) - Fraction(4, 27)
        assert 0 < n * gap < Fraction(1, 20)


def test_engine_window_mean_is_the_exact_mean():
    # One seeded run at stride w is n/w independent windows of w experiments;
    # a window's Heads count is the difference of two consecutive checkpoints.
    w, windows = 5, 2 * 10**5
    record = run_simulation(SimulationConfig(seed=2025, n_experiments=w * windows, checkpoint_stride=w))
    heads = [2 * m - a for m, a in record.checkpoints]
    mean = sum(h / (2 * w - h) for h in map(int.__sub__, heads, [0, *heads[:-1]])) / windows
    # Hoeffding (JASA 1963) for a mean of values in [0, 1]: |mean - E| stays
    # below this band except with probability 1e-12.
    band = math.sqrt(math.log(2 / 1e-12) / (2 * windows))
    assert abs(mean - mean_thirder(w)) < band
    assert abs(mean - 1 / 3) > band
