"""Sweep the per-experiment and per-awakening Heads frequencies across seeds.

Runs the seeded Monte Carlo engine once per seed and reports each run's
halfer statistic (Heads per experiment, limit 1/2) and thirder statistic
(Heads per awakening, limit 1/3) with their deviations from the limits. The
summary counts how many seeds land inside the tolerance band, which is how
the 0.002 default (about four binomial standard errors at a million
experiments) was sized.

Usage: python3 scripts/frequency_sweep.py [--seeds S] [--n N] [--tolerance T]
"""

import argparse

from sbchain.simulation import (
    SimulationConfig,
    halfer_statistic,
    run_simulation,
    thirder_statistic,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30, help="seeds 0..S-1")
    parser.add_argument("--n", type=int, default=1_000_000, metavar="N",
                        help="experiments per seed")
    parser.add_argument("--tolerance", type=float, default=0.002)
    args = parser.parse_args()

    print(f"{'seed':>4}  {'halfer':>10}  {'dev':>10}  {'thirder':>10}  {'dev':>10}")
    halfer_hits = thirder_hits = 0
    worst_halfer = worst_thirder = 0.0
    for seed in range(args.seeds):
        config = SimulationConfig(
            seed=seed, n_experiments=args.n, checkpoint_stride=args.n
        )
        record = run_simulation(config)
        halfer = halfer_statistic(record)
        thirder = thirder_statistic(record)
        dev_h = halfer - 0.5
        dev_t = thirder - 1 / 3
        halfer_hits += abs(dev_h) <= args.tolerance
        thirder_hits += abs(dev_t) <= args.tolerance
        worst_halfer = max(worst_halfer, abs(dev_h))
        worst_thirder = max(worst_thirder, abs(dev_t))
        print(
            f"{seed:>4}  {halfer:>10.6f}  {dev_h:>+10.6f}  "
            f"{thirder:>10.6f}  {dev_t:>+10.6f}"
        )

    print()
    print(f"within {args.tolerance} of 1/2: {halfer_hits}/{args.seeds} seeds")
    print(f"within {args.tolerance} of 1/3: {thirder_hits}/{args.seeds} seeds")
    print(f"largest halfer deviation:  {worst_halfer:.6f}")
    print(f"largest thirder deviation: {worst_thirder:.6f}")


if __name__ == "__main__":
    main()
