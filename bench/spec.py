"""What the benchmark runs and reports.

Kept free of any sbchain import, so that run.py can read it without loading
the program.
"""

WORKLOADS = ("mc_bulk", "mc_records", "exact_core")

# Seconds one pass over a workload's ops took when the benchmark was defined
# (2-core x86_64 box). A run of S seconds makes round(S / NOMINAL_PASS_S)
# passes over the same ops, so every commit measured at the same S does the
# same work.
NOMINAL_PASS_S = {"mc_bulk": 1.7, "mc_records": 5.0, "exact_core": 3.2}


def passes(name: str, seconds: float) -> int:
    """Passes in a run of ``seconds``."""
    return max(1, round(seconds / NOMINAL_PASS_S[name]))

# Each workload's CLI command, and the sha256 of its stdout at the default
# seed, recorded from the unmodified program: stdout must stay byte-identical.
CLI = {
    "mc_bulk": (
        ("simulate", "--n", "10000000", "--format", "json"),
        "7e32f9599dcb3c8144914f76535d343b98a927ae4fab06bf350aaa34b41aa73b",
    ),
    "mc_records": (
        ("simulate", "--n", "1000000", "--stride", "10", "--format", "csv"),
        "c0cb75dfba07c785968bf38411284e13f9dc22e802151adb8f782442cefb7f0b",
    ),
    "exact_core": (
        ("exact", "--n-max", "300", "--format", "json"),
        "72b3a52a50062acd99a9025724ba72e326a41fff2f945eea768406db8f206697",
    ),
}

# Reported with --trace 0. experiments_per_s (mc_* only) and failed_frac are
# printed beside them but not gated: the first is a fixed count over wall_s,
# the second is 0 whenever the program is correct.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "cli_wall_s": "s",
    "cli_peak_rss_mb": "MB",
}

# Reported with --trace 1: busy seconds per pass of each call, tracemalloc
# peaks of two calls, counts that must repeat exactly, and the CLI layer.
LAYER_CALLS = (
    "simulation.run_simulation",
    "simulation.lln_trace",
    "simulation.forced_run",
    "simulation.record_to_json",
    "simulation.record_from_json",
    "simulation.record_to_csv",
    "sbp_model.encode_coins",
    "sbp_model.project_labels",
    "sbp_model.decode_observations",
    "sbp_model.exact_distribution",
    "markov_core.matrix_power",
    "markov_core.n_step_distribution",
    "markov_core.convergence_report",
    "markov_core.stationary_distribution",
    "markov_core.ergodicity_report",
    "rationals.format_rational",
)
PEAK_CALLS = ("simulation.run_simulation", "simulation.lln_trace")
COUNTS = {
    "simulation.experiments": "count",
    "simulation.awakenings": "count",
    "simulation.checkpoints": "count",
    "simulation.json_bytes": "bytes",
    "simulation.csv_bytes": "bytes",
    "sbp_model.symbols": "count",
    "markov_core.max_den_bits": "bits",
    "markov_core.mults_computed": "count",
}
OTHER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "trace.tracemalloc_overhead_s": "s",
}


def per_layer() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    metrics = {f"{name}_s": "s" for name in LAYER_CALLS}
    metrics |= {f"{name}_peak_mb": "MB" for name in PEAK_CALLS}
    return metrics | COUNTS | OTHER_LAYER
