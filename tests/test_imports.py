"""What importing sbchain loads: numpy only once a simulation name is used.

Each case that watches numpy runs in a fresh interpreter, since an earlier
test in this process has long since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The names sbchain exported before its simulation names became lazy.
PUBLIC_NAMES = {
    "Awakening", "Chain", "Checkpoint", "ConvergenceRow", "DimensionMismatch",
    "DistributionVector", "DuplicateState", "EmptyInput", "EmptyStateSpace",
    "ErgodicityReport", "GENERATOR_NAME", "LLNTrace", "MalformedObservation",
    "MarkovError", "MissingInitialDistribution", "NonStochasticRow", "NotErgodic",
    "NotIrreducible", "Observation", "SimulationConfig", "SimulationRecord",
    "StateCounts", "StateSpace", "Toss", "TransitionMatrix", "UndeterminedSymbol",
    "as_exact", "convergence_report", "decode_observations", "encode_coins",
    "ergodicity_report", "exact_distribution", "expectation", "forced_run",
    "format_rational", "halfer_statistic", "indicator", "is_aperiodic", "is_ergodic",
    "is_irreducible", "lln_trace", "matrix_power", "n_step_distribution", "new_chain",
    "parse_rational", "period", "project_labels", "record_from_json", "record_to_csv",
    "record_to_json", "run_simulation", "sbp_chain", "state_frequencies",
    "stationary_distribution", "thirder_statistic", "total_variation_distance",
    "validate_labeled_sequence",
}


def python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports sbchain from src; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def numpy_loaded_after(code: str) -> bool:
    out = python(f"import sys\n{code}\nprint('numpy' in sys.modules)")
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import sbchain",
        "import sbchain.cli",
        "from sbchain import cli; cli.main(['exact', '--n-max', '5'])",
        "from sbchain import cli; cli.main(['analyze'])",
        "from sbchain import cli; cli.main(['convert', 'encode', 'H', 'T'])",
        "import sbchain; sbchain.exact_distribution(4); sbchain.Chain",
    ],
)
def test_exact_paths_never_load_numpy(code):
    assert not numpy_loaded_after(code)


@pytest.mark.parametrize(
    "code",
    [
        "import sbchain; sbchain.run_simulation",
        "import sbchain; sbchain.simulation",
        "from sbchain import cli; cli.main(['simulate', '--n', '10'])",
    ],
)
def test_simulation_names_load_numpy(code):
    assert numpy_loaded_after(code)


def test_lazy_names_resolve_to_the_simulation_module():
    out = python(
        "import sbchain\n"
        "from sbchain import simulation\n"
        "print(sbchain.simulation is simulation)\n"
        "print(all(getattr(sbchain, n) is getattr(simulation, n)"
        " for n in sbchain._SIMULATION_NAMES))"
    )
    assert out.split() == ["True", "True"]


def test_star_import_binds_every_public_name():
    out = python(
        "import json, sbchain\n"
        "namespace = {}\n"
        "exec('from sbchain import *', namespace)\n"
        "print(json.dumps([sorted(set(sbchain.__all__) - set(namespace)), sbchain.__all__]))"
    )
    missing, names = json.loads(out)
    assert missing == []
    assert set(names) == PUBLIC_NAMES


def test_all_lists_each_module_name_once():
    import sbchain
    from sbchain import markov_core, rationals, sbp_model

    names = [*markov_core.__all__, *rationals.__all__, *sbp_model.__all__]
    assert sbchain.__all__ == [*names, *sbchain._SIMULATION_NAMES]
    # A name in two lists would let one star import shadow another.
    assert len(set(sbchain.__all__)) == len(sbchain.__all__)


def test_dir_lists_the_lazy_names_before_they_load():
    out = python(
        "import sys, sbchain\n"
        "print(set(sbchain.__all__) <= set(dir(sbchain)), 'simulation' in dir(sbchain))\n"
        "print('numpy' in sys.modules)"
    )
    assert out.split() == ["True", "True", "False"]


def test_unknown_name_raises_attribute_error():
    out = python(
        "import sbchain\n"
        "try:\n"
        "    sbchain.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(sbchain, 'nope'))"
    )
    assert out.splitlines() == ["module 'sbchain' has no attribute 'nope'", "False"]
