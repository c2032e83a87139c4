"""Exact and Monte Carlo analysis of the repeated Sleeping Beauty experiment.

The repetition of the experiment induces a three-state ergodic Markov chain
on (Heads-Monday, Tails-Monday, Tuesday). This package verifies, exactly with
rational arithmetic and empirically with seeded Monte Carlo, that the
per-experiment Heads frequency is 1/2 while the per-awakening Heads frequency
is the stationary mass 1/3.
"""

from . import markov_core, rationals, sbp_model
from .markov_core import *
from .rationals import *
from .sbp_model import *

# The simulation names load numpy, so they resolve on first use (PEP 562);
# they are listed here because reading them from the module would import it.
_SIMULATION_NAMES = (
    "GENERATOR_NAME",
    "Checkpoint",
    "LLNTrace",
    "SimulationConfig",
    "SimulationRecord",
    "StateCounts",
    "forced_run",
    "halfer_statistic",
    "indicator",
    "lln_trace",
    "record_from_json",
    "record_to_csv",
    "record_to_json",
    "run_simulation",
    "state_frequencies",
    "thirder_statistic",
)
__all__ = [*markov_core.__all__, *rationals.__all__, *sbp_model.__all__, *_SIMULATION_NAMES]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "simulation" and name not in _SIMULATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not "from . import simulation": that asks this module for the attribute
    # first and so would come straight back here. Importing the submodule
    # binds "simulation" in this namespace; bind its public names next to it.
    from importlib import import_module

    module = import_module(".simulation", __name__)
    globals().update((n, getattr(module, n)) for n in _SIMULATION_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_SIMULATION_NAMES, "simulation"})
