"""A user's path from the CLI's JSON record back to the library.

    python tests/ci/read_back.py

Two checks, each on the text that ``python -m sbchain simulate ... --format
json`` writes, "\\n" and all:

1. n = 1e5, stride 10 reads back without ``json.loads``, by re-running its
   config, as the library's own run;
2. n = 1e6, stride 1000, where n > len(text) // 2, reads back through
   ``json.loads`` as the library's own run.

sbchain must be importable, by this interpreter and by ``python -m`` in a
child (``pip install -e .``, or ``PYTHONPATH=src`` from the repository root).
A failed check raises AssertionError and a failed CLI run CalledProcessError,
so either exits 1. Not collected by pytest (no ``test_`` prefix).
"""

import subprocess
import sys

from sbchain import simulation


def simulate_json(n: int, stride: int) -> str:
    command = ["simulate", "--n", str(n), "--stride", str(stride), "--format", "json"]
    return subprocess.run([sys.executable, "-m", "sbchain", *command], stdout=subprocess.PIPE, text=True,
                          check=True).stdout


text = simulate_json(100000, 10)
reader = simulation._loads
simulation._loads = None  # the re-run path must read it alone
record = simulation.record_from_json(text)
assert record == simulation.run_simulation(simulation.SimulationConfig(0, 100000, 10))
simulation._loads = reader

text = simulate_json(1000000, 1000)
assert 10**6 > len(text) // 2, len(text)
record = simulation.record_from_json(text)
assert record == simulation.run_simulation(simulation.SimulationConfig(0, 10**6, 1000))
print("read-back: both records equal the library's runs")
