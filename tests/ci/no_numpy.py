"""The commands and library parts that README says need no numpy, run without it.

    PYTHONPATH=src python tests/ci/no_numpy.py

Run it under an interpreter that has no numpy, with sbchain importable by
this interpreter and by ``python -m`` in a child (``pip install --no-deps -e
.``, or ``PYTHONPATH=src`` from the repository root). The checks, in order:

1. numpy is absent;
2. ``exact --n-max 300 --format json`` writes the bytes whose sha256
   ``bench/spec.py`` pins;
3. ``analyze`` reports the default chain, a reducible chain (no period and no
   stationary law) and a periodic one (period 2, law (1/2, 1/2));
4. ``convert encode H T`` runs, ``convert encode h ' t '`` prints the
   awakening table's "MH MT TU", case and padding included,
   ``convert decode M TU M --complete`` prints "MT TU MH", and
   ``convert decode TU TU`` exits 2;
5. the stationary law of ``sbp_chain()`` is (1/3, 1/3, 1/3);
6. Philox4x64-10 from its published definition (``tests/toss_oracle.py``)
   gives the Heads counts that ``simulate --n 100000 --seed 7`` (blocks of
   65536 and 34464) and ``--n 131081 --seed 7`` (65536, 65536 and 9) print;
   ``tests/test_cli.py`` pins the numpy side.

A failed check raises AssertionError and a failed CLI run
CalledProcessError, so either exits 1. Not collected by pytest (no ``test_``
prefix).
"""

import hashlib
import importlib.util
import json
import runpy
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import sbchain

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from toss_oracle import philox_heads  # noqa: E402  (tests/ is on the path now)


def cli(*argv: str, code: int = 0) -> str:
    """stdout of ``python -m sbchain *argv``, which must exit with ``code``."""
    done = subprocess.run([sys.executable, "-m", "sbchain", *argv], stdout=subprocess.PIPE)
    if done.returncode != code:
        raise subprocess.CalledProcessError(done.returncode, done.args, done.stdout)
    return done.stdout.decode()


assert importlib.util.find_spec("numpy") is None, "numpy is installed"

command, digest = runpy.run_path(str(ROOT / "bench" / "spec.py"))["CLI"]["exact_core"]
assert hashlib.sha256(cli(*command).encode()).hexdigest() == digest, "exact table bytes differ from bench/spec.py"

cli("analyze")
with tempfile.TemporaryDirectory() as tmp:
    reports = {}
    for name, matrix in (("identity", [[1, 0], [0, 1]]), ("swap", [[0, 1], [1, 0]])):
        spec = Path(tmp, f"{name}.json")
        spec.write_text(json.dumps({"states": ["a", "b"], "matrix": matrix}))
        reports[name] = json.loads(cli("analyze", "--chain", str(spec), "--format", "json"))
report = reports["identity"]
assert report["irreducible"] is False and report["period"] is None, report
assert report["stationary"] is None, report
report = reports["swap"]
assert report["irreducible"] is True and report["period"] == 2, report
assert report["stationary"] == ["1/2", "1/2"], report

cli("convert", "encode", "H", "T")
# Compared as a shell's "$(...)" reads them, trailing newlines dropped.
assert cli("convert", "encode", "h", " t ").rstrip("\n") == "MH MT TU"
assert cli("convert", "decode", "M", "TU", "M", "--complete").rstrip("\n") == "MT TU MH"
cli("convert", "decode", "TU", "TU", code=2)

pi = sbchain.stationary_distribution(sbchain.sbp_chain().matrix)
assert pi.weights == (Fraction(1, 3),) * 3, pi

heads = sum(philox_heads(7, 0, 65536)) + sum(philox_heads(7, 1, 34464))
assert heads == 50145, heads
heads = sum(sum(philox_heads(7, b, count)) for b, count in enumerate((65536, 65536, 9)))
assert heads == 65772, heads
print("no-numpy: every check passed")
