"""Smoke tests: each script in scripts/ runs with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import sbchain

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args):
    # The script must import the same sbchain as this process, installed or not.
    src = str(Path(sbchain.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_frequency_sweep():
    lines = run_script("frequency_sweep.py", "--seeds", "2", "--n", "1000")
    assert lines[0].split() == ["seed", "halfer", "dev", "thirder", "dev"]
    assert [line.split()[0] for line in lines[1:3]] == ["0", "1"]
    assert lines[4].startswith("within 0.002 of 1/2: ")
    assert lines[4].endswith("/2 seeds")
