"""What the CLI writes as it goes: the library writers' bytes, in bounded memory."""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sbchain import cli, sbp_model, simulation
from sbchain.markov_core import convergence_report
from sbchain.rationals import format_rational
from sbchain.sbp_model import exact_distribution, sbp_chain
from sbchain.simulation import (
    BLOCK_SIZE,
    SimulationConfig,
    record_to_csv,
    record_to_json,
    run_simulation,
)

ROOT = Path(__file__).resolve().parent.parent

# Three full blocks and 7 experiments of a fourth, so marks fall on both sides
# of every block edge; stride 7 divides neither n nor the block size.
N = 3 * BLOCK_SIZE + 7
CASES = [
    *((seed, n, stride) for seed in range(10) for n, stride in ((N, 7), (N, N), (1000, 1))),
    (0, N, 1),
    (3, N, 2 * N),
    (4, N, BLOCK_SIZE),
    (5, N, BLOCK_SIZE + 1),
    (6, N, 300),  # about 218 marks a block: blocks are joined in pairs
]


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == cli.EXIT_OK
    return out.getvalue()


class TestStreamedSimulate:
    @pytest.mark.parametrize("seed, n, stride", CASES)
    @pytest.mark.parametrize(
        "fmt, writer",
        [("csv", record_to_csv), ("json", lambda record: record_to_json(record) + "\n")],
        ids=["csv", "json"],
    )
    def test_equals_library_writer(self, fmt, writer, seed, n, stride):
        expected = writer(run_simulation(SimulationConfig(seed, n, stride)))
        argv = ("--seed", str(seed), "--n", str(n), "--stride", str(stride))
        assert cli_stdout("simulate", *argv, "--format", fmt) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_text_summary_ignores_stride(self, seed):
        argv = ("simulate", "--seed", str(seed), "--n", str(N))
        assert cli_stdout(*argv, "--stride", "7") == cli_stdout(*argv, "--stride", str(N))


class TestStreamedExact:
    def test_json_is_json_dumps_of_the_rows(self):
        rows = convergence_report(sbp_chain(), 40)
        doc = [
            {
                "n": n,
                "recursion": [format_rational(w) for w in rec.weights],
                "closed_form": [format_rational(w) for w in exact_distribution(n).weights],
                "equal": True,
                "tv_to_stationary": format_rational(tv),
            }
            for n, rec, tv in rows
        ]
        assert cli_stdout("exact", "--n-max", "40", "--format", "json") == json.dumps(
            doc, indent=2
        ) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_mismatch_exits_4_after_every_row(self, fmt, monkeypatch, capsys):
        def wrong_at_3(n):
            return exact_distribution(1 if n == 3 else n)

        monkeypatch.setattr(sbp_model, "exact_distribution", wrong_at_3)
        assert cli.main(["exact", "--n-max", "5", "--format", fmt]) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert err == "error: closed form and matrix recursion disagree\n"
        if fmt == "json":
            equal = [row["equal"] for row in json.loads(out)]
        else:
            equal = ["false" not in line for line in out.splitlines()[1:]]
        assert equal == [True, True, False, True, True]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stream_peak_is_flat_in_checkpoints(fmt, monkeypatch):
    # One mark per block, as at any stride of BLOCK_SIZE or more: keeping
    # anything per block or per checkpoint would show as hundreds of bytes.
    monkeypatch.setattr(simulation, "BLOCK_SIZE", 16)

    def peak(checkpoints):
        chunks = simulation._record_chunks(SimulationConfig(1, 16 * checkpoints, 16), fmt)
        tracemalloc.start()
        try:
            for _ in chunks:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # first-use allocations inside numpy and json
    small = peak(1000)
    assert (peak(3000) - small) / 2000 < 8


@pytest.mark.parametrize(
    "n, stride, passes",
    [(256, 1, 1), (257, 1, 2), (N, N, 1), (N, -(-N // 256), 1), (N, -(-N // 257) - 1, 2)],
)
def test_json_stream_of_256_rows_or_fewer_draws_each_toss_once(n, stride, passes, monkeypatch):
    # Rows that _text would join into one render anyway come from one run,
    # so the header's totals need no count-only pass; more rows take one.
    streams = []

    def blocks(config):
        streams.append(config)
        return seeded_blocks(config)

    seeded_blocks = simulation._seeded_blocks
    monkeypatch.setattr(simulation, "_seeded_blocks", blocks)
    config = SimulationConfig(2, n, stride)
    text = "".join(simulation._record_chunks(config, "json"))
    assert len(streams) == passes
    assert text == record_to_json(run_simulation(config))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sparse_marks_are_joined_before_rendering(fmt, monkeypatch):
    # About 218 marks a block: rendered alone, each block's rows would cost a
    # render of their own, so they are joined into renders of 256 rows or more.
    renders = []

    def rows(texts, m, *columns):
        renders.append(len(m))
        return render(texts, m, *columns)

    render = simulation._rows
    monkeypatch.setattr(simulation, "_rows", rows)
    config = SimulationConfig(6, N, 300)
    text = "".join(simulation._record_chunks(config, fmt))
    assert sum(renders) == -(-N // 300) > simulation._MERGE_ROWS
    assert all(simulation._MERGE_ROWS <= size <= simulation._CHUNK_ROWS for size in renders[:-1])
    assert len(renders) == 2
    monkeypatch.undo()
    assert text == {"csv": record_to_csv, "json": record_to_json}[fmt](run_simulation(config))


# Read, never imported, so that nothing is written under bench/.
BENCH_CLI = runpy.run_path(str(ROOT / "bench" / "spec.py"))["CLI"]


@pytest.mark.parametrize("workload", sorted(BENCH_CLI))
def test_benchmark_cli_digest(workload):
    argv, digest = BENCH_CLI[workload]
    assert hashlib.sha256(cli_stdout(*argv).encode()).hexdigest() == digest


def test_streamed_json_digest_at_1e5_rows():
    # 1e5 checkpoints in 25 chunks of rows: the benchmark pins 100 JSON rows
    # and the CSV. Recorded from the text that one "%r" template per row wrote.
    out = cli_stdout("simulate", "--n", "1000000", "--stride", "10", "--format", "json")
    digest = "cdcf95c7459358eb309c76a680f653c0973f1a5d6335915eca27f2029879dacb"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The benchmark pins only the JSON table; these pin the other two formats.
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "ea3b0de8528de4d5ac68a80d5ff98cf1c42202c04198a28984934915e5a80c62"),
        ("csv", "dcd6bba609520565c696729d56ae1143325d6d28fe564daecf8dd023de758e79"),
    ],
)
def test_exact_table_digest(fmt, digest):
    out = cli_stdout("exact", "--n-max", "60", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "2000000", "--stride", "1", "--format", "csv"),
        ("exact", "--n-max", "2000", "--format", "csv"),
    ],
    ids=["simulate", "exact"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # Both write megabytes, far past what the pipe and stdout's buffer hold,
    # so a write is still to come when the reader closes its end.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sbchain", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_CLOSED_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


# A child's ru_maxrss starts from the peak of the process that spawned it, and
# this test process is far larger than the runs it measures. So a fresh
# interpreter, small when it spawns, runs sbchain and reports what wait4 gives.
LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "sbchain", *sys.argv[1:]]
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ, file_actions=out), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv: str) -> float:
    """Peak RSS of ``python -m sbchain *argv`` run to completion, stdout discarded."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return kib / 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
class TestBoundedMemory:
    """Peak RSS of two runs, one 4x as long as the other. Holding every row
    costs about 300 B (CSV) or 460 B (JSON) per checkpoint, over 100 MB between
    these sizes; simulate and exact hold one block of rows in every format."""

    @pytest.mark.parametrize("fmt, bound_mb", [("csv", 8), ("json", 8)])
    def test_simulate_stride_1(self, fmt, bound_mb):
        small, large = (
            peak_rss_mb("simulate", "--n", str(n), "--stride", "1", "--format", fmt)
            for n in (2**17, 2**19)
        )
        assert large - small < bound_mb

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stride_1_near_stride_10(self, fmt):
        # A whole block of rows at stride 1 is 65536 row strings and their
        # joined text, 17 MB (CSV) above stride 10; 4096-row slices stay within 5.
        argv = ("simulate", "--n", str(2**19), "--format", fmt, "--stride")
        assert peak_rss_mb(*argv, "1") - peak_rss_mb(*argv, "10") < 8

    def test_exact(self):
        small, large = (
            peak_rss_mb("exact", "--n-max", str(n), "--format", "csv") for n in (1500, 6000)
        )
        assert large - small < 4
