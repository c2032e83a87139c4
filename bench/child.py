"""One benchmark process: set up a workload, then measure or trace it.

run.py starts these one at a time:

    python3 bench/child.py MODE WORKLOAD SEED PASSES QUICK SPANS_PATH

MODE is ``measure`` (tracing off) or ``trace``. Set-up is the import of
sbchain, input generation and one warm-up op. The process then makes PASSES
passes over the same ops, so that two commits run the same work. The result
is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spec
from tracing import NoTrace, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_MAIN_RUNS = 3


def import_program():
    sys.path.insert(0, str(SRC))
    import sbchain
    import sbchain.cli  # noqa: F401

    if Path(sbchain.__file__).resolve().parent != SRC / "sbchain":
        raise SystemExit(f"error: imported sbchain from {sbchain.__file__}, not {SRC}")
    return sbchain


class Run:
    """Ops attempted and failed in this process, with the failed checks."""

    def __init__(self, workload, sizes):
        self.workload = workload
        self.sizes = sizes
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, op_id: str, checks: list[str]) -> None:
        self.failures.append(f"op {op_id}: " + "; ".join(checks))

    def op(self, op_id: str, inp, tr) -> None:
        self.attempted += 1
        with tr.op(op_id):
            try:
                failed = self.workload.run_op(inp, tr, self.sizes)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                traceback.print_exc()
                failed = [f"raised {type(exc).__name__}: {exc}"]
        if failed:
            self.fail(op_id, failed)

    def run_pass(self, inputs, tr, pass_id) -> tuple[float, list[float]]:
        """Run one pass; returns (wall seconds, seconds of each op)."""
        times = []
        start = time.perf_counter()
        for i, inp in enumerate(inputs):
            t = time.perf_counter()
            self.op(f"{pass_id}.{i}", inp, tr)
            times.append(time.perf_counter() - t)
        return time.perf_counter() - start, times


def main(argv) -> int:
    mode, name, seed, passes, quick, spans_path = argv
    seed, passes, quick = int(seed), int(passes), quick == "1"
    t0 = time.perf_counter()
    sbchain = import_program()
    import numpy

    import workloads as wl

    workload = wl.WORKLOADS[name]
    run = Run(workload, wl.QUICK if quick else wl.FULL)
    inputs = workload.inputs(seed, run.sizes)
    run.op("warm-up", inputs[0], NoTrace())
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s}
    if mode == "measure":
        result |= {
            "op_times": [run.run_pass(inputs, NoTrace(), p)[1] for p in range(passes)],
            "experiments": workload.pass_ops * workload.experiments_per_op(run.sizes),
        }
    elif mode == "trace":
        result |= trace(wl, run, inputs, passes, name, spans_path)
    result |= {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "versions": {"numpy": numpy.__version__, "sbchain": sbchain.__version__},
    }
    print(json.dumps(result))
    return 0


def trace(wl, run: Run, inputs, passes: int, name: str, spans_path: str) -> dict:
    """Alternate plain, span-traced and memory-traced passes over the inputs.

    Per-layer times come from the span passes and tracemalloc peaks from the
    memory passes, so tracemalloc's own cost does not inflate the times. Each
    traced pass ends with the probe op, which its wall time excludes.
    """
    plain, spans, memory = [], [], []
    for p in range(passes):
        plain.append(run.run_pass(inputs, NoTrace(), p)[0])
        for kind, walls in (("spans", spans), ("memory", memory)):
            tr = Tracer(f"{kind}{p}", memory=kind == "memory")
            if tr.memory:
                tracemalloc.start()
            wall = run.run_pass(inputs, tr, p)[0]
            with tr.op(f"{p}.probe"):
                wl.probe_op(tr)
            if tr.memory:
                tracemalloc.stop()
            walls.append((wall, tr))

    argv, digest = spec.CLI[name]
    cli_tr = Tracer("cli")
    for i in range(CLI_MAIN_RUNS):
        run.attempted += 1
        with cli_tr.op(f"cli.{i}"):
            code, out = cli_tr.call("cli.main", wl.cli_in_process, argv)
        if code != 0 or wl.sha256(out) != digest:
            run.fail(f"cli.{i}", [f"cli.main exit {code}, stdout sha256 {wl.sha256(out)}"])

    plain_s = statistics.median(plain)
    metrics = {
        f"{call}_s": (statistics.median(tr.busy_s()[call] for _, tr in spans), "s")
        for call in spec.LAYER_CALLS
    }
    for call in spec.PEAK_CALLS:
        metrics[f"{call}_peak_mb"] = (max(tr.peaks_mb()[call] for _, tr in memory), "MB")
    first = spans[0][1]
    metrics |= {count: (first.counts[count], unit) for count, unit in spec.COUNTS.items()}
    metrics["cli.main_s"] = (statistics.median(cli_tr.durations("cli.main")), "s")
    metrics["trace.overhead_s"] = (statistics.median(w for w, _ in spans) - plain_s, "s")
    metrics["trace.tracemalloc_overhead_s"] = (
        statistics.median(w for w, _ in memory) - plain_s,
        "s",
    )
    with open(spans_path, "w", encoding="utf-8") as out:
        for tr in [tr for _, tr in spans + memory] + [cli_tr]:
            for span in tr.spans:
                out.write(json.dumps(span) + "\n")
    return {"layer_metrics": metrics, "traced_passes": len(spans)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
