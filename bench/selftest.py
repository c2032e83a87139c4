"""Self-test of the benchmark harness; finishes in well under a minute.

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness reports,
that tampered program outputs are counted as failed ops (and so in
failed_frac), and that quick mode runs every workload end to end, traced and
untraced, with every check passing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import child
import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
QUICK_LIMIT_S = 60
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def benchmark_json_matches_spec() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(e2e == spec.END_TO_END, "BENCHMARK.json end_to_end == reported end-to-end metrics")
    check(layer == spec.per_layer(), "BENCHMARK.json per_layer == reported per-layer metrics")
    check([w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS), "workload names")


def tampered_outputs_fail() -> None:
    sb = child.import_program()
    import workloads as wl
    from tracing import NoTrace

    def shifted_power(matrix, n):
        return real_power(matrix, n - 1)

    def short_csv(record):
        return real_csv(record).rsplit("\n", 2)[0] + "\n"

    def nudged_trace(config, f):
        trace = real_lln(config, f)
        n, avg = trace.running_averages[-1]
        bumped = trace.running_averages[:-1] + ((n, avg + 1e-9),)
        return sb.LLNTrace(f_values=trace.f_values, running_averages=bumped)

    real_power, real_csv, real_lln = sb.matrix_power, sb.record_to_csv, sb.lln_trace
    tampers = {
        "mc_bulk": ("lln_trace", nudged_trace),
        "mc_records": ("record_to_csv", short_csv),
        "exact_core": ("matrix_power", shifted_power),
    }
    for name, (attr, fake) in tampers.items():
        workload = wl.WORKLOADS[name]
        inp = workload.inputs(0, wl.QUICK)[0]
        clean = child.Run(workload, wl.QUICK)
        clean.op("clean", inp, NoTrace())
        check(clean.failures == [], f"{name}: untampered op passes its checks")
        run = child.Run(workload, wl.QUICK)
        with mock.patch.object(sb, attr, fake):
            run.op("tampered", inp, NoTrace())
        check(
            run.attempted == 1 and len(run.failures) == 1,
            f"{name}: tampered {attr} counted as a failed op {run.failures}",
        )
    argv, digest = spec.CLI["exact_core"]
    with mock.patch.object(sb.cli, "format_rational", lambda v: str(v) + " "):
        code, out = wl.cli_in_process(argv)
    check(code == 0 and wl.sha256(out) != digest, "tampered CLI stdout fails its digest")


def quick_runs_pass() -> None:
    for trace in ("0", "1"):
        start = time.perf_counter()
        argv = [sys.executable, str(BENCH / "run.py"), "--quick", "--seconds", "1", "--trace", trace]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
        elapsed = time.perf_counter() - start
        check(done.returncode == 0, f"quick run --trace {trace} exits 0 {done.stderr[-2000:]}")
        if done.returncode:
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        names = spec.per_layer() if trace == "1" else spec.END_TO_END
        expected = {f"{w}.{m}" for w in spec.WORKLOADS for m in names}
        check(result["correct"] and result["failed"] == 0, f"quick run --trace {trace} is correct")
        check(set(result["metrics"]) == expected, f"quick run --trace {trace} reports every metric")
        check(elapsed < QUICK_LIMIT_S, f"quick run --trace {trace} took {elapsed:.1f} s")


def main() -> int:
    benchmark_json_matches_spec()
    tampered_outputs_fail()
    quick_runs_pass()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
