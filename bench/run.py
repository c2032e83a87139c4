"""Run the sbchain benchmark.

    python3 bench/run.py --workload mc_bulk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload run is a closed loop with one client: the next op starts when
the previous one ends. Runs, set-ups and CLI calls each get a fresh child
process, one at a time, so peak RSS is per process. With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics from spans around every call into sbchain. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with provenance, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CHILDREN = 4  # a measured run's passes are split over this many fresh processes
CLI_PER_CHILD = 3  # CLI runs after each of those processes
IMPORT_RUNS = 5
RUN_LIMIT_S = 170  # one workload run must end within 180 s
TAIL_BEYOND = 10  # op_tail_s: highest percentile with at least this many ops beyond it


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def spawn(argv, stem: str, deadline: float) -> tuple[float, int, float, bytes]:
    """Run one child to completion; returns (wall s, exit code, peak RSS MB, stdout).

    stdout and stderr go to files under bench/results, so the child never
    blocks on a pipe; ``os.wait4`` gives the child's own peak RSS.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = RESULTS / f"{stem}.out", RESULTS / f"{stem}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildTimeout
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # time limit or interrupt: stop the child, then re-raise
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    out = out_path.read_bytes()
    out_path.unlink()
    if not err_path.stat().st_size:
        err_path.unlink()
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024 / 1e6, out


def child(mode, name, seed, passes, quick, stem, deadline) -> tuple[dict, float]:
    """Run bench/child.py; returns (its JSON result, its peak RSS MB)."""
    spans = RESULTS / f"{stem}-spans.jsonl"
    argv = [str(BENCH / "child.py"), mode, name, str(seed), str(passes), str(int(quick)), str(spans)]
    _, code, rss, out = spawn(argv, stem, deadline)
    if code != 0:
        raise RuntimeError(f"{mode} child exited {code}; see {RESULTS / stem}.err")
    return json.loads(out.decode().strip().splitlines()[-1]), rss


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    With fewer than 2 * TAIL_BEYOND values that percentile would sit below the
    median, so the slowest value (p100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(name, seed, seconds, quick, deadline) -> dict:
    """End-to-end metrics of one workload, tracing off.

    The run's passes are split over CHILDREN fresh processes, and the CLI
    command runs CLI_PER_CHILD times after each, so every timing is sampled
    across the whole run. The host's CPU speed drifts over seconds to minutes,
    so each time is the best of its samples: an op's best over the passes,
    and the best CLI run.
    """
    stem = f"{name}-seed{seed}-trace0"
    passes = 2 if quick else spec.passes(name, seconds)
    count = 1 if quick else min(CHILDREN, passes)
    argv, digest = spec.CLI[name]
    children, rss, cli_walls, cli_rss = [], [], [], []
    attempted = failed = 0
    failures = []
    for c in range(count):
        share = passes // count + (c < passes % count)
        result, peak = child("measure", name, seed, share, quick, f"{stem}-child{c}", deadline)
        children.append(result)
        rss.append(peak)
        for i in range(1 if quick else CLI_PER_CHILD):
            wall, code, cli_peak, out = spawn(["-m", "sbchain", *argv], f"{stem}-cli{c}.{i}", deadline)
            cli_walls.append(wall)
            cli_rss.append(cli_peak)
            attempted += 1
            if code != 0 or hashlib.sha256(out).hexdigest() != digest:
                failed += 1
                failures.append(f"CLI run {c}.{i}: exit {code}, stdout sha256 {hashlib.sha256(out).hexdigest()}")
    attempted += sum(c["attempted"] for c in children)
    failed += sum(c["failed"] for c in children)
    failures += [f for c in children for f in c["failures"]]
    samples = [times for c in children for times in c["op_times"]]  # [pass][op]
    best = [min(op) for op in zip(*samples)]
    op_tail, tail_pct = tail(best)
    wall_s = sum(best)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": wall_s,
        "op_p50_s": statistics.median(best),
        "op_tail_s": op_tail,
        "peak_rss_mb": statistics.median(rss),
        "cli_wall_s": min(cli_walls),
        "cli_peak_rss_mb": statistics.median(cli_rss),
    }
    metrics = {k: (v, spec.END_TO_END[k]) for k, v in metrics.items()}
    shown = dict(metrics)
    if children[0]["experiments"]:
        shown["experiments_per_s"] = (children[0]["experiments"] / wall_s, "1/s")
    shown["failed_frac"] = (failed / attempted, "ratio")
    return {
        "workload": name,
        "metrics": metrics,
        "shown": shown,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "op_tail": {"percentile": tail_pct, "ops": len(best)},
        "passes": passes,
        "samples": {
            "setup_s": [c["setup_s"] for c in children],
            "op_s": samples,
            "peak_rss_mb": rss,
            "cli_wall_s": cli_walls,
            "cli_peak_rss_mb": cli_rss,
        },
        "versions": children[0]["versions"],
    }


def traced(name, seed, seconds, quick, deadline) -> dict:
    """Per-layer metrics of one workload from a traced run."""
    stem = f"{name}-seed{seed}-trace1"
    # A traced pass runs three times (plain, spans, memory), and tracemalloc
    # roughly doubles the last, so a traced run has a quarter of the passes.
    passes = 1 if quick else spec.passes(name, seconds / 4)
    run, _ = child("trace", name, seed, passes, quick, f"{stem}-trace", deadline)
    imports = []
    for i in range(1 if quick else IMPORT_RUNS):
        wall, code, _, _ = spawn(["-c", "import sbchain.cli"], f"{stem}-import{i}", deadline)
        if code != 0:
            raise RuntimeError(f"import sbchain.cli exited {code}")
        imports.append(wall)
    metrics = run["layer_metrics"] | {"cli.import_s": (statistics.median(imports), "s")}
    metrics = {k: metrics[k] for k in spec.per_layer()}
    return {
        "workload": name,
        "metrics": metrics,
        "shown": metrics,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "traced_passes": run["traced_passes"],
        "spans": f"{stem}-trace-spans.jsonl",
        "versions": run["versions"],
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def row(result: dict) -> str:
    cells = [f"{result['workload']:<11}"]
    for key, (value, unit) in result["shown"].items():
        cells.append(f"{key}={value:.6g} {unit}")
        if key == "op_tail_s":
            tail_info = result["op_tail"]
            cells[-1] += f" (p{tail_info['percentile']:.0f} of {tail_info['ops']} ops)"
    return "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny inputs, one set-up and one CLI run: checks the harness, measures nothing",
    )
    args = parser.parse_args(argv)
    if not (SRC / "sbchain" / "__init__.py").is_file():
        print(f"error: no sbchain source under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        run = traced if args.trace else measure
        try:
            result = run(name, args.seed, args.seconds, args.quick, deadline)
        except (ChildTimeout, RuntimeError) as exc:
            print(f"error: {name}: {exc or 'time limit reached'}", file=sys.stderr)
            return 1
        result["provenance"] = provenance(result.pop("versions"))
        result["args"] = vars(args) | {"workload": name}
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        for failure in result["failures"][:20]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        print(row(result), flush=True)
        results.append(result)

    def metrics(result, prefix=""):
        return {f"{prefix}{k}": {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics(results[0])
        if len(results) == 1
        else {k: v for r in results for k, v in metrics(r, r["workload"] + ".").items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
