"""Mutation check: each listed mutant of sbchain must make its tests fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the mutants named

The script copies ``src/``, ``tests/``, ``bench/`` (whose spec pins the CLI
digests) and ``pyproject.toml`` (pytest's settings) into a temporary
directory and runs pytest there, so the working tree is never changed. First the unmutated copy must pass every test file
that a mutant names. Then each mutant in turn replaces one text in one file,
and pytest must fail on the mutant's tests. The text must occur in the file
exactly once, and the tests must exist; otherwise the mutant is stale, so
that a refactor re-expresses a mutant instead of dropping it unseen.

It prints one line per mutant and then a JSON summary, and exits 1 if the
unmutated copy fails, or if any mutant survives or is stale. Not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur in the file exactly once
    new: str
    tests: tuple[str, ...]  # pytest arguments: files or node ids


SIM = "src/sbchain/simulation.py"
CORE = "src/sbchain/markov_core.py"
MODEL = "src/sbchain/sbp_model.py"
RAT = "src/sbchain/rationals.py"
CLI = "src/sbchain/cli.py"

T_SIM = ("tests/test_simulation.py", "tests/test_properties.py")
T_STREAM = ("tests/test_simulation.py", "tests/test_properties.py", "tests/test_cli_stream.py", "tests/test_cli.py")
T_CORE = ("tests/test_markov_core.py", "tests/test_properties.py")
T_MODEL = ("tests/test_sbp_model.py", "tests/test_properties.py::TestSequenceOracle")
T_CLI = ("tests/test_cli.py", "tests/test_imports.py", "tests/test_cli_stream.py")

MUTANTS = [
    # The toss stream: Heads by one compare, one Philox state per stream.
    Mutant("heads-above-128", SIM, "np.greater_equal(raw, 128", "np.greater(raw, 128", T_SIM),
    Mutant("block-index-unwritten", SIM, "        key[1] = block_index\n", "", T_SIM),
    Mutant("buffer-not-emptied", SIM, '"buffer_pos": 4', '"buffer_pos": 0', T_SIM),
    Mutant("counter-not-zero", SIM, '{"counter": zeros,', '{"counter": zeros + 1,', T_SIM),
    Mutant("big-endian-words", SIM, 'astype("<u8", copy=False)', 'astype(">u8", copy=False)', T_SIM),
    Mutant("reversed-bytes", SIM, "copy=False).view(np.uint8)\n", "copy=False).view(np.uint8)[::-1]\n", T_SIM),
    # The fold's spans, bounds and probes.
    Mutant("experiment-span-late", SIM, "else (first, last)", "else (first + 1, last)", T_SIM),
    Mutant("half-bound-late", SIM, "(first // 2, min(", "(first // 2 + 1, min(", T_SIM),
    Mutant("mark-bound-early", SIM, "min(last, size)", "min(last - 1, size)", T_SIM),
    Mutant("block-bound-early", SIM, "min(last, size)", "min(last, size - 1)", T_SIM),
    Mutant("probe-keeps-below-first", SIM, "if 2 * mid - h <= first:", "if 2 * mid - h < first:", T_SIM),
    Mutant("probe-drops-heads", SIM, "lo, before = mid, h", "lo = mid", T_SIM),
    # The same mutant against the trace oracle alone, whose lone marks in a later block catch it.
    Mutant("probe-drops-heads-trace-oracle", SIM, "lo, before = mid, h", "lo = mid",
           ("tests/test_properties.py::TestLlnTraceOracle",)),
    Mutant("marks-without-heads-before", SIM, "(q - (c0 + 2 * lo - before))", "(q - (c0 + 2 * lo))", T_SIM),
    Mutant("h-without-heads-before", SIM, "+ (h0 + before)", "+ h0", T_SIM),
    Mutant("no-int64-widening", SIM, "local[k].astype(np.int64) +", "local[k] +", T_SIM),
    Mutant("no-tail-mark", SIM, "    if c0 % stride:\n", "    if False:\n", T_SIM),
    # Records, their text and the reader.
    # The join changes no bytes, only the number of renders, which test_cli_stream.py counts.
    Mutant("text-never-joins", SIM, "if held and (rows >= _MERGE_ROWS or pair is None):", "if held:",
           ("tests/test_cli_stream.py",)),
    Mutant("streamed-head-with-totals-config", SIM, '_json_head({**_header(_totals(config)), "config": asdict(config)})',
           "_json_head(_header(_totals(config)))", ("tests/test_cli_stream.py",)),
    Mutant("no-json-block-separator", SIM, '(_json_rows, ",\\n", _JSON_TAIL)', '(_json_rows, "", _JSON_TAIL)', T_STREAM),
    Mutant("view-eq-reads-m-only", SIM, "all(map(np.array_equal, self._columns, other._columns))",
           "np.array_equal(self._columns[0], other._columns[0])", T_SIM),
    Mutant("view-eq-casts-across-item-types", SIM, "if isinstance(other, _Rows) and self._item is other._item:",
           "if isinstance(other, _Rows):", T_SIM),
    Mutant("view-radd-reversed", SIM, "return other + tuple(self)", "return tuple(self) + other", T_SIM),
    Mutant("columns-kept-from-any-view", SIM, " and checkpoints._item is Checkpoint", "", T_SIM),
    Mutant("marks-may-repeat", SIM, "(m[1:] <= m[:-1]).any()", "(m[1:] < m[:-1]).any()", T_SIM),
    Mutant("no-2**53-bound", SIM, "m[0] < 1 or m[-1] > 2**53 or", "m[0] < 1 or", T_SIM),
    Mutant("no-lower-bound-1", SIM, "if m[0] < 1 or m[-1]", "if m[-1]", T_SIM),
    Mutant("awakenings-may-exceed-2m", SIM, "((a < m) | (a > 2 * m))", "(a < m)", T_SIM),
    Mutant("awakenings-may-fall-below-m", SIM, "((a < m) | (a > 2 * m))", "(a > 2 * m)", T_SIM),
    Mutant("halfer-type-unchecked", SIM, 'for key in ("halfer", "thirder")', 'for key in ("thirder",)', T_SIM),
    Mutant("thirder-type-unchecked", SIM, 'for key in ("halfer", "thirder")', 'for key in ("halfer",)', T_SIM),
    Mutant("heads-as-m-minus-a", SIM, "    h = 2 * m - a\n", "    h = m - a\n", T_SIM),
    # Rows from 0.01 to 0.1 whose repr takes 17 digits would get 16 from the fast path.
    Mutant("shortest-below-its-decade", SIM, "fallback = (x < 0.1)", "fallback = (x < 0.01)", T_SIM),
    Mutant("checkpoint-statistics-unchecked", SIM,
           "if not 1 <= self.experiments <= self.awakenings <= 2 * self.experiments:", "if False:", T_SIM),
    Mutant("no-render-check", SIM, "if rerun and _renders(rerun, text):", "if rerun:", T_SIM),
    Mutant("no-size-rule", SIM, "rerun = config.n_experiments <= len(text) // 2 and run_simulation(config)",
           "rerun = run_simulation(config)", T_SIM),
    # The entry points' type checks.
    Mutant("config-type-unchecked", SIM, 'n = _required("config", SimulationConfig, config).n_experiments',
           "n = config.n_experiments", T_SIM),
    Mutant("writer-record-type-unchecked", SIM,
           'columns = _required("record", SimulationRecord, record).checkpoints._columns\n'
           '    return "".join(_text("json"',
           'columns = record.checkpoints._columns\n    return "".join(_text("json"', T_SIM),
    Mutant("csv-writer-record-type-unchecked", SIM,
           'columns = _required("record", SimulationRecord, record).checkpoints._columns\n'
           '    return "".join(_text("csv"',
           'columns = record.checkpoints._columns\n    return "".join(_text("csv"', T_SIM),
    Mutant("record-unchecked-at-construction", SIM,
           "if not isinstance(self.config, (SimulationConfig, type(None))) or not isinstance(checkpoints, Sequence):",
           "if False:", T_SIM),
    Mutant("halfer-record-type-unchecked", SIM,
           'return _required("record", SimulationRecord, record).heads_experiments',
           "return record.heads_experiments", T_SIM),
    Mutant("thirder-record-type-unchecked", SIM,
           'return _required("record", SimulationRecord, record).heads_awakenings',
           "return record.heads_awakenings", T_SIM),
    Mutant("frequencies-record-type-unchecked", SIM,
           'counts = _required("record", SimulationRecord, record).state_counts',
           "counts = record.state_counts", T_SIM),
    Mutant("lln-min-denominator", SIM, "e = max(den for _, den in ratios)", "e = min(den for _, den in ratios)",
           T_SIM),
    Mutant("lln-divides-twice", SIM, "/ (n * e) for", "/ n / e for", T_SIM),
    # The exact core.
    Mutant("range-check-without-top", CORE, "if not 0 <= v.numerator <= v.denominator:",
           "if not 0 <= v.numerator:", T_CORE),
    Mutant("sum-check-above-only", CORE, "if total != d:", "if total > d:", T_CORE),
    Mutant("stochastic-entry-message-str", CORE, "{format_rational(v)} outside", "{str(v)} outside",
           ("tests/test_markov_core.py",)),
    Mutant("stochastic-sum-message-str", CORE, "sums to {format_rational(Fraction(total, d))}",
           "sums to {str(Fraction(total, d))}", ("tests/test_markov_core.py",)),
    Mutant("text-taken-as-sequence", CORE, "if isinstance(values, (str, bytes, bytearray)) or not",
           "if not", T_CORE),
    Mutant("list-law", CORE, "tuple(map(Fraction, numerators, repeat(den)))",
           "list(map(Fraction, numerators, repeat(den)))", T_CORE),
    Mutant("always-step", CORE, "if m <= (m.bit_length() - 1) * len(a) + m.bit_count():", "if True:", T_CORE),
    Mutant("always-power", CORE, "if m <= (m.bit_length() - 1) * len(a) + m.bit_count():", "if False:", T_CORE),
    Mutant("tie-powers", CORE, "if m <= (m.bit_length()", "if m < (m.bit_length()", T_CORE),
    Mutant("walk-skips-first-row", CORE, "        yield w\n        (w,) = _int_mul((w,), a)\n",
           "        (w,) = _int_mul((w,), a)\n        yield w\n", T_CORE),
    Mutant("half-stationary-denominator", CORE, "return _over(y, previous)", "return _over(y, previous // 2)",
           T_CORE),
    Mutant("back-substitution-by-previous", CORE, "y[i + 1 :]))) // row[i]", "y[i + 1 :]))) // previous",
           T_CORE),
    Mutant("back-substitution-skips-row", CORE, "for i in reversed(range(k)):",
           "for i in reversed(range(1, k)):", T_CORE),
    Mutant("back-substitution-shifted-slice", CORE, "row[i + 1 : k], y[i + 1 :]", "row[i : k], y[i + 1 :]",
           T_CORE),
    Mutant("den-grows-before-yield", CORE,
           "        yield ConvergenceRow(n, _over(w, den), _tv(w, den, p, q))\n        den *= d\n",
           "        den *= d\n        yield ConvergenceRow(n, _over(w, den), _tv(w, den, p, q))\n", T_CORE),
    Mutant("tv-on-d-squared", CORE, "2 * d * q)", "2 * d * d)", T_CORE),
    Mutant("convergence-tv-wrong-denominator", CORE, "_tv(w, den, p, q)", "_tv(w, d, p, q)", T_CORE),
    Mutant("report-irreducible-unchecked", CORE, "if not isinstance(self.irreducible, bool):", "if False:", T_CORE),
    Mutant("report-period-may-be-0", CORE, "and self.period >= 1)", "and self.period >= 0)", T_CORE),
    Mutant("report-period-may-be-bool", CORE, "type(self.period) is int and", "isinstance(self.period, int) and",
           T_CORE),
    Mutant("report-stationary-unchecked", CORE, "if not isinstance(self.stationary, (DistributionVector, type(None))):",
           "if False:", T_CORE),
    Mutant("chain-parts-unchecked", CORE,
           '        _required("states", StateSpace, self.states)\n'
           '        _required("matrix", TransitionMatrix, self.matrix)\n'
           '        if self.initial is not None:\n'
           '            _required("initial", DistributionVector, self.initial)\n', "", T_CORE),
    Mutant("labels-not-strings", CORE, "if not all(isinstance(label, str) for label in self.labels):",
           "if False:", T_CORE),
    Mutant("ints-recomputed", CORE, "    @cached_property\n    def _ints", "    @property\n    def _ints", T_CORE),
    Mutant("period-recomputed", CORE, "    @cached_property\n    def _period", "    @property\n    def _period",
           T_CORE),
    Mutant("law-recomputed", CORE, "    @cached_property\n    def _law", "    @property\n    def _law", T_CORE),
    Mutant("expectation-without-length", CORE, 'if _length(values, "function values") != len(',
           "if len(values) != len(", T_CORE),
    Mutant("power-message-f-string", CORE, 'f"matrix power needs n >= 0, got {_decimal(n)}"',
           'f"matrix power needs n >= 0, got {n}"', ("tests/test_rationals.py",)),
    # The sequence model.
    Mutant("tuesday-sign", MODEL, "(1 << (n - 1)) - sign) // 3", "(1 << (n - 1)) + sign) // 3",
           ("tests/test_sbp_model.py",)),
    Mutant("trailing-m-always-undetermined", MODEL, "out[-1] is Awakening.M_H and not complete:",
           "out[-1] is Awakening.M_H:", T_MODEL),
    Mutant("double-tu-accepted", MODEL, "and obs[i - 1] is Observation.TU:", "and False:", T_MODEL),
    Mutant("decode-accepts-non-member", MODEL, "if not isinstance(o, Observation):", "if False:", T_MODEL),
    Mutant("mt-follow-check-on-tu", MODEL, "elif prev is Awakening.M_T:", "elif prev is Awakening.TU:", T_MODEL),
    Mutant("validate-rejects-only-none", MODEL, "elif not isinstance(a, Awakening):", "elif a is None:",
           T_MODEL),
    Mutant("final-mt-check-on-mh", MODEL, 'if prev is Awakening.M_T:\n        raise ValueError(f"M_T at position {len',
           'if prev is Awakening.M_H:\n        raise ValueError(f"M_T at position {len', T_MODEL),
    # The token and decode tables.
    Mutant("tu-after-tu-decodes", MODEL, "Observation.TU: {Observation.M: Awakening.M_T}",
           "Observation.TU: {Observation.M: Awakening.M_T, Observation.TU: Awakening.TU}", T_MODEL),
    Mutant("heads-table-swapped", MODEL, "{Toss.HEADS: 1, Toss.TAILS: 0}", "{Toss.HEADS: 0, Toss.TAILS: 1}",
           T_MODEL),
    Mutant("heads-encoded-as-tails", MODEL, "{Toss.HEADS: (Awakening.M_H,),",
           "{Toss.HEADS: (Awakening.M_T, Awakening.TU),", T_MODEL),
    Mutant("format-accepts-non-member", MODEL, "if not isinstance(item, _Symbol):", "if False:", T_MODEL),
    Mutant("format-takes-non-iterable", MODEL, '    seq = _listed(seq, "symbols")\n', "", T_MODEL),
    Mutant("chain-in-model-all", MODEL, '"Awakening", "EmptyInput",', '"Awakening", "Chain", "EmptyInput",',
           ("tests/test_imports.py",)),
    # Rationals.
    Mutant("no-zfill", RAT, "_decimal(low).zfill(k)", "_decimal(low)", ("tests/test_rationals.py",)),
    Mutant("unicode-digits", RAT, 'r"^([+-]?[0-9]+)(?:/([0-9]+))?$"', r'r"^([+-]?\d+)(?:/(\d+))?$"',
           ("tests/test_rationals.py",)),
    Mutant("decimal-without-sign", RAT, '        if n < 0:\n            return "-" + _decimal(-n)\n', "",
           ("tests/test_rationals.py",)),
    Mutant("integer-without-sign", RAT, '        if text[0] == "-":\n            return -_integer(text[1:])\n', "",
           ("tests/test_rationals.py",)),
    Mutant("parse-takes-non-text", RAT, "match = isinstance(text, str) and _RATIONAL_RE", "match = _RATIONAL_RE",
           ("tests/test_rationals.py",)),
    Mutant("format-takes-any-type", RAT, "if not isinstance(value, (Fraction, int)) or isinstance(value, bool):",
           "if False:", ("tests/test_rationals.py",)),
    Mutant("format-takes-bool", RAT, " or isinstance(value, bool):", ":", ("tests/test_rationals.py",)),
    Mutant("required-takes-any-type", RAT, "if not isinstance(value, kind):", "if False:",
           ("tests/test_simulation.py", "tests/test_markov_core.py")),
    Mutant("require-int-in-all", RAT, '__all__ = ["as_exact", "format_rational", "parse_rational"]',
           '__all__ = ["as_exact", "format_rational", "parse_rational", "require_int"]', ("tests/test_imports.py",)),
    # The CLI.
    Mutant("eager-simulation-import", CLI, "from . import markov_core, sbp_model\n",
           "from . import markov_core, sbp_model, simulation\n", T_CLI),
    Mutant("digit-limit-as-overflow", CLI, "except ValueError:  # an integer literal",
           "except OverflowError:  # an integer literal", T_CLI),
    Mutant("no-exact-row-separator", CLI, "        prefix = separator\n", '        prefix = ""\n', T_CLI),
    Mutant("buffered-exact-rows", CLI, "rows = markov_core._convergence_rows(",
           "rows = markov_core.convergence_report(", T_CLI),
]


def run_pytest(root: Path, tests) -> int | None:
    """pytest's exit code on ``tests`` in the copy at ``root``; None on a timeout."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")]),
        "PYTHONDONTWRITEBYTECODE": "1",  # so that no stale bytecode hides a mutant
    }
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def verdict(root: Path, mutant: Mutant) -> str:
    """"killed" (a failing or timed-out run), "survived" or "stale" (its text
    does not occur exactly once, or pytest finds no such tests)."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        code = run_pytest(root, mutant.tests)
    finally:
        path.write_text(text)
    # pytest exits 4 on a usage error, such as a node id it cannot find, and
    # 5 when it collects no test.
    return {0: "survived", 4: "stale", 5: "stale"}.get(code, "killed")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests", "bench"):
            shutil.copytree(ROOT / tree, root / tree, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        files = list(dict.fromkeys(t.split("::")[0] for m in mutants for t in m.tests))
        baseline = run_pytest(root, files)
        print(f"unmutated copy: {'passed' if baseline == 0 else 'FAILED'} ({' '.join(files)})", flush=True)
        results = {}
        if baseline == 0:
            for mutant in mutants:
                began = time.perf_counter()
                results[mutant.name] = verdict(root, mutant)
                print(f"{results[mutant.name]:8} {time.perf_counter() - began:6.1f}s  {mutant.name}", flush=True)
    summary = {
        "unmutated": "passed" if baseline == 0 else "failed",
        "mutants": len(mutants),
        "killed": sum(v == "killed" for v in results.values()),
        "survived": [name for name, v in results.items() if v == "survived"],
        "stale": [name for name, v in results.items() if v == "stale"],
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(json.dumps(summary))
    return 0 if summary["killed"] == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
