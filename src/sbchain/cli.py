"""Command-line front end.

Subcommands:

* ``analyze``  - ergodicity report for a chain-spec JSON file or the built-in
  ``sbp`` chain: irreducibility, period, aperiodicity, ergodicity, and the
  exact stationary distribution.
* ``exact``    - per-step table comparing the matrix recursion with the
  closed-form distribution, plus the exact distance to stationarity.
* ``simulate`` - seeded Monte Carlo run; reports halfer/thirder statistics
  and state frequencies as text, JSON, or CSV.
* ``convert``  - translate between coin, labeled, and observed sequences.

Every command is a thin adapter over the library modules; reports go to
stdout, diagnostics to stderr. Exit codes: 0 success, 2 usage/parse error,
3 invalid chain, 4 internal consistency failure, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import markov_core, sbp_model
from .markov_core import Chain, MarkovError
from .rationals import as_exact, format_rational, require_int

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID_CHAIN = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # as a shell reports a tool that SIGPIPE ended


class ChainSpecError(ValueError):
    """Malformed chain-spec JSON (bad syntax, types, or rational strings)."""


def _spec_rational(value, where: str) -> Fraction:
    try:
        return as_exact(value)
    except (TypeError, ValueError) as exc:
        raise ChainSpecError(f"{where}: {exc}") from None


def load_chain_spec(text: str) -> Chain:
    """Parse chain-spec JSON: {"states": [...], "matrix": [[...]], "initial": [...]}.

    Raises ChainSpecError with a field diagnostic for malformed documents;
    chain-validity errors (non-stochastic rows etc.) propagate as MarkovError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChainSpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer literal past the interpreter's int/str digit limit
        raise ChainSpecError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's int/str conversion limit"
        ) from None
    except RecursionError:
        raise ChainSpecError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ChainSpecError("chain spec must be a JSON object")
    # A misspelt field, such as "inital", would otherwise be dropped unseen.
    unknown = ", ".join(map(json.dumps, sorted(doc.keys() - {"states", "matrix", "initial"})))
    if unknown:
        raise ChainSpecError(f'unknown fields {unknown}; a chain spec has "states", "matrix", "initial"')
    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ChainSpecError('field "states" must be an array of strings')
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ChainSpecError('field "matrix" must be an array of rows')
    grid = [
        [
            _spec_rational(entry, f"matrix row {i}, column {j}")
            for j, entry in enumerate(row)
        ]
        for i, row in enumerate(matrix)
    ]
    initial = doc.get("initial")
    weights = None
    if initial is not None:
        if not isinstance(initial, list):
            raise ChainSpecError('field "initial" must be an array')
        weights = [
            _spec_rational(entry, f"initial entry {i}") for i, entry in enumerate(initial)
        ]
    return markov_core.new_chain(states, grid, weights)


def _load_chain(source: str) -> Chain:
    if source == "sbp":
        return sbp_model.sbp_chain()
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ChainSpecError(f"cannot read chain spec {source!r}: {exc}") from None
    return load_chain_spec(text)


def _format_distribution(dist: markov_core.DistributionVector) -> str:
    return "[" + ", ".join(format_rational(w) for w in dist.weights) + "]"


def cmd_analyze(args) -> int:
    chain = _load_chain(args.chain)
    report = markov_core.ergodicity_report(chain.matrix)
    if args.format == "json":
        doc = {
            "states": list(chain.states.labels),
            "irreducible": report.irreducible,
            "period": report.period,
            "aperiodic": report.aperiodic,
            "ergodic": report.ergodic,
            "stationary": None
            if report.stationary is None
            else [format_rational(w) for w in report.stationary.weights],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"states:      {' '.join(chain.states.labels)}")
        print(f"irreducible: {str(report.irreducible).lower()}")
        print(f"period:      {report.period if report.period is not None else 'n/a'}")
        print(f"aperiodic:   {str(report.aperiodic).lower()}")
        print(f"ergodic:     {str(report.ergodic).lower()}")
        stationary = (
            _format_distribution(report.stationary)
            if report.stationary is not None
            else "n/a"
        )
        print(f"stationary:  {stationary}")
    return EXIT_OK


# Per format of `exact`: the text before the first row, between two rows and
# after the last; the join of a law's formatted weights; and one row, filled
# with (n, recursion, closed form, equal, tv). A JSON row is one element of
# json.dumps(rows, indent=2); rationals print as digits, "-" and "/", which
# json never escapes.
_EXACT_FORMATS = {
    "json": ("[\n", ",\n", "\n]\n", '",\n      "'.join,
             '  {\n    "n": %d,\n    "recursion": [\n      "%s"\n    ],\n'
             '    "closed_form": [\n      "%s"\n    ],\n    "equal": %s,\n'
             '    "tv_to_stationary": "%s"\n  }'),
    "csv": ("n,recursion,closed_form,equal,tv_to_stationary\n", "\n", "\n", " ".join, "%d,%s,%s,%s,%s"),
    "text": ("   n  recursion                     closed form                   equal   tv to stationary\n",
             "\n", "\n", lambda weights: f"[{', '.join(weights)}]", "%4d  %-28s  %-28s  %-6s  %s"),
}


def cmd_exact(args) -> int:
    require_int("--n-max", args.n_max, 1)
    rows = markov_core._convergence_rows(sbp_model.sbp_chain(), args.n_max)
    prefix, separator, suffix, join, row = _EXACT_FORMATS[args.format]
    # Each row is written as soon as it is made, so memory stays one row.
    all_equal = True
    for n, recursion, distance in rows:
        closed = sbp_model.exact_distribution(n)
        equal = recursion == closed
        all_equal &= equal
        rec = join(map(format_rational, recursion.weights))
        # Equal laws print alike, so the closed form is formatted only when it differs.
        clo = rec if equal else join(map(format_rational, closed.weights))
        sys.stdout.write(prefix + row % (n, rec, clo, str(equal).lower(), format_rational(distance)))
        prefix = separator
    sys.stdout.write(suffix)
    if not all_equal:
        print(
            "error: closed form and matrix recursion disagree", file=sys.stderr
        )
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_simulate(args) -> int:
    # Only this command needs numpy, so the other commands never load it.
    from . import simulation

    config = simulation.SimulationConfig(
        seed=args.seed,
        n_experiments=args.n,
        checkpoint_stride=args.stride,
    )
    if args.format != "text":
        sys.stdout.writelines(simulation._record_chunks(config, args.format))
        if args.format == "json":
            sys.stdout.write("\n")
    else:
        # The summary reads only the totals, which one checkpoint at n holds.
        record = simulation._totals(config)
        freq = simulation.state_frequencies(record)
        print(f"generator:          {record.generator}")
        print(f"seed:               {config.seed}")
        print(f"experiments:        {record.total_experiments}")
        print(f"awakenings:         {record.total_awakenings}")
        print(f"heads experiments:  {record.heads_experiments}")
        print(f"heads awakenings:   {record.heads_awakenings}")
        print(f"halfer statistic:   {simulation.halfer_statistic(record):.6f}")
        print(f"thirder statistic:  {simulation.thirder_statistic(record):.6f}")
        print(
            "state frequencies:  "
            f"M_H={freq[0]:.6f} M_T={freq[1]:.6f} Tu={freq[2]:.6f}"
        )
    return EXIT_OK


def cmd_convert(args) -> int:
    tokens = args.tokens
    if args.mode == "encode":
        print(sbp_model.format_tokens(sbp_model.encode_coins(tokens)))
    elif args.mode == "project":
        labeled = sbp_model.parse_labeled_tokens(tokens)
        sbp_model.validate_labeled_sequence(labeled)
        print(sbp_model.format_tokens(sbp_model.project_labels(labeled)))
    else:
        observed = sbp_model.parse_observed_tokens(tokens)
        decoded = sbp_model.decode_observations(observed, complete=args.complete)
        print(sbp_model.format_tokens(decoded))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbchain",
        description=(
            "Exact and Monte Carlo analysis of the repeated Sleeping Beauty "
            "experiment as a three-state ergodic Markov chain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="ergodicity report for a chain spec (or the built-in sbp chain)"
    )
    p_analyze.add_argument(
        "--chain",
        default="sbp",
        metavar="PATH|sbp",
        help="chain-spec JSON file, or 'sbp' for the built-in chain (default)",
    )
    p_analyze.add_argument("--format", choices=["text", "json"], default="text")
    p_analyze.set_defaults(func=cmd_analyze)

    p_exact = sub.add_parser(
        "exact", help="exact awakening distributions: recursion vs closed form"
    )
    p_exact.add_argument("--n-max", type=int, required=True, metavar="N")
    p_exact.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_exact.set_defaults(func=cmd_exact)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo run")
    p_sim.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p_sim.add_argument(
        "--n", type=int, required=True, metavar="N", help="number of experiments"
    )
    p_sim.add_argument(
        "--stride",
        type=int,
        default=100_000,
        help="checkpoint every this many experiments (default 100000)",
    )
    p_sim.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_sim.set_defaults(func=cmd_simulate)

    p_conv = sub.add_parser(
        "convert", help="convert between coin, labeled, and observed sequences"
    )
    p_conv.add_argument("mode", choices=["encode", "project", "decode"])
    p_conv.add_argument("tokens", nargs="+", metavar="TOKEN")
    p_conv.add_argument(
        "--complete",
        action="store_true",
        help="decode only: treat the record as ending on an experiment boundary",
    )
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A reader that closed stdout early shows here, not at exit.
        sys.stdout.flush()
        return code
    except MarkovError as exc:
        print(f"error: invalid chain: {exc}", file=sys.stderr)
        return EXIT_INVALID_CHAIN
    except ValueError as exc:
        # Malformed chain specs, token/sequence errors, bad numeric flags.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # As `| head` does. Python flushes stdout at exit; pointing it at
        # devnull keeps that flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
