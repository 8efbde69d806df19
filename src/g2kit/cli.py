"""Command line front end: scenario runner, EH checker, flow demo.

Exit codes: 0 all checked rows pass, 1 at least one row fails,
2 validation or usage problems.  Reports are deterministic: the same
scenario and seed produce byte-identical JSON.
"""

import argparse
import csv
import io
import json
import math
import sys

from ._lazy import lazy_module
from .errors import G2KitError
from .scenarios import (
    BUILTINS,
    Report,
    _decay_rows,
    _eh_suite,
    _json_default,
    list_scenarios,
    report_to_json,
    run_scenario,
)

flow = lazy_module("g2kit.flow")
np = lazy_module("numpy")

# chart points --eh-check evaluates: per scale, --samples Ricci ratios and
# the curvature probe's 8 radii x 3 directions.  On a 2-core x86-64 VM with
# one BLAS thread, 2^16 points took 2.2-2.7 s as 2621 scales of one
# sample, whose curvature points run as stacks (about 0.02-0.03 ms a
# point, most of it the per-point potential derivatives), and 1.5-2.0 s
# as one scale, whose Ricci ratios run as stacks.  So a run inside this
# budget ends within about 5 s; its peak RSS was 44-50 MB.
MAX_EH_POINTS = 2 ** 16
# the largest scale --eh-check accepts.  The largest power of s that
# potential_derivatives forms is s^10, in q ** 5 with q = hypot(u, s^2)
# >= s^2 on the curvature probe's radii (u <= 6.25).  2^100 keeps s^10 at
# most 2^1000, below the largest double (about 2^1024) with room for the
# factors beside it; above the bound rows turn into inf and NaN.
MAX_EH_SCALE = 2.0 ** 100
# the smallest scale --eh-check accepts.  The Ricci samples have radii of
# at least 0.3 s, and |z|^2 of each stencil row must stay a normal double
# (at least 2^-1022), so s must be at least 2^-511 / 0.3, about 5e-154.
# 2^-500 leaves room for the stencil steps, 5% of the radius, and the
# rounding of the sampled radii; below the bound |z|^2 underflows and the
# chart refuses the sample as its origin.
MIN_EH_SCALE = 2.0 ** -500


def _error_exit(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _cell(value):
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=_json_default)


def _emit(reports, fmt):
    if fmt == "json":
        payload = reports[0] if len(reports) == 1 else reports
        sys.stdout.write(report_to_json(payload))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "check", "computed", "expected",
                         "provenance", "pass"])
        for rep in reports:
            for r in rep.rows:
                writer.writerow([rep.scenario, r.check, _cell(r.computed),
                                 "" if r.expected is None else _cell(r.expected),
                                 r.provenance,
                                 "" if r.passed is None else str(r.passed).lower()])
        sys.stdout.write(buf.getvalue())
    else:
        lines = []
        for rep in reports:
            lines.append(f"## {rep.scenario}")
            lines.append("")
            lines.append("| check | computed | expected | provenance | pass |")
            lines.append("| --- | --- | --- | --- | --- |")
            for r in rep.rows:
                expected = "" if r.expected is None else _cell(r.expected)
                passed = "" if r.passed is None else str(r.passed).lower()
                lines.append(f"| {r.check} | {_cell(r.computed)} | {expected} "
                             f"| {r.provenance} | {passed} |")
            lines.append("")
        print("\n".join(lines))


def _finish(reports):
    # a terminal or file shared with stderr gets the report before FAIL lines
    sys.stdout.flush()
    failing = [(rep.scenario, r) for rep in reports
               for r in rep.rows if r.passed is False]
    for scenario, r in failing:
        print(f"FAIL {scenario}: {r.check} computed {_cell(r.computed)} "
              f"expected {_cell(r.expected)}", file=sys.stderr)
    sys.exit(1 if failing else 0)


def _finite_positive(value):
    """float(value) when it is a finite number > 0, else None."""
    try:
        value = float(value)
    except ValueError:
        return None
    return value if math.isfinite(value) and value > 0 else None


def _parse_scales(values):
    scales = []
    for chunk in values:
        for tok in str(chunk).split(","):
            if tok:
                scale = _finite_positive(tok)
                if scale is None:
                    _error_exit(f"--s must be finite and > 0, got {tok!r}")
                if scale < MIN_EH_SCALE:
                    _error_exit(f"--s must be at least 2^-500 = "
                                f"{MIN_EH_SCALE:.4g}, since the samples' "
                                f"|z|^2 must be a normal double, got {tok!r}")
                if scale > MAX_EH_SCALE:
                    _error_exit(f"--s must be at most 2^100 = "
                                f"{MAX_EH_SCALE:.4g}, since s^10 must be a "
                                f"finite double, got {tok!r}")
                if scale in scales:
                    # a repeated scale leaves the curvature slope undefined
                    _error_exit(f"--s repeats the scale {tok!r}")
                scales.append(scale)
    return scales or [0.5, 1.0, 2.0]


def _run_eh_check(s, tol, samples, seed):
    scales = tuple(_parse_scales(s))
    if samples < 1:
        _error_exit(f"--samples must be >= 1, got {samples}")
    points = len(scales) * (samples + 24)
    if points > MAX_EH_POINTS:
        _error_exit(f"--eh-check needs {points} chart points "
                    f"({len(scales)} scales x ({samples} samples + 24)), "
                    f"above the {MAX_EH_POINTS}-point budget")
    if tol is not None and _finite_positive(tol) is None:
        _error_exit(f"--tol must be finite and > 0, got {tol}")
    # at tiny scales s^4 and the curvature peaks underflow; the probes
    # then compute NaN or inf, which fails its row, so numpy need not warn
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            report = _eh_suite(seed, scales=scales, samples=samples,
                               ricci_tol=tol)
    except G2KitError as e:
        _error_exit(e)
    _emit([report], "json")
    _finish([report])


def _run_flow_demo(d, n, k_frac, trials, seed):
    try:
        system, runs = flow.decay_trials(d=d, N=n, k_frac=k_frac,
                                         trials=trials, seed=seed)
    except G2KitError as e:
        _error_exit(e)
    report = Report("flow-demo", tuple(_decay_rows(system, runs, k_frac,
                                                   trials)), seed)
    decaying, rate = report.rows[:2]
    payload = {
        "d": d, "N": n, "seed": seed, "trials": trials,
        "mu": system.mu, "k": k_frac * system.mu,
        "rate_bound": rate.expected,
        "fitted_rates": [None if t.fitted_rate is None
                         else float(t.fitted_rate) for t, _ in runs],
        "decaying_trials": decaying.computed, "pass": report.all_pass,
    }
    print(json.dumps(payload, sort_keys=True, indent=2,
                     default=_json_default))
    _finish([report])


class _HelpFormatter(argparse.HelpFormatter):
    """Help that opens with "Usage: "."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """A parser that reports a usage error as one error: line and exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, formatter_class=_HelpFormatter,
                         **kwargs)

    def error(self, message):
        _error_exit(message)


def _seed(text):
    """The value of a --seed option: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return value


def _parser():
    parser = _Parser(
        prog="g2kit",
        description="Reproduction toolkit for flat G2 quotients and their "
                    "invariants.")
    parser.add_argument("--eh-check", action="store_true",
                        help="Run the Eguchi-Hanson check suite and exit.")
    parser.add_argument("--flow-demo", action="store_true",
                        help="Run seeded decay-flow trials and exit.")
    parser.add_argument("--s", action="append", default=[],
                        help="Scale(s) for --eh-check, repeatable or comma "
                             "separated.")
    parser.add_argument("--tol", type=float,
                        help="Ricci tolerance override for --eh-check.")
    parser.add_argument("--samples", type=int, default=20,
                        help="Sample points per scale for --eh-check. "
                             "[default: %(default)s]")
    parser.add_argument("--d", type=int, default=2,
                        help="Torus dimension for --flow-demo. "
                             "[default: %(default)s]")
    parser.add_argument("--N", dest="n", type=int, default=1,
                        help="Mode cutoff for --flow-demo. "
                             "[default: %(default)s]")
    parser.add_argument("--k-frac", type=float, default=0.1,
                        help="Quadratic bound as a fraction of mu for "
                             "--flow-demo. [default: %(default)s]")
    parser.add_argument("--trials", type=int, default=20,
                        help="Number of seeded trials for --flow-demo. "
                             "[default: %(default)s]")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="Base seed for --eh-check / --flow-demo. "
                             "[default: %(default)s]")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     parser_class=_Parser)
    run = commands.add_parser(
        "run", help="Run one scenario (builtin name or JSON file), or --all "
                    "builtins.",
        description="Run one scenario (builtin name or JSON file), or --all "
                    "builtins.")
    run.add_argument("scenario", nargs="?")
    run.add_argument("--all", dest="run_all", action="store_true",
                     help="Run every builtin scenario.")
    run.add_argument("--format", choices=("json", "csv", "md"),
                     default="json", help="[default: %(default)s]")
    run.add_argument("--seed", type=_seed, default=0,
                     help="[default: %(default)s]")
    listing = commands.add_parser("list", help="List the builtin scenarios.",
                                  description="List the builtin scenarios.")
    listing.add_argument("--format", choices=("text", "json"), default="text",
                         help="[default: %(default)s]")
    return parser


def _run_cmd(scenario, run_all, fmt, seed):
    if run_all == (scenario is not None):
        _error_exit("give exactly one scenario name, or --all")
    names = list(BUILTINS) if run_all else [scenario]
    try:
        reports = [run_scenario(nm, seed) for nm in names]
    except G2KitError as e:
        _error_exit(e)
    _emit(reports, fmt)
    _finish(reports)


def _list_cmd(fmt):
    names = list_scenarios()
    if fmt == "json":
        print(json.dumps(names, indent=2))
    else:
        for name in names:
            print(name)
    sys.exit(0)


def main(argv=None):
    """Run the command line argv (default sys.argv[1:]); always exits."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is not None and (args.eh_check or args.flow_demo):
        _error_exit(
            "--eh-check/--flow-demo cannot be combined with a subcommand")
    if args.eh_check and args.flow_demo:
        _error_exit("choose one of --eh-check and --flow-demo")
    if args.command == "run":
        _run_cmd(args.scenario, args.run_all, args.format, args.seed)
    elif args.command == "list":
        _list_cmd(args.format)
    elif args.eh_check:
        _run_eh_check(args.s, args.tol, args.samples, args.seed)
    elif args.flow_demo:
        _run_flow_demo(args.d, args.n, args.k_frac, args.trials, args.seed)
    else:
        parser.print_help()
        sys.exit(2)


if __name__ == "__main__":
    main()
