"""Command line front end: scenario runner, EH checker, flow demo.

Exit codes: 0 all checked rows pass, 1 at least one row fails,
2 validation or usage problems.  Reports are deterministic: the same
scenario and seed produce byte-identical JSON.
"""

import csv
import io
import json
import math
import os
import sys

import click

from .errors import G2KitError
from .flow import decay_trials
from .scenarios import (
    BUILTINS,
    _eh_suite,
    _json_default,
    list_scenarios,
    report_to_json,
    run_scenario,
)


# chart points --eh-check evaluates: per scale, --samples Ricci ratios and
# the curvature probe's 8 radii x 3 directions.  2^16 points took 23.7-24.6 s
# (about 0.37 ms a point) on a 2-core x86-64 VM with one BLAS thread, as one
# scale in double or extended precision and as 2621 scales of one sample,
# so a run inside this budget ends within about 30 s.
MAX_EH_POINTS = 2 ** 16


def _error_exit(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _precision_from_env():
    value = os.environ.get("G2KIT_PRECISION", "double")
    if value not in ("double", "extended"):
        _error_exit(f"G2KIT_PRECISION must be 'double' or 'extended', "
                    f"got {value!r}")
    return value


def _cell(value):
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=_json_default)


def _emit(reports, fmt):
    if fmt == "json":
        payload = reports[0] if len(reports) == 1 else reports
        click.echo(report_to_json(payload), nl=False)
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
        click.echo(buf.getvalue(), nl=False)
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
        click.echo("\n".join(lines))


def _finish(reports):
    failing = [(rep.scenario, r) for rep in reports
               for r in rep.rows if r.passed is False]
    for scenario, r in failing:
        click.echo(f"FAIL {scenario}: {r.check} computed {_cell(r.computed)} "
                   f"expected {_cell(r.expected)}", err=True)
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
                if scale in scales:
                    # a repeated scale leaves the curvature slope undefined
                    _error_exit(f"--s repeats the scale {tok!r}")
                scales.append(scale)
    return scales or [0.5, 1.0, 2.0]


def _run_eh_check(s, tol, samples, seed):
    precision = _precision_from_env()
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
    try:
        report = _eh_suite(seed, precision, scales=scales,
                           samples=samples, ricci_tol=tol)
    except G2KitError as e:
        _error_exit(e)
    _emit([report], "json")
    _finish([report])


def _run_flow_demo(d, n, k_frac, trials, seed):
    try:
        system, runs = decay_trials(d=d, N=n, k_frac=k_frac, trials=trials,
                                    seed=seed)
    except G2KitError as e:
        _error_exit(e)
    k = k_frac * system.mu
    bound = system.mu - 2 * k - 0.05 * system.mu
    rates = [None if t.fitted_rate is None else float(t.fitted_rate)
             for t, _ in runs]
    decaying = sum(bool(t.decaying) for t, _ in runs)
    ok = decaying == trials and all(
        r is not None and r >= bound for r in rates) and all(
        c.ok for _, c in runs)
    payload = {
        "d": d, "N": n, "seed": seed, "trials": trials,
        "mu": system.mu, "k": k, "rate_bound": bound,
        "fitted_rates": rates, "decaying_trials": decaying,
        "pass": bool(ok),
    }
    click.echo(json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_default))
    sys.exit(0 if ok else 1)


@click.group(invoke_without_command=True)
@click.option("--eh-check", is_flag=True,
              help="Run the Eguchi-Hanson check suite and exit.")
@click.option("--flow-demo", is_flag=True,
              help="Run seeded decay-flow trials and exit.")
@click.option("--s", "s", multiple=True,
              help="Scale(s) for --eh-check, repeatable or comma separated.")
@click.option("--tol", type=float, default=None,
              help="Ricci tolerance override for --eh-check.")
@click.option("--samples", type=int, default=20, show_default=True,
              help="Sample points per scale for --eh-check.")
@click.option("--d", type=int, default=2, show_default=True,
              help="Torus dimension for --flow-demo.")
@click.option("--N", "n", type=int, default=1, show_default=True,
              help="Mode cutoff for --flow-demo.")
@click.option("--k-frac", type=float, default=0.1, show_default=True,
              help="Quadratic bound as a fraction of mu for --flow-demo.")
@click.option("--trials", type=int, default=20, show_default=True,
              help="Number of seeded trials for --flow-demo.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Base seed for --eh-check / --flow-demo.")
@click.pass_context
def main(ctx, eh_check, flow_demo, s, tol, samples, d, n, k_frac, trials,
         seed):
    """Reproduction toolkit for flat G2 quotients and their invariants."""
    if ctx.invoked_subcommand is not None:
        if eh_check or flow_demo:
            raise click.UsageError(
                "--eh-check/--flow-demo cannot be combined with a subcommand")
        return
    if eh_check and flow_demo:
        raise click.UsageError("choose one of --eh-check and --flow-demo")
    if eh_check:
        _run_eh_check(s, tol, samples, seed)
    elif flow_demo:
        _run_flow_demo(d, n, k_frac, trials, seed)
    else:
        click.echo(ctx.get_help())
        sys.exit(2)


@main.command("run")
@click.argument("scenario", required=False)
@click.option("--all", "run_all", is_flag=True,
              help="Run every builtin scenario.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "md"]),
              default="json", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
def run_cmd(scenario, run_all, fmt, seed):
    """Run one scenario (builtin name or JSON file), or --all builtins."""
    precision = _precision_from_env()
    if run_all == (scenario is not None):
        raise click.UsageError("give exactly one scenario name, or --all")
    names = list(BUILTINS) if run_all else [scenario]
    try:
        reports = [run_scenario(nm, seed, precision) for nm in names]
    except G2KitError as e:
        _error_exit(e)
    _emit(reports, fmt)
    _finish(reports)


@main.command("list")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def list_cmd(fmt):
    """List the builtin scenarios."""
    names = list_scenarios()
    if fmt == "json":
        click.echo(json.dumps(names, indent=2))
    else:
        for name in names:
            click.echo(name)


if __name__ == "__main__":
    main()
