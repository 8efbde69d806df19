"""End-to-end checks of the g2kit command line interface."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import g2kit
from g2kit import cli
from g2kit._frozen import Frozen
from g2kit.betti import BettiVector, EulerReport, NonSymplecticInvariants
from g2kit.cli import MAX_EH_POINTS, MAX_EH_SCALE, MIN_EH_SCALE, main
from g2kit.eguchi_hanson import (
    CurvatureScalingReport,
    ScalingReport,
    potential_derivatives,
)
from g2kit.flow import (
    FlowState,
    GapCheck,
    QuadraticMap,
    Trajectory,
    build_mode_system,
)
from g2kit.forms import ExteriorForm, LinearMapR
from g2kit.poincare import poincare_primitive, random_exact_form
from g2kit.scenarios import (
    BUILTINS,
    FILE_CHECKS,
    Report,
    Scenario,
    report_to_json,
    row,
    run_scenario,
)
from g2kit.torus import AffineTorusMap, FlatStratum, generate_group

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"

TOPOLOGY_SCENARIOS = [
    "joyce-T7-Gamma",
    "pull-x1",
    "pull-x3",
    "gamma1-pull-x7",
    "pull-x5-borcea",
    "coassoc-5.2",
    "coassoc-5.3",
]


class _Tee(io.StringIO):
    """A captured stream that also writes into a shared one."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class Runner:
    """Runs main(args) in this process and captures what it leaves.

    The result has exit_code, exception (None after exit 0), stdout,
    stderr and output (the two interleaved).  A SystemExit gives its code
    and any other exception gives 1, as a command line runner does.
    """

    def invoke(self, main, args=(), env=None):
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        exception, exit_code = None, 0
        with mock.patch.dict(os.environ, env or {}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as e:
                exit_code = 0 if e.code is None else e.code
                if exit_code != 0:
                    exception = e
            except Exception as e:
                exception, exit_code = e, 1
        return SimpleNamespace(exit_code=exit_code, exception=exception,
                               stdout=out.getvalue(), stderr=err.getvalue(),
                               output=both.getvalue())


@pytest.fixture
def runner():
    return Runner()


def good_scenario():
    return {
        "name": "user-joyce",
        "circles": 7,
        "generators": [
            {"name": "alpha", "signs": [1, 1, 1, -1, -1, -1, -1]},
            {"name": "beta", "signs": [1, -1, -1, 1, 1, -1, -1],
             "shift": ["0", "0", "0", "0", "0", "1/2", "0"]},
            {"name": "gamma", "signs": [-1, 1, -1, 1, -1, 1, -1],
             "shift": ["0", "0", "0", "0", "1/2", "0", "1/2"]},
        ],
        "involution": {"name": "sigma", "signs": [-1, 1, 1, 1, 1, -1, -1],
                       "shift": ["1/2", "0", "0", "0", "0", "1/2", "1/2"]},
        "pull": 1,
        "checks": ["betti", "form-invariance", "coassoc", "moduli"],
        "expected": {
            "group_order": 8,
            "singular_locus": "2xT3+8xT2xR",
            "quotient_betti": [1, 0, 0, 4, 3, 0, 0],
            "resolved_betti": [1, 0, 10, 26, 17, 2, 0],
            "census": "1xT4+16xpoint",
            "cross_section_b2_b3": [19, 40],
            "moduli_dimension": 36,
        },
    }


def write_scenario(tmp_path, spec, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def assert_one_error_line(stderr):
    """Exactly one line of stderr names the error, and no traceback."""
    assert "Traceback" not in stderr
    errors = [ln for ln in stderr.splitlines() if ln.lower().startswith("error:")]
    assert len(errors) == 1, stderr


class TestList:
    def test_names(self, runner):
        res = runner.invoke(main, ["list"])
        assert res.exit_code == 0
        names = res.output.split()
        assert names == list(BUILTINS)
        assert len(names) == 9

    def test_json_format(self, runner):
        res = runner.invoke(main, ["list", "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output) == list(BUILTINS)


class TestRunBuiltins:
    @pytest.mark.parametrize("name", TOPOLOGY_SCENARIOS)
    def test_topology_scenarios_pass(self, runner, name):
        res = runner.invoke(main, ["run", name])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["scenario"] == name
        assert report["pass"] is True
        golden = [r for r in report["rows"] if r["provenance"] == "golden"
                  and r["expected"] is not None]
        assert golden and all(r["pass"] for r in golden)

    def test_eh_suite(self, runner):
        res = runner.invoke(main, ["run", "eh-suite"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        checks = {r["check"]: r for r in report["rows"]}
        assert checks["scaling_verdict"]["computed"] == "s/lambda"
        assert checks["curvature_slope"]["pass"] is True

    def test_flow_suite(self, runner):
        res = runner.invoke(main, ["run", "flow-suite"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        checks = {r["check"]: r for r in report["rows"]}
        assert checks["decaying_trials"]["computed"] == 20
        assert checks["primitive_bit_exact_count"]["computed"] == 100

    def test_environment_echoed(self, runner):
        res = runner.invoke(main, ["run", "pull-x1", "--seed", "11"])
        env = json.loads(res.output)["environment"]
        assert env["seed"] == 11
        assert env["precision"] == "double"
        assert env["version"]


class TestGoldens:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_run_all_matches_benchmark_goldens(self, seed):
        # the byte freeze of `g2kit run --all`, read from the benchmark's
        # recorded sha256 values
        golden = json.loads(GOLDENS.read_text())["reproduce-all"]["full"][str(seed)]
        text = report_to_json([run_scenario(name, seed) for name in BUILTINS])
        assert hashlib.sha256(text.encode()).hexdigest() == golden


class TestDeterminism:
    def test_same_seed_byte_identical(self, runner):
        a = runner.invoke(main, ["run", "flow-suite", "--seed", "5"])
        b = runner.invoke(main, ["run", "flow-suite", "--seed", "5"])
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_eh_byte_identical(self, runner):
        a = runner.invoke(main, ["run", "eh-suite", "--seed", "3"])
        b = runner.invoke(main, ["run", "eh-suite", "--seed", "3"])
        assert a.output == b.output

    @pytest.mark.parametrize("value", ["extended", "quad"])
    @pytest.mark.parametrize("args", [
        ["run", "--all"], ["--eh-check", "--s", "0.5", "--samples", "4"],
    ], ids=lambda args: " ".join(args))
    def test_precision_variable_is_not_read(self, runner, monkeypatch, args,
                                            value):
        # double is the only precision, and no variable selects another
        monkeypatch.delenv("G2KIT_PRECISION", raising=False)
        unset = runner.invoke(main, args)
        given_value = runner.invoke(main, args,
                                    env={"G2KIT_PRECISION": value})
        assert given_value.exit_code == unset.exit_code
        assert given_value.stdout == unset.stdout


class TestNonFiniteRows:
    def test_nonfinite_row_fails(self):
        assert row("info", float("nan")).passed is False
        assert row("info", [1.0, float("-inf")]).passed is False
        assert row("bound", float("inf"), 1.0, provenance="floor").passed \
            is False
        assert row("info", 1.5).passed is None

    def test_report_spells_constants_as_strings(self):
        rep = Report("r", (row("a", float("inf")),
                           row("b", {"k": [float("nan"), -float("inf")]})),
                     seed=0)

        def reject(constant):
            raise ValueError(f"bare JSON constant {constant}")

        payload = json.loads(report_to_json(rep), parse_constant=reject)
        assert [r["computed"] for r in payload["rows"]] == [
            "Infinity", {"k": ["NaN", "-Infinity"]}]
        assert [r["pass"] for r in payload["rows"]] == [False, False]
        assert payload["pass"] is False


class TestFormats:
    def test_csv(self, runner):
        res = runner.invoke(main, ["run", "joyce-T7-Gamma", "--format", "csv"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "scenario,check,computed,expected,provenance,pass"
        assert all(line.startswith("joyce-T7-Gamma,") for line in lines[1:])
        assert len(lines) == 15

    def test_md(self, runner):
        res = runner.invoke(main, ["run", "pull-x3", "--format", "md"])
        assert res.exit_code == 0
        assert "## pull-x3" in res.output
        assert "| check | computed | expected | provenance | pass |" \
            in res.output

    def test_all_json_is_list(self, runner):
        res = runner.invoke(main, ["run", "--all"])
        assert res.exit_code == 0
        reports = json.loads(res.output)
        assert [r["scenario"] for r in reports] == list(BUILTINS)
        assert all(r["pass"] for r in reports)


def flow_suite_loads(module):
    """'<exit code> <module loaded>' after a passing `g2kit run
    flow-suite` in a fresh interpreter."""
    code = ("import sys, g2kit.cli\n"
            "try:\n"
            "    g2kit.cli.main(['run', 'flow-suite'])\n"
            "except SystemExit as e:\n"
            f"    print(e.code, {module!r} in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         check=True, capture_output=True, text=True)
    assert json.loads(out.stdout)["pass"] is True
    return out.stderr.strip()


def test_flow_suite_does_not_load_scipy():
    assert flow_suite_loads("scipy") == "0 False"


def test_flow_suite_does_not_load_numpy_ma():
    # numpy.ma, which np.unique imports, costs 0.8 MB of peak RSS
    assert flow_suite_loads("numpy.ma") == "0 False"


def test_exact_scenario_does_not_load_numpy(tmp_path):
    # numpy is registered lazily; none of its submodules may have executed
    path = write_scenario(tmp_path, good_scenario())
    code = ("import sys, g2kit.cli\n"
            "try:\n"
            "    g2kit.cli.main(['run', sys.argv[1]])\n"
            "except SystemExit as e:\n"
            "    print(e.code, file=sys.stderr)\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.')),"
            " file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code, path],
                         env=subprocess_env(), check=True,
                         capture_output=True, text=True)
    assert json.loads(out.stdout)["pass"] is True
    assert out.stderr.split("\n")[:2] == ["0", "[]"]


LAYERS = ("torus", "exact", "forms", "betti", "eguchi_hanson", "poincare",
          "flow", "numpy")


def layers_run(argv):
    """(exit code, layers run) of `g2kit argv` in a fresh interpreter; with
    argv None the interpreter only imports g2kit.cli.  A layer has run when
    its module, g2kit's own or numpy, is a plain module, not one still
    bound lazily."""
    call = "pass" if argv is None else f"g2kit.cli.main({argv!r})"
    code = ("import json, sys, types, g2kit.cli\n"
            "code = None\n"
            "try:\n"
            f"    {call}\n"
            "except SystemExit as e:\n"
            "    code = e.code\n"
            f"ran = [n for n in {LAYERS!r}\n"
            "       if type(sys.modules.get('g2kit.' + n, sys.modules.get(n)))\n"
            "       is types.ModuleType]\n"
            "print(json.dumps([code, ran]), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         check=True, capture_output=True, text=True)
    return json.loads(out.stderr.splitlines()[-1])


class TestLayersLoadOnFirstUse:
    def test_import_and_list_run_no_layer(self):
        assert layers_run(None) == [None, []]
        assert layers_run(["list"]) == [0, []]

    def test_betti_file_runs_only_the_exact_topology(self, tmp_path):
        spec = good_scenario()
        spec["checks"] = ["betti"]
        spec["expected"] = {k: v for k, v in spec["expected"].items()
                            if k in FILE_CHECKS["betti"]}
        code, ran = layers_run(["run", write_scenario(tmp_path, spec)])
        assert code == 0
        assert ran == ["torus", "exact", "betti"]

    def test_flow_demo_runs_only_flow(self):
        assert layers_run(["--flow-demo", "--trials", "1"]) == \
            [0, ["flow", "numpy"]]

    def test_file_with_every_check_runs_no_float_layer(self, tmp_path):
        spec = good_scenario()
        assert sorted(spec["checks"]) == sorted(FILE_CHECKS)
        code, ran = layers_run(["run", write_scenario(tmp_path, spec)])
        assert code == 0
        assert ran == ["torus", "exact", "forms", "betti"]

    def test_lazy_layer_is_bound_on_its_package(self):
        code = ("import g2kit.scenarios, g2kit.torus\n"
                "print(g2kit.torus.generate_group.__name__)")
        out = subprocess.run([sys.executable, "-c", code],
                             env=subprocess_env(), check=True,
                             capture_output=True, text=True)
        assert out.stdout == "generate_group\n"


class TestUserScenarios:
    def test_valid_scenario_passes(self, runner, tmp_path):
        path = write_scenario(tmp_path, good_scenario())
        res = runner.invoke(main, ["run", path])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["scenario"] == "user-joyce"
        assert report["pass"] is True

    def test_wrong_golden_exits_1(self, runner, tmp_path):
        spec = good_scenario()
        spec["expected"]["group_order"] = 99
        path = write_scenario(tmp_path, spec)
        res = runner.invoke(main, ["run", path])
        assert res.exit_code == 1
        assert "FAIL user-joyce: group_order" in res.stderr

    def test_failing_row_reports_values(self, runner, tmp_path):
        spec = good_scenario()
        spec["expected"]["group_order"] = 99
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 1
        assert res.stderr.splitlines() == [
            "FAIL user-joyce: group_order computed 8 expected 99"]
        assert json.loads(res.stdout)["rows"][0] == {
            "check": "group_order", "computed": 8, "expected": 99,
            "provenance": "golden", "pass": False}

    @pytest.mark.parametrize("field", ["signs", "circles", "pull"])
    def test_json_boolean_exits_2(self, runner, tmp_path, field):
        spec = good_scenario()
        if field == "signs":
            spec["generators"][0]["signs"][0] = True
        elif field == "circles":
            # a one-circle file, so that true would pass for circles = 1
            spec = {"name": "c1", "circles": True,
                    "generators": [{"name": "flip", "signs": [-1]}]}
        else:
            spec[field] = True
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_unknown_expected_key_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["expected"]["group_ordr"] = 8
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert "'group_ordr'" in res.stderr

    def test_unknown_top_level_key_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["chekcs"] = spec.pop("checks")
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert "'chekcs'" in res.stderr

    @pytest.mark.parametrize("where", ["generator", "involution"])
    def test_unknown_map_key_exits_2(self, runner, tmp_path, where):
        spec = good_scenario()
        spec_map = spec["generators"][1] if where == "generator" \
            else spec["involution"]
        spec_map["shfit"] = spec_map.pop("shift")
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert "'shfit'" in res.stderr
        assert res.stdout == ""

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["run", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("text", [
        # integers above Python's 4300-digit limit for int()
        '{"name": "x", "circles": 1%s, "generators": [{"signs": [1]}]}'
        % ("0" * 5000),
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1], '
        '"shift": [1%s]}]}' % ("0" * 5000),
        # nesting deeper than the recursion limit
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1]}], '
        '"expected": {"group_order": %s%s}}' % ("[" * 100_000, "]" * 100_000),
        # shifts in exponent notation: Fraction would expand the power
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1], '
        '"shift": ["1e10000000"]}]}',
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1], '
        '"shift": ["1E100000000"]}]}',
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1], '
        '"shift": ["2.5e-1"]}]}',
        # not UTF-8
        b'\xff\xfe{"name": "x"}',
    ], ids=["long-circles", "long-shift", "deep-expected", "exp-shift",
            "upper-exp-shift", "small-exp-shift", "not-utf8"])
    def test_unreadable_file_exits_2(self, tmp_path, text):
        # one fresh interpreter per case, so the recursion limit and the
        # digit limit are the defaults a user meets
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "g2kit.cli", "run", str(path)],
                             env=subprocess_env(), capture_output=True,
                             text=True, timeout=120)
        assert time.perf_counter() - start < 30
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ")
        assert_one_error_line(out.stderr)
        assert len(out.stderr.splitlines()) == 1

    @pytest.mark.parametrize("text", [
        '{"name": "x", "circles": 1%s, "generators": [{"signs": [1]}]}'
        % ("0" * 5000),
        '{"name": "x", "circles": 1, "generators": [{"signs": [-1], '
        '"shift": [-1%s]}]}' % ("0" * 5000),
    ], ids=["long-circles", "long-negative-shift"])
    def test_long_integer_has_its_own_message(self, tmp_path, text):
        # Python's own error advises sys.set_int_max_str_digits(), which a
        # file's author cannot call; a fresh interpreter has the default limit
        path = tmp_path / "long.json"
        path.write_text(text)
        out = subprocess.run([sys.executable, "-m", "g2kit.cli", "run", str(path)],
                             env=subprocess_env(), capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("error: scenario holds an integer of 5001 digits; "
                              "at most 4300 are accepted\n")

    def test_unknown_check_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["checks"] = ["sorcery"]
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("check, command", [
        ("eh", "g2kit run eh-suite or g2kit --eh-check"),
        ("flow", "g2kit run flow-suite or g2kit --flow-demo")])
    def test_suite_check_names_its_command(self, runner, tmp_path, check,
                                           command):
        # the builtin suites read nothing of a file, so a file may not
        # name them
        spec = good_scenario()
        spec["checks"].append(check)
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (f"error: a file has no {check} check; "
                              f"run {command}\n")

    def test_repeated_check_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["checks"] = ["betti", "coassoc", "betti"]
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: check 'betti' is named twice\n"

    @pytest.mark.parametrize("checks, key, printer", [
        (["betti"], "census", "coassoc"),
        (["betti", "coassoc"], "moduli_dimension", "moduli"),
        (["moduli", "form-invariance"], "group_order", "betti")])
    def test_expected_row_no_check_prints_exits_2(self, runner, tmp_path,
                                                  checks, key, printer):
        # an expectation that no row would judge is refused, not skipped
        spec = good_scenario()
        spec["checks"] = checks
        spec["expected"] = {key: spec["expected"][key]}
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (f"error: expected key {key!r} is printed only "
                              f"by the {printer} check, which the file does "
                              "not name\n")

    def test_file_checks_cover_the_expected_keys(self):
        # every row id a file may expect is printed by exactly one check
        keys = [k for rows in FILE_CHECKS.values() for k in rows]
        assert len(keys) == len(set(keys))
        assert sorted(good_scenario()["expected"]) == sorted(keys)

    @pytest.mark.parametrize("check", list(FILE_CHECKS))
    def test_check_judges_the_keys_it_prints(self, runner, tmp_path, check):
        spec = good_scenario()
        spec["checks"] = [check]
        spec["expected"] = {k: spec["expected"][k] for k in FILE_CHECKS[check]}
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 0, res.stderr
        rows = {r["check"]: r for r in json.loads(res.stdout)["rows"]}
        assert all(rows[k]["expected"] == v and rows[k]["pass"] is True
                   for k, v in spec["expected"].items())

    def test_large_denominator_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["generators"][0]["shift"] = ["1/32"] + ["0"] * 6
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert "denominator" in res.stderr

    def test_coassoc_without_involution_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        del spec["involution"]
        spec["checks"] = ["coassoc"]
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("circles", [2, 3, 4])
    def test_moduli_with_few_circles_exits_2(self, runner, tmp_path, circles):
        pad = ["0"] * (circles - 2)
        spec = {"name": "few-circles", "circles": circles, "pull": 1,
                "generators": [
                    {"signs": [-1] + [1] * (circles - 1),
                     "shift": ["1/2", "1/4"] + pad},
                    {"signs": [1] * circles, "shift": ["0", "1/2"] + pad}],
                "checks": ["betti", "moduli"]}
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert "at least 5 circles" in res.stderr

    @pytest.mark.parametrize("check", ["coassoc", "form-invariance"])
    @pytest.mark.parametrize("circles", [3, 8])
    def test_phi0_check_off_seven_circles_exits_2(self, runner, tmp_path,
                                                  check, circles):
        # refused when the file loads, before the betti row is computed
        flip = {"signs": [-1] + [1] * (circles - 1)}
        spec = {"name": "phi0-off-t7", "circles": circles,
                "generators": [flip], "involution": {"signs": [1] * circles,
                                                     "shift": ["1/2"] * circles},
                "checks": ["betti", check]}
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {check} check needs 7 circles\n"

    def test_bad_signs_exits_2(self, runner, tmp_path):
        spec = good_scenario()
        spec["generators"][0]["signs"] = [2] * 7
        res = runner.invoke(main, ["run", write_scenario(tmp_path, spec)])
        assert res.exit_code == 2


def map_spec(f):
    """The scenario-file entry of the torus map f."""
    return {"name": f.name, "signs": list(f.signs),
            "shift": [str(x) for x in f.shift]}


_GAMMA = ("_alpha", "_beta", "_gamma")
_GAMMA1 = ("_alpha", "_beta", "_gamma1")
_TOPOLOGY_ROWS = ("group_order", "singular_locus", "cross_section_b2_b3",
                  "moduli_dimension")


class TestBuiltinFileParity:
    """A scenario file with a builtin's group gives the builtin's computed
    value on every row id the two share."""

    ROWS = _TOPOLOGY_ROWS + ("phi_invariance", "reverses_reference_form",
                             "census")

    CASES = [
        # builtin, generators, pull, involution, checks, shared row ids
        ("joyce-T7-Gamma", _GAMMA, None, None, ["betti", "form-invariance"],
         ("group_order", "singular_locus", "phi_invariance")),
        ("pull-x1", _GAMMA, 1, None, ["betti", "moduli", "form-invariance"],
         _TOPOLOGY_ROWS),
        ("pull-x3", _GAMMA, 3, None, ["betti", "moduli", "form-invariance"],
         _TOPOLOGY_ROWS),
        ("gamma1-pull-x7", _GAMMA1, 7, None,
         ["betti", "moduli", "form-invariance"], _TOPOLOGY_ROWS),
        ("coassoc-5.2", _GAMMA, None, "_sigma_52", ["coassoc"],
         ("reverses_reference_form", "census")),
        ("coassoc-5.3", _GAMMA, None, "_sigma_53", ["coassoc"],
         ("reverses_reference_form", "census")),
    ]

    @pytest.mark.parametrize(
        "builtin, gens, pull, involution, checks, shared",
        [pytest.param(*case, id=case[0]) for case in CASES])
    def test_file_rows_match_builtin(self, tmp_path, builtin, gens, pull,
                                     involution, checks, shared):
        maps = g2kit.scenarios
        spec = {"name": f"file-{builtin}", "checks": checks,
                "generators": [map_spec(getattr(maps, g)()) for g in gens]}
        if pull is not None:
            spec["pull"] = pull
        if involution is not None:
            spec["involution"] = map_spec(getattr(maps, involution)())
        path = write_scenario(tmp_path, spec)
        from_file = {r.check: r.computed for r in run_scenario(path).rows}
        from_builtin = {r.check: r.computed
                        for r in run_scenario(builtin).rows}
        common = set(from_file) & set(from_builtin) & set(self.ROWS)
        assert common == set(shared)
        assert {k: from_file[k] for k in common} == \
            {k: from_builtin[k] for k in common}


class TestUsageErrors:
    def test_unknown_scenario_name(self, runner):
        res = runner.invoke(main, ["run", "no-such-scenario"])
        assert res.exit_code == 2
        assert "unknown scenario" in res.stderr

    def test_unknown_subcommand(self, runner):
        res = runner.invoke(main, ["bogus"])
        assert res.exit_code == 2

    def test_no_args_prints_usage(self, runner):
        res = runner.invoke(main, [])
        assert res.exit_code == 2
        assert "Usage" in res.output

    def test_scenario_and_all_conflict(self, runner):
        res = runner.invoke(main, ["run", "pull-x1", "--all"])
        assert res.exit_code == 2

    def test_neither_scenario_nor_all(self, runner):
        res = runner.invoke(main, ["run"])
        assert res.exit_code == 2

    def test_help_exits_0(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        assert "Usage" in res.stdout
        assert res.stderr == ""

    @pytest.mark.parametrize("args", [
        ["run", "pull-x1", "--form", "csv"], ["run", "pull-x1", "--see", "3"],
        ["--see", "3", "run", "pull-x1"], ["list", "--form", "json"],
    ], ids=lambda args: " ".join(args))
    def test_option_prefix_exits_2(self, runner, args):
        # an option is only recognised under its full name
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert_one_error_line(res.stderr)
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--bogus"], ["run", "pull-x1", "--bogus"], ["list", "-x"],
        ["run", "pull-x1", "--format", "xml"], ["list", "--format", "csv"],
        ["run", "pull-x1", "extra"], ["--samples", "many", "--eh-check"],
    ], ids=lambda args: " ".join(args))
    def test_usage_error_is_one_line(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    @pytest.mark.parametrize("args, owner", [
        pytest.param(args, owner, id=" ".join(args)) for args, owner in [
            (["--seed", "3", "run", "eh-suite"], "--eh-check or --flow-demo"),
            (["--s", "2", "run", "eh-suite"], "--eh-check"),
            (["--flow-demo", "--s", "2"], "--eh-check"),
            (["--eh-check", "--trials", "5"], "--flow-demo"),
            (["--trials", "5", "list"], "--flow-demo"),
            # with neither mode nor a command
            (["--s", "2"], "--eh-check"), (["--tol", "0.1"], "--eh-check"),
            (["--samples", "3"], "--eh-check"), (["--d", "3"], "--flow-demo"),
            (["--N", "2"], "--flow-demo"), (["--k-frac", "0.2"], "--flow-demo"),
            (["--trials", "5"], "--flow-demo"),
            (["--seed", "3"], "--eh-check or --flow-demo")]])
    def test_misplaced_option_exits_2(self, runner, args, owner):
        # an option is refused where nothing reads it, not ignored
        option = next(a for a in args if a.startswith("--")
                      and a not in ("--eh-check", "--flow-demo"))
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert_one_error_line(res.stderr)
        assert res.stderr.startswith(f"error: {option} belongs to {owner}")
        assert res.stdout == ""

    def test_seed_with_equals_sign(self, runner):
        res = runner.invoke(main, ["run", "pull-x1", "--seed=3"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["environment"]["seed"] == 3

    @pytest.mark.parametrize("args", [["list"], ["list", "--format", "json"]])
    def test_main_ends_in_system_exit(self, args):
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SystemExit) as exit_info:
                main(args)
        assert exit_info.value.code == 0


class TestToolFlags:
    def test_eh_check(self, runner):
        res = runner.invoke(main, ["--eh-check", "--s", "0.5,2.0",
                                   "--samples", "6", "--seed", "4"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        names = [r["check"] for r in report["rows"]]
        assert "ricci_max_ratio_s=0.5" in names
        assert "ricci_max_ratio_s=2" in names
        assert "ricci_max_ratio_s=1" not in names

    def test_eh_check_tol_is_echoed(self, runner):
        res = runner.invoke(main, ["--eh-check", "--s", "1.0",
                                   "--samples", "4", "--tol", "1e-5"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["environment"]["tolerances"]["ricci"] == 1e-5

    @pytest.mark.parametrize("args", [
        ["--s", "abc"], ["--s", "1,abc"], ["--s", "1,1"], ["--samples", "0"],
        ["--samples", "-1"], ["--tol", "nan"], ["--tol", "inf"],
        ["--tol", "0"], ["--tol", "-1"],
    ], ids=lambda args: " ".join(args))
    def test_eh_check_bad_input_exits_2(self, runner, args):
        res = runner.invoke(main, ["--eh-check", "--s", "1.0",
                                   "--samples", "2"] + args)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert args[0] in res.stderr
        assert res.stdout == ""

    def test_eh_check_nonfinite_is_valid_json(self, runner):
        # s = 1e-50 passes the input check, but the curvature peaks
        # underflow and the slope fit comes out NaN
        res = runner.invoke(main, ["--eh-check", "--s", "1,1e-50",
                                   "--samples", "2"])
        assert res.exit_code == 1

        def reject(constant):
            raise ValueError(f"bare JSON constant {constant}")

        report = json.loads(res.stdout, parse_constant=reject)
        slope = next(r for r in report["rows"]
                     if r["check"] == "curvature_slope")
        assert slope["computed"] == "NaN"
        assert slope["pass"] is False
        assert report["pass"] is False

    def test_flow_demo(self, runner):
        res = runner.invoke(main, ["--flow-demo", "--trials", "3",
                                   "--seed", "2"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["pass"] is True
        assert payload["decaying_trials"] == 3
        assert len(payload["fitted_rates"]) == 3
        assert payload["mu"] == pytest.approx(2 * 3.141592653589793)
        assert all(r >= payload["rate_bound"]
                   for r in payload["fitted_rates"])

    def test_flow_demo_failure_names_its_rows(self, runner, monkeypatch):
        # one trial that does not decay, and so has no fitted rate
        zeros = np.zeros(2)
        stalled = Trajectory(zeros, zeros, zeros, zeros, zeros, False, False,
                             None, 1.0)

        def decay_trials(d, N, k_frac, trials, seed):
            return build_mode_system(d, N), [(stalled, GapCheck(True, None))]

        monkeypatch.setattr(g2kit.flow, "decay_trials", decay_trials)
        res = runner.invoke(main, ["--flow-demo", "--trials", "1"])
        assert res.exit_code == 1
        assert "Traceback" not in res.output
        payload = json.loads(res.stdout)
        assert payload["pass"] is False and payload["decaying_trials"] == 0
        assert res.stderr.splitlines() == [
            "FAIL flow-demo: decaying_trials computed 0 expected 1",
            "FAIL flow-demo: min_fitted_rate computed NaN expected "
            f"{payload['rate_bound']!r}"]

    def test_rate_bound_reads_the_recorded_slack(self, runner, monkeypatch):
        # flow-suite records the slack that its min_fitted_rate bound
        # subtracts, and --flow-demo subtracts the same one
        monkeypatch.setattr(g2kit.scenarios, "RATE_SLACK_TIMES_MU", 0.25)
        report = run_scenario("flow-suite", 0)
        slack = report.tolerances["rate_slack_times_mu"]
        rows = {r.check: r for r in report.rows}
        assert slack == 0.25
        assert rows["min_fitted_rate"].expected == pytest.approx(
            rows["mu"].computed * (1 - 2 * 0.1 - slack), rel=1e-15)
        res = runner.invoke(main, ["--flow-demo", "--trials", "1",
                                   "--k-frac", "0.2"])
        payload = json.loads(res.stdout)
        assert payload["rate_bound"] == pytest.approx(
            payload["mu"] * (1 - 2 * 0.2 - slack), rel=1e-15)

    def test_flow_suite_records_the_integrator_rtol(self, monkeypatch):
        # the recorded tolerance is the one the integrator reads
        monkeypatch.setattr(g2kit.flow, "INTEGRATOR_RTOL", 1e-7)
        report = run_scenario("flow-suite", 0)
        assert report.tolerances["integrator_rtol"] == 1e-7

    def test_flow_demo_bad_k_exits_2(self, runner):
        res = runner.invoke(main, ["--flow-demo", "--k-frac", "0.9"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_flow_demo_without_trials_exits_2(self, runner, trials):
        res = runner.invoke(main, ["--flow-demo", "--trials", trials])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert "trial" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_flow_demo_over_budget_exits_2(self, runner, d):
        res = runner.invoke(main, ["--flow-demo", "--d", str(d), "--N", "1",
                                   "--trials", "1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "budget" in res.stderr
        assert "Traceback" not in res.output
        assert res.stdout == ""

    def test_flow_demo_over_time_budget_exits_2(self, runner):
        # dim 248 fits the coefficient budget, but 20 draws would take
        # minutes; the work budget refuses it before anything is built
        start = time.perf_counter()
        res = runner.invoke(main, ["--flow-demo", "--d", "3", "--N", "2"])
        assert time.perf_counter() - start < 2.0
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "budget" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("k_frac", ["0.5", "0", "-0.1", "nan", "inf"])
    def test_flow_demo_bad_k_exits_2_before_drawing(self, runner, k_frac):
        # at dim 160 one draw and its calibration take seconds
        start = time.perf_counter()
        res = runner.invoke(main, ["--flow-demo", "--d", "2", "--N", "4",
                                   "--k-frac", k_frac, "--trials", "1"])
        assert time.perf_counter() - start < 2.0
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert "k_frac" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--s", "1", "--samples", str(MAX_EH_POINTS - 24 + 1)],
        ["--s", "1,2", "--samples", str(MAX_EH_POINTS // 2 - 24 + 1)],
        ["--samples", "10000000000"],
    ], ids=["one-scale", "two-scales", "1e10-samples"])
    def test_eh_check_over_budget_exits_2(self, runner, monkeypatch, args):
        def unreachable(*args, **kwargs):
            raise AssertionError("drawn before the budget check")

        monkeypatch.setattr(cli, "_eh_suite", unreachable)
        res = runner.invoke(main, ["--eh-check", *args])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "budget" in res.stderr
        assert_one_error_line(res.stderr)
        assert res.stdout == ""

    def test_eh_check_at_point_budget_ends_in_time(self, runner):
        # 2621 distinct scales of one sample are 65 525 chart points, the
        # most scales the 2^16-point budget admits; nearly all of the time
        # goes to the curvature probe's 24 points per scale
        scales = np.linspace(0.1, 2.0, 2621).tolist()
        assert len(set(scales)) == 2621
        assert len(scales) * (1 + 24) <= MAX_EH_POINTS
        start = time.perf_counter()
        res = runner.invoke(main, ["--eh-check", "--s",
                                   ",".join(map(repr, scales)),
                                   "--samples", "1"])
        assert time.perf_counter() - start < 15.0
        assert res.exit_code in (0, 1), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("args", [
        ["run", "eh-suite"], ["run", "flow-suite"], ["run", "--all"],
        ["run", "joyce-T7-Gamma"], ["--eh-check"], ["--flow-demo"],
    ], ids=lambda args: " ".join(args))
    def test_negative_seed_exits_2(self, runner, args):
        res = runner.invoke(main, [*args, "--seed", "-1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "--seed" in res.stderr
        assert_one_error_line(res.stderr)
        assert res.stdout == ""

    def test_flag_plus_subcommand_conflict(self, runner):
        res = runner.invoke(main, ["--eh-check", "list"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("scale", ["1e50", "1e100", "1e308", "1,1e100"])
    def test_eh_check_scale_above_bound_exits_2(self, runner, monkeypatch,
                                                scale):
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated a scale above the bound")

        monkeypatch.setattr(cli, "_eh_suite", unreachable)
        res = runner.invoke(main, ["--eh-check", "--s", scale])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --s ")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    @pytest.mark.parametrize("scale", ["1e-160", "1e-170", "5e-324",
                                       "1,1e-200"])
    def test_eh_check_scale_below_bound_exits_2(self, runner, monkeypatch,
                                                scale):
        # the samples' |z|^2 would underflow, and the chart would refuse
        # them as its origin
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated a scale below the bound")

        monkeypatch.setattr(cli, "_eh_suite", unreachable)
        res = runner.invoke(main, ["--eh-check", "--s", scale])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: --s ")
        assert "2^-500" in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.output
        assert res.stdout == ""

    def test_eh_check_scale_just_inside_bound_runs(self, runner, monkeypatch):
        seen = []

        def record(seed, scales, **kwargs):
            seen.append(scales)
            return Report("eh-suite", (), seed)

        monkeypatch.setattr(cli, "_eh_suite", record)
        res = runner.invoke(main, ["--eh-check", "--s", "1e30"])
        assert res.exit_code == 0, res.output
        assert seen == [(1e30,)]

    @pytest.mark.parametrize("scale", ["1e30", "1e308"])
    def test_eh_check_scale_warns_nothing(self, scale):
        # a fresh interpreter, where a numpy RuntimeWarning would reach stderr
        out = subprocess.run(
            [sys.executable, "-m", "g2kit.cli", "--eh-check", "--s", scale,
             "--samples", "1"], env=subprocess_env(), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Warning" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        # inside the bound the chart numerics run and give their own verdict
        assert ("--s" in out.stderr) == (float(scale) > MAX_EH_SCALE)

    @pytest.mark.parametrize("scale", ["1e-100", "1,1e-50",
                                       repr(MIN_EH_SCALE)])
    def test_eh_check_tiny_scale_warns_nothing(self, scale):
        # s^4 and the curvature peaks underflow: the rows fail with NaN,
        # and numpy stays quiet about the divisions and the log.  At the
        # least accepted scale every sample is still a chart point.
        out = subprocess.run(
            [sys.executable, "-m", "g2kit.cli", "--eh-check", "--s", scale,
             "--samples", "1"], env=subprocess_env(), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 1
        assert '"NaN"' in out.stdout
        assert "Warning" not in out.stderr
        assert "Traceback" not in out.stderr

    @seed(26)
    @settings(max_examples=60, deadline=10000)
    @given(
        scales=st.lists(st.floats(-1074, 100).map(lambda e: 2.0 ** e),
                        min_size=1, max_size=3, unique=True),
        above=st.sampled_from([None, None, None, 2 * MAX_EH_SCALE, 1e308]),
        samples=st.integers(1, 4),
        tol=st.none() | st.floats(min_value=0.0, exclude_min=True,
                                  allow_infinity=False))
    def test_eh_check_ends_in_a_verdict(self, scales, above, samples, tol):
        # scales log-uniform from the least positive double to the bound,
        # sometimes with one past it, end in exit 0, 1 or 2, and a verdict
        # is JSON
        if above is not None:
            scales = scales + [above]
        args = ["--eh-check", "--s=" + ",".join(map(repr, scales)),
                f"--samples={samples}"]
        if tol is not None:
            args.append(f"--tol={tol!r}")
        res = Runner().invoke(main, args)
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        if res.exit_code in (0, 1):
            json.loads(res.stdout)

    def test_eh_scale_bound_keeps_derivatives_finite(self):
        # the curvature probe's radii run from 0.2 to 2.5, and
        # potential_derivatives forms q ** 5 with q >= s^2 there
        u = np.array([0.2 ** 2, 2.5 ** 2])
        with np.errstate(over="raise", invalid="raise"):
            derivs = potential_derivatives(MAX_EH_SCALE, u, order=4)
        assert all(np.all(np.isfinite(d)) for d in derivs)
        with pytest.raises(FloatingPointError):
            with np.errstate(over="raise", invalid="raise"):
                potential_derivatives(4 * MAX_EH_SCALE, u, order=4)


def test_cli_import_loads_no_click_dataclasses_inspect_or_typing():
    # against the modules the interpreter holds before the import, so that
    # whatever site and its .pth files load does not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import g2kit.cli\n"
            "print(sorted({'click', 'dataclasses', 'inspect', 'typing'}\n"
            "             & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         check=True, capture_output=True, text=True)
    assert out.stdout == "[]\n"


def _frozen_types():
    """Every subclass of Frozen, at any depth, once each g2kit module is
    imported."""
    for module in pkgutil.iter_modules(g2kit.__path__):
        importlib.import_module(f"g2kit.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def _value_types():
    """One instance of each immutable value type, with one of its fields."""
    system = build_mode_system(2, 1)
    form = random_exact_form(2, 2, cutoff=2, seed=0)
    zeros = np.zeros(2)
    flip = AffineTorusMap([-1, 1])
    return [
        (system, "mu"),
        (FlowState(np.ones(2)), "x"),
        (QuadraticMap(np.zeros((1, 1, 1)), 0.5, 1.0), "lipschitz_bound"),
        (Trajectory(zeros, zeros, zeros, zeros, zeros, False, False, None,
                    1.0), "fitted_rate"),
        (GapCheck(True, None), "dominance"),
        (ScalingReport(1.0, 2.0, 0.5, 0.0), "s"),
        (CurvatureScalingReport((1.0,), (2.0,), None), "slope"),
        (NonSymplecticInvariants(10, 8), "r"),
        (EulerReport(0, 0, 0, 0, True, True), "chi_m"),
        (form, "den"),
        (poincare_primitive(form), "ratio"),
        (row("a", 1, 1), "passed"),
        (Report("r", (), 0), "rows"),
        (Scenario("s", 1, (), None, None, ("betti",), {}), "checks"),
        (FlatStratum(0, 0, 1, ()), "count"),
        (BettiVector([1, 0, 1]), "b"),
        (ExteriorForm(2, 1, {(1,): 1}), "coeffs"),
        (LinearMapR([[1, 0], [0, 1]]), "det"),
        (flip, "den"),
        (generate_group([flip]), "elements"),
    ]


def _value_of(name):
    """The instance of the value type called name, with one of its fields."""
    return next((v, f) for v, f in _value_types() if type(v).__name__ == name)


# the value types by name, so that removing one renames no other test
FROZEN_NAMES = sorted(t.__name__ for t in _frozen_types())


class TestValueTypes:
    def test_every_value_type_is_covered(self):
        types = [type(v) for v, _ in _value_types()]
        assert len(types) == len(set(types))
        assert set(types) == _frozen_types()
        assert len(FROZEN_NAMES) == len(set(FROZEN_NAMES))

    def test_only_the_base_defines_setattr(self):
        src = Path(g2kit.__file__).parent
        owners = [f"{path.name}:{node.name}"
                  for path in sorted(src.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(f, ast.FunctionDef)
                          and f.name == "__setattr__" for f in node.body)]
        assert owners == ["_frozen.py:Frozen"]

    def test_fields_are_checked_like_a_signature(self):
        with pytest.raises(TypeError, match="missing 'dominance'"):
            GapCheck(True)
        with pytest.raises(TypeError, match="takes 2 fields but 3"):
            GapCheck(True, None, 1)
        with pytest.raises(TypeError, match="unexpected field 'ok'"):
            GapCheck(True, dominance=None, ok=True)
        with pytest.raises(TypeError, match="unexpected field 'monotone'"):
            GapCheck(True, None, monotone=False)

    @pytest.mark.parametrize("name", FROZEN_NAMES)
    def test_fields_cannot_be_assigned(self, name):
        value, field = _value_of(name)
        getattr(value, field)
        message = f"{type(value).__name__} is immutable"
        with pytest.raises(AttributeError, match=message):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=message):
            value.extra = None

    @pytest.mark.parametrize("name", FROZEN_NAMES)
    def test_value_type_in_a_report_raises(self, name):
        # a tuple would be written as a JSON array without a word
        value, _ = _value_of(name)
        report = Report("r", (row("info", value),), 0)
        with pytest.raises(TypeError, match=type(value).__name__):
            report_to_json(report)
