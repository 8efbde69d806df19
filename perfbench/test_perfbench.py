"""Tests of the benchmark itself, on its quick inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*extra, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seconds", "0.5",
                           "--quick", *extra],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_reports_end_to_end(workload):
    out = result(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= run.MIN_PASSES
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def corrupt(goldens, workload):
    if workload == "reproduce-all":
        goldens[workload]["quick"]["3"] = "0" * 64
    elif workload == "large-group":
        goldens[workload]["quick-negid-half-t3"]["group_order"] += 1
    else:
        goldens[workload]["spectrum_table"]["3,1"]["1"] += 1


def copy_benchmark(root):
    """A checkout under root with BENCHMARK.json and the benchmark, no sources."""
    shutil.copytree(HERE, root / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    return root / HERE.name / "run.py"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_fails_every_pass(workload, tmp_path):
    script = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    path = script.parent / "goldens.json"
    goldens = json.loads(path.read_text())
    corrupt(goldens, workload)
    path.write_text(json.dumps(goldens))
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0",
                 cwd=tmp_path, script=script)
    out = result(proc)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]      # failed_share 1
    assert "FAIL" in proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--trace", "1")
    out = result(proc)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    assert detail["traced_passes"] >= 1
    assert (HERE.parent / detail["span_file"]).is_file()
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["other.self_s"] > 0 and m["trace.pass_s_p50"] > 0
    busy = {"reproduce-all": "eguchi_hanson.ricci_ratio.calls",
            "large-group": "torus.singular_locus.calls_per_group",
            "decay-flow": "flow.matvec.calls"}[workload]
    assert m[busy] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    script = copy_benchmark(tmp_path)
    proc = bench("--workload", "reproduce-all", "--seed", "0", "--trace", "0",
                 cwd=tmp_path, script=script)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
