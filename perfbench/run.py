"""g2kit benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload reproduce-all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 120   # table of all

A run measures set-up in fresh interpreters, then runs passes of the
workload back to back for about ``--seconds`` (at least ``MIN_PASSES``),
checks every pass against the recorded goldens, and prints one JSON object
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the details: raw wall and CPU times, the sample counts,
the tail, ``failed_share`` and the environment.  ``--trace 0`` reports the
end-to-end metrics, in reference seconds (see clock.py).  ``--trace 1``
runs one warm-up pass, then alternates untraced and traced passes, and
reports the per-layer metrics of the traced ones with the tracing overhead.
README.md in this directory lists every metric, workload and prediction.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("reproduce-all", "large-group", "decay-flow")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150

# per-layer metrics (names and units in BENCHMARK.json) whose key in the
# traced per-pass metrics is not their own name
TRACE_KEYS = {"poincare.primitives": "poincare.poincare_primitive.calls",
              "other.self_s": "pass.self_s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("G2KIT_PRECISION", None)
    return env


def environment():
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "commit": commit}


def measure_setup(workload, quick, probe):
    """Medians over fresh interpreters; setup_ref_s in reference seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload,
             "1" if quick else "0"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True)
        sample = json.loads(proc.stdout.splitlines()[-1])
        blocks = sample.pop("blocks")
        if probe is not None:
            sample["setup_ref_s"] = sum(probe.ref_s(*b) for b in blocks)
        samples.append(sample)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def cli_parity(wl):
    """Untimed: `python -m g2kit.cli <args>` exits 0 and prints the pass's JSON."""
    args, expected = wl.cli_args()
    proc = subprocess.run([sys.executable, "-m", "g2kit.cli", *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    problems = []
    if proc.returncode != 0:
        problems.append(f"g2kit {' '.join(args)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()}")
    if proc.stdout != expected:
        problems.append(f"g2kit {' '.join(args)} stdout differs from the "
                        f"in-process pass")
    return problems


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return None
    return {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples_above": 10, "n": n}


def run_workload(args):
    """Pinned to one CPU; untraced runs time against a speed probe on it."""
    from clock import SpeedProbe, pin_to_one_cpu
    import workloads

    pin_to_one_cpu()
    if args.trace:
        return measure(args, None)
    with SpeedProbe(workloads.WORK / f"speed-probe-{os.getpid()}.bin") as probe:
        return measure(args, probe)


def measure(args, probe):
    import spans
    import workloads
    from clock import Stopwatch

    setup = measure_setup(args.workload, args.quick, probe)
    goldens = json.loads(workloads.GOLDENS.read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick, goldens)
    recorder = spans.Recorder() if args.trace else None

    # per timed pass: untraced / traced wall seconds, untraced CPU and reference s
    wall = {False: [], True: []}
    cpu, ref = [], []
    failures = []                  # problems of each pass, [] when correct
    i = 0
    deadline = perf_counter() + args.seconds
    last = 0.0
    # once MIN_PASSES are done, start a pass only if it should end in time
    while i < MIN_PASSES + args.trace or perf_counter() + last < deadline:
        # traced runs: pass 0 warms up untimed, then untraced and traced alternate
        warmup = args.trace and i == 0
        traced = bool(args.trace and i > 0 and i % 2 == 0)
        inputs = wl.make_input(i)
        watch = Stopwatch(probe)
        t = perf_counter()
        ran = False
        try:
            if traced:
                recorder.begin_pass(i)
            try:
                with watch:
                    out = wl.run(inputs)
                ran = True
            finally:
                if traced:
                    recorder.end_pass()
            del inputs
            problems = wl.check(out)
            if traced:
                for key, value in wl.layer_counts(out).items():
                    recorder.counts[i][key] += value
            del out
        except Exception:  # a pass that raises is a failed pass; keep going
            problems = [traceback.format_exc()]
        last = perf_counter() - t
        failures.append(problems)
        if ran and not warmup:
            wall[traced].append(watch.wall_s)
            if not traced:
                cpu.append(watch.cpu_s)
                ref.append(watch.ref_s)
        i += 1
    if hasattr(wl, "cli_args") and wl.first_text is not None:
        # untimed, once per run; a mismatch fails the pass it compares with
        failures[0] = failures[0] + cli_parity(wl)

    attempted = len(failures)
    failed = sum(bool(p) for p in failures)
    for line in next((p for p in failures if p), [])[:5]:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    if not wall[False] or (args.trace and not wall[True]):
        print(f"error: no {args.workload} pass ran to the end", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail = {"workload": args.workload, "seed": args.seed,
              "passes": len(wall[False]), "traced_passes": len(wall[True]),
              "pass_wall_s": wall[False], "pass_cpu_s": cpu,
              "pass_wall_s_p50": statistics.median(wall[False]),
              "pass_cpu_s_p50": statistics.median(cpu),
              "pass_wall_s_tail": tail(wall[False]),
              "failed_share": failed / attempted, "setup": setup,
              "environment": environment()}
    if args.trace:
        traced_p50 = statistics.median(wall[True])
        values = {**spans.median_metrics(recorder.pass_metrics()),
                  "trace.pass_s_p50": traced_p50,
                  "trace.untraced_pass_s_p50": detail["pass_wall_s_p50"],
                  "trace.overhead_s": traced_p50 - detail["pass_wall_s_p50"],
                  "setup.import_flow_s": setup["import_flow_s"],
                  "setup.import_scenarios_s": setup["import_scenarios_s"]}
        metrics = {m["name"]: {"value": float(values.get(
                       TRACE_KEYS.get(m["name"], m["name"]), 0.0)),
                       "unit": m["unit"]}
                   for m in spec["per_layer"]}
        workloads.WORK.mkdir(exist_ok=True)
        span_file = workloads.WORK / f"spans-{args.workload}.jsonl.gz"
        recorder.write(span_file)
        detail["span_file"] = str(span_file.relative_to(ROOT))
        detail["spans"] = len(recorder.start)
    else:
        detail["pass_ref_s"] = ref
        detail["pass_ref_s_tail"] = tail(ref)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup["setup_ref_s"],
                  "pass_s_p50": statistics.median(ref), "peak_rss_mb": rss_mb}
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _tail_text(t, n):
    if t is None:
        return f"n/a: {n} passes, a tail needs 11 or more"
    return (f"{t['value']:.4g} s (p{t['percentile']:.0f} of n={t['n']}, "
            f"{t['samples_above']} samples above)")


def run_all(args):
    """Each workload in its own fresh process, then one table of metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=args.seconds + 2 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        *_, detail_line, result_line = proc.stdout.splitlines()
        rows.append((name, json.loads(detail_line)["detail"],
                     json.loads(result_line)))
    print(json.dumps({"environment": rows[0][1]["environment"]}))
    for name, d, result in rows:
        n = d["passes"]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"\n{name}  (seed {args.seed}, correct={result['correct']})")
        if args.trace:
            for metric, v in result["metrics"].items():
                if v["value"]:
                    print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
            continue
        print(f"  {'setup_s':16s} {m['setup_s']:.4g} ref s, "
              f"{d['setup']['setup_s']:.4g} wall s "
              f"(median of n={SETUP_SAMPLES} fresh interpreters)")
        print(f"  {'pass_s_p50':16s} {m['pass_s_p50']:.4g} ref s, "
              f"{d['pass_cpu_s_p50']:.4g} CPU s, "
              f"{d['pass_wall_s_p50']:.4g} wall s (median of n={n} passes)")
        print(f"  {'pass_s_tail':16s} ref {_tail_text(d['pass_ref_s_tail'], n)};"
              f" wall {_tail_text(d['pass_wall_s_tail'], n)}")
        print(f"  {'peak_rss_mb':16s} {m['peak_rss_mb']:.5g} MB "
              f"(this workload's process)")
        print(f"  {'failed_share':16s} {d['failed_share']:.4g} "
              f"({result['failed']} of {result['attempted']} passes)")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "g2kit" / "__init__.py").is_file():
        print(f"error: no g2kit sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads are fixed before numpy is first imported
    os.environ.update({k: v for k, v in child_env().items()
                       if k.endswith("_NUM_THREADS")})
    os.environ.pop("G2KIT_PRECISION", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
