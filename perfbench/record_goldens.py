"""Record the outputs the benchmark checks its passes against.

    python3 perfbench/record_goldens.py      # rewrites perfbench/goldens.json

Run it only on a commit whose outputs are known good: the goldens hold the
sha256 of `g2kit run --all` JSON at seeds 0 and 3, the rows of each
large-group scenario file (unpermuted) and the flow spectrum tables.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from g2kit import flow, scenarios  # noqa: E402

import workloads  # noqa: E402

SHA_SEEDS = (0, 3)


def sha_of_run(names, seed):
    reports = [scenarios.run_scenario(n, seed) for n in names]
    text = scenarios.report_to_json(reports if len(reports) > 1 else reports[0])
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    quick_names = ["eh-suite"]
    goldens = {
        "reproduce-all": {
            "full": {str(s): sha_of_run(list(scenarios.BUILTINS), s)
                     for s in SHA_SEEDS},
            "quick": {str(s): sha_of_run(quick_names, s) for s in SHA_SEEDS},
        },
        "large-group": {},
        "decay-flow": {"spectrum_table": {}},
    }
    for stem in workloads.LargeGroup.FULL + workloads.LargeGroup.QUICK:
        sc = scenarios.load_scenario(workloads.SCENARIO_DIR / f"{stem}.json")
        rows = json.loads(scenarios.report_to_json(
            scenarios.run_scenario_object(sc)))["rows"]
        goldens["large-group"][stem] = {r["check"]: r["computed"] for r in rows}
    sizes = workloads.DecayFlow.FULL, workloads.DecayFlow.QUICK
    for d, n in sorted({s[k] for s in sizes for k in ("linear", "big")}):
        table = flow.build_mode_system(d, n).spectrum_table()
        goldens["decay-flow"]["spectrum_table"][f"{d},{n}"] = \
            {str(k): v for k, v in table.items()}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")


if __name__ == "__main__":
    main()
