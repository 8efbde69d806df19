"""One set-up sample, run in a fresh interpreter by run.py.

Times what a user's process pays before the first pass: importing
``g2kit.cli`` (split into the flow stack, the scenario stack and the rest)
and loading and validating the workload's inputs.  Prints one JSON object
with the wall and CPU seconds and the perf_counter span of each of the two
timed blocks; run.py turns them into reference seconds with its speed probe.

    python3 perfbench/setup_probe.py <src dir> <workload> <0|1 quick>
"""

import sys
from time import perf_counter, process_time

# nothing else is imported before the timed imports, so that every standard
# module g2kit loads counts in its set-up
sys.path.insert(0, sys.argv[1])
cpu = process_time()
t0 = perf_counter()
import g2kit.flow  # noqa: E402,F401
t1 = perf_counter()
import g2kit.scenarios  # noqa: E402,F401
t2 = perf_counter()
import g2kit.cli  # noqa: E402,F401
t3 = perf_counter()
import_cpu_s = process_time() - cpu

import json  # noqa: E402  (benchmark code: not part of the timed set-up)
import workloads  # noqa: E402

goldens = json.loads(workloads.GOLDENS.read_text())
wl = workloads.WORKLOADS[sys.argv[2]](0, sys.argv[3] == "1", goldens)
cpu = process_time()
l0 = perf_counter()
wl.load()
l1 = perf_counter()
load_cpu_s = process_time() - cpu

print(json.dumps({"setup_s": (t3 - t0) + (l1 - l0),
                  "blocks": [[import_cpu_s, t0, t3], [load_cpu_s, l0, l1]],
                  "import_flow_s": t1 - t0,
                  "import_scenarios_s": t2 - t1,
                  "import_cli_s": t3 - t2,
                  "load_inputs_s": l1 - l0}))
