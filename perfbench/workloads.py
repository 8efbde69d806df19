"""The benchmark's workloads: inputs from a seed, one pass, its correctness gate.

Each workload is a closed loop with one caller: ``make_input(i)`` builds the
inputs of pass ``i`` outside the timed region, ``run`` is the timed pass and
``check`` returns the list of mismatches against the recorded goldens (an
empty list means the pass is correct).  Every call into g2kit goes through
the module attribute (``scenarios.run_scenario``), so the wrappers a traced
pass installs see it.
"""

import hashlib
import json
import random
from pathlib import Path

from g2kit import flow, scenarios

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SCENARIO_DIR = HERE / "scenarios"
GOLDENS = HERE / "goldens.json"   # written by record_goldens.py


class ReproduceAll:
    """Every builtin scenario at the seed, as ``g2kit run --all`` does."""

    name = "reproduce-all"

    def __init__(self, seed, quick, goldens):
        self.seed = seed
        # quick mode: one seeded scenario, so the CLI parity check can run
        # `g2kit run <name>` instead of the whole suite
        self.names = ["eh-suite"] if quick else list(scenarios.BUILTINS)
        self.goldens = goldens[self.name]["quick" if quick else "full"]
        self.first_text = None

    def load(self):
        known = scenarios.list_scenarios()
        missing = [n for n in self.names if n not in known]
        if missing:
            raise ValueError(f"unknown builtin scenarios {missing}")

    def make_input(self, i):
        return self.seed

    def run(self, seed):
        reports = [scenarios.run_scenario(n, seed) for n in self.names]
        payload = reports if len(reports) > 1 else reports[0]
        return reports, scenarios.report_to_json(payload)

    def check(self, out):
        reports, text = out
        problems = [f"{r.scenario}: {row.check} computed {row.computed!r} "
                    f"expected {row.expected!r}"
                    for r in reports for row in r.rows if row.passed is False]
        golden = self.goldens.get(str(self.seed))
        digest = hashlib.sha256(text.encode()).hexdigest()
        if golden is not None and digest != golden:
            problems.append(f"sha256 {digest} != recorded {golden}")
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append("JSON differs from the run's first pass")
        return problems

    def layer_counts(self, out):
        reports, _ = out
        counts = {}
        for r in reports:
            for row in r.rows:
                if row.check == "primitive_bit_exact_count":
                    counts["poincare.bit_exact"] = row.computed
                    counts["poincare.bit_exact_checked"] = row.expected
        return counts

    def cli_args(self):
        """Arguments of the untimed CLI parity run and the stdout it must give."""
        which = ["--all"] if len(self.names) > 1 else self.names
        return ["run", *which, "--seed", str(self.seed)], self.first_text


class LargeGroup:
    """User scenario files with large groups, under a seeded coordinate permutation.

    Conjugating every generator by one permutation of the coordinates (and
    moving the pull direction with it) gives an isomorphic quotient, so every
    betti, stratum and moduli row equals the recorded golden at every seed,
    while the files a pass loads differ from pass to pass.
    """

    name = "large-group"
    FULL = ("negid-quarter", "joyce-gamma-quarter", "joyce-half-e1-pull-x3")
    QUICK = ("quick-negid-half-t3",)

    def __init__(self, seed, quick, goldens):
        self.stems = self.QUICK if quick else self.FULL
        self.goldens = goldens[self.name]
        self.templates = {s: json.loads((SCENARIO_DIR / f"{s}.json").read_text())
                          for s in self.stems}
        self.rng = random.Random(seed)

    def load(self):
        for stem in self.stems:
            scenarios.load_scenario(SCENARIO_DIR / f"{stem}.json")

    def make_input(self, i):
        WORK.mkdir(exist_ok=True)
        paths = []
        for stem, doc in self.templates.items():
            n = doc["circles"]
            perm = self.rng.sample(range(n), n)
            paths.append(_write_permuted(doc, perm, WORK / f"{stem}.json"))
        return paths

    def run(self, paths):
        return [scenarios.run_scenario_object(scenarios.load_scenario(p))
                for p in paths]

    def check(self, reports):
        problems = []
        for stem, report in zip(self.stems, reports):
            rows = json.loads(scenarios.report_to_json(report))["rows"]
            computed = {r["check"]: r["computed"] for r in rows}
            if computed != self.goldens[stem]:
                problems.append(f"{stem}: rows {computed} != recorded "
                                f"{self.goldens[stem]}")
        return problems

    def layer_counts(self, out):
        return {}


def _write_permuted(doc, perm, path):
    """Write doc with coordinate i moved to perm[i] in every map and the pull."""
    def move(values):
        out = [None] * len(values)
        for i, v in enumerate(values):
            out[perm[i]] = v
        return out

    new = dict(doc)
    new["generators"] = [
        {**g, "signs": move(g["signs"]),
         **({"shift": move(g["shift"])} if "shift" in g else {})}
        for g in doc["generators"]]
    if doc.get("pull") is not None:
        new["pull"] = perm[doc["pull"] - 1] + 1
    path.write_text(json.dumps(new))
    return path


class DecayFlow:
    """The flow layer above builtin sizes: decay trials, a linear run, a large build."""

    name = "decay-flow"
    FULL = {"trials": ((2, 1, 20), (3, 1, 10)), "linear": (5, 1), "big": (6, 1)}
    QUICK = {"trials": ((2, 1, 2),), "linear": (2, 1), "big": (3, 1)}
    K_FRAC = 0.1

    def __init__(self, seed, quick, goldens):
        self.sizes = self.QUICK if quick else self.FULL
        self.goldens = goldens[self.name]
        self.rng = random.Random(seed)

    def load(self):
        pass

    def make_input(self, i):
        return self.rng.randrange(1 << 30)

    def run(self, base):
        """Returns only small summaries, so no large system outlives the pass."""
        trials = []
        for j, (d, n, count) in enumerate(self.sizes["trials"]):
            system, runs = flow.decay_trials(d=d, N=n, k_frac=self.K_FRAC,
                                             trials=count, seed=base + 1000 * j)
            trials.append(((d, n), system.mu,
                           [(t.decaying, t.fitted_rate, c.ok) for t, c in runs]))
        lin = flow.build_mode_system(*self.sizes["linear"])
        x0 = lin.random_minus_state(seed=base)
        traj = flow.integrate_flow(lin, None, x0, T=2.0 / lin.mu)
        linear = (lin.mu, traj.decaying, traj.fitted_rate,
                  lin.spectrum_table())
        del lin, traj
        big = flow.build_mode_system(*self.sizes["big"])
        return trials, linear, big.spectrum_table()

    def check(self, out):
        trials, (mu, decaying, rate, lin_table), big_table = out
        problems = []
        for size, mu_t, runs in trials:
            bound = mu_t - 2 * self.K_FRAC * mu_t - 0.05 * mu_t
            for k, (dec, r, gap_ok) in enumerate(runs):
                if not (dec and r is not None and r >= bound and gap_ok):
                    problems.append(f"trial {size}#{k}: decaying={dec} "
                                    f"rate={r} bound={bound} gap_ok={gap_ok}")
        if not (decaying and rate is not None and rate >= 0.95 * mu):
            problems.append(f"linear run rate {rate} < 0.95*mu={0.95 * mu}")
        for size, table in ((self.sizes["linear"], lin_table),
                            (self.sizes["big"], big_table)):
            key = f"{size[0]},{size[1]}"
            got = {str(k): v for k, v in table.items()}
            if got != self.goldens["spectrum_table"].get(key):
                problems.append(f"spectrum_table({key}) {got} != recorded "
                                f"{self.goldens['spectrum_table'].get(key)}")
        return problems

    def layer_counts(self, out):
        return {}


WORKLOADS = {w.name: w for w in (ReproduceAll, LargeGroup, DecayFlow)}
