"""Spans around calls into g2kit's layers, recorded from outside the package.

A traced pass installs timed wrappers on the public functions of each
g2kit module, in every module namespace that binds them (so
``from .torus import singular_locus`` in ``scenarios`` is wrapped too), and
removes them again after the pass.  Spans stay in memory as flat arrays
(name, start, end, parent, pass id) and are written out once, at the end
of the run.  Nothing here edits ``src/g2kit``.
"""

import functools
import gzip
import json
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

PASS_SPAN = "pass"

# (module, function names, span name or None for "<module>.<function>")
_FUNCTION_SPANS = (
    ("torus", ("generate_group", "singular_locus", "involution_fixed_census",
               "quotient_betti", "pull", "check_preserves_form", "fixed_set",
               "count_ends", "cross_section_group"), None),
    ("forms", ("pullback",), None),
    ("betti", ("resolve_betti", "moduli_dimension", "holonomy_classification",
               "borcea_voisin_betti", "open_cy_betti", "kunneth_s1",
               "connected_sum_b2"), "betti"),
    ("eguchi_hanson", ("ricci_ratio",), None),
    ("eguchi_hanson", ("sample_points", "flat_deviation", "potential",
                       "scaling_identity_probe",
                       "curvature_injectivity_scaling_probe"),
     "eguchi_hanson.probes"),
    ("flow", ("build_mode_system", "random_quadratic", "integrate_flow",
              "decay_trials"), None),
    ("poincare", ("random_exact_form", "poincare_primitive",
                  "exterior_derivative", "primitive_ratio_study"), None),
    ("scenarios", ("run_scenario", "run_scenario_object"), "scenarios.run"),
    ("scenarios", ("load_scenario", "report_to_json"), None),
)

# exact kernels are wrapped only where other modules bind them, so the
# recursion inside g2kit.exact itself does not open spans
_BOUND_ONLY = ("exact", ("det", "smith_normal_form"))

_METHOD_SPANS = (
    ("flow", "ModeSystem", ("matvec",), "flow.matvec"),
    ("flow", "ModeSystem", ("project_plus", "project_minus"), "flow.project"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / 2**20


class Recorder:
    """In-memory span store plus per-pass counters for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._pass = -1
        self.counts = defaultdict(Counter)
        self._groups = defaultdict(set)
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value=1):
        self.counts[self._pass][key] += value

    # -- passes ---------------------------------------------------------

    def begin_pass(self, pass_no):
        """Install the wrappers and open the root span of a traced pass."""
        self._pass = pass_no
        self._install()
        self._root = self._open(self._id(PASS_SPAN))

    def end_pass(self):
        self._close(self._root)
        self._uninstall()

    # -- wrappers -------------------------------------------------------

    def wrap(self, span, fn, after=None):
        nid = self._id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out

        return traced

    def _patch_everywhere(self, fn, wrapped, skip=None):
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("g2kit") or mod is skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _after_hooks(self):
        def group_elements(args, out):
            self.count("torus.group_elements", out.order)

        def strata(args, out):
            self.count("torus.strata", len(out))
            group = args[0]
            self._groups[self._pass].add((frozenset(group.elements),
                                          group.lines))

        def trials(args, out):
            _, runs = out
            self.count("flow.trials", len(runs))
            self.count("flow.decaying", sum(bool(t.decaying) for t, _ in runs))

        return {"torus.generate_group": group_elements,
                "torus.singular_locus": strata,
                "flow.decay_trials": trials}

    def _with_rss(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before = _rss_mb()
            out = fn(*args, **kwargs)
            key = "flow.build_mode_system.rss_delta_mb"
            counts = self.counts[self._pass]
            counts[key] = max(counts[key], _rss_mb() - before)
            return out
        return measured

    def _install(self):
        import g2kit.cli  # noqa: F401  (every module the workloads touch)
        hooks = self._after_hooks()
        for mod_name, fn_names, span in _FUNCTION_SPANS:
            mod = sys.modules[f"g2kit.{mod_name}"]
            for fn_name in fn_names:
                fn = getattr(mod, fn_name)
                name = span or f"{mod_name}.{fn_name}"
                inner = self._with_rss(fn) if name == "flow.build_mode_system" \
                    else fn
                self._patch_everywhere(fn, self.wrap(name, inner,
                                                     hooks.get(name)))
        mod_name, fn_names = _BOUND_ONLY
        mod = sys.modules[f"g2kit.{mod_name}"]
        for fn_name in fn_names:
            fn = getattr(mod, fn_name)
            self._patch_everywhere(fn, self.wrap(f"{mod_name}.{fn_name}", fn),
                                   skip=mod)
        for mod_name, cls_name, meth_names, span in _METHOD_SPANS:
            cls = getattr(sys.modules[f"g2kit.{mod_name}"], cls_name)
            for meth in meth_names:
                fn = vars(cls)[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(span, fn))

    def _uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def pass_metrics(self):
        """{pass id: {metric: value}} for every traced pass."""
        selfs = self.self_times()
        out = defaultdict(Counter)
        for i, s in enumerate(selfs):
            name = self.names[self.name[i]]
            m = out[self.pass_id[i]]
            m[f"{name}.self_s"] += s
            m[f"{name}.calls"] += 1
            if name == PASS_SPAN:
                m["pass_s"] += self.end[i] - self.start[i]
            else:
                m[f"{name.split('.')[0]}.module_self_s"] += s
        for p, m in out.items():
            m.update(self.counts[p])
            groups = len(self._groups[p])
            m["torus.singular_locus.calls_per_group"] = \
                m["torus.singular_locus.calls"] / groups if groups else 0.0
            m["flow.decaying_share"] = \
                m["flow.decaying"] / m["flow.trials"] if m["flow.trials"] else 0.0
            checked = m["poincare.bit_exact_checked"]
            m["poincare.bit_exact_share"] = \
                m["poincare.bit_exact"] / checked if checked else 0.0
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: name, start, end, parent, pass."""
        with gzip.open(path, "wt") as f:
            for i in range(len(self.start)):
                f.write(json.dumps([self.names[self.name[i]], self.start[i],
                                    self.end[i], self.parent[i],
                                    self.pass_id[i]]) + "\n")


def median_metrics(per_pass):
    """Median over traced passes of every metric any pass produced."""
    keys = set().union(*per_pass.values()) if per_pass else set()
    return {k: statistics.median(m.get(k, 0) for m in per_pass.values())
            for k in keys}
