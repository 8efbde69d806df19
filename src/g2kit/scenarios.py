"""Named reproduction scenarios emitting machine-checkable report rows.

Each scenario runs a fixed list of checks and returns a Report whose
rows carry (check id, computed value, expected value, provenance,
pass flag).  The provenance tag states how the expected value is
compared:

- "golden":    exact equality with a recorded value;
- "tolerance": computed <= expected numeric budget;
- "floor":     computed >= expected numeric bound;
- "range":     expected is [lo, hi] and computed must lie inside;
- rows without an expected value are informational (pass is None).

Reports serialize deterministically: the same scenario and seed give
byte-identical JSON.

Rows that builtins and scenario files share come from one builder each:
_phi_row (joyce-T7-Gamma and the form-invariance check), _coassoc_rows
(coassoc-5.2, coassoc-5.3 and the coassoc check), _moduli_rows (pull-x1,
pull-x3, gamma1-pull-x7 and the moduli check) and _end_rows (those three
pulls and pull-x5-borcea).
"""

import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from ._frozen import Frozen
from ._lazy import lazy_module
from .errors import G2KitError, InvalidScenario

# each layer compiles at its first use, so a command loads only what it runs
betti = lazy_module("g2kit.betti")
eguchi_hanson = lazy_module("g2kit.eguchi_hanson")
flow = lazy_module("g2kit.flow")
forms = lazy_module("g2kit.forms")
poincare = lazy_module("g2kit.poincare")
torus = lazy_module("g2kit.torus")
np = lazy_module("numpy")

MAX_SHIFT_DENOMINATOR = 16

# slack on the decay-rate floor mu - 2k, in units of mu: the min_fitted_rate
# bound and flow-suite's recorded rate_slack_times_mu both read it
RATE_SLACK_TIMES_MU = 0.05

H = Fraction(1, 2)


def _alpha():
    return torus.AffineTorusMap([1, 1, 1, -1, -1, -1, -1],
                                name="alpha")


def _beta():
    return torus.AffineTorusMap([1, -1, -1, 1, 1, -1, -1],
                                [0, 0, 0, 0, 0, H, 0],
                                name="beta")


def _gamma():
    return torus.AffineTorusMap([-1, 1, -1, 1, -1, 1, -1],
                                [0, 0, 0, 0, H, 0, H],
                                name="gamma")


def _gamma1():
    return torus.AffineTorusMap([-1, 1, -1, 1, -1, 1, -1],
                                [0, 0, H, 0, H, 0, 0],
                                name="gamma1")


def _sigma_52():
    return torus.AffineTorusMap([-1, 1, 1, 1, 1, -1, -1],
                                [H, 0, 0, 0, 0, H, H],
                                name="sigma")


def _sigma_53():
    return torus.AffineTorusMap([-1, -1, -1, 1, 1, 1, 1],
                                [H, H, H, 0, 0, 0, 0],
                                name="sigmap")


class CheckRow(Frozen):
    """One report row; build it with row(), which sets passed."""

    __slots__ = ("check", "computed", "expected", "provenance", "passed")

    def to_dict(self):
        return {"check": self.check, "computed": _json_number(self.computed),
                "expected": _json_number(self.expected),
                "provenance": self.provenance, "pass": self.passed}


def _is_float(value):
    """A Python or numpy float; numpy is asked only about its own types, so
    exact rows never load it."""
    return isinstance(value, float) or (type(value).__module__ == "numpy"
                                        and isinstance(value, np.floating))


def _json_number(value):
    """value with each NaN or infinite float spelled as a JSON string."""
    if _is_float(value) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else \
            ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, (list, tuple)):
        return [_json_number(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_number(v) for k, v in value.items()}
    return value


def _all_finite(value):
    if _is_float(value):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def row(check, computed, expected=None, provenance="golden"):
    passed = None
    if not _all_finite(computed):
        # a NaN or infinite result fails its row, informational or not
        passed = False
    elif expected is not None:
        if provenance == "tolerance":
            passed = bool(computed <= expected)
        elif provenance == "floor":
            passed = bool(computed >= expected)
        elif provenance == "range":
            lo, hi = expected
            passed = bool(lo <= computed <= hi)
        else:
            passed = computed == expected
    return CheckRow(check, computed, expected, provenance, passed)


class Report(Frozen):
    """The rows of one scenario run, with the environment they were
    computed in."""

    __slots__ = ("scenario", "rows", "seed", "tolerances")

    def __init__(self, scenario, rows, seed, tolerances=None):
        super().__init__(scenario, rows, seed, tolerances or {})

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows if r.passed is not None)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "environment": {
                "seed": self.seed,
                "precision": "double",
                "tolerances": dict(sorted(self.tolerances.items())),
                "version": __version__,
            },
            "rows": [r.to_dict() for r in self.rows],
            "pass": self.all_pass,
        }


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def report_to_json(reports):
    """Deterministic JSON for one report or a list of them."""
    if isinstance(reports, Report):
        payload = reports.to_dict()
    else:
        payload = [r.to_dict() for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=_json_default) + "\n"


def _summary(strata):
    """Canonical 'count x type' summary of a stratum list."""
    tally = {}
    for s in strata:
        key = (-s.torus_dim, -s.line_dim, s.type_label)
        tally[key] = tally.get(key, 0) + 1
    return "+".join(f"{n}x{label}" for (_, _, label), n in sorted(tally.items())) \
        or "free"


def _the_group():
    return torus.generate_group([_alpha(), _beta(), _gamma()])


def _topology(group):
    """Singular strata, quotient betti numbers and resolved betti numbers."""
    strata = torus.singular_locus(group)
    base = torus.quotient_betti(group)
    return strata, base, betti.resolve_betti(base, strata)


def _fixed(f):
    return _summary(torus.fixed_set(f))


def _phi_row(maps):
    # pullback is functorial, so a group's generators decide for all of it
    return row("phi_invariance", all(
        torus.check_preserves_form(x, forms.PHI0, 1) for x in maps), True)


def _coassoc_rows(sigma, group, census):
    return [row("reverses_reference_form",
                torus.check_preserves_form(sigma, forms.PHI0, -1), True),
            row("census", _summary(torus.involution_fixed_census(sigma, group)),
                census)]


def _moduli_rows(pulled, direction, res, cross_b2b3, moduli):
    """res: the resolved Betti numbers of the half pulled along direction."""
    _, _, cres = _topology(torus.cross_section_group(pulled, direction))
    return [row("cross_section_b2_b3", [cres[2], cres[3]], cross_b2b3),
            row("moduli_dimension",
                betti.moduli_dimension(res[4], cres[3], res[1]), moduli)]


def _end_rows(pulled, direction, b1, verdict):
    ends = torus.count_ends(pulled, direction)
    return [row("ends", ends, 1),
            row("holonomy",
                betti.holonomy_classification(b1 == 0, ends, b1 > 0), verdict)]


def _joyce(seed):
    G = _the_group()
    a, b, g = _alpha(), _beta(), _gamma()
    rows = [
        row("group_order", G.order, 8),
        row("fixed_alpha", _fixed(a), "16xT3"),
        row("fixed_beta", _fixed(b), "16xT3"),
        row("fixed_gamma", _fixed(g), "16xT3"),
        row("fixed_alpha_beta", _fixed(a.compose(b)), "free"),
        row("fixed_beta_gamma", _fixed(b.compose(g)), "free"),
        row("fixed_gamma_alpha", _fixed(g.compose(a)), "free"),
        row("fixed_alpha_beta_gamma", _fixed(a.compose(b).compose(g)),
            "free"),
    ]
    locus, base, res = _topology(G)
    rows.append(row("singular_locus", _summary(locus), "12xT3"))
    rows.append(row("singular_orbit_counts",
                    sorted(s.count for s in locus), [4] * 12))
    rows.append(row("quotient_betti", list(base),
                    [1, 0, 0, 7, 7, 0, 0, 1]))
    rows.append(row("resolved_b2", res[2], 12))
    rows.append(row("resolved_b3", res[3], 43))
    rows.append(_phi_row(G.generators))
    return Report("joyce-T7-Gamma", tuple(rows), seed)


def _pull_scenario(name, gens, direction, strata_summary, resolved_2_5,
                   cross_b2b3, moduli, seed):
    P = torus.pull(torus.generate_group(gens), direction)
    strata, base, res = _topology(P)
    rows = [row("group_order", P.order, 8),
            row("singular_locus", _summary(strata), strata_summary),
            row("base_betti_2_5", [base.get(k) for k in range(2, 6)]),
            row("resolved_betti_2_5", [res[k] for k in range(2, 6)],
                list(resolved_2_5)),
            *_moduli_rows(P, direction, res, list(cross_b2b3), moduli),
            *_end_rows(P, direction, res[1], "full_G2")]
    return Report(name, tuple(rows), seed)


def _pull_x1(seed):
    return _pull_scenario("pull-x1", [_alpha(), _beta(), _gamma()], 1,
                          "2xT3+8xT2xR", (10, 26, 17, 2), (19, 40), 36, seed)


def _pull_x3(seed):
    return _pull_scenario("pull-x3", [_alpha(), _beta(), _gamma()], 3,
                          "4xT3+4xT2xR", (8, 24, 19, 4), (11, 24), 30, seed)


def _gamma1_pull_x7(seed):
    return _pull_scenario("gamma1-pull-x7", [_alpha(), _beta(), _gamma1()], 7,
                          "6xT3", (6, 22, 21, 6), (3, 8), 24, seed)


def _pull_x5_borcea(seed):
    G = torus.generate_group([_alpha(), _beta()])
    P = torus.pull(G, 5)
    q = torus.quotient_betti(P)
    rows = [row("group_order", P.order, 4), row("b1", q[1], 1),
            *_end_rows(P, 5, q[1], "reducible")]
    bv = betti.borcea_voisin_betti(betti.NonSymplecticInvariants(10, 8))
    rows.append(row("blownup_quotient_b2_b3", list(bv), [15, 8]))
    w = betti.open_cy_betti(bv[0], bv[1], 10)
    rows.append(row("open_piece_b2_b3_ker", list(w), [14, 20, 4]))
    s1w = betti.kunneth_s1(betti.BettiVector([1, 0, w[0], w[1]]))
    rows.append(row("circle_times_w_b2_b3", [s1w[2], s1w[3]], [14, 34]))
    rows.append(row("connected_sum_b2", betti.connected_sum_b2(4, 4, 4), 12))
    return Report("pull-x5-borcea", tuple(rows), seed)


def _coassoc(name, sigma_fn, census_expected, half_direction, half_expected,
             seed):
    G = _the_group()
    sigma = sigma_fn()
    rows = _coassoc_rows(sigma, G, census_expected)
    if half_direction is not None:
        P = torus.pull(G, half_direction)
        lifted = torus.AffineTorusMap(sigma.signs, sigma.shift, P.lines,
                                      sigma.name)
        rows.append(row("half_census",
                        _summary(torus.involution_fixed_census(lifted, P)),
                        half_expected))
    return Report(name, tuple(rows), seed)


def _coassoc_52(seed):
    return _coassoc("coassoc-5.2", _sigma_52, "1xT4+16xpoint",
                    4, "1xT3xR+8xpoint", seed)


def _coassoc_53(seed):
    return _coassoc("coassoc-5.3", _sigma_53, "2xT4/pm1+32xpoint",
                    None, None, seed)


def _eh_suite(seed, scales=(0.5, 1.0, 2.0), samples=20, ricci_tol=None):
    tol = dict(eguchi_hanson.TOLERANCES)
    if ricci_tol is not None:
        tol["ricci"] = ricci_tol
    rows = []
    for s in scales:
        points = eguchi_hanson.sample_points(samples, s, seed=seed)
        worst = max(eguchi_hanson.ricci_ratio(s, points))
        rows.append(row(f"ricci_max_ratio_s={s:g}", worst, tol["ricci"],
                        provenance="tolerance"))
    rows.append(row("flat_deviation_at_r_1000s",
                    eguchi_hanson.flat_deviation(1.0, 1000.0 + 0j, 0j),
                    tol["flat_limit"], provenance="tolerance"))
    rows.append(row("potential_asymptote_rel_err",
                    abs(eguchi_hanson.potential(1.0, 1e4) / 1e8 - 1), 1e-6,
                    provenance="tolerance"))
    probe = eguchi_hanson.scaling_identity_probe(
        1.0, 2.0, eguchi_hanson.sample_points(10, 1.0, seed=seed))
    rows.append(row("scaling_verdict", probe.verdict, "s/lambda"))
    margin = probe.matches_lambda_s / max(probe.matches_s_over_lambda, 1e-300)
    rows.append(row("scaling_margin", min(margin, 1e300), 1e6,
                    provenance="floor"))
    rows.append(row("scaling_dev_matching", probe.matches_s_over_lambda))
    rows.append(row("scaling_dev_other", probe.matches_lambda_s))
    crep = eguchi_hanson.curvature_injectivity_scaling_probe(list(scales))
    if len(scales) >= 2:
        rows.append(row("curvature_slope", crep.slope, [-2.1, -1.9],
                        provenance="range"))
    else:
        # a slope needs at least two scales; record the peak norm instead
        rows.append(row("curvature_peak_norms",
                        [float(v) for v in crep.max_norms]))
    return Report("eh-suite", tuple(rows), seed, tolerances=tol)


def _decay_rows(system, runs, k_frac, trials):
    """The rows that judge decay_trials' runs: every trial decays, at a
    fitted rate of at least mu - 2k - RATE_SLACK_TIMES_MU * mu with
    k = k_frac * mu, its gap |x+| - |x-| grows, and |x+| <= |x-| on the
    decaying ones.  With no decaying trial the least rate is NaN, which
    fails its row."""
    bound = (system.mu - 2 * (k_frac * system.mu)
             - RATE_SLACK_TIMES_MU * system.mu)
    rates = [t.fitted_rate for t, _ in runs if t.decaying]
    return [
        row("decaying_trials", len(rates), trials),
        row("min_fitted_rate", min(rates, default=math.nan), bound,
            provenance="floor"),
        row("gap_monotone_all", all(c.monotone for _, c in runs), True),
        row("gap_dominance_all",
            all(c.dominance for t, c in runs if t.decaying), True),
    ]


def _flow_suite(seed):
    tol = {"integrator_rtol": flow.INTEGRATOR_RTOL, "spectrum_match": 1e-9,
           "rate_slack_times_mu": RATE_SLACK_TIMES_MU, "ratio_drift": 0.10}
    rows = []
    sys22 = flow.build_mode_system(2, 2)
    rows.append(row("mu", sys22.mu, 2 * math.pi))
    rows.append(row("spectrum_table_N2",
                    {str(k): v for k, v in sys22.spectrum_table().items()},
                    {"1": 4, "2": 4, "4": 4, "5": 8, "8": 4}))
    dense = np.linalg.eigvalsh(sys22.dense_operator())
    dev = float(np.max(np.abs(np.sort(sys22.spectrum()) - dense)))
    rows.append(row("blockwise_vs_dense_max_dev", dev,
                    tol["spectrum_match"], provenance="tolerance"))

    system, runs = flow.decay_trials(d=2, N=1, k_frac=0.1, trials=20,
                                     seed=seed)
    rows += _decay_rows(system, runs, 0.1, 20)

    exact, ratios = 0, []
    for i in range(100):
        w = poincare.random_exact_form(2, 2, cutoff=2, seed=seed + i)
        res = poincare.poincare_primitive(w)
        exact += poincare.exterior_derivative(res.primitive) == w
        ratios.append(res.ratio)
    rows.append(row("primitive_bit_exact_count", exact, 100))
    m1 = max(ratios)
    m2, _ = poincare.primitive_ratio_study(2, 2, cutoff=4, n=100, seed=seed)
    rows.append(row("primitive_ratio_drift", abs(m2 - m1) / m1,
                    tol["ratio_drift"], provenance="tolerance"))
    return Report("flow-suite", tuple(rows), seed, tolerances=tol)


BUILTINS = {
    "joyce-T7-Gamma": _joyce,
    "pull-x1": _pull_x1,
    "pull-x3": _pull_x3,
    "gamma1-pull-x7": _gamma1_pull_x7,
    "pull-x5-borcea": _pull_x5_borcea,
    "coassoc-5.2": _coassoc_52,
    "coassoc-5.3": _coassoc_53,
    "eh-suite": _eh_suite,
    "flow-suite": _flow_suite,
}


def list_scenarios():
    return list(BUILTINS)


class Scenario(Frozen):
    """Validated user scenario loaded from JSON.

    generators are (name, signs, shifts) triples, involution is one such
    triple or None, and pull_direction a coordinate or None.
    """

    __slots__ = ("name", "circles", "generators", "involution",
                 "pull_direction", "checks", "expected")


# each check a file may name, with the row ids it prints that
# run_scenario_object compares with an expected value
FILE_CHECKS = {
    "betti": ("group_order", "singular_locus", "quotient_betti",
              "resolved_betti"),
    "moduli": ("cross_section_b2_b3", "moduli_dimension"),
    "coassoc": ("census",),
    "form-invariance": (),
}
_KNOWN_KEYS = ("name", "circles", "generators", "involution", "pull",
               "checks", "expected")
_MAP_KEYS = ("name", "signs", "shift")


def _is_int(value):
    """A JSON integer; true/false parse as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_unknown(keys, known, what):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise InvalidScenario(f"unknown {what} key {unknown[0]!r}; "
                              f"known: {', '.join(known)}")


def _parse_map_spec(spec, circles, what):
    if not isinstance(spec, dict):
        raise InvalidScenario(f"{what} must be an object")
    _reject_unknown(spec, _MAP_KEYS, what)
    signs = spec.get("signs")
    if not isinstance(signs, list) or len(signs) != circles or \
            any(not _is_int(s) or s not in (1, -1) for s in signs):
        raise InvalidScenario(
            f"{what}.signs must be a list of {circles} entries +-1")
    raw_shift = spec.get("shift", ["0"] * circles)
    if not isinstance(raw_shift, list) or len(raw_shift) != circles:
        raise InvalidScenario(
            f"{what}.shift must be a list of {circles} fraction strings")
    shifts = []
    for s in raw_shift:
        if "e" in str(s).lower():
            # Fraction would expand the power of ten: "1e100000000" runs
            # for minutes
            raise InvalidScenario(
                f"{what}.shift entry {s!r}: exponent notation is not accepted")
        try:
            frac = Fraction(str(s))
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidScenario(f"{what}.shift entry {s!r}: {e}") from None
        if frac.denominator > MAX_SHIFT_DENOMINATOR:
            raise InvalidScenario(
                f"{what}.shift entry {s} has denominator above "
                f"{MAX_SHIFT_DENOMINATOR}")
        shifts.append(frac)
    return (str(spec.get("name", what)), tuple(signs), tuple(shifts))


def _parse_int(text):
    """A JSON integer literal.  One longer than Python's digit limit for
    int() is refused here, since int()'s own error would advise a call that
    a file's author cannot make."""
    limit = sys.get_int_max_str_digits()
    digits = len(text.lstrip("-"))
    if limit and digits > limit:
        raise InvalidScenario(f"scenario holds an integer of {digits} digits; "
                              f"at most {limit} are accepted")
    return int(text)


def load_scenario(path):
    """Parse and validate a scenario JSON file."""
    try:
        data = json.loads(Path(path).read_text(), parse_int=_parse_int)
    except OSError as e:
        raise InvalidScenario(f"cannot read scenario: {e}") from None
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, or nesting deeper than the recursion limit
        raise InvalidScenario(f"scenario is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise InvalidScenario("scenario must be a JSON object")
    _reject_unknown(data, _KNOWN_KEYS, "scenario")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidScenario("scenario needs a nonempty string name")
    circles = data.get("circles", 7)
    if not _is_int(circles) or not 1 <= circles <= 8:
        raise InvalidScenario("circles must be an integer in 1..8")
    gens_raw = data.get("generators", [])
    if not isinstance(gens_raw, list) or not gens_raw:
        raise InvalidScenario("scenario needs a nonempty generators list")
    gens = tuple(_parse_map_spec(g, circles, f"generators[{i}]")
                 for i, g in enumerate(gens_raw))
    involution = None
    if "involution" in data:
        involution = _parse_map_spec(data["involution"], circles,
                                     "involution")
    pull_direction = data.get("pull")
    if pull_direction is not None and \
            (not _is_int(pull_direction)
             or not 1 <= pull_direction <= circles):
        raise InvalidScenario(f"pull must be a coordinate in 1..{circles}")
    checks = data.get("checks", ["betti"])
    if not isinstance(checks, list) or not checks:
        raise InvalidScenario("checks must be a nonempty list")
    for i, check in enumerate(checks):
        if check in ("eh", "flow"):
            # the builtin suites read nothing of a file
            mode = "--eh-check" if check == "eh" else "--flow-demo"
            raise InvalidScenario(f"a file has no {check} check; run "
                                  f"g2kit run {check}-suite or g2kit {mode}")
        if not isinstance(check, str) or check not in FILE_CHECKS:
            raise InvalidScenario(f"unknown check {check!r}; known: "
                                  f"{', '.join(FILE_CHECKS)}")
        if check in checks[:i]:
            raise InvalidScenario(f"check {check!r} is named twice")
    if "coassoc" in checks and involution is None:
        raise InvalidScenario("coassoc check needs an involution")
    for check in ("coassoc", "form-invariance"):
        if check in checks and circles != 7:
            # both rows test the G2 3-form phi_0 on R^7
            raise InvalidScenario(f"{check} check needs 7 circles")
    if "moduli" in checks and pull_direction is None:
        raise InvalidScenario("moduli check needs a pull direction")
    if "moduli" in checks and circles < 5:
        # the moduli row reads b^4 of the pulled quotient, which keeps
        # circles - 1 circle coordinates
        raise InvalidScenario("moduli check needs at least 5 circles")
    expected = data.get("expected", {})
    if not isinstance(expected, dict):
        raise InvalidScenario("expected must be an object")
    printer = {key: check for check, keys in FILE_CHECKS.items()
               for key in keys}
    _reject_unknown(expected, tuple(printer), "expected")
    for key in expected:
        if printer[key] not in checks:
            raise InvalidScenario(f"expected key {key!r} is printed only by "
                                  f"the {printer[key]} check, which the "
                                  "file does not name")
    return Scenario(name=name, circles=circles, generators=gens,
                    involution=involution, pull_direction=pull_direction,
                    checks=tuple(checks), expected=dict(expected))


def _build_map(spec):
    name, signs, shifts = spec
    return torus.AffineTorusMap(signs, shifts, name=name)


def run_scenario_object(sc, seed=0):
    """Execute a validated user scenario."""
    exp = sc.expected
    try:
        group = torus.generate_group([_build_map(g) for g in sc.generators])
        pulled = torus.pull(group, sc.pull_direction) \
            if sc.pull_direction else None
    except G2KitError as e:
        raise InvalidScenario(f"scenario construction failed: {e}") from None
    active = pulled if pulled is not None else group
    topology = functools.cache(lambda: _topology(active))

    rows = []
    for check in sc.checks:
        if check == "betti":
            strata, base, res = topology()
            rows.append(row("group_order", active.order,
                            exp.get("group_order")))
            rows.append(row("singular_locus", _summary(strata),
                            exp.get("singular_locus")))
            rows.append(row("quotient_betti", list(base),
                            exp.get("quotient_betti")))
            rows.append(row("resolved_betti", list(res),
                            exp.get("resolved_betti")))
        elif check == "form-invariance":
            rows.append(_phi_row(group.generators))
        elif check == "coassoc":
            # the census always concerns the compact quotient; a pull
            # direction changes the betti and moduli rows only
            rows += _coassoc_rows(_build_map(sc.involution), group,
                                  exp.get("census"))
        elif check == "moduli":
            rows += _moduli_rows(active, sc.pull_direction, topology()[2],
                                 exp.get("cross_section_b2_b3"),
                                 exp.get("moduli_dimension"))
    return Report(sc.name, tuple(rows), seed)


def run_scenario(name_or_path, seed=0):
    """Run a builtin scenario by name, or a scenario JSON file by path."""
    if name_or_path in BUILTINS:
        return BUILTINS[name_or_path](seed)
    p = Path(name_or_path)
    if p.suffix == ".json" or p.exists():
        return run_scenario_object(load_scenario(p), seed)
    raise InvalidScenario(
        f"unknown scenario {name_or_path!r}; builtins: "
        + ", ".join(BUILTINS))
