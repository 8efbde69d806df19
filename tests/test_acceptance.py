"""Acceptance gate: every contract row, one pass/fail line each.

Each numbered criterion runs inside a class with a wall-clock budget
enforced by an autouse fixture.  Four rows assert recorded target
values that disagree with the arithmetic of their own inputs; those
are marked strict-xfail next to the passing row that records the
computed value, so a silent change in either direction fails loudly.
"""

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import (
    HealthCheck,
    assume,
    given,
    seed,
    settings,
    strategies as st,
)

from g2kit import cli, flow
from g2kit.betti import (
    BettiVector,
    NonSymplecticInvariants,
    borcea_voisin_betti,
    connected_sum_b2,
    holonomy_classification,
    kunneth_s1,
    moduli_dimension,
    open_cy_betti,
    resolve_betti,
)
from g2kit.eguchi_hanson import (
    TOLERANCES,
    curvature_injectivity_scaling_probe,
    flat_deviation,
    potential,
    ricci_ratio,
    sample_points,
    scaling_identity_probe,
)
from g2kit.flow import build_mode_system, decay_trials
from g2kit.forms import PHI0, evaluate, is_coassociative, wedge
from g2kit.poincare import (
    exterior_derivative,
    poincare_primitive,
    primitive_ratio_study,
    random_exact_form,
)
from g2kit.errors import G2KitError
from g2kit.scenarios import (
    Report,
    Scenario,
    load_scenario,
    report_to_json,
    run_scenario_object,
)
from g2kit.torus import (
    AffineTorusMap,
    check_preserves_form,
    count_ends,
    cross_section_group,
    fixed_set,
    generate_group,
    involution_fixed_census,
    pull,
    quotient_betti,
    singular_locus,
)
from test_forms import (
    E7,
    EUCLID7,
    KAPPA0,
    KAPPA0_1,
    KAPPA0_2,
    KAPPA0_3,
    STAR_PHI0,
    VOL7,
    hyperkahler_form,
    induced_metric,
    star,
)
from test_torus import apply

H = Fraction(1, 2)
D = AffineTorusMap


def alpha():
    return D([1, 1, 1, -1, -1, -1, -1], name="alpha")


def beta():
    return D([1, -1, -1, 1, 1, -1, -1], [0, 0, 0, 0, 0, H, 0], name="beta")


def gamma():
    return D([-1, 1, -1, 1, -1, 1, -1], [0, 0, 0, 0, H, 0, H], name="gamma")


def gamma1():
    return D([-1, 1, -1, 1, -1, 1, -1], [0, 0, H, 0, H, 0, 0], name="gamma1")


def sigma_52():
    return D([-1, 1, 1, 1, 1, -1, -1], [H, 0, 0, 0, 0, H, H], name="sigma")


def sigma_53():
    return D([-1, -1, -1, 1, 1, 1, 1], [H, H, H, 0, 0, 0, 0], name="sigmap")


def note(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def resolved(group):
    return resolve_betti(quotient_betti(group), singular_locus(group))


BUDGETS = {
    "TestCriterion1ExactTopology": (5.0, "criterion 1"),
    "TestCriterion2FlatFormAlgebra": (1.0, "criterion 2"),
    "TestCriterion3EguchiHanson": (30.0, "criterion 3"),
    "TestCriterion4DecayFlow": (60.0, "criterion 4"),
    "TestCriterion5PoincarePrimitive": (10.0, "criterion 5"),
    "TestLargeUserGroup": (5.0, "T^8 group of order 1024"),
    "TestSignFlipUserGroup": (3.5, "all sign flips of T^7, 2186 strata"),
    "TestSignFlipT8UserGroup": (2.5, "all sign flips of T^8, 6560 strata"),
    "TestPulledUserGroup": (2.0, "pulled T^7 group of order 1024"),
    "TestScenarioFileFuzz": (10.0, "300 fuzzed scenario files"),
    "TestFlowDemoFuzz": (20.0, "200 fuzzed --flow-demo requests"),
}


@pytest.fixture(scope="class", autouse=True)
def class_budget(request):
    entry = BUDGETS.get(request.cls.__name__ if request.cls else "")
    if entry is None:
        yield
        return
    seconds, label = entry
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"{label} runtime {dt:.2f}s (budget {seconds:g}s)")
    assert dt < seconds


@pytest.fixture(scope="module")
def the_group():
    return generate_group([alpha(), beta(), gamma()])


@pytest.fixture(scope="module")
def pulls(the_group):
    out = {}
    for i in (1, 3):
        P = pull(the_group, i)
        out[i] = (P, resolved(P), resolved(cross_section_group(P, i)))
    G1 = generate_group([alpha(), beta(), gamma1()])
    P7 = pull(G1, 7)
    out[7] = (P7, resolved(P7), resolved(cross_section_group(P7, 7)))
    return out


class TestCriterion1ExactTopology:
    """Exact-integer golden suite, zero tolerance."""


    def test_group_order_is_8(self, the_group):
        note("order of the group is 8", the_group.order == 8)

    def test_each_generator_fixes_16_three_tori(self):
        for g in (alpha(), beta(), gamma()):
            comps = fixed_set(g)
            note(f"{g.name} fixes 16 copies of T3",
                 len(comps) == 16 and all(s.torus_dim == 3 for s in comps))

    def test_all_proper_products_act_freely(self):
        a, b, g = alpha(), beta(), gamma()
        for name, f in (("alpha*beta", a.compose(b)),
                        ("beta*gamma", b.compose(g)),
                        ("gamma*alpha", g.compose(a)),
                        ("alpha*beta*gamma", a.compose(b).compose(g))):
            note(f"{name} acts freely", fixed_set(f) == [])

    def test_singular_locus_is_12_t3_in_three_orbit_families(self, the_group):
        locus = singular_locus(the_group)
        # the family of a stratum: the generator fixing its representative
        families = Counter(
            next(g.name for g in (alpha(), beta(), gamma())
                 if apply(g, s.offset) == s.offset) for s in locus)
        note("singular locus is 12 x T3 with orbit counts 4+4+4",
             len(locus) == 12
             and all(s.type_label == "T3" and s.count == 4 for s in locus)
             and sorted(families.values()) == [4, 4, 4])

    def test_quotient_betti_vector(self, the_group):
        note("b(T7/G) = (1,0,0,7,7,0,0,1)",
             list(quotient_betti(the_group)) == [1, 0, 0, 7, 7, 0, 0, 1])

    def test_resolution_betti(self, the_group):
        res = resolved(the_group)
        note("resolved b2 = 12 and b3 = 43", (res[2], res[3]) == (12, 43))

    def test_pull_x1_base_betti(self, pulls):
        base = quotient_betti(pulls[1][0])
        note("x1 pull base (b2..b5) = (0,4,3,0)",
             [base.get(k) for k in range(2, 6)] == [0, 4, 3, 0])

    def test_pull_x1_strata(self, pulls):
        labels = Counter(s.type_label for s in singular_locus(pulls[1][0]))
        note("x1 pull strata are 8 x T2xR + 2 x T3",
             labels == {"T2xR": 8, "T3": 2})

    def test_pull_x1_resolved(self, pulls):
        res = pulls[1][1]
        note("x1 pull resolved (b2..b5) = (10,26,17,2)",
             [res[k] for k in range(2, 6)] == [10, 26, 17, 2])

    def test_x1_cross_section_is_x19(self, pulls):
        cres = pulls[1][2]
        note("x1 cross-section has b2 = 19, b3 = 40",
             (cres[2], cres[3]) == (19, 40))

    def test_x1_moduli_dimension(self, pulls):
        res, cres = pulls[1][1], pulls[1][2]
        note("x1 moduli dimension = 36",
             moduli_dimension(res[4], cres[3], res[1]) == 36)

    def test_pull_x3_strata(self, pulls):
        labels = Counter(s.type_label for s in singular_locus(pulls[3][0]))
        note("x3 pull strata are 4 x T3 + 4 x T2xR",
             labels == {"T3": 4, "T2xR": 4})

    def test_pull_x3_resolved(self, pulls):
        res = pulls[3][1]
        note("x3 pull resolved (b2..b5) = (8,24,19,4)",
             [res[k] for k in range(2, 6)] == [8, 24, 19, 4])

    def test_x3_cross_section_is_x11(self, pulls):
        cres = pulls[3][2]
        note("x3 cross-section has b2 = 11, b3 = 24",
             (cres[2], cres[3]) == (11, 24))

    def test_x3_moduli_dimension_computed(self, pulls):
        res, cres = pulls[3][1], pulls[3][2]
        note("x3 moduli dimension = 30 from b4 = 19, b3 = 24",
             moduli_dimension(res[4], cres[3], res[1]) == 30)

    @pytest.mark.xfail(strict=True, reason=(
        "the recorded target 31 is inconsistent with its own inputs: "
        "b4 = 19 and cross-section b3 = 24 give 19 + 24/2 - 1 = 30"))
    def test_x3_moduli_dimension_recorded(self, pulls):
        res, cres = pulls[3][1], pulls[3][2]
        assert moduli_dimension(res[4], cres[3], res[1]) == 31

    def test_gamma1_x7_resolved_computed(self, pulls):
        res = pulls[7][1]
        note("gamma1 x7 pull resolved (b2..b5) = (6,22,21,6)",
             [res[k] for k in range(2, 6)] == [6, 22, 21, 6])

    @pytest.mark.xfail(strict=True, reason=(
        "the recorded target (6,22,20,6) disagrees with the stratum "
        "bookkeeping: base b4 = 3 plus 6 strata contributing b2(T3) = 3 "
        "each gives 21"))
    def test_gamma1_x7_resolved_recorded(self, pulls):
        res = pulls[7][1]
        assert [res[k] for k in range(2, 6)] == [6, 22, 20, 6]

    def test_gamma1_x7_moduli_computed(self, pulls):
        res, cres = pulls[7][1], pulls[7][2]
        note("gamma1 x7 moduli dimension = 24 from b4 = 21, b3 = 8",
             moduli_dimension(res[4], cres[3], res[1]) == 24)

    @pytest.mark.xfail(strict=True, reason=(
        "the recorded 23 follows from the recorded b4 = 20; the computed "
        "b4 = 21 gives 21 + 8/2 - 1 = 24"))
    def test_gamma1_x7_moduli_recorded(self, pulls):
        res, cres = pulls[7][1], pulls[7][2]
        assert moduli_dimension(res[4], cres[3], res[1]) == 23

    def test_gamma1_x7_cross_section_is_free(self, pulls):
        cres = pulls[7][2]
        note("gamma1 x7 cross-section has b2 = 3, b3 = 8",
             (cres[2], cres[3]) == (3, 8))

    def test_building_block_arithmetic_chain(self):
        bv = borcea_voisin_betti(NonSymplecticInvariants(10, 8))
        note("(r,a) = (10,8) gives blown-up quotient (b2,b3) = (15,8)",
             tuple(bv) == (15, 8))
        w = open_cy_betti(bv[0], bv[1], 10)
        note("open piece has (b2,b3) = (14,20) with kernel rank 4",
             tuple(w) == (14, 20, 4))
        s1w = kunneth_s1(BettiVector([1, 0, w[0], w[1]]))
        note("S1 x W has (b2,b3) = (14,34)", (s1w[2], s1w[3]) == (14, 34))
        note("connected_sum_b2(4,4,4) = 12", connected_sum_b2(4, 4, 4) == 12)

    def test_census_example_one(self, the_group):
        cen = involution_fixed_census(sigma_52(), the_group)
        labels = Counter(s.type_label for s in cen)
        note("first census is 16 points + 1 x T4",
             labels == {"point": 16, "T4": 1})

    def test_census_example_one_half(self, the_group):
        P = pull(the_group, 4)
        s = sigma_52()
        lifted = AffineTorusMap(s.signs, s.shift, P.lines, s.name)
        labels = Counter(c.type_label for c in involution_fixed_census(lifted, P))
        note("half census is 8 points + 1 x T3xR",
             labels == {"point": 8, "T3xR": 1})

    def test_census_example_two_computed(self, the_group):
        cen = involution_fixed_census(sigma_53(), the_group)
        labels = Counter(s.type_label for s in cen)
        note("second census is 32 orbifold points + 2 x T4/pm1",
             labels == {"point": 32, "T4/pm1": 2})

    @pytest.mark.xfail(strict=True, reason=(
        "the recorded count of 16 points halves the orbit count: 128 fixed "
        "points upstairs in orbits of 4 give 32 point images, all lying on "
        "the two T4/pm1 components"))
    def test_census_example_two_recorded(self, the_group):
        cen = involution_fixed_census(sigma_53(), the_group)
        labels = Counter(s.type_label for s in cen)
        assert labels == {"point": 16, "T4/pm1": 2}

    def test_reference_form_signs(self):
        for g in (alpha(), beta(), gamma(), gamma1()):
            note(f"{g.name} preserves the flat 3-form",
                 check_preserves_form(g, PHI0, 1))
        for s in (sigma_52(), sigma_53()):
            note(f"{s.name} negates the flat 3-form",
                 check_preserves_form(s, PHI0, -1))


def random_plane(rng):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(7)] for _ in range(4)]


def restriction_vanishes(plane):
    triples = [[plane[i] for i in range(4) if i != skip] for skip in range(4)]
    return all(evaluate(PHI0, t) == 0 for t in triples)


class TestCriterion2FlatFormAlgebra:
    """Exact identities of the reference 3-form."""


    def test_metric_of_flat_form_is_identity(self):
        note("g(phi0) is the identity with the standard volume",
             induced_metric(PHI0) == (EUCLID7, 1))

    def test_star_of_flat_form(self):
        note("*phi0 equals the frozen 7-term dual 4-form",
             star(PHI0) == STAR_PHI0
             and len(STAR_PHI0.coeffs) == 7)

    def test_seven_volume_pairing(self):
        note("phi0 wedge *phi0 = 7 vol", wedge(PHI0, STAR_PHI0) == 7 * VOL7)

    def test_hyperkahler_triple_assembles_flat_structure(self):
        phi = hyperkahler_form(KAPPA0, (1, 4, 5))
        note("standard self-dual triple gives a stable form with identity "
             "metric", induced_metric(phi) == (EUCLID7, 1))

    def test_swap_transformation_fixes_assembled_form(self):
        a = hyperkahler_form(KAPPA0, (1, 4, 5))
        b = hyperkahler_form((KAPPA0_2, KAPPA0_1, -KAPPA0_3), (4, 1, -5))
        note("swapping the first two kappas and negating the third fixes "
             "the assembled form", a == b)

    def test_named_coassociative_planes(self):
        for label, plane in (("e4..e7", [E7[3], E7[4], E7[5], E7[6]]),
                             ("e2..e5", [E7[1], E7[2], E7[3], E7[4]])):
            note(f"span({label}) is coassociative",
                 is_coassociative(plane, PHI0))
            note(f"*phi0 is nonzero on span({label})",
                 evaluate(STAR_PHI0, plane) != 0)

    def test_random_planes_cross_checked_by_restriction(self):
        rng = random.Random(20260815)
        checked = 0
        while checked < 100:
            plane = random_plane(rng)
            if restriction_vanishes(plane):
                continue
            assert not is_coassociative(plane, PHI0)
            checked += 1
        note("100 random non-coassociative planes rejected, each "
             "cross-checked by direct restriction", checked == 100)


class TestCriterion3EguchiHanson:
    """Numerical tolerances for the scale family of ALE metrics."""


    def test_ricci_flat_to_tolerance(self):
        worst = 0.0
        for s in (0.5, 1.0, 2.0):
            worst = max(worst, *ricci_ratio(s, sample_points(20, s, seed=0)))
        note(f"|Ricci|/|h| < 1e-6 at 20 points for each scale "
             f"(worst {worst:.2e})", worst < TOLERANCES["ricci"])

    def test_flat_limit_and_asymptotics(self):
        dev = flat_deviation(1.0, 1000.0 + 0j, 0j)
        note(f"metric is flat to 1e-6 at r/s = 1e3 (dev {dev:.2e})",
             dev < 1e-6)
        rel = abs(potential(1.0, 1000.0) / 1000.0 ** 2 - 1)
        note(f"potential approaches r^2 to 1e-6 at r/s = 1e3 "
             f"(rel {rel:.2e})", rel < 1e-6)

    def test_scaling_probe_unique_identity(self):
        probe = scaling_identity_probe(1.0, 2.0, sample_points(10, 1.0, seed=0))
        margin = probe.matches_lambda_s / max(probe.matches_s_over_lambda,
                                              1e-300)
        note(f"dilation matches the s/lambda rescaling only, margin "
             f"{margin:.1e}", probe.verdict == "s/lambda" and margin >= 1e6)

    def test_curvature_slope(self):
        rep = curvature_injectivity_scaling_probe([0.5, 1.0, 2.0])
        note(f"peak curvature slope {rep.slope:.3f} within -2 +- 0.1",
             abs(rep.slope + 2.0) <= 0.1)


class TestCriterion4DecayFlow:
    """Spectral oracle and seeded nonlinear decay trials."""


    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_spectrum_matches_dense_oracle(self, d, N):
        system = build_mode_system(d, N)
        dense = np.linalg.eigvalsh(system.dense_operator())
        exact = np.sort(system.spectrum())
        dev = float(np.max(np.abs(exact - dense)))
        counts = Counter(int(round((e / (2 * math.pi)) ** 2)) * (1 if e > 0 else -1)
                         for e in dense)
        expected = {}
        for k, r in system.spectrum_table().items():
            expected[k] = expected[-k] = r
        note(f"d={d} N={N}: dense spectrum matches exact multiplicities "
             f"(max dev {dev:.1e})", dev < 1e-9 and counts == expected)

    def test_twenty_seeded_trials(self):
        system, runs = decay_trials(d=2, N=1, k_frac=0.1, trials=20, seed=0)
        mu = system.mu
        bound = mu - 2 * (mu / 10) - 0.05 * mu
        rates = [t.fitted_rate for t, _ in runs if t.decaying]
        note(f"all 20 trials decay with fitted rate >= {bound:.3f} "
             f"(min {min(rates):.3f})",
             len(rates) == 20 and all(r >= bound for r in rates))
        note("norm-gap monotonicity holds on all decaying trajectories",
             all(c.monotone for t, c in runs if t.decaying))
        note("minus-norm dominance holds on all decaying trajectories",
             all(c.dominance for t, c in runs if t.decaying))


class TestCriterion5PoincarePrimitive:
    """Exact primitives in the discrete cylinder complex."""


    def test_hundred_random_exact_forms_bit_exact(self):
        ok = 0
        for i in range(100):
            w = random_exact_form(2, 2, cutoff=2, seed=i)
            res = poincare_primitive(w)
            ok += exterior_derivative(res.primitive) == w
        note("d(chi) reproduces all 100 random exact forms bit-exactly",
             ok == 100)

    def test_refinement_drift(self):
        m2, _ = primitive_ratio_study(2, 2, cutoff=2, n=100, seed=0)
        m4, _ = primitive_ratio_study(2, 2, cutoff=4, n=100, seed=0)
        drift = abs(m4 - m2) / m2
        note(f"norm-ratio drift under refinement doubling is "
             f"{drift:.1%} < 10%", drift < 0.10)


class TestLargeUserGroup:
    """A user scenario at the group-size bound: <-Id, 1/2 e1..1/2 e8, 1/4 e1>
    on T^8, |G| = 1024 (512 translations), through run_scenario_object."""

    def test_negid_translations_t8(self):
        n = 8
        zero = (Fraction(0),) * n

        def step(i, size):
            return tuple(Fraction(size) if j == i else Fraction(0)
                         for j in range(n))

        gens = [("minus", (-1,) * n, zero)]
        gens += [(f"half{i + 1}", (1,) * n, step(i, H)) for i in range(n)]
        gens.append(("quarter1", (1,) * n, step(0, Fraction(1, 4))))
        scenario = Scenario(
            name="negid-translations-T8", circles=n, generators=tuple(gens),
            involution=None, pull_direction=None, checks=("betti",),
            expected={"group_order": 1024, "singular_locus": "256xpoint",
                      "quotient_betti": [1, 0, 28, 0, 70, 0, 28, 0, 1],
                      "resolved_betti": [1, 0, 284, 0, 70, 0, 28, 0, 1]})
        rows = run_scenario_object(scenario).rows
        note("T^8 / <-Id, 1/2 e1..e8, 1/4 e1>: order 1024, 256 points, b2 = 284",
             [r.check for r in rows] == list(scenario.expected)
             and all(r.passed for r in rows))


class TestSignFlipUserGroup:
    """A scenario file with all seven coordinate sign flips of T^7: the
    point group has order 128 = 2^circles, the most a 7-circle file of +-1
    signs can give, and 2186 = 3^7 - 1 strata, loaded and run as the CLI
    does.  The resolved Betti row is left unpinned: the group holds
    reflections, whose fixed sets bound the quotient."""

    def test_all_sign_flips_t7(self, tmp_path):
        note("T^7 / all sign flips: order 128, 2186 strata", signflip_file_passes(
            tmp_path, 7, {"group_order": 128,
                          "singular_locus": "14xT6+84xT5+280xT4+560xT3+672xT2"
                                            "+448xT1/pm1+128xpoint",
                          "quotient_betti": [1, 0, 0, 0, 0, 0, 0, 0]}))


class TestSignFlipT8UserGroup:
    """The same file for T^8: a point group of order 256 = 2^8 and
    3^8 - 1 = 6560 strata, the largest input a scenario file can give."""

    def test_all_sign_flips_t8(self, tmp_path):
        note("T^8 / all sign flips: order 256, 6560 strata", signflip_file_passes(
            tmp_path, 8, {"group_order": 256,
                          "singular_locus": "16xT7+112xT6+448xT5+1120xT4+1792xT3"
                                            "+1792xT2+1024xT1/pm1+256xpoint",
                          "quotient_betti": [1, 0, 0, 0, 0, 0, 0, 0, 0]}))


def signflip_file_passes(tmp_path, n, expected):
    """Write the scenario file of all n coordinate sign flips of T^n with a
    betti check, load and run it as the CLI does, and say whether every
    expected row passes."""
    doc = {"name": f"signflips-T{n}", "circles": n, "checks": ["betti"],
           "generators": [{"name": f"s{i + 1}",
                           "signs": [-1 if j == i else 1 for j in range(n)]}
                          for i in range(n)],
           "expected": expected}
    path = tmp_path / f"signflips-T{n}.json"
    path.write_text(json.dumps(doc))
    rows = {r.check: r for r in run_scenario_object(load_scenario(path)).rows}
    return all(rows[check].passed for check in expected)


class TestPulledUserGroup:
    """The pulled half of Joyce's alpha, beta, gamma with the translations
    1/2 e1, 1/4 e2, 1/4 e4, 1/2 e6 and 1/2 e7, |G| = 1024, pulled along x3
    with the betti and moduli checks, loaded from its file as the CLI does.
    The moduli row closes the cross-section group of order 512.  The
    resolved rows are left unpinned: the strata have stabilizer orders
    32..128, beyond the A1 model the resolution assumes."""

    def test_pulled_order_1024(self):
        path = Path(__file__).parent / "data" / "joyce-half-pull-x3-order-1024.json"
        scenario = load_scenario(path)
        rows = {r.check: r for r in run_scenario_object(scenario).rows}
        note("T^6 x R / order 1024: 16 T3 + 16 T2xR strata, b3 = 4, b4 = 3",
             list(scenario.expected) == ["group_order", "singular_locus",
                                         "quotient_betti"]
             and all(rows[check].passed for check in scenario.expected)
             and isinstance(rows["moduli_dimension"].computed, int))


# the checks that read a scenario file's maps; eh and flow run the fixed
# builtin suites whatever the file holds, and have budgets of their own
FILE_CHECKS = ("betti", "moduli", "coassoc", "form-invariance")
# a map's shift entries: none, halves, which every zero-shift involution
# normalizes, or n/d with d up to the loader's bound of 16.  Two thirds of
# the maps keep their translations of order 1 or 2, so that most groups
# stay far below GROUP_SIZE_BOUND.
SHIFTS = (None, st.sampled_from(["0", "1/2"]), st.builds(
    "{}/{}".format, st.integers(-16, 32), st.integers(1, 16)))
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/0", "1e9", "1/17", "0.25", "-1/2", "x"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def scenario_files(draw):
    """The bytes of a scenario file: a well-formed document over 1..8
    circles, the same with one value replaced by junk, an unknown key, any
    subset of the checks or its text cut short, or arbitrary bytes.  Half
    the documents have 7 circles, which the coassoc and form-invariance
    checks need."""
    circles = draw(st.just(7) | st.integers(1, 8))

    def map_spec(name):
        spec = {"name": name, "signs": draw(st.lists(
            st.sampled_from([1, -1]), min_size=circles, max_size=circles))}
        entries = draw(st.sampled_from(SHIFTS))
        if entries is not None:
            spec["shift"] = draw(st.lists(entries, min_size=circles,
                                          max_size=circles))
        return spec

    doc = {"name": draw(st.text(min_size=1, max_size=6)), "circles": circles,
           "generators": [map_spec(f"g{i}")
                          for i in range(draw(st.integers(1, 3)))]}
    if draw(st.booleans()):
        doc["involution"] = map_spec("sigma")
    if draw(st.booleans()):
        doc["pull"] = draw(st.integers(1, circles))
    # the checks the document can pass validation with
    allowed = ["betti"]
    if "pull" in doc and circles >= 5:
        allowed.append("moduli")
    if circles == 7:
        allowed += ["coassoc"] * ("involution" in doc) + ["form-invariance"]
    doc["checks"] = draw(st.lists(st.sampled_from(allowed), min_size=1,
                                  max_size=3, unique=True))
    if draw(st.booleans()):
        doc["expected"] = {"group_order": draw(st.integers(1, 64))}
    defect = draw(st.sampled_from(
        [None, None, None, "junk", "unknown", "checks", "cut", "bytes"]))
    if defect == "junk":
        target = draw(st.sampled_from(
            [doc, *doc["generators"], doc.get("involution", doc)]))
        target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
    elif defect == "unknown":
        doc[draw(st.text(max_size=6))] = draw(JUNK)
    elif defect == "checks":
        doc["checks"] = draw(st.lists(st.sampled_from(FILE_CHECKS),
                                      max_size=4))
    text = json.dumps(doc).encode()
    if defect == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif defect == "bytes":
        text = draw(st.binary(max_size=40))
    return text


class TestScenarioFileFuzz:
    """Any scenario file, valid or not, loaded and run in-process as
    g2kit run does: it ends in a report that serializes, or in a
    G2KitError (exit 2), and never in another exception."""

    @seed(32)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=scenario_files())
    def test_file_ends_in_report_or_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-scenario.json"
        path.write_bytes(data)
        try:
            report = run_scenario_object(load_scenario(path))
        except G2KitError:
            return
        assert isinstance(report, Report)
        json.loads(report_to_json(report))


# a --flow-demo request this test runs to the end has dim^3 x trials at
# most this; only d = 2, N = 1 (dim 16) with up to 16 trials is that small
RUN_WORK = 2 ** 16


@st.composite
def flow_demo_requests(draw):
    """The values of --d, --N, --k-frac, --trials and --seed: either drawn
    wide, mostly refused, or a valid request small enough to run."""
    if draw(st.booleans()):
        return {"d": 2, "N": 1, "trials": draw(st.integers(1, 16)),
                "k-frac": draw(st.floats(0, 0.5, exclude_min=True,
                                         exclude_max=True)),
                "seed": draw(st.integers(0, 2 ** 64))}
    # each value is often valid, so that many requests pass every check
    # but the work budget
    return {
        "d": draw(st.integers(2, 6) | st.integers(0, 8)),
        "N": draw(st.integers(1, 3) | st.integers(-1, 400)),
        "trials": draw(st.integers(1, 40) | st.integers(-3, 10 ** 12)),
        "k-frac": draw(st.floats(0.01, 0.49)
                       | st.sampled_from([0.0, 0.5, math.nan, math.inf,
                                          -math.inf, -0.1, -5e-324])
                       | st.floats()),
        "seed": draw(st.integers(0, 2 ** 64) | st.integers(-3, 3)),
    }


def flow_demo_size(d, n):
    """The dimension of the mode system a request builds, from the sizes
    the flow layer documents, or None when it refuses (d, N)."""
    if not 2 <= d <= 6 or n < 1:
        return None
    dim = ((2 * n + 1) ** d - 1) * 2 * math.comb(d - 1, min(3, d) - 1)
    return dim if dim <= flow.MAX_DIMENSION else None


class TestFlowDemoFuzz:
    """Any --flow-demo request, run in-process through cli.main: it ends in
    exit 0 or 1 with a JSON payload, or in exit 2 with one error: line, and
    nothing else escapes.  A request over the work budget, or refused for
    any other reason, exits 2 before a mode system is built."""

    @seed(33)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(request=flow_demo_requests())
    def test_request_ends_in_exit_0_1_or_2(self, capsys, request):
        d, n, trials, k_frac = (request[k] for k in ("d", "N", "trials",
                                                     "k-frac"))
        dim = flow_demo_size(d, n)
        runs = (dim is not None and trials >= 1 and 0 < k_frac < 0.5
                and request["seed"] >= 0
                and dim ** 3 * trials <= flow.MAX_TRIAL_WORK)
        # a valid request above RUN_WORK would run for seconds or minutes
        assume(not runs or dim ** 3 * trials <= RUN_WORK)
        built, build = [], flow.build_mode_system

        def spy(d, N):
            built.append(build(d, N))
            return built[-1]

        capsys.readouterr()
        argv = ["--flow-demo"] + [f"--{k}={v!r}" for k, v in request.items()]
        with mock.patch.object(flow, "build_mode_system", spy):
            with pytest.raises(SystemExit) as stop:
                cli.main(argv)
        out, err = capsys.readouterr()
        if runs:
            assert stop.value.code in (0, 1), err
            assert len(json.loads(out)["fitted_rates"]) == trials
            assert [(s.d, s.N, s.dim) for s in built] == [(d, n, dim)]
        else:
            assert stop.value.code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert built == []


class TestHolonomyVerdicts:
    """Classification agrees with the recorded outcomes for each end."""

    def verdict(self, gens, direction):
        P = pull(generate_group(gens), direction)
        res = resolved(P)
        ends = count_ends(P, direction)
        return holonomy_classification(res[1] == 0, ends, res[1] > 0)

    def test_full_holonomy_cases(self):
        note("x1 pull has full holonomy",
             self.verdict([alpha(), beta(), gamma()], 1) == "full_G2")
        note("x3 pull has full holonomy",
             self.verdict([alpha(), beta(), gamma()], 3) == "full_G2")
        note("gamma1 x7 pull has full holonomy",
             self.verdict([alpha(), beta(), gamma1()], 7) == "full_G2")

    def test_reducible_case(self):
        note("x5 pull of the two-generator group is reducible (b1 = 1)",
             self.verdict([alpha(), beta()], 5) == "reducible")
