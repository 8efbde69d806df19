import sys
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, seed, settings, strategies as st

from g2kit import forms, torus
from g2kit.errors import (
    DegenerateMetric,
    DegeneratePlane,
    InvalidOperand,
    NotHyperKahler,
    NotStable,
    SingularMap,
)
from g2kit.exact import det, inverse
from g2kit.forms import (
    KAPPA0_1,
    KAPPA0_2,
    KAPPA0_3,
    PHI0,
    STAR_PHI0,
    ExteriorForm,
    LinearMapR,
    MetricTensor,
    contract,
    cylinder_split,
    dx,
    evaluate,
    g2_from_hyperkahler,
    g2_from_su3,
    hodge_star,
    is_coassociative,
    metric_from_three_form,
    pullback,
    theta,
    wedge,
)
from g2kit.scenarios import run_scenario
from test_exact import reference_det

E7 = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
EUCLID7 = MetricTensor([[int(i == j) for j in range(7)] for i in range(7)])
VOL7 = dx(1, 2, 3, 4, 5, 6, 7, dim=7)


def inner_product(g, a, b):
    """Pointwise inner product of two k-forms induced by the metric g: the
    Gram determinant of g^-1 on each pair of monomials."""
    ginv = inverse(g.matrix)
    total = Fraction(0)
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            gram = [[ginv[p - 1][q - 1] for q in ib] for p in ia]
            total += ca * cb * (det(gram) if ia else 1)
    return total


def rational_forms(dim, degree, max_den=4):
    """Strategy producing sparse rational forms of fixed shape."""
    idx = st.tuples(*[st.integers(1, dim)] * degree)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, max_den))
    return st.dictionaries(idx, coeff, max_size=6).map(
        lambda d: ExteriorForm(dim, degree, d))


def reference_pullback(lin, a):
    """Pullback as a sum of minors: c dx^I goes to
    sum_J c det(L[I, J]) dx^J over increasing J."""
    out = {}
    for idx, c in a.coeffs.items():
        for target in combinations(range(1, a.dim + 1), len(idx)):
            minor = [[lin.matrix[i - 1][j - 1] for j in target] for i in idx]
            out[target] = out.get(target, 0) + c * reference_det(minor)
    return ExteriorForm(a.dim, a.degree, out)


@st.composite
def unimodular_maps(draw):
    """A signed permutation times up to three shears: a random GL(n, Z) map."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    m = [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            c = draw(st.integers(-2, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return LinearMapR(m)


def signed_permutation(perm, signs):
    return LinearMapR([[signs[i] * (1 if perm[i] == j + 1 else 0)
                        for j in range(7)] for i in range(7)])


class TestCanonicalForm:
    def test_keys_are_sorted_with_sign_folded_in(self):
        a = ExteriorForm(7, 2, {(3, 1): Fraction(5)})
        assert a.coeffs == {(1, 3): Fraction(-5)}

    def test_repeated_index_vanishes(self):
        assert not ExteriorForm(7, 2, {(4, 4): 1})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidOperand):
            ExteriorForm(4, 1, {(5,): 1})

    def test_equality_and_hash(self):
        a = ExteriorForm(7, 2, {(1, 2): 1, (2, 3): Fraction(1, 2)})
        b = ExteriorForm(7, 2, {(2, 3): Fraction(1, 2), (2, 1): -1})
        assert a == b and hash(a) == hash(b)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PHI0.dim = 6


# ---------------------------------------------------------------------------
# Reference for the form operations: each one sorts, signs, sums and prunes
# its own output with an accumulate-and-prune loop, and sorts an index by
# counting inversions.  The library hands raw terms to ExteriorForm instead.


def reference_sort(idx):
    """(sorted idx, sign of the sorting permutation), or (None, 0) when an
    index repeats."""
    if len(set(idx)) < len(idx):
        return None, 0
    return tuple(sorted(idx)), (-1) ** sum(a > b for a, b in combinations(idx, 2))


def reference_accumulate(out, raw_idx, c):
    idx, sign = reference_sort(raw_idx)
    if sign == 0:
        return
    total = out.get(idx, Fraction(0)) + sign * c
    if total == 0:
        out.pop(idx, None)
    else:
        out[idx] = total


def reference_terms(pairs):
    out = {}
    for idx, c in pairs:
        reference_accumulate(out, tuple(idx), Fraction(c))
    return out


def reference_add(a, b):
    return reference_terms([*a.coeffs.items(), *b.coeffs.items()])


def reference_wedge_terms(a_terms, b_terms):
    out = {}
    for ia, ca in a_terms.items():
        for ib, cb in b_terms.items():
            reference_accumulate(out, ia + ib, ca * cb)
    return out


def reference_contract(v, a):
    out = {}
    for idx, c in a.coeffs.items():
        for p, i in enumerate(idx):
            if v[i - 1] != 0:
                reference_accumulate(out, idx[:p] + idx[p + 1:],
                                     (-1) ** p * Fraction(v[i - 1]) * c)
    return out


def reference_wedge_pullback(lin, a):
    """c dx^I goes to c (L*dx^{i1}) ∧ ... ∧ (L*dx^{ik}), with the
    reference wedge."""
    ones = [{(j,): x for j, x in enumerate(row, 1) if x} for row in lin.matrix]
    out = {}
    for idx, c in a.coeffs.items():
        term = {(): Fraction(1)}
        for i in idx:
            term = reference_wedge_terms(term, ones[i - 1])
        for target, t in term.items():
            reference_accumulate(out, target, c * t)
    return out


def raw_terms(dim, degree):
    """(index, coefficient) pairs over a small alphabet, so indices repeat
    within a tuple, keys recur in other orders and coefficients cancel."""
    idx = st.tuples(*[st.integers(1, min(dim, degree + 1))] * degree)
    coeff = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)])
    return st.lists(st.tuples(idx, coeff), max_size=8)


def assert_canonical(form, want):
    assert form.coeffs == want
    assert all(c != 0 for c in form.coeffs.values())
    assert all(list(idx) == sorted(set(idx)) for idx in form.coeffs)


class TestCanonicalizer:
    @seed(23)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_raw_terms_in_any_order(self, data, dim):
        degree = data.draw(st.integers(0, dim))
        pairs = data.draw(raw_terms(dim, degree))
        shuffled = data.draw(st.permutations(pairs))
        a = ExteriorForm(dim, degree, pairs)
        b = ExteriorForm(dim, degree, shuffled)
        assert_canonical(a, reference_terms(pairs))
        assert a == b and hash(a) == hash(b)

    @seed(23)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5))
    def test_operations_match_reference_loops(self, data, dim):
        p = data.draw(st.integers(0, dim))
        q = data.draw(st.integers(0, dim - p))
        a = ExteriorForm(dim, p, data.draw(raw_terms(dim, p)))
        a2 = ExteriorForm(dim, p, data.draw(raw_terms(dim, p)))
        b = ExteriorForm(dim, q, data.draw(raw_terms(dim, q)))
        total = a + a2
        assert_canonical(total, reference_add(a, a2))
        assert total == a2 + a and hash(total) == hash(a2 + a)
        assert_canonical(a + (-a), {})
        product = wedge(a, b)
        assert_canonical(product, reference_wedge_terms(a.coeffs, b.coeffs))
        assert product == (-1) ** (p * q) * wedge(b, a)
        if p:
            v = data.draw(st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2)]),
                                   min_size=dim, max_size=dim))
            assert_canonical(contract(v, a), reference_contract(v, a))
        rows = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim,
                                           max_size=dim),
                                  min_size=dim, max_size=dim))
        lin = LinearMapR(rows)
        if lin.det:
            assert_canonical(pullback(lin, a), reference_wedge_pullback(lin, a))

    def test_cancelling_terms_leave_no_key(self):
        a = dx(1, dim=3) + dx(2, dim=3)
        assert_canonical(wedge(a, a), {})
        assert_canonical(ExteriorForm(3, 2, [((1, 2), 1), ((2, 1), 1)]), {})
        assert_canonical(contract([1, 1, 0], dx(1, 3, dim=3) - dx(2, 3, dim=3)), {})


class TestWedgeContract:
    def test_basis_product(self):
        assert wedge(dx(1, dim=7), dx(2, dim=7)) == dx(1, 2, dim=7)

    def test_repeated_index_kills_product(self):
        assert not wedge(dx(1, 2, dim=7), dx(1, 3, dim=7))

    def test_phi0_wedge_dual_is_seven_volumes(self):
        assert wedge(PHI0, STAR_PHI0) == 7 * VOL7

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidOperand):
            wedge(dx(1, dim=7), dx(1, dim=4))

    def test_degree_overflow(self):
        with pytest.raises(InvalidOperand):
            wedge(dx(1, 2, 3, dim=4), dx(1, 2, dim=4))

    def test_contract_basis(self):
        assert contract(E7[0], dx(1, 2, dim=7)) == dx(2, dim=7)
        assert not contract(E7[2], dx(1, 2, dim=7))

    def test_contract_phi0(self):
        expected = ExteriorForm(7, 2, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
        assert contract(E7[0], PHI0) == expected

    def test_contract_degree_zero_rejected(self):
        with pytest.raises(InvalidOperand):
            contract(E7[0], ExteriorForm(7, 0, {(): 1}))

    @settings(max_examples=40, deadline=None)
    @given(rational_forms(5, 1), rational_forms(5, 1))
    def test_odd_degrees_anticommute(self, a, b):
        assert wedge(a, b) == -wedge(b, a)

    @settings(max_examples=40, deadline=None)
    @given(rational_forms(5, 2), rational_forms(5, 1))
    def test_even_times_odd_commutes(self, a, b):
        assert wedge(a, b) == wedge(b, a)

    @settings(max_examples=30, deadline=None)
    @given(rational_forms(6, 1), rational_forms(6, 2), rational_forms(6, 2))
    def test_contraction_is_an_antiderivation(self, v1, a, b):
        # use the coefficient vector of a 1-form as the contraction direction
        v = [v1.coefficient(i) for i in range(1, 7)]
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b))
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(rational_forms(6, 3))
    def test_double_contraction_vanishes(self, a):
        v = [Fraction(1), Fraction(-2), Fraction(3), 0, Fraction(1, 2), 0]
        assert not contract(v, contract(v, a))


class TestPullback:
    def test_identity(self):
        ident = LinearMapR.identity(7)
        assert pullback(ident, PHI0) == PHI0

    def test_flat_form_preserved_by_first_generator_signs(self):
        alpha = LinearMapR.diagonal([1, 1, 1, -1, -1, -1, -1])
        assert pullback(alpha, PHI0) == PHI0

    def test_anti_involution_signs_negate_flat_form(self):
        sigma = LinearMapR.diagonal([-1, 1, 1, 1, 1, -1, -1])
        assert pullback(sigma, PHI0) == -PHI0

    def test_singular_map_rejected(self):
        degenerate = LinearMapR([[0] * 7] * 7)
        with pytest.raises(SingularMap):
            pullback(degenerate, PHI0)

    @settings(max_examples=25, deadline=None)
    @given(rational_forms(4, 2),
           st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_contravariant_functoriality(self, a, rows):
        try:
            m = LinearMapR(rows)
        except InvalidOperand:
            return
        if m.det == 0:
            return
        n = LinearMapR([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
        assert pullback(m.compose(n), a) == pullback(n, pullback(m, a))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), lin=unimodular_maps())
    def test_matches_minor_sum(self, data, lin):
        degree = data.draw(st.integers(0, lin.dim))
        a = data.draw(rational_forms(lin.dim, degree))
        assert lin.det in (1, -1)
        assert pullback(lin, a) == reference_pullback(lin, a)

    def test_top_degree_scales_by_det(self):
        lin = LinearMapR([[2, 1, 0], [0, 1, 0], [1, 0, 3]])
        vol = dx(1, 2, 3, dim=3)
        assert pullback(lin, vol) == lin.det * vol == reference_pullback(lin, vol)

    def test_joyce_scenario_pullback_calls_no_det(self, monkeypatch):
        callers = []

        def counted(rows):
            callers.append(sys._getframe(1).f_code.co_name)
            return det(rows)

        # the torus layer reads the form rows off sign products, with no
        # determinant at all; pulling phi_0 back by the generators' matrices
        # takes one in each LinearMapR and none in pullback
        assert not hasattr(torus, "det")
        monkeypatch.setattr(forms, "det", counted)
        assert run_scenario("joyce-T7-Gamma").all_pass
        assert callers == []
        for g in torus.generate_group([torus.AffineTorusMap(signs) for signs in (
                [1, 1, 1, -1, -1, -1, -1], [1, -1, -1, 1, 1, -1, -1],
                [-1, 1, -1, 1, -1, 1, -1])]):
            assert pullback(LinearMapR.diagonal(g.signs), PHI0) == PHI0
        assert callers and "pullback" not in callers


# order of the group of signed coordinate permutations fixing the flat form,
# counted independently by a brute-force scan in test_stabilizer_census below
FLAT_STABILIZER_ORDER = 1344


def _signed_perm_orbit_scan():
    """Fast scan of all signed permutations acting on the flat form.

    Returns (stabilizer members, count mapping to the negated form).  Works on
    raw coefficient dictionaries to keep the full 168*128 sweep cheap.
    """
    plus = dict(PHI0.coeffs)
    minus = {k: -v for k, v in plus.items()}
    tset = set(map(frozenset, plus))
    fano = [p for p in permutations(range(1, 8))
            if all(frozenset(p[i - 1] for i in t) in tset for t in tset)]
    stab, anti = [], 0
    for p in fano:
        for signs in product([1, -1], repeat=7):
            img = {}
            for idx, c in plus.items():
                raw = (p[idx[0] - 1], p[idx[1] - 1], p[idx[2] - 1])
                inv = sum(1 for a in range(3) for b in range(a + 1, 3)
                          if raw[a] > raw[b])
                img[tuple(sorted(raw))] = (
                    c * signs[idx[0] - 1] * signs[idx[1] - 1]
                    * signs[idx[2] - 1] * (-1) ** inv)
            if img == plus:
                stab.append((p, signs))
            elif img == minus:
                anti += 1
    return fano, stab, anti


class TestMetricFromThreeForm:
    def test_flat_form_gives_identity(self):
        g, vol, stable = metric_from_three_form(PHI0)
        assert stable and g.exact
        assert g == EUCLID7
        assert vol == VOL7

    def test_two_thirds_power_scaling(self):
        g, vol, stable = metric_from_three_form(8 * PHI0)
        assert stable
        assert g.matrix == tuple(tuple(Fraction(4 * int(i == j)) for j in range(7))
                                 for i in range(7))
        assert vol == 128 * VOL7

    def test_single_monomial_is_not_stable(self):
        g, vol, stable = metric_from_three_form(dx(1, 2, 3, dim=7))
        assert not stable and g is None and vol is None

    def test_negated_flat_form_is_not_stable(self):
        assert metric_from_three_form(-PHI0)[2] is False

    def test_irrational_normalization_is_flagged(self):
        g, vol, stable = metric_from_three_form(2 * PHI0)
        assert stable and not g.exact
        # 2^(2/3) to 50 digits; the approximation must square-cube back
        approx = g.matrix[0][0]
        assert abs(approx ** 3 - 4) < Fraction(1, 10 ** 45)

    def test_stabilizer_census(self):
        fano, stab, anti = _signed_perm_orbit_scan()
        assert len(fano) == 168
        assert len(stab) == FLAT_STABILIZER_ORDER
        assert anti == FLAT_STABILIZER_ORDER
        # slow-path agreement plus metric equivariance, on a spread-out sample
        for p, signs in stab[::149]:
            r = signed_permutation(p, signs)
            assert pullback(r, PHI0) == PHI0
            g, vol, stable = metric_from_three_form(pullback(r, PHI0))
            assert stable and g == EUCLID7 and vol == VOL7

    def test_seven_point_self_pairing(self):
        g, _, _ = metric_from_three_form(PHI0)
        assert inner_product(g, PHI0, PHI0) == 7

    def test_self_pairing_on_rotated_forms(self):
        import random
        rng = random.Random(11)
        seen = 0
        for _ in range(100):
            p = list(range(1, 8))
            rng.shuffle(p)
            signs = [rng.choice([1, -1]) for _ in range(7)]
            r = signed_permutation(p, signs)
            if r.det != 1:
                continue
            f = pullback(r, PHI0)
            g, _, stable = metric_from_three_form(f)
            if not stable:
                continue
            assert inner_product(g, f, f) == 7
            seen += 1
            if seen >= 8:
                break
        assert seen >= 8


class TestHodgeStar:
    def test_star_of_one_is_volume(self):
        one = ExteriorForm(7, 0, {(): 1})
        assert hodge_star(EUCLID7, VOL7, one) == VOL7

    def test_star_of_first_coordinate(self):
        assert hodge_star(EUCLID7, VOL7, dx(1, dim=7)) == dx(2, 3, 4, 5, 6, 7, dim=7)

    def test_star_of_flat_form_matches_frozen_dual(self):
        assert hodge_star(EUCLID7, VOL7, PHI0) == STAR_PHI0

    def test_degenerate_metric_rejected(self):
        bad = MetricTensor([[0] * 7 for _ in range(7)])
        with pytest.raises(DegenerateMetric):
            hodge_star(bad, VOL7, PHI0)

    @pytest.mark.parametrize("degree", range(8))
    def test_involution_sign_law(self, degree):
        import random
        rng = random.Random(degree)
        coeffs = {}
        for idx in combinations(range(1, 8), degree):
            if rng.random() < 0.6:
                coeffs[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a = ExteriorForm(7, degree, coeffs)
        twice = hodge_star(EUCLID7, VOL7, hodge_star(EUCLID7, VOL7, a))
        assert twice == (-1) ** (degree * (7 - degree)) * a

    def test_non_euclidean_diagonal_metric(self):
        # diag(1,4,9,16) has rational volume scalar 1*2*3*4 = 24
        g = MetricTensor([[Fraction((i + 1) ** 2 * int(i == j)) for j in range(4)]
                          for i in range(4)])
        vol = ExteriorForm(4, 4, {(1, 2, 3, 4): 24})
        a = dx(1, 2, dim=4)
        starred = hodge_star(g, vol, a)
        # <dx12,dx12> = 1 * 1/4, so star(dx12) = 24/4 dx34
        assert starred == ExteriorForm(4, 2, {(3, 4): 6})
        assert wedge(a, starred) == ExteriorForm(4, 4, {(1, 2, 3, 4): 6})
        back = hodge_star(g, vol, starred)
        assert back == a


class TestTheta:
    def test_flat_value(self):
        assert theta(PHI0) == STAR_PHI0

    def test_four_thirds_scaling(self):
        assert theta(8 * PHI0) == 16 * STAR_PHI0

    def test_not_stable_propagates(self):
        with pytest.raises(NotStable):
            theta(dx(1, 2, 3, dim=7))

    def test_equivariance_under_orientation_preserving_symmetry(self):
        # det +1 sign flip whose image is stable but differs from the flat form
        r = LinearMapR.diagonal([1, 1, 1, 1, 1, -1, -1])
        f = pullback(r, PHI0)
        assert f != PHI0
        g, _, stable = metric_from_three_form(f)
        assert stable and g == EUCLID7
        assert theta(f) == pullback(r, theta(PHI0))


class TestCylinderSplit:
    def test_split_along_first_coordinate(self):
        big, omega = cylinder_split(PHI0, 1)
        assert omega == ExteriorForm(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
        assert big == ExteriorForm(6, 3, {(1, 3, 5): 1, (1, 4, 6): -1,
                                          (2, 3, 6): -1, (2, 4, 5): -1})

    def test_pure_cylinder_term(self):
        omega = ExteriorForm(6, 2, {(2, 5): Fraction(3, 2), (1, 6): -2})
        phi = g2_from_su3(ExteriorForm(6, 3, {}), omega, 3)
        big, back = cylinder_split(phi, 3)
        assert not big and back == omega

    @pytest.mark.parametrize("t_index", range(1, 8))
    def test_round_trip_on_flat_form(self, t_index):
        big, omega = cylinder_split(PHI0, t_index)
        assert g2_from_su3(big, omega, t_index) == PHI0

    @settings(max_examples=40, deadline=None)
    @given(rational_forms(7, 3), st.integers(1, 7))
    def test_round_trip_random(self, phi, t_index):
        big, omega = cylinder_split(phi, t_index)
        assert g2_from_su3(big, omega, t_index) == phi


class TestHyperKahlerAssembly:
    def test_standard_triple_is_stable_with_identity_metric(self):
        phi = g2_from_hyperkahler(KAPPA0_1, KAPPA0_2, KAPPA0_3, (1, 4, 5))
        g, vol, stable = metric_from_three_form(phi)
        assert stable and g == EUCLID7 and vol == VOL7

    def test_swap_symmetry(self):
        a = g2_from_hyperkahler(KAPPA0_1, KAPPA0_2, KAPPA0_3, (1, 4, 5))
        b = g2_from_hyperkahler(KAPPA0_2, KAPPA0_1, -KAPPA0_3, (4, 1, -5))
        assert a == b

    def test_default_layout_reproduces_flat_form(self):
        # the self-dual triple on the last four coordinates, cylinder 1,2,3
        phi = g2_from_hyperkahler(KAPPA0_1, KAPPA0_2, KAPPA0_3, (1, 2, 3))
        assert phi == PHI0

    def test_repeated_kappa_rejected(self):
        with pytest.raises(NotHyperKahler):
            g2_from_hyperkahler(KAPPA0_1, KAPPA0_1, KAPPA0_1)

    def test_mismatched_squares_rejected(self):
        with pytest.raises(NotHyperKahler):
            g2_from_hyperkahler(2 * KAPPA0_1, KAPPA0_2, KAPPA0_3)

    def test_bad_layout_rejected(self):
        with pytest.raises(InvalidOperand):
            g2_from_hyperkahler(KAPPA0_1, KAPPA0_2, KAPPA0_3, (1, 1, 5))

    def test_quaternionic_relations_of_reference_triple(self):
        squares = [wedge(k, k) for k in (KAPPA0_1, KAPPA0_2, KAPPA0_3)]
        assert squares[0] == squares[1] == squares[2]
        assert squares[0] == ExteriorForm(4, 4, {(1, 2, 3, 4): 2})
        for a, b in combinations((KAPPA0_1, KAPPA0_2, KAPPA0_3), 2):
            assert not wedge(a, b)


class TestCoassociative:
    def test_last_four_coordinates(self):
        assert is_coassociative([E7[3], E7[4], E7[5], E7[6]], PHI0)

    def test_middle_four_coordinates(self):
        assert is_coassociative([E7[1], E7[2], E7[3], E7[4]], PHI0)

    def test_first_four_coordinates_fail(self):
        assert not is_coassociative([E7[0], E7[1], E7[2], E7[3]], PHI0)

    def test_spanning_set_must_be_independent(self):
        dependent = [E7[0], E7[1], E7[2],
                     [Fraction(1), Fraction(1), 0, 0, 0, 0, 0]]
        with pytest.raises(DegeneratePlane):
            is_coassociative(dependent, PHI0)

    def test_result_is_basis_independent(self):
        # replace the spanning set by an invertible recombination
        plane = [E7[3], E7[4], E7[5], E7[6]]
        mixed = [
            [a + b for a, b in zip(plane[0], plane[1])],
            [a - b for a, b in zip(plane[1], plane[2])],
            plane[2],
            [3 * a for a in plane[3]],
        ]
        assert is_coassociative(mixed, PHI0)


def test_evaluate_matches_coefficients():
    val = evaluate(PHI0, [E7[0], E7[1], E7[2]])
    assert val == 1
    assert evaluate(PHI0, [E7[1], E7[0], E7[2]]) == -1
    assert evaluate(PHI0, [E7[2], E7[4], E7[5]]) == -1
