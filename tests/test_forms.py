"""The exterior algebra and the flat G2 form.

The flat-form identities (Joyce, *Compact manifolds with special holonomy*,
2000) are checked against a test-local oracle: the basis monomial dx and
the signed coefficient reader, the metric a 3-form induces,
the Hodge star of a diagonal metric, theta(phi), the split along one
coordinate and the hyper-Kahler assembly.  test_acceptance imports it too.
"""

import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import given, seed, settings, strategies as st

from g2kit import forms, torus
from g2kit.errors import DegeneratePlane, InvalidOperand, SingularMap
from g2kit.exact import det, mat_mul
from g2kit.forms import (
    PHI0,
    ExteriorForm,
    LinearMapR,
    evaluate,
    is_coassociative,
    pullback,
    wedge,
)
from g2kit.scenarios import run_scenario
from test_exact import reference_det

def dx(*indices, dim):
    """Basis monomial dx^{i1...ik} with unit coefficient."""
    return ExteriorForm(dim, len(indices), {indices: 1})


def coefficient(a, *indices):
    """The coefficient of a on dx^{i1...ik}, signed by the sort of the
    indices, and 0 when one repeats."""
    idx, sign = reference_sort(indices)
    return sign * a.coeffs.get(idx, Fraction(0))


E7 = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
EUCLID7 = [[int(i == j) for j in range(7)] for i in range(7)]
VOL7 = dx(1, 2, 3, 4, 5, 6, 7, dim=7)

# The dual of PHI0 in the Euclidean metric.
STAR_PHI0 = ExteriorForm(7, 4, {
    (4, 5, 6, 7): 1, (2, 3, 6, 7): 1, (2, 3, 4, 5): 1, (1, 3, 5, 7): 1,
    (1, 3, 4, 6): -1, (1, 2, 5, 6): -1, (1, 2, 4, 7): -1,
})

# Self-dual triple on R^4 satisfying the quaternionic wedge relations.
KAPPA0_1 = ExteriorForm(4, 2, {(1, 2): 1, (3, 4): 1})
KAPPA0_2 = ExteriorForm(4, 2, {(1, 3): 1, (4, 2): 1})
KAPPA0_3 = ExteriorForm(4, 2, {(1, 4): 1, (2, 3): 1})
KAPPA0 = (KAPPA0_1, KAPPA0_2, KAPPA0_3)


def contract(v, a):
    """Interior product v ⌟ a."""
    return ExteriorForm(a.dim, a.degree - 1,
                        [(idx[:p] + idx[p + 1:], (-1) ** p * v[i - 1] * c)
                         for idx, c in a.coeffs.items()
                         for p, i in enumerate(idx)])


def induced_metric(phi):
    """(g, t): the metric g that a 3-form on R^7 induces and its volume
    form t dx^{1...7}, or None when phi is not stable (B not positive).

    B_ij = ((e_i ⌟ phi) ∧ (e_j ⌟ phi) ∧ phi) / dx^{1...7} equals
    6 t g_ij with t^2 = det g, so det B = 6^7 t^9.  The forms tested here
    have rational t; the assertion stops any other."""
    b = [[coefficient(wedge(wedge(contract(u, phi), contract(v, phi)), phi),
                      *range(1, 8)) for v in E7] for u in E7]
    if any(det([row[:k] for row in b[:k]]) <= 0 for k in range(1, 8)):
        return None
    q = det(b) / 6 ** 7
    t = Fraction(float(q) ** (1 / 9)).limit_denominator(1000)
    assert t ** 9 == q, f"volume normalization {q}^(1/9) is not rational"
    return [[x / (6 * t) for x in row] for row in b], t


def star(a, g=None, t=1):
    """Hodge star for the diagonal metric g (Euclidean when None) and the
    volume form t dx^{1...n}: b ∧ *a = <b, a>_g t dx^{1...n} for every b."""
    n = a.dim
    full = tuple(range(1, n + 1))
    assert g is None or all(g[i][j] == 0 for i in range(n) for j in range(n)
                            if i != j), "star takes a diagonal metric"
    out = []
    for idx, c in a.coeffs.items():
        comp = tuple(i for i in full if i not in idx)
        sign = coefficient(ExteriorForm(n, n, {idx + comp: 1}), *full)
        weight = prod(g[i - 1][i - 1] for i in idx) if g else 1
        out.append((comp, sign * c * t / weight))
    return ExteriorForm(n, n - a.degree, out)


def theta(phi):
    """The nonlinear dual: *phi in the metric and volume phi induces."""
    return star(phi, *induced_metric(phi))


def cylinder_split(phi, t):
    """(Omega, omega) with phi = Omega + dx^t ∧ omega and dx^t in neither."""
    big = ExteriorForm(phi.dim, phi.degree,
                       {idx: c for idx, c in phi.coeffs.items() if t not in idx})
    return big, contract(E7[t - 1], phi - big)


def hyperkahler_form(kappas, layout):
    """dt1∧dt2∧dt3 + dt1∧k1 + dt2∧k2 − dt3∧k3 on R^7, from a triple of
    2-forms on R^4.  layout names the coordinates t_a of R^7, a negative
    entry standing for the negated coordinate; the other four coordinates,
    in increasing order, carry the R^4 factor."""
    cyl = [abs(s) for s in layout]
    slot = [i for i in range(1, 8) if i not in cyl]
    dt = [dx(abs(s), dim=7) * (1 if s > 0 else -1) for s in layout]
    k1, k2, k3 = (ExteriorForm(7, 2, {tuple(slot[i - 1] for i in idx): c
                                      for idx, c in k.coeffs.items()})
                  for k in kappas)
    # the minus sign on the third term is what makes the standard triple
    # on the last four slots assemble exactly to PHI0
    return (wedge(wedge(dt[0], dt[1]), dt[2]) + wedge(dt[0], k1)
            + wedge(dt[1], k2) - wedge(dt[2], k3))


def diagonal(signs):
    return LinearMapR([[s if i == j else 0 for j in range(len(signs))]
                       for i, s in enumerate(signs)])


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
        v = [coefficient(v1, i) for i in range(1, 7)]
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
        ident = LinearMapR(E7)
        assert pullback(ident, PHI0) == PHI0

    def test_flat_form_preserved_by_first_generator_signs(self):
        alpha = diagonal([1, 1, 1, -1, -1, -1, -1])
        assert pullback(alpha, PHI0) == PHI0

    def test_anti_involution_signs_negate_flat_form(self):
        sigma = diagonal([-1, 1, 1, 1, 1, -1, -1])
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
        mn = LinearMapR(mat_mul(m.matrix, n.matrix))
        assert pullback(mn, a) == pullback(n, pullback(m, a))

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
            assert pullback(diagonal(g.signs), PHI0) == PHI0
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
        assert induced_metric(PHI0) == (EUCLID7, 1)

    def test_two_thirds_power_scaling(self):
        g, t = induced_metric(8 * PHI0)
        assert g == [[4 * int(i == j) for j in range(7)] for i in range(7)]
        assert t == 128

    def test_single_monomial_is_not_stable(self):
        assert induced_metric(dx(1, 2, 3, dim=7)) is None

    def test_negated_flat_form_is_not_stable(self):
        assert induced_metric(-PHI0) is None

    def test_stabilizer_census(self):
        fano, stab, anti = _signed_perm_orbit_scan()
        assert len(fano) == 168
        assert len(stab) == FLAT_STABILIZER_ORDER
        assert anti == FLAT_STABILIZER_ORDER
        # slow-path agreement plus metric equivariance, on a spread-out sample
        for p, signs in stab[::149]:
            r = signed_permutation(p, signs)
            assert pullback(r, PHI0) == PHI0
            assert induced_metric(pullback(r, PHI0)) == (EUCLID7, 1)

    def test_seven_point_self_pairing(self):
        # phi ∧ *phi = |phi|^2 vol, in the metric phi induces
        assert wedge(PHI0, theta(PHI0)) == 7 * VOL7

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
            metric = induced_metric(f)
            if metric is None:
                continue
            assert wedge(f, star(f, *metric)) == 7 * metric[1] * VOL7
            seen += 1
            if seen >= 8:
                break
        assert seen >= 8


class TestHodgeStar:
    def test_star_of_one_is_volume(self):
        one = ExteriorForm(7, 0, {(): 1})
        assert star(one) == VOL7

    def test_star_of_first_coordinate(self):
        assert star(dx(1, dim=7)) == dx(2, 3, 4, 5, 6, 7, dim=7)

    def test_star_of_flat_form_matches_frozen_dual(self):
        assert star(PHI0) == STAR_PHI0

    @pytest.mark.parametrize("degree", range(8))
    def test_involution_sign_law(self, degree):
        import random
        rng = random.Random(degree)
        coeffs = {}
        for idx in combinations(range(1, 8), degree):
            if rng.random() < 0.6:
                coeffs[idx] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a = ExteriorForm(7, degree, coeffs)
        assert star(star(a)) == (-1) ** (degree * (7 - degree)) * a

    def test_non_euclidean_diagonal_metric(self):
        # diag(1,4,9,16) has rational volume scalar 1*2*3*4 = 24
        g = [[(i + 1) ** 2 * int(i == j) for j in range(4)] for i in range(4)]
        a = dx(1, 2, dim=4)
        starred = star(a, g, 24)
        # <dx12,dx12> = 1 * 1/4, so star(dx12) = 24/4 dx34
        assert starred == ExteriorForm(4, 2, {(3, 4): 6})
        assert wedge(a, starred) == ExteriorForm(4, 4, {(1, 2, 3, 4): 6})
        assert star(starred, g, 24) == a


class TestTheta:
    def test_flat_value(self):
        assert theta(PHI0) == STAR_PHI0

    def test_four_thirds_scaling(self):
        assert theta(8 * PHI0) == 16 * STAR_PHI0

    def test_equivariance_under_orientation_preserving_symmetry(self):
        # det +1 sign flip whose image is stable but differs from the flat form
        r = diagonal([1, 1, 1, 1, 1, -1, -1])
        f = pullback(r, PHI0)
        assert f != PHI0
        assert induced_metric(f) == (EUCLID7, 1)
        assert theta(f) == pullback(r, theta(PHI0))


class TestCylinderSplit:
    def test_split_along_first_coordinate(self):
        big, omega = cylinder_split(PHI0, 1)
        assert omega == ExteriorForm(7, 2, {(2, 3): 1, (4, 5): 1, (6, 7): 1})
        assert big == ExteriorForm(7, 3, {(2, 4, 6): 1, (2, 5, 7): -1,
                                          (3, 4, 7): -1, (3, 5, 6): -1})

    def test_pure_cylinder_term(self):
        omega = ExteriorForm(7, 2, {(2, 6): Fraction(3, 2), (1, 7): -2})
        big, back = cylinder_split(wedge(dx(3, dim=7), omega), 3)
        assert not big and back == omega

    @pytest.mark.parametrize("t_index", range(1, 8))
    def test_round_trip_on_flat_form(self, t_index):
        big, omega = cylinder_split(PHI0, t_index)
        assert wedge(dx(t_index, dim=7), omega) + big == PHI0

    @settings(max_examples=40, deadline=None)
    @given(rational_forms(7, 3), st.integers(1, 7))
    def test_round_trip_random(self, phi, t_index):
        big, omega = cylinder_split(phi, t_index)
        assert all(t_index not in idx for idx in omega.coeffs)
        assert wedge(dx(t_index, dim=7), omega) + big == phi


class TestHyperKahlerAssembly:
    def test_standard_triple_is_stable_with_identity_metric(self):
        phi = hyperkahler_form(KAPPA0, (1, 4, 5))
        assert induced_metric(phi) == (EUCLID7, 1)

    def test_swap_symmetry(self):
        a = hyperkahler_form(KAPPA0, (1, 4, 5))
        b = hyperkahler_form((KAPPA0_2, KAPPA0_1, -KAPPA0_3), (4, 1, -5))
        assert a == b

    def test_default_layout_reproduces_flat_form(self):
        # the self-dual triple on the last four coordinates, cylinder 1,2,3
        assert hyperkahler_form(KAPPA0, (1, 2, 3)) == PHI0

    def test_quaternionic_relations_of_reference_triple(self):
        squares = [wedge(k, k) for k in KAPPA0]
        assert squares[0] == squares[1] == squares[2]
        assert squares[0] == ExteriorForm(4, 4, {(1, 2, 3, 4): 2})
        for a, b in combinations(KAPPA0, 2):
            assert not wedge(a, b)


def assert_coassociative(plane):
    """PHI0 vanishes on the plane, and theta(PHI0) = *PHI0 does not, as on
    every null 4-plane of a stable form."""
    assert is_coassociative(plane, PHI0)
    assert evaluate(theta(PHI0), plane) != 0


class TestCoassociative:
    def test_last_four_coordinates(self):
        assert_coassociative([E7[3], E7[4], E7[5], E7[6]])

    def test_middle_four_coordinates(self):
        assert_coassociative([E7[1], E7[2], E7[3], E7[4]])

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
        assert_coassociative(mixed)


def test_evaluate_matches_coefficients():
    val = evaluate(PHI0, [E7[0], E7[1], E7[2]])
    assert val == 1
    assert evaluate(PHI0, [E7[1], E7[0], E7[2]]) == -1
    assert evaluate(PHI0, [E7[2], E7[4], E7[5]]) == -1
