"""Affine torus actions: fixed loci, orbit censuses, quotient cohomology.

The brute-force oracle enumerates the grid (1/8 Z)^n / Z^n with numpy and
compares against the Smith-normal-form component enumeration.  The oracles
read each map's linear part as a dense matrix, through dense(f).
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from functools import _lru_cache_wrapper
from math import gcd, lcm, log2, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2kit.betti import resolve_betti
from g2kit.errors import (
    GroupTooLarge,
    InvalidOperand,
    NotAntiInvolution,
    NotEquivariant,
    PullObstruction,
)
from g2kit.exact import det, identity_matrix, mat_mul, mat_vec, smith_normal_form
from g2kit import torus
from g2kit.forms import PHI0, ExteriorForm, LinearMapR, pullback
from g2kit.scenarios import load_scenario
from g2kit.torus import (
    AffineTorusMap,
    FlatStratum,
    _Component,
    _fixed_components,
    _translation_lattice,
    check_preserves_form,
    components_intersect,
    count_ends,
    cross_section_group,
    fixed_set,
    generate_group,
    invariant_forms,
    involution_fixed_census,
    pull,
    quotient_betti,
    singular_locus,
)
from test_exact import inverse

H = Fraction(1, 2)
Q = Fraction(1, 4)
D = AffineTorusMap


def dense(f):
    """The linear part of f as a dense integer matrix."""
    return tuple(tuple(s if i == j else 0 for j in range(f.n))
                 for i, s in enumerate(f.signs))


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


def the_group():
    return generate_group([alpha(), beta(), gamma()])


def rotation_t2(shift=(0, 0), name="r"):
    """The half turn of T^2, the one nontrivial rotation of the square
    lattice that is a sign vector (the quarter turn is refused)."""
    return D([-1, -1], shift, name=name)


QUARTER_TURN = [[0, -1], [1, 0]]
SHEAR = [[1, 1], [0, 1]]


def apply(f, point):
    """f(point) from the linear part and the shift, in Fraction arithmetic,
    with the circle coordinates taken mod 1."""
    x = [Fraction(v) for v in point]
    assert len(x) == f.n
    img = [sum(a * v for a, v in zip(row, x)) + t
           for row, t in zip(dense(f), f.shift)]
    return tuple(v if i + 1 in f.lines else v % 1 for i, v in enumerate(img))


def commutes(f, g):
    return f.compose(g) == g.compose(f)


def map_order(f, cap=512):
    """Least k >= 1 with f^k = id, or None when it exceeds cap."""
    cur = f
    for k in range(1, cap + 1):
        if cur.is_identity():
            return k
        cur = cur.compose(f)
    return None


def grid_fixed_count(f, grid=8):
    """Number of fixed points of f on the (1/grid)-grid torus, by brute force.

    Shifts must be multiples of 1/grid. Only valid for pure torus maps.
    """
    assert not f.lines
    n = f.n
    idx = np.indices((grid,) * n).reshape(n, -1)
    a = np.array(dense(f), dtype=np.int64)
    s = np.array([int(x * grid) for x in f.shift], dtype=np.int64)
    assert all(Fraction(int(x * grid)) == x * grid for x in f.shift)
    img = (a @ idx + s[:, None]) % grid
    mask = np.all(img == idx, axis=0)
    return int(mask.sum()), idx[:, mask]


# Linear parts given as matrices, each with the lines it was declared on:
# rotations, a shear and a swap in GL(n, Z), a matrix that is not
# unimodular, one that mixes a line with a circle, and a diagonal one.  A map
# takes a sign per coordinate, so the constructor refuses each.
NON_SIGN_LINEAR_PARTS = {
    "rotation-T2": (QUARTER_TURN, ()),
    "shear": (SHEAR, ()),
    "swap-x1-x2": ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], ()),
    "dihedral-T3-rotation": ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], ()),
    "rotation-T5": ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                     [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]], ()),
    "not-unimodular": ([[2]], ()),
    "mixes-line-and-circle": ([[0, 1], [1, 0]], (1,)),
    "diagonal-matrix": ([[1, 0], [0, -1]], ()),
}


class TestAffineTorusMap:
    def test_canonical_shift(self):
        f = AffineTorusMap([1], [Fraction(5, 4)])
        assert f.shift == (Fraction(1, 4),)
        g = AffineTorusMap([1], [Fraction(-1, 4)])
        assert g.shift == (Fraction(3, 4),)

    def test_line_shift_kept_exact(self):
        f = AffineTorusMap([1, -1], [Fraction(3, 2), 0], lines=[1])
        assert f.shift[0] == Fraction(3, 2)

    def test_validation(self):
        for signs in ([2], [0], [1, -2, 1], [1, Fraction(1, 2)]):
            with pytest.raises(InvalidOperand):
                AffineTorusMap(signs)  # an entry other than +-1
        with pytest.raises(InvalidOperand):
            AffineTorusMap([-1], lines=[2])  # line index out of range
        with pytest.raises(InvalidOperand):
            AffineTorusMap([1], [0, 0])  # shift longer than the signs
        with pytest.raises(InvalidOperand):
            AffineTorusMap([1, -1, 1], [0, 0])  # shift shorter than the signs

    @pytest.mark.parametrize("case", list(NON_SIGN_LINEAR_PARTS))
    def test_refuses_non_sign_linear_part(self, case):
        linear, lines = NON_SIGN_LINEAR_PARTS[case]
        with pytest.raises(InvalidOperand, match="signs must be"):
            AffineTorusMap(linear, None, lines)

    def test_signs_and_mask(self):
        f = D([1, -1, -1, 1], [0, 0, H, Q], lines=[4])
        assert f.signs == (1, -1, -1, 1) and f.mask == 0b0110
        g = D([-1, -1, 1, 1], lines=[4])
        assert f.compose(g).signs == (-1, 1, -1, 1)
        assert f.compose(g).mask == f.mask ^ g.mask

    def test_apply(self):
        g = gamma()
        p = apply(g, [0, 0, 0, 0, 0, 0, 0])
        assert p == (0, 0, 0, 0, H, 0, H)
        q = apply(g, p)
        assert q == (0, 0, 0, 0, 0, 0, 0)

    def test_compose_and_inverse(self):
        # beta and gamma are commuting involutions, so bg is its own inverse
        b, g = beta(), gamma()
        bg = b.compose(g)
        x = (Fraction(1, 8),) * 7
        assert apply(bg, x) == apply(b, apply(g, x))
        assert bg.compose(bg).is_identity()
        assert g.compose(b) == bg

    def test_order(self):
        quarter = D([1, 1], [Q, 0])
        assert map_order(alpha()) == 2
        assert map_order(quarter) == 4
        assert map_order(AffineTorusMap.identity(3)) == 1
        assert map_order(quarter, cap=3) is None

    def test_equality_ignores_name(self):
        a1 = D([1, -1], name="one")
        a2 = D([1, -1], name="two")
        assert a1 == a2 and hash(a1) == hash(a2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            alpha().name = "x"

    def test_shift_denominator(self):
        assert beta().den == 2
        assert alpha().den == 1
        f = D([1, 1], [Fraction(1, 4), Fraction(1, 8)])
        assert f.den == 8

    def test_dimension_mismatch_in_compose(self):
        with pytest.raises(InvalidOperand):
            alpha().compose(D([1, -1]))


@st.composite
def diagonal_maps(draw, n=5):
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    shifts = draw(st.lists(
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                         Fraction(3, 4)]), min_size=n, max_size=n))
    return D(signs, shifts)


class TestMapProperties:
    @given(f=diagonal_maps(), g=diagonal_maps())
    def test_apply_respects_composition(self, f, g):
        x = tuple(Fraction(1, 8) * k for k in range(5))
        assert apply(f.compose(g), x) == apply(f, apply(g, x))


class TestGenerateGroup:
    def test_gamma_group(self):
        G = the_group()
        assert G.order == 8
        assert all(commutes(a, b) for a, b in combinations(G.generators, 2))
        assert all(g.compose(g).is_identity() for g in G)
        assert G.identity.is_identity()
        assert alpha() in G

    def test_subgroup_generation(self):
        assert generate_group([alpha(), beta()]).order == 4
        assert generate_group([AffineTorusMap.identity(7)]).order == 1

    def test_element_names_are_words(self):
        G = the_group()
        names = {g.name for g in G}
        assert "alpha" in names and "alpha*beta" in names

    def test_closure_bound(self):
        quarter = D([1, 1], [Q, 0], name="q")
        with pytest.raises(GroupTooLarge):
            generate_group([quarter], bound=3)
        assert generate_group([quarter], bound=4).order == 4
        eighths = [D([1, 1], [Fraction(1, 8), 0]), D([-1, 1], [0, 0]),
                   D([1, 1], [0, Fraction(1, 8)])]
        with pytest.raises(GroupTooLarge):
            generate_group(eighths, bound=127)
        assert generate_group(eighths, bound=128).order == 128

    def test_multiplication_table(self):
        G = generate_group([alpha(), beta()])
        table = {(i, j): G.elements.index(a.compose(b))
                 for i, a in enumerate(G) for j, b in enumerate(G)}
        ident = G.elements.index(G.identity)
        for i in range(G.order):
            assert table[(ident, i)] == i
            assert table[(i, ident)] == i
        assert set(table.values()) <= set(range(G.order))

    def test_mixed_spaces_rejected(self):
        with pytest.raises(InvalidOperand):
            generate_group([alpha(), D([1, -1])])


class TestFixedSet:
    def test_generators_sixteen_t3(self):
        for gen in (alpha(), beta(), gamma()):
            strata = fixed_set(gen)
            assert len(strata) == 16
            assert all(s.torus_dim == 3 and s.line_dim == 0 for s in strata)
            assert all(s.count == 1 and s.stabilizer_order == 1 for s in strata)
            for s in strata:
                assert apply(gen, s.offset) == s.offset

    def test_products_act_freely(self):
        a, b, g = alpha(), beta(), gamma()
        for f in (a.compose(b), b.compose(g), g.compose(a),
                  a.compose(b).compose(g)):
            assert fixed_set(f) == []

    def test_component_count_closed_form(self):
        # 2^(number of -1 coords) whenever every +1 coordinate has zero shift
        for gen in (alpha(), beta(), gamma(), gamma1(), sigma_52(), sigma_53()):
            minus = gen.signs.count(-1)
            assert len(fixed_set(gen)) == 2 ** minus

    def test_nonzero_shift_on_plus_coordinate_empty(self):
        f = D([1, -1], [Fraction(1, 2), 0])
        assert fixed_set(f) == []

    def test_identity_fixes_everything(self):
        strata = fixed_set(AffineTorusMap.identity(3))
        assert len(strata) == 1 and strata[0].torus_dim == 3

    def test_gamma_on_cylinder(self):
        g = AffineTorusMap(gamma().signs, gamma().shift, lines=[1],
                           name="gamma")
        strata = fixed_set(g)
        assert len(strata) == 8
        assert all(s.torus_dim == 3 and s.line_dim == 0 for s in strata)
        assert all(s.offset[0] == 0 for s in strata)  # pinned at x1 = 0

    def test_free_line_reported(self):
        a = AffineTorusMap(alpha().signs, None, lines=[1], name="alpha")
        strata = fixed_set(a)
        assert len(strata) == 16
        assert all(s.line_dim == 1 and s.torus_dim == 2 for s in strata)
        assert all(s.type_label == "T2xR" for s in strata)

    def test_line_translation_empty(self):
        f = AffineTorusMap([1, -1], [Fraction(1, 2), 0], lines=[1])
        assert fixed_set(f) == []

    def test_line_reflection_pins_value(self):
        f = AffineTorusMap([-1, 1], [Fraction(3, 1), 0], lines=[1])
        strata = fixed_set(f)
        assert len(strata) == 1
        assert strata[0].offset[0] == Fraction(3, 2)

    def test_quarter_rotation_two_points(self):
        # the quarter turn fixes (0, 0) and (1/2, 1/2) and is refused; the
        # half turn fixes those and the pair the quarter turn swaps
        with pytest.raises(InvalidOperand):
            AffineTorusMap(QUARTER_TURN)
        strata = fixed_set(rotation_t2())
        assert sorted(s.offset for s in strata) == [(0, 0), (0, H), (H, 0), (H, H)]
        assert all(s.torus_dim == 0 for s in strata)

    def test_shifted_rotation(self):
        f = rotation_t2(shift=(H, 0))
        strata = fixed_set(f)
        assert len(strata) == 4
        count, pts = grid_fixed_count(f)
        assert count == 4
        for s in strata:
            assert apply(f, s.offset) == s.offset

    def test_shear_component(self):
        # the shear x1 -> x1 + x2 + 1/4 fixes the circle x2 = 3/4 and is
        # refused; reflecting x2 about 1/4 fixes that circle and x2 = 1/4
        with pytest.raises(InvalidOperand):
            AffineTorusMap(SHEAR, [Q, 0])
        f = D([1, -1], [0, H])
        strata = fixed_set(f)
        assert all(s.torus_dim == 1 for s in strata)
        assert sorted(s.offset[1] for s in strata) == [Q, 3 * Q]
        count, _ = grid_fixed_count(f)
        assert count == 16

    def test_shear_with_blocked_translation(self):
        # the shear that slides x2 by 1/4 fixes nothing and is refused; so
        # does a reflection of x1 that slides x2 by 1/4
        with pytest.raises(InvalidOperand):
            AffineTorusMap(SHEAR, [0, Q])
        f = D([-1, 1], [0, Q])
        assert fixed_set(f) == []
        count, _ = grid_fixed_count(f)
        assert count == 0


class TestGridOracle:
    @settings(max_examples=60, deadline=None)
    @given(f=diagonal_maps())
    def test_random_diagonal_maps(self, f):
        strata = fixed_set(f)
        expected = sum(8 ** s.torus_dim for s in strata)
        count, pts = grid_fixed_count(f)
        assert count == expected
        for s in strata:
            scaled = tuple(int(x * 8) for x in s.offset)
            assert all(Fraction(v, 8) == x for v, x in zip(scaled, s.offset))
            if strata:
                img = apply(f, s.offset)
                assert img == s.offset

    def test_full_dimension_spot_checks(self):
        # 7-dimensional brute force for a few structurally distinct maps
        for f in (alpha(), gamma(),
                  alpha().compose(beta()).compose(sigma_52()),
                  alpha().compose(sigma_53())):
            strata = fixed_set(f)
            expected = sum(8 ** s.torus_dim for s in strata)
            count, _ = grid_fixed_count(f)
            assert count == expected


class TestSingularLocus:
    def test_joyce_orbifold(self):
        strata = singular_locus(the_group())
        assert len(strata) == 12
        assert all(s.torus_dim == 3 and s.count == 4 for s in strata)
        assert all(s.residual == "trivial" for s in strata)
        # exactly one generator fixes each representative, four strata each;
        # the setwise stabilizer has order 8 / 4
        assert sorted(fixer_names(strata, (alpha(), beta(), gamma()))) == (
            ["alpha"] * 4 + ["beta"] * 4 + ["gamma"] * 4)
        assert all(s.stabilizer_order == 2 for s in strata)

    def test_joyce_components_pairwise_disjoint(self):
        G = the_group()
        comps = [c for g in G if not g.is_identity()
                 for c in _fixed_components(g)]
        assert len(comps) == 48
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                assert not components_intersect(comps[i], comps[j])

    def test_cross_section_sixteen_t2(self):
        # restriction of <alpha, beta> to the six coordinates x2..x7
        a = D([1, 1, -1, -1, -1, -1], name="alpha")
        b = D([-1, -1, 1, 1, -1, -1], [0, 0, 0, 0, H, 0], name="beta")
        G = generate_group([a, b])
        assert G.order == 4
        strata = singular_locus(G)
        assert len(strata) == 16
        assert all(s.torus_dim == 2 and s.count == 2 for s in strata)
        assert sorted(fixer_names(strata, (a, b))) == ["alpha"] * 8 + ["beta"] * 8
        assert all(s.stabilizer_order == 2 for s in strata)

    def test_pillowcase(self):
        flip = D([-1, -1], name="flip")
        slide = D([1, 1], [H, 0], name="slide")
        G = generate_group([flip, slide])
        assert G.order == 4
        strata = singular_locus(G)
        assert len(strata) == 4
        assert all(s.torus_dim == 0 and s.count == 2 for s in strata)
        assert quotient_betti(G) == (1, 0, 1)

    def test_t2_mod_z4_cone_points(self):
        # T^2 modulo the quarter turn has cone points of orders 4, 4 and 2,
        # and the quarter turn is refused; modulo the half turn it is a
        # pillowcase whose four cone points are each their own stratum
        with pytest.raises(InvalidOperand):
            generate_group([AffineTorusMap(QUARTER_TURN)])
        G = generate_group([rotation_t2()])
        assert G.order == 2
        strata = singular_locus(G)
        assert sorted((s.count, s.stabilizer_order) for s in strata) == [(1, 2)] * 4
        assert all(s.torus_dim == 0 for s in strata)
        assert quotient_betti(G) == (1, 0, 1)

    def test_residual_other(self):
        # h keeps each T2 of g and reverses one of its two directions only,
        # so the setwise stabilizer acts on it by neither 1 nor -1
        g = D([-1, 1, 1], name="g")
        h = D([1, -1, 1], name="h")
        G = generate_group([g, h])
        assert G.order == 4
        strata = singular_locus(G)
        others = [s for s in strata if s.residual == "other"]
        assert len(others) == 4
        assert all(s.torus_dim == 2 and s.count == 1 for s in others)
        assert all(s.residual == "trivial" for s in strata if s.torus_dim == 1)


class TestQuotientBetti:
    def test_joyce(self):
        assert quotient_betti(the_group()) == (1, 0, 0, 7, 7, 0, 0, 1)

    def test_trivial_group(self):
        G = generate_group([AffineTorusMap.identity(7)])
        assert quotient_betti(G) == (1, 7, 21, 35, 35, 21, 7, 1)

    def test_poincare_duality_orientation_preserving(self):
        b = quotient_betti(the_group())
        assert all(b[k] == b[7 - k] for k in range(8))
        assert b.euler_characteristic == 0

    def test_cylinder_base(self):
        b = quotient_betti(pull(the_group(), 1))
        assert b == (1, 0, 0, 4, 3, 0, 0)


class TestPullAndSections:
    def test_pull_x1(self):
        P = pull(the_group(), 1)
        assert P.order == 8
        assert P.lines == frozenset({1})
        assert count_ends(P, 1) == 1

    def test_pull_rejects_translation(self):
        with pytest.raises(PullObstruction):
            pull(the_group(), 5)

    def test_pull_rejects_mixing(self):
        # a rotation mixing x1 with x2 is refused before pull can see it;
        # the half turn reverses x1 alone and pulls along it
        with pytest.raises(InvalidOperand):
            AffineTorusMap(QUARTER_TURN)
        P = pull(generate_group([rotation_t2()]), 1)
        assert P.order == 2 and P.lines == frozenset({1})
        assert count_ends(P, 1) == 1

    def test_pull_rejects_line_coordinate(self):
        P = pull(the_group(), 1)
        with pytest.raises(InvalidOperand):
            pull(P, 1)
        with pytest.raises(InvalidOperand):
            pull(the_group(), 9)

    def test_pull_keeps_reflection_shift(self):
        # x1 -> 1/2 - x1 keeps its shift on the new line, so every stratum
        # that does not run along the line is pinned at x1 = 1/4
        P = pull(generate_group([D([-1, 1], [H, 0], name="r"),
                                 D([1, -1], name="s")]), 1)
        assert AffineTorusMap([-1, 1], [H, 0], [1]) in P
        assert {s.offset[0] for s in singular_locus(P)
                if not s.line_dim} == {Fraction(1, 4)}

    def test_two_ends_when_nothing_reverses(self):
        P = pull(generate_group([alpha(), beta()]), 1)
        assert count_ends(P, 1) == 2
        with pytest.raises(InvalidOperand):
            count_ends(P, 2)

    def test_end_preserving_subgroup(self):
        # the four elements that keep the ends restrict one to one onto the
        # cross-section group
        P = pull(the_group(), 1)
        kept = [g for g in P if g.signs[0] == 1]
        assert len(kept) == 4
        cs = cross_section_group(P, 1)
        assert set(cs.elements) == {
            AffineTorusMap(g.signs[1:], g.shift[1:]) for g in kept}

    def test_cross_section_x1(self):
        cs = cross_section_group(pull(the_group(), 1), 1)
        assert cs.order == 4
        assert cs.n == 6 and not cs.lines
        assert quotient_betti(cs) == (1, 0, 3, 8, 3, 0, 1)

    def test_cross_section_x3_resolves_to_x11(self):
        cs = cross_section_group(pull(the_group(), 3), 3)
        assert cs.order == 4
        out = resolve_betti(quotient_betti(cs), singular_locus(cs))
        assert out[2] == 11 and out[3] == 24

    def test_gamma1_cross_section_is_free(self):
        cs = cross_section_group(pull(generate_group(
            [alpha(), beta(), gamma1()]), 7), 7)
        assert cs.order == 4
        assert singular_locus(cs) == []
        b = quotient_betti(cs)
        assert b[2] == 3 and b[3] == 8

    def test_borcea_voisin_end_has_b1_one(self):
        P = pull(generate_group([alpha(), beta()]), 5)
        assert quotient_betti(P)[1] == 1


class TestResolutionPipelines:
    def test_closed_manifold(self):
        G = the_group()
        out = resolve_betti(quotient_betti(G), singular_locus(G))
        assert out == (1, 0, 12, 43, 43, 12, 0, 1)

    def test_pull_x1_halves(self):
        P = pull(the_group(), 1)
        strata = singular_locus(P)
        kinds = sorted((s.torus_dim, s.line_dim) for s in strata)
        assert kinds == [(2, 1)] * 8 + [(3, 0)] * 2
        out = resolve_betti(quotient_betti(P), strata)
        assert tuple(out)[2:6] == (10, 26, 17, 2)

    def test_pull_x3_halves(self):
        P = pull(the_group(), 3)
        strata = singular_locus(P)
        kinds = sorted((s.torus_dim, s.line_dim) for s in strata)
        assert kinds == [(2, 1)] * 4 + [(3, 0)] * 4
        out = resolve_betti(quotient_betti(P), strata)
        assert tuple(out)[2:6] == (8, 24, 19, 4)

    def test_gamma1_pull_x7(self):
        P = pull(generate_group([alpha(), beta(), gamma1()]), 7)
        strata = singular_locus(P)
        assert len(strata) == 6
        assert all(s.torus_dim == 3 and s.count == 4 for s in strata)
        out = resolve_betti(quotient_betti(P), strata)
        # the printed table's b4 = 20 is inconsistent with its own b3 = 22,
        # which forces six T^3 strata and hence b4 = 3 + 6*3 = 21
        assert tuple(out)[2:6] == (6, 22, 21, 6)


class TestFormPreservation:
    def test_group_preserves_reference_form(self):
        for g in the_group():
            assert check_preserves_form(g, PHI0, 1)
        assert check_preserves_form(gamma1(), PHI0, 1)

    def test_involutions_reverse_it(self):
        assert check_preserves_form(sigma_52(), PHI0, -1)
        assert check_preserves_form(sigma_53(), PHI0, -1)
        assert not check_preserves_form(sigma_52(), PHI0, 1)

    def test_sigma_commutes_with_group(self):
        s = sigma_52()
        for g in the_group():
            assert commutes(s, g)

    def test_validation(self):
        with pytest.raises(InvalidOperand):
            check_preserves_form(alpha(), PHI0, 2)
        with pytest.raises(InvalidOperand):
            check_preserves_form(D([1, -1]), PHI0, 1)

    def test_sign_products_match_dense_pullback(self):
        # every sign vector of T^7, against the pullback by its dense
        # matrix: phi_0 at both signs, and a random form with few monomials
        # so that some sign vectors keep it
        rng = random.Random(0)
        monomials = rng.sample(list(combinations(range(1, 8), 3)), 3)
        other = ExteriorForm(7, 3, {
            idx: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for idx in monomials})
        seen = set()
        for signs in product([1, -1], repeat=7):
            f = D(signs)
            for phi, sign in ((PHI0, 1), (PHI0, -1), (other, 1), (other, -1)):
                expect = pullback(LinearMapR(dense(f)), phi) == sign * phi
                assert check_preserves_form(f, phi, sign) == expect
                seen.add((phi is PHI0, sign, expect))
        assert len(seen) == 8


class TestInvolutionCensus:
    def test_first_example(self):
        cen = involution_fixed_census(sigma_52(), the_group())
        pts = [s for s in cen if s.type_label == "point"]
        t4 = [s for s in cen if s.torus_dim == 4]
        assert len(pts) == 16 and all(s.count == 8 for s in pts)
        assert len(t4) == 1 and t4[0].count == 8
        assert t4[0].type_label == "T4" and t4[0].residual == "trivial"
        assert len(cen) == 17

    def test_first_example_points_disjoint_from_t4(self):
        G = the_group()
        s = sigma_52()
        comps = [c for g in G for c in _fixed_components(g.compose(s))]
        points = [c for c in comps if not c.directions]
        fours = [c for c in comps if len(c.directions) == 4]
        assert len(points) == 128 and len(fours) == 8
        assert not any(components_intersect(p, c) for p in points for c in fours)

    def test_second_example(self):
        cen = involution_fixed_census(sigma_53(), the_group())
        t4 = [s for s in cen if s.torus_dim == 4]
        pts = [s for s in cen if s.type_label == "point"]
        assert len(t4) == 2
        assert all(s.count == 4 and s.residual == "pm1" for s in t4)
        assert all(s.type_label == "T4/pm1" for s in t4)
        # the point components are the 2-torsion points of the T4 components:
        # 128 upstairs in orbits of 4 (alpha fixes each), i.e. the 2 x 16
        # orbifold points of the two quotient components, not isolated points
        assert len(pts) == 32 and all(s.count == 4 for s in pts)

    def test_second_example_points_lie_on_t4(self):
        G = the_group()
        s = sigma_53()
        comps = [c for g in G for c in _fixed_components(g.compose(s))]
        points = [c for c in comps if not c.directions]
        fours = [c for c in comps if len(c.directions) == 4]
        assert len(points) == 128 and len(fours) == 8
        for p in points:
            assert any(components_intersect(p, c) for c in fours)

    def test_half_census_after_pull(self):
        P = pull(the_group(), 4)
        s = sigma_52()
        sp = AffineTorusMap(s.signs, s.shift, P.lines, "sigma")
        cen = involution_fixed_census(sp, P)
        pts = [s for s in cen if s.type_label == "point"]
        rods = [s for s in cen if s.torus_dim == 3 and s.line_dim == 1]
        assert len(pts) == 8 and all(s.count == 8 for s in pts)
        assert len(rods) == 1 and rods[0].count == 8
        assert rods[0].type_label == "T3xR"

    def test_census_invariant_under_coset_shift(self):
        G = the_group()
        base = involution_fixed_census(sigma_52(), G)
        maps = [g.compose(sigma_52()) for g in G]
        for g in (alpha(), beta().compose(gamma())):
            moved = g.compose(sigma_52())
            moved = AffineTorusMap(moved.signs, moved.shift, moved.lines, "s")
            cen = involution_fixed_census(moved, G)
            assert sorted(map(signature, cen)) == sorted(map(signature, base))
            # same coset G sigma, so the same oracle orbits hold both censuses
            assert_matches_reference(cen, G, maps)

    def test_rejects_group_member(self):
        with pytest.raises(NotAntiInvolution):
            involution_fixed_census(alpha(), the_group())

    def test_rejects_non_involution(self):
        f = D([1, 1, 1, 1, 1, 1, 1], [Fraction(1, 4), 0, 0, 0, 0, 0, 0])
        with pytest.raises(NotAntiInvolution):
            involution_fixed_census(f, the_group())

    def test_rejects_non_normalizing(self):
        # f gamma f shifts x1 by 1/2, and no element of the group does
        f = D([-1, 1, 1, 1, 1, 1, 1], [Q, 0, 0, 0, 0, 0, 0], name="f")
        assert f.compose(f).is_identity()
        with pytest.raises(NotEquivariant):
            involution_fixed_census(f, the_group())

    def test_rejects_mismatched_space(self):
        with pytest.raises(InvalidOperand):
            involution_fixed_census(D([1, -1]), the_group())


class TestStratumLabels:
    def test_type_labels(self):
        assert FlatStratum(0, 0, 1, ()).type_label == "point"
        assert FlatStratum(4, 0, 1, (), residual="pm1").type_label == "T4/pm1"
        assert FlatStratum(3, 1, 1, ()).type_label == "T3xR"
        assert FlatStratum(0, 1, 1, ()).type_label == "R"


# ---------------------------------------------------------------------------
# Brute-force reference for orbits and stabilizers: plain Fraction arithmetic,
# every element of G moves every component, stabilizers by full scans.


def _ref_rref(rows):
    """Reduced row echelon form over Fraction, zero rows dropped."""
    rest = [[Fraction(x) for x in row] for row in rows]
    done = []
    for col in range(len(rest[0]) if rest else 0):
        piv = next((r for r in rest if r[col] != 0), None)
        if piv is None:
            continue
        rest.remove(piv)
        piv = [x / piv[col] for x in piv]
        rest = [[x - r[col] * y for x, y in zip(r, piv)] for r in rest]
        done = [[x - r[col] * y for x, y in zip(r, piv)] for r in done]
        done.append(piv)
    return tuple(tuple(r) for r in done)


def _ref_key(comp):
    """The span, plus the component's points whose pivot coordinates are
    integers: a finite set that fixes the component given its span."""
    offset, dirs, free, lines = comp
    circ = [i for i in range(len(offset)) if i + 1 not in lines]
    span = _ref_rref([[d[i] for i in circ] for d in dirs])
    pivots = [next(j for j, x in enumerate(r) if x) for r in span]
    period = lcm(*(x.denominator for r in span for x in r))
    o = [offset[i] for i in circ]
    points = frozenset(
        tuple((x + sum((m - o[p]) * r[j] for m, p, r in zip(ms, pivots, span))) % 1
              for j, x in enumerate(o))
        for ms in product(range(period), repeat=len(span)))
    pinned = tuple(offset[i - 1] for i in sorted(lines - free))
    return span, points, pinned, free


def _ref_move(g, comp):
    offset, dirs, free, lines = comp
    linear = dense(g)
    img = tuple(
        Fraction(0) if i + 1 in free else v if i + 1 in lines else v % 1
        for i, v in enumerate(sum(a * x for a, x in zip(row, offset)) + s
                              for row, s in zip(linear, g.shift)))
    moved = tuple(tuple(sum(a * x for a, x in zip(row, d)) for row in linear)
                  for d in dirs)
    return img, moved, free, lines


def _ref_fixes_pointwise(g, comp):
    offset, dirs, free, _ = comp
    img, moved, _, _ = _ref_move(g, comp)
    return (moved == dirs
            and all(dense(g)[i - 1][i - 1] == 1 and g.shift[i - 1] == 0
                    for i in free)
            and all(a == b for i, (a, b) in enumerate(zip(img, offset))
                    if i + 1 not in free))


def _ref_minus_one(g, comp):
    _, dirs, free, _ = comp
    return (_ref_move(g, comp)[1] == tuple(tuple(-x for x in d) for d in dirs)
            and all(dense(g)[i - 1][i - 1] == -1 for i in free))


def reference_strata(group, maps):
    """One (signature, members) pair per stratum, that is per orbit of the
    components of maps: signature = (torus_dim, line_dim, count, residual,
    stabilizer order), members = the orbit's components."""
    registry = {}
    for f in maps:
        for c in dense_fixed_components(f):
            comp = (c.display_offset(), c.directions, c.free_lines, f.lines)
            registry.setdefault(_ref_key(comp), comp)
    orbits, seen = [], set()
    for key, comp in registry.items():
        if key in seen:
            continue
        orbit = {_ref_key(_ref_move(g, comp)) for g in group.elements}
        seen |= orbit
        setwise = [g for g in group.elements
                   if _ref_key(_ref_move(g, comp)) == key]
        pointwise = [g for g in group.elements if _ref_fixes_pointwise(g, comp)]
        if len(setwise) == len(pointwise):
            residual = "trivial"
        elif len(setwise) == 2 * len(pointwise) and any(
                _ref_minus_one(g, comp) for g in setwise if g not in pointwise):
            residual = "pm1"
        else:
            residual = "other"
        orbits.append(((len(comp[1]), len(comp[2]), len(orbit), residual,
                        len(setwise)), [registry[k] for k in orbit]))
    return orbits


def _ref_contains(comp, point):
    """Does the point lie on the component?  Moving it along the span until
    its pivot coordinates vanish lands in the point set of _ref_key."""
    span, points, pinned, free = _ref_key(comp)
    lines = comp[3]
    circ = [i for i in range(len(point)) if i + 1 not in lines]
    p = [point[i] for i in circ]
    pivots = [next(j for j, x in enumerate(r) if x) for r in span]
    q = tuple((x - sum(p[piv] * r[j] for piv, r in zip(pivots, span))) % 1
              for j, x in enumerate(p))
    return q in points and pinned == tuple(point[i - 1]
                                           for i in sorted(lines - free))


def signature(stratum):
    return (stratum.torus_dim, stratum.line_dim, stratum.count,
            stratum.residual, stratum.stabilizer_order)


def _perfect_matching(candidates):
    """Can each i be given its own j from candidates[i]?  (Kuhn's algorithm.)"""
    owner = {}

    def augment(i, seen):
        for j in candidates[i]:
            if j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(candidates)))


def assert_matches_reference(fast, group, maps):
    """The multisets of signatures agree, and the strata can be matched one
    to one with oracle orbits of their signature that hold their
    representative on one of their members."""
    ref = reference_strata(group, maps)
    assert sorted(map(signature, fast)) == sorted(sig for sig, _ in ref)
    assert all(s.stabilizer_order * s.count == group.order for s in fast)
    candidates = [[j for j, (sig, members) in enumerate(ref)
                   if sig == signature(s)
                   and any(_ref_contains(m, s.offset) for m in members)]
                  for s in fast]
    assert all(candidates)
    assert _perfect_matching(candidates)


def fixer_names(strata, maps):
    """For each stratum, the name of the one map in maps fixing its offset."""
    out = []
    for s in strata:
        names = [f.name for f in maps if apply(f, s.offset) == s.offset]
        assert len(names) == 1
        out.append(names[0])
    return out


def signflips(n):
    """All coordinate sign flips of T^n: order 2^n, 3^n - 1 strata."""
    return generate_group([D([-1 if j == i else 1 for j in range(n)],
                             name=f"s{i + 1}") for i in range(n)])


def _locus_case(group):
    return singular_locus(group), group, [g for g in group if not g.is_identity()]


def _census_case(sigma, group):
    return (involution_fixed_census(sigma, group), group,
            [g.compose(sigma) for g in group])


def _dihedral_t3():
    # the symmetries of a square inscribed in the circle x1: the quarter
    # turn r of that circle and the reflection s generate the dihedral group
    # of order 8 (s r s = r^-1); c reverses x3 and commutes with both
    r = D([1, 1, 1], [Q, 0, 0], name="r")
    s = D([-1, 1, 1], name="s")
    c = D([1, 1, -1], [H, H, 0], name="c")
    return generate_group([r, s, c])


def _rotation_t5():
    # h turns the (x4, x5) plane by a half turn while sliding x3 by a
    # quarter, so it has order 4, and g, which reverses x3, inverts it
    return generate_group([D([-1, -1, -1, 1, 1], name="g"),
                           D([1, 1, 1, -1, -1], [0, 0, Q, 0, 0], name="h")])


def _translations_t4():
    # |T| = 4, and t^2 moves each T2 of the reflection along itself
    return generate_group([D([-1, -1, 1, 1], name="g"),
                           D([1, 1, 1, 1], [H, 0, Fraction(1, 4), 0], name="t")])


ORACLE_CASES = {
    "joyce": lambda: _locus_case(the_group()),
    "pull-x1": lambda: _locus_case(pull(the_group(), 1)),
    "pull-x3": lambda: _locus_case(pull(the_group(), 3)),
    "gamma1-pull-x7": lambda: _locus_case(
        pull(generate_group([alpha(), beta(), gamma1()]), 7)),
    "coassoc-5.2": lambda: _census_case(sigma_52(), the_group()),
    "coassoc-5.3": lambda: _census_case(sigma_53(), the_group()),
    "negid-quarter-T4": lambda: _locus_case(generate_group(
        [D([-1] * 4, name="m"), D([1] * 4, [Fraction(1, 4), 0, 0, 0], name="t")])),
    "dihedral-T3": lambda: _locus_case(_dihedral_t3()),
    "rotation-T5": lambda: _locus_case(_rotation_t5()),
    "translations-T4": lambda: _locus_case(_translations_t4()),
    "translations-T2-census": lambda: _census_case(
        D([1, 1], [H, H], name="s"),
        generate_group([D([1, 1], [H, 0], name="t"),
                        D([-1, -1], [0, Fraction(3, 4)], name="m")])),
    "translations-T4-pull-x2": lambda: _locus_case(pull(generate_group(
        [D([-1, -1, 1, 1], name="g"),
         D([1, 1, 1, 1], [H, 0, Fraction(1, 4), 0], name="t")]), 2)),
    # a reflection along the circle with the line kept, then reversed:
    # residual "other", then "pm1"
    "line-kept-T2xR": lambda: _locus_case(generate_group(
        [D([-1, 1, 1], lines=[3], name="g"), D([1, -1, 1], lines=[3], name="h")])),
    "line-reversed-T2xR": lambda: _locus_case(generate_group(
        [D([-1, 1, 1], lines=[3], name="g"), D([1, -1, -1], lines=[3], name="h")])),
    # R strata: a component with no direction but a free line
    "line-reversed-T1xR": lambda: _locus_case(generate_group(
        [D([-1, 1], lines=[2], name="g"), D([1, -1], lines=[2], name="h")])),
    # an element that keeps the circle direction and reverses the line
    "line-flip-T2xR": lambda: _locus_case(generate_group(
        [D([-1, 1, 1], lines=[3], name="g"),
         D([1, 1, -1], lines=[3], name="k")])),
    "signflips-T4": lambda: _locus_case(signflips(4)),
    "signflips-T4-half-e1": lambda: _locus_case(generate_group(
        list(signflips(4).generators) + [D([1] * 4, [H, 0, 0, 0], name="t")])),
}


def _blocks_pull(g, i):
    """Does g translate along coordinate i while keeping it?"""
    return g.signs[i - 1] == 1 and g.shift[i - 1] != 0


@st.composite
def signed_diagonal_generators(draw, pull_ready=False):
    """Signed diagonal maps with shifts, plus up to two pure translations
    (so that the translation subgroup is often nontrivial).  With
    pull_ready, one coordinate gets shift 0 in every map that keeps it and
    one common shift in every map that reverses it, so that no element
    translates along it."""
    n = draw(st.sampled_from([3, 4]))
    shift = st.sampled_from([Fraction(k, d) for d in range(1, 5) for k in range(d)])
    step = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 4)])
    maps = [(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)),
             draw(st.lists(shift, min_size=n, max_size=n)), f"g{i}")
            for i in range(draw(st.integers(1, 3)))]
    maps += [([1] * n, draw(st.lists(step, min_size=n, max_size=n)), f"t{i}")
             for i in range(draw(st.integers(0, 2)))]
    if pull_ready:
        p, common = draw(st.integers(0, n - 1)), draw(shift)
        for signs, shifts, _ in maps:
            shifts[p] = common if signs[p] == -1 else 0
    return [D(signs, shifts, name=name) for signs, shifts, name in maps]


@st.composite
def signed_diagonal_groups(draw, pulls=True):
    """The groups of signed_diagonal_generators, closed within 64 elements,
    and with pulls optionally pulled along one coordinate (half of them
    drawn pull-ready)."""
    gens = draw(signed_diagonal_generators(pull_ready=pulls and draw(st.booleans())))
    try:
        group = generate_group(gens, bound=64)
    except GroupTooLarge:
        assume(False)
    pullable = [i for i in range(1, group.n + 1)
                if not any(_blocks_pull(g, i) for g in group)]
    if pulls and pullable and draw(st.booleans()):
        group = pull(group, draw(st.sampled_from(pullable)))
    return group


@st.composite
def equivariant_involutions(draw, group):
    """A signed diagonal involution outside group that normalizes it, or
    None when the drawn one does not.  A circle it keeps gets shift 0 or
    1/2; a line it reverses gets the shift of an element that reverses it
    (all such elements share it), or 0."""
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=group.n,
                          max_size=group.n))
    shift = []
    for i, s in enumerate(signs, 1):
        if i in group.lines:
            reversers = [g.shift[i - 1] for g in group if g.signs[i - 1] == -1]
            shift.append(reversers[0] if s == -1 and reversers else Fraction(0))
        else:
            shift.append(draw(st.sampled_from(
                [Fraction(0), H] if s == 1 else [Fraction(0), Q, H, 3 * Q])))
    sigma = D(signs, shift, group.lines, "sigma")
    if sigma in group or any(sigma.compose(g).compose(sigma) not in group
                             for g in group.generators):
        return None
    return sigma


class TestOrbitOracle:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_brute_force(self, case):
        fast, group, maps = ORACLE_CASES[case]()
        assert_matches_reference(fast, group, maps)

    def test_cases_cover_every_residual(self):
        residuals = {s.residual for case in ORACLE_CASES.values()
                     for s in case()[0]}
        assert residuals == {"trivial", "pm1", "other"}

    @settings(max_examples=80, deadline=None)
    @given(group=signed_diagonal_groups(), data=st.data())
    def test_random_signed_diagonal_groups(self, group, data):
        # the group (pulled or not) and each cross-section group against
        # both oracles, then the census of a random equivariant involution
        groups = [group] + [cross_section_group(group, i) for i in group.lines]
        for g in groups:
            fast, _, maps = _locus_case(g)
            assert_matches_reference(fast, g, maps)
            assert fast == oracle_singular_locus(g)
        sigma = data.draw(equivariant_involutions(group))
        if sigma is not None:
            fast, _, maps = _census_case(sigma, group)
            assert_matches_reference(fast, group, maps)
            assert fast == oracle_census(sigma, group)


# ---------------------------------------------------------------------------
# Reference for quotient Betti numbers: tr Λ^k A as the sum of the k x k
# principal minors of the circle block, averaged over the group.


def reference_exterior_traces(a):
    return [sum(det([[a[p][q] for q in sub] for p in sub])
                for sub in combinations(range(len(a)), k))
            for k in range(len(a) + 1)]


def reference_quotient_betti(group):
    circ = [i for i in range(group.n) if i + 1 not in group.lines]
    totals = [0] * (len(circ) + 1)
    for g in group.elements:
        block = [[dense(g)[p][q] for q in circ] for p in circ]
        totals = [t + e for t, e in zip(totals, reference_exterior_traces(block))]
    return tuple(t / group.order for t in totals)


BETTI_CASES = {
    "joyce": the_group,
    "pull-x1": lambda: pull(the_group(), 1),
    "pull-x3": lambda: pull(the_group(), 3),
    "cross-section-x1": lambda: cross_section_group(pull(the_group(), 1), 1),
    "cross-section-x3": lambda: cross_section_group(pull(the_group(), 3), 3),
    "signflips-T5": lambda: signflips(5),
    "line-flip-T2xR": lambda: ORACLE_CASES["line-flip-T2xR"]()[1],
    "rotation-T2": lambda: generate_group([rotation_t2()]),
    "rotation-T5": _rotation_t5,
    "dihedral-T3": _dihedral_t3,
}


# ---------------------------------------------------------------------------
# Reference for components_intersect: the offsets' difference is projected by
# a rational basis of the annihilator of the joint span, and one integer
# solve asks whether the projection of Z^c holds it (Fraction arithmetic
# throughout, no offset lattice).


def _ref_null_space(rows):
    red = _ref_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for j in range(len(rows[0])):
        if j not in pivots:
            vec = [Fraction(int(k == j)) for k in range(len(rows[0]))]
            for row, p in zip(red, pivots):
                vec[p] = -row[j]
            basis.append(vec)
    return basis


def _ref_solve_integer(a, b):
    """Does A y = b have an integer solution y?"""
    u, d, _ = smith_normal_form(a)
    diag = [row[i] if i < len(row) else 0 for i, row in enumerate(d)]
    return all(x % di == 0 if di else x == 0
               for x, di in zip(mat_vec(u, b), diag))


def _ref_lattice_contains(generators, target):
    """Is target an integer combination of the generator vectors?"""
    if not generators:
        return all(x == 0 for x in target)
    den = lcm(*(x.denominator for g in generators for x in g),
              *(x.denominator for x in target))
    a = [[int(g[i] * den) for g in generators] for i in range(len(target))]
    return _ref_solve_integer(a, [int(x * den) for x in target])


def _ref_in_span_mod_lattice(directions, delta):
    """Is delta in span_Q(directions) + Z^n?"""
    n = len(delta)
    ann = (_ref_null_space(directions) if directions else
           [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    if not ann:
        return True
    proj = [sum(a * x for a, x in zip(row, delta)) for row in ann]
    return _ref_lattice_contains([[row[j] for row in ann] for j in range(n)], proj)


def reference_components_intersect(c1, c2):
    if c1.n != c2.n or c1.lines != c2.lines:
        return False
    for i1 in c1.lines:
        free = (i1 in c1.free_lines) or (i1 in c2.free_lines)
        if not free and c1.display_offset()[i1 - 1] != c2.display_offset()[i1 - 1]:
            return False
    circ = [i for i in range(c1.n) if (i + 1) not in c1.lines]
    if not circ:
        return True
    joint = [[d[i] for i in circ] for d in c1.directions + c2.directions]
    off1, off2 = c1.display_offset(), c2.display_offset()
    return _ref_in_span_mod_lattice(joint, [off2[i] - off1[i] for i in circ])


def _group_components(group, sigma=None):
    """Fixed components of the non-identity elements, or of the maps g∘sigma."""
    maps = ([g.compose(sigma) for g in group] if sigma is not None
            else [g for g in group if not g.is_identity()])
    return [c for f in maps for c in _fixed_components(f)]


COMPONENT_CASES = {
    "joyce": lambda: _group_components(the_group()),
    **{f"pull-x{i}": (lambda i=i: _group_components(pull(the_group(), i)))
       for i in (1, 3)},
    **{f"cross-section-x{i}": (lambda i=i: _group_components(
        cross_section_group(pull(the_group(), i), i))) for i in (1, 3)},
    "gamma1-pull-x7": lambda: _group_components(
        pull(generate_group([alpha(), beta(), gamma1()]), 7)),
    "coassoc-5.2-half": lambda: _group_components(
        pull(the_group(), 4), AffineTorusMap(sigma_52().signs, sigma_52().shift,
                                             [4], "sigma")),
    "dihedral-T3": lambda: _group_components(_dihedral_t3()),
    "translations-T4": lambda: _group_components(_translations_t4()),
    "line-flip-T2xR": lambda: _group_components(
        ORACLE_CASES["line-flip-T2xR"]()[1]),
    # the span of (2, 1, 1) has Smith moduli 1 and 2: (0, 0, 1/2) lies off
    # the line through 0, although both of its offset-lattice rows are
    # integral
    "direction-2-1-1": lambda: [
        _Component(3, frozenset(), num, 2, dirs, ())
        for num in product(range(2), repeat=3) for dirs in ([], [(2, 1, 1)])],
}


def assert_intersections_match_reference(pairs):
    for c1, c2 in pairs:
        assert components_intersect(c1, c2) == reference_components_intersect(c1, c2)


@st.composite
def component_pairs(draw):
    """Two components of T^c x R^l with random integer directions, whose
    offset lattices can have Smith moduli above 1 (the span of (2, 1, 1)
    has moduli 1 and 2), and offsets over denominators up to 4."""
    c, l = draw(st.integers(1, 4)), draw(st.integers(0, 1))
    n, lines = c + l, frozenset(range(c + 1, c + l + 1))
    direction = st.lists(st.integers(-2, 2), min_size=c, max_size=c).filter(any)

    def component():
        dirs = [d + [0] * l for d in draw(st.lists(direction, max_size=c))]
        den = draw(st.integers(1, 4))
        free = frozenset(i for i in lines if draw(st.booleans()))
        num = draw(st.lists(st.integers(0, den - 1), min_size=c, max_size=c))
        num += [0 if i in free else draw(st.integers(-den, den)) for i in sorted(lines)]
        return _Component(n, lines, num, den, dirs, free)

    return component(), component()


class TestIntersectOracle:
    @pytest.mark.parametrize("case", list(COMPONENT_CASES))
    def test_all_pairs_match_fraction_lattice(self, case):
        assert_intersections_match_reference(
            combinations_with_replacement(COMPONENT_CASES[case](), 2))

    @pytest.mark.parametrize("sigma", [sigma_52, sigma_53])
    def test_census_points_against_t4(self, sigma):
        # two distinct points never meet, so only the pairs with a T4 are
        # taken: in 5.2 no point meets a T4, in 5.3 each point meets one
        comps = _group_components(the_group(), sigma())
        points = [c for c in comps if not c.directions]
        fours = [c for c in comps if c.directions]
        assert_intersections_match_reference(
            [(p, c) for p in points for c in fours]
            + list(combinations_with_replacement(fours, 2)))

    @settings(max_examples=30, deadline=None)
    @given(group=signed_diagonal_groups())
    def test_random_groups(self, group):
        # at most 48 components, spread over the elements, keep the pair
        # count near that of the builtin cases
        comps = _group_components(group)
        assert_intersections_match_reference(combinations_with_replacement(
            comps[::len(comps) // 48 + 1], 2))

    @settings(max_examples=200, deadline=None)
    @given(pair=component_pairs())
    def test_random_components(self, pair):
        assert_intersections_match_reference([pair])


class TestPullProperty:
    @settings(max_examples=40, deadline=None)
    @given(group=signed_diagonal_groups(pulls=False), data=st.data())
    def test_pull_is_elementwise(self, group, data):
        i = data.draw(st.integers(1, group.n))
        if any(_blocks_pull(g, i) for g in group):
            with pytest.raises(PullObstruction):
                pull(group, i)
            return
        lines = group.lines | {i}
        pulled = pull(group, i)
        assert set(pulled.elements) == {
            AffineTorusMap(g.signs, g.shift, lines) for g in group}
        assert pulled.order == group.order
        assert pulled.identity.is_identity()
        # pull builds no closure: the pulled maps must be closed, and the
        # pulled generators must generate exactly them
        assert all(g.compose(h) in pulled
                   for g in pulled for h in pulled.generators)
        # (a trivial group has no generators, so the identity is passed too)
        assert set(reference_generate_group(
            [pulled.identity, *pulled.generators])) == set(pulled)


class TestQuotientBettiOracle:
    @pytest.mark.parametrize("case", list(BETTI_CASES))
    def test_matches_minor_sums(self, case):
        group = BETTI_CASES[case]()
        assert tuple(quotient_betti(group)) == reference_quotient_betti(group)

    @settings(max_examples=40, deadline=None)
    @given(group=signed_diagonal_groups())
    def test_random_signed_diagonal_groups(self, group):
        assert tuple(quotient_betti(group)) == reference_quotient_betti(group)


# ---------------------------------------------------------------------------
# Reference for invariant_forms: a monomial on the circle block is invariant
# when the dense linear part of every element pulls it back to itself, and
# the basis has the dimension of reference_quotient_betti.

PERFBENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"


def gamma1_group():
    return generate_group([alpha(), beta(), gamma1()])


def dense_pullback(g, idx):
    """The pullback of dx^idx under dense(g), as {J: coefficient}: through
    forms.pullback up to dimension 7, where ExteriorForm stops, and as the
    nonzero minors det(L[idx, J]) above it."""
    a = dense(g)
    if g.n <= 7:
        return pullback(LinearMapR(a), ExteriorForm(g.n, len(idx), {idx: 1})).coeffs
    minors = {j: det([[a[p - 1][q - 1] for q in j] for p in idx])
              for j in combinations(range(1, g.n + 1), len(idx))}
    return {j: c for j, c in minors.items() if c}


def assert_invariant_forms_match(group):
    circ = [i for i in range(1, group.n + 1) if i not in group.lines]
    reference = reference_quotient_betti(group)
    for k in range(len(circ) + 1):
        basis = invariant_forms(group, k)
        assert basis == sorted(set(basis))
        for idx in combinations(circ, k):
            fixed = all(dense_pullback(g, idx) == {idx: 1} for g in group)
            assert fixed == (idx in basis), (k, idx)
        assert len(basis) == reference[k]


def _pull_and_cross_section(make, i):
    pulled = pull(make(), i)
    return [pulled, cross_section_group(pulled, i)]


def _scenario_groups(path):
    """A perfbench scenario file's group, and when it names a pull the
    pulled group and its cross-section too."""
    sc = load_scenario(path)
    group = generate_group([D(signs, shift, name=name)
                            for name, signs, shift in sc.generators])
    if sc.pull_direction is None:
        return [group]
    return [group, *_pull_and_cross_section(lambda: group, sc.pull_direction)]


# every pull of Γ and Γ₁ that raises no PullObstruction
JOYCE_PULLS = [("gamma", the_group, i) for i in (1, 2, 3, 4)] + \
    [("gamma1", gamma1_group, i) for i in (1, 2, 4, 7)]

INVARIANT_FORM_CASES = {
    "joyce-gamma": lambda: [the_group()],
    "joyce-gamma1": lambda: [gamma1_group()],
    **{f"{name}-pull-x{i}": (lambda make=make, i=i: _pull_and_cross_section(make, i))
       for name, make, i in JOYCE_PULLS},
    **{f"signflips-T{n}": (lambda n=n: [signflips(n)]) for n in range(5, 9)},
    **{f"perfbench-{path.stem}": (lambda path=path: _scenario_groups(path))
       for path in sorted(PERFBENCH_SCENARIOS.glob("*.json"))},
}


class TestInvariantFormsOracle:
    def test_cases_cover_every_valid_pull_and_scenario_file(self):
        for make in (the_group, gamma1_group):
            valid = []
            for i in range(1, 8):
                try:
                    pull(make(), i)
                    valid.append(i)
                except PullObstruction:
                    pass
            assert [i for _, m, i in JOYCE_PULLS if m is make] == valid
        assert len(list(PERFBENCH_SCENARIOS.glob("*.json"))) == 4

    @pytest.mark.parametrize("case", list(INVARIANT_FORM_CASES))
    def test_monomials_fixed_by_dense_pullback(self, case):
        for group in INVARIANT_FORM_CASES[case]():
            assert_invariant_forms_match(group)

    @settings(max_examples=30, deadline=None)
    @given(group=signed_diagonal_groups())
    def test_random_signed_diagonal_groups(self, group):
        assert_invariant_forms_match(group)

    def test_trivial_group_fixes_every_monomial(self):
        group = generate_group([AffineTorusMap.identity(4, lines=[2])])
        assert group.generators == ()
        assert invariant_forms(group, 2) == [(1, 3), (1, 4), (3, 4)]
        assert invariant_forms(group, 4) == []

    def test_negative_degree_refused(self):
        with pytest.raises(InvalidOperand):
            invariant_forms(the_group(), -1)


# ---------------------------------------------------------------------------
# Reference for the strata modulo the translation lattice: each coset's fixed
# set comes from a dense Smith solve of its own, each component is keyed by
# its class modulo span + Λ_T through an offset lattice built from its own
# directions (a Fraction null space and one Smith form), classes are moved
# with their directions, every coset is visited for the residual, and an
# element is looked up in the group by its linear part and the shift
# x0 - A x0, with dense linear images.  Only the translation lattice is the
# library's, so the strata must agree field by field and in order.


def dense_fixed_components(f, lattice=None, lattice_inv=None):
    """The fixed components of f; with lattice = (B, D) and lattice_inv the
    integer matrix D B^-1, those of the maps f∘t over the translations t by
    Λ = B Z^c / D, modulo Λ (both default to Λ = Z^c).

    x = B y / D turns (A - 1) x + v ∈ Λ into (A' - 1) y + w ∈ Z^c, with
    A' = (D B^-1) A B / D and w = D B^-1 v; with U (A' - 1) V = diag(d) and
    y = V z it reads d_k z_k = -(U w)_k mod 1, and a line that A reverses
    pins x_i = v_i / 2."""
    n, lines, linear = f.n, f.lines, dense(f)
    circ = [i for i in range(n) if (i + 1) not in lines]
    free_lines = set()
    for i1 in lines:
        if linear[i1 - 1][i1 - 1] == 1:
            if f.num[i1 - 1]:
                return []
            free_lines.add(i1)
    c = len(circ)
    basis, scale = lattice or (identity_matrix(c), 1)
    inv = lattice_inv or identity_matrix(c)
    a = tuple(tuple(linear[i][j] for j in circ) for i in circ)
    if scale != 1:
        a = mat_mul(inv, mat_mul(a, basis))
    m = [[x // scale - (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    u, d, v = smith_normal_form(m) if c else ((), (), ())
    w = mat_vec(u, mat_vec(inv, tuple(-f.num[i] for i in circ)))
    diag = [d[k][k] for k in range(c)]
    if any(dk == 0 and wk % f.den for dk, wk in zip(diag, w)):
        return []
    den_y = f.den * lcm(*(abs(dk) for dk in diag if dk))
    choice_sets = [[(wk + j * f.den) * (den_y // (f.den * dk)) for j in range(abs(dk))]
                   if dk else [0] for dk, wk in zip(diag, w)]
    pinned = lines - free_lines
    den = lcm(den_y * scale, 2 * f.den if pinned else 1)
    up = den // (den_y * scale)
    bv = mat_mul(basis, v) if c else ()
    dirs = []
    for k in range(c):
        if diag[k] == 0:
            vec = [0] * n
            for i, row in zip(circ, bv):
                vec[i] = row[k]
            dirs.append(vec)
    comps = []
    for combo in product(*choice_sets):
        num = [f.num[i - 1] * (den // (2 * f.den)) if i in pinned else 0
               for i in range(1, n + 1)]
        for i, x in zip(circ, mat_vec(bv, combo) if c else ()):
            num[i] = x * up % den
        comps.append(_Component(n, lines, num, den, dirs, free_lines))
    return comps


def dense_cosets(group):
    """One element of each coset of the translation subgroup, the first in
    the group's order, keyed by its dense linear part."""
    reps = {}
    for g in group.elements:
        reps.setdefault(dense(g), g)
    return reps


def _oracle_offset_lattice(n, lines, free_lines, directions, lattice):
    """The span of the directions (as a Fraction rref), integer rows R and
    moduli m such that offsets x, y over a common denominator D differ by
    an element of span + Λ iff R x = R y, row i taken mod D * m_i (exactly
    where m_i = 0), for Λ = B Z^c / s and lattice = (B, s).

    For an integer basis N of the annihilator of the span and the Smith
    form U N B V = diag(m), the circle rows are s U N; each pinned line
    coordinate adds a unit row with m = 0."""
    circ = [i for i in range(n) if (i + 1) not in lines]
    basis, scale = lattice
    d_rows = [[d[i] for i in circ] for d in directions]
    ann = (_ref_null_space(d_rows) if d_rows else
           [[Fraction(int(i == j)) for j in range(len(circ))] for i in range(len(circ))])
    ann = [[int(x * lcm(*(y.denominator for y in vec))) for x in vec] for vec in ann]
    rows, mods = [], []
    if ann:
        u, d, _ = smith_normal_form(mat_mul(ann, basis))
        for i, row in enumerate(mat_mul(u, ann)):
            full = [0] * n
            for idx, c in enumerate(circ):
                full[c] = scale * row[idx]
            rows.append(tuple(full))
            mods.append(d[i][i])
    for i1 in sorted(lines - free_lines):
        rows.append(tuple(int(j == i1 - 1) for j in range(n)))
        mods.append(0)
    return _ref_rref(d_rows) if d_rows else (), rows, mods


def _oracle_lattice(comp, lattice, memo):
    """The offset lattice of comp's directions and free lines, through memo,
    which holds those of one oracle call."""
    args = (comp.free_lines, comp.directions, lattice)
    if args not in memo:
        memo[args] = _oracle_offset_lattice(comp.n, comp.lines, *args)
    return memo[args]


def _oracle_key(comp, lattice, memo):
    """The class of comp modulo span + Λ, at the lowest denominator."""
    span, rows, mods = _oracle_lattice(comp, lattice, memo)
    den = comp.den
    vals = [v % (den * m) if m else v for v, m in zip(mat_vec(rows, comp.num), mods)]
    g = gcd(den, *vals)
    return span, den // g, tuple(v // g for v in vals), comp.free_lines


def _oracle_transport(g, comp):
    """g's image of comp, offset and directions, by dense linear images."""
    den = lcm(comp.den, g.den)
    img = _dense_image(dense(g), [x * (den // comp.den) for x in comp.num])
    num = [0 if i + 1 in comp.free_lines
           else v + t * (den // g.den) if i + 1 in comp.lines
           else (v + t * (den // g.den)) % den
           for i, (v, t) in enumerate(zip(img, g.num))]
    dirs = [_dense_image(dense(g), d) for d in comp.directions]
    return _Component(comp.n, comp.lines, num, den, dirs, comp.free_lines)


def _oracle_orbits(group, registry, key):
    """Each orbit of the registered components (key -> component) as its
    first registered component and its number of classes, moving every
    class by every generator."""
    unvisited = set(registry)
    orbits = []
    for k, comp in registry.items():
        if k not in unvisited:
            continue
        unvisited.discard(k)
        size, stack = 0, [comp]
        while stack:
            base = stack.pop()
            size += 1
            for g in group.generators:
                mk = key(_oracle_transport(g, base))
                if mk in unvisited:
                    unvisited.discard(mk)
                    stack.append(registry[mk])
        orbits.append((comp, size))
    return orbits


def _oracle_t_orbit_size(comp, lattice, memo):
    """[span + Λ_T : span + Z^c], a ratio of the Smith moduli of the offset
    lattices for Z^c and for Λ_T."""
    unit = (identity_matrix(len(lattice[0])), 1)
    plain, wide = ([m for m in _oracle_lattice(comp, lat, memo)[2] if m]
                   for lat in (unit, lattice))
    return lattice[1] ** len(plain) * prod(plain) // prod(wide)


def _dense_image(linear, vec):
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in linear)


def _oracle_fixed_pointwise_in(group, linear, comp):
    if any(_dense_image(linear, d) != d for d in comp.directions):
        return False
    if any(linear[i1 - 1][i1 - 1] != 1 for i1 in comp.free_lines):
        return False
    shift = [Fraction(x - y, comp.den)
             for x, y in zip(comp.num, _dense_image(linear, comp.num))]
    signs = [row[i] for i, row in enumerate(linear)]
    return AffineTorusMap(signs, shift, comp.lines) in group


def _oracle_acts_as_minus_one(linear, comp):
    if any(_dense_image(linear, d) != tuple(-x for x in d)
           for d in comp.directions):
        return False
    return all(linear[i1 - 1][i1 - 1] == -1 for i1 in comp.free_lines)


def _oracle_classify_residual(group, cosets, comp, setwise, key):
    pointwise = sum(_oracle_fixed_pointwise_in(group, a, comp) for a in cosets)
    if setwise == pointwise:
        return "trivial"
    if setwise == 2 * pointwise:
        if any(_oracle_acts_as_minus_one(a, comp)
               and key(_oracle_transport(f, comp)) == key(comp)
               for a, f in cosets.items()):
            return "pm1"
    return "other"


def oracle_strata(group, maps):
    """The strata of the cosets f T (f in maps) from the dense coset
    solve, with classes keyed by their own directions, moved by every
    generator, the residual classified over every coset and the strata
    sorted by Fraction offsets."""
    cosets = dense_cosets(group)
    lattice, lattice_inv = _translation_lattice(group)
    memo = {}

    def key(comp):
        return _oracle_key(comp, lattice, memo)

    registry = {}
    for f in maps:
        for comp in dense_fixed_components(f, lattice, lattice_inv):
            registry.setdefault(key(comp), comp)
    strata = []
    for rep, classes in _oracle_orbits(group, registry, key):
        count = classes * _oracle_t_orbit_size(rep, lattice, memo)
        setwise = group.order // count
        strata.append(FlatStratum(
            rep.torus_dim, rep.line_dim, count, rep.display_offset(), setwise,
            _oracle_classify_residual(group, cosets, rep, setwise, key)))
    strata.sort(key=lambda s: (-(s.torus_dim + s.line_dim), s.offset))
    return strata


def oracle_singular_locus(group):
    ident = dense(group.identity)
    return oracle_strata(group, [f for a, f in dense_cosets(group).items()
                                 if a != ident])


def oracle_census(sigma, group):
    return oracle_strata(group, [f.compose(sigma)
                                 for f in dense_cosets(group).values()])


def _permuted_file_maps(signs_shifts, perm):
    """A large-group benchmark file's generators, built inline from
    (signs, shifts) with coordinate i moved to perm[i]."""
    n = len(perm)
    gens = []
    for k, (signs, shifts) in enumerate(signs_shifts):
        moved_signs, moved_shifts = [0] * n, [0] * n
        for i in range(n):
            moved_signs[perm[i]], moved_shifts[perm[i]] = signs[i], shifts[i]
        gens.append(D(moved_signs, moved_shifts, name=f"g{k}"))
    return gens


def _permuted_file_group(signs_shifts, perm, pull_direction=None):
    """A large-group benchmark file's group, optionally pulled, with the
    pull's cross-section group."""
    group = generate_group(_permuted_file_maps(signs_shifts, perm))
    if pull_direction is None:
        return [group]
    pulled = pull(group, perm[pull_direction - 1] + 1)
    return [pulled, cross_section_group(pulled, perm[pull_direction - 1] + 1)]


ZERO7 = (0,) * 7
NEGID_QUARTER = [((-1,) * 7, ZERO7), ((1,) * 7, (Q, 0, 0, 0, 0, 0, 0))]
JOYCE_GAMMA_QUARTER = [
    ((1, 1, 1, -1, -1, -1, -1), ZERO7),
    ((1, -1, -1, 1, 1, -1, -1), (0, 0, 0, 0, 0, H, 0)),
    ((-1, 1, -1, 1, -1, 1, -1), (0, 0, 0, 0, Q, 0, H))]
JOYCE_HALF_E1 = [
    ((1, 1, 1, -1, -1, -1, -1), ZERO7),
    ((1, -1, -1, 1, 1, -1, -1), (0, 0, 0, 0, 0, H, 0)),
    ((-1, 1, -1, 1, -1, 1, -1), (0, 0, 0, 0, H, 0, H)),
    ((1,) * 7, (H, 0, 0, 0, 0, 0, 0))]
IDENTITY7 = tuple(range(7))
SHUFFLE7 = (3, 6, 0, 5, 1, 4, 2)

LOCUS_GROUPS = {
    "joyce": lambda: [the_group()],
    **{f"pull-x{i}": (lambda i=i: [pull(the_group(), i),
                                   cross_section_group(pull(the_group(), i), i)])
       for i in (1, 3)},
    "gamma1-pull-x7": lambda: [
        pull(generate_group([alpha(), beta(), gamma1()]), 7),
        cross_section_group(pull(generate_group([alpha(), beta(), gamma1()]), 7), 7)],
    **{f"{name}-{label}": (lambda gens=gens, perm=perm, d=d:
                           _permuted_file_group(gens, perm, d))
       for name, gens, d in (("negid-quarter", NEGID_QUARTER, None),
                             ("joyce-gamma-quarter", JOYCE_GAMMA_QUARTER, None),
                             ("joyce-half-e1-pull-x3", JOYCE_HALF_E1, 3))
       for label, perm in (("plain", IDENTITY7), ("shuffled", SHUFFLE7))},
    **{f"signflips-T{n}": (lambda n=n: [signflips(n)]) for n in (4, 5, 6)},
    "signflips-T4-half-e1": lambda: [ORACLE_CASES["signflips-T4-half-e1"]()[1]],
    **{case: (lambda case=case: [ORACLE_CASES[case]()[1]])
       for case in ("line-kept-T2xR", "line-reversed-T2xR", "line-reversed-T1xR",
                    "line-flip-T2xR")},
    "dihedral-T3": lambda: [_dihedral_t3()],
    "rotation-T5": lambda: [_rotation_t5()],
    "translations-T4": lambda: [_translations_t4()],
}

CENSUS_CASES = {
    "coassoc-5.2": lambda: (sigma_52(), the_group()),
    "coassoc-5.3": lambda: (sigma_53(), the_group()),
    "coassoc-5.2-half": lambda: (
        AffineTorusMap(sigma_52().signs, sigma_52().shift, [4], "sigma"),
        pull(the_group(), 4)),
    "translations-T2": lambda: (
        D([1, 1], [H, H], name="s"),
        generate_group([D([1, 1], [H, 0], name="t"),
                        D([-1, -1], [0, Fraction(3, 4)], name="m")])),
}


@st.composite
def signed_permutation_groups(draw):
    """An unpulled signed diagonal group G with its conjugate P G P^-1 by a
    random signed permutation P: y_perm(i) = t_i x_i.  The conjugate of
    x -> diag(e) x + v is again a sign vector: sign e_i and shift t_i v_i on
    coordinate perm(i)."""
    group = draw(signed_diagonal_groups(pulls=False))
    perm = draw(st.permutations(range(group.n)))
    t = draw(st.lists(st.sampled_from([1, -1]), min_size=group.n,
                      max_size=group.n))
    conj = []
    for g in [group.identity, *group.generators]:
        signs, shift = [0] * group.n, [0] * group.n
        for i in range(group.n):
            signs[perm[i]], shift[perm[i]] = g.signs[i], t[i] * g.shift[i]
        conj.append(D(signs, shift, name=g.name))
    return group, generate_group(conj)


def _stratum_shape(s):
    return (s.torus_dim, s.line_dim, s.count, s.stabilizer_order, s.residual)


class TestResidualOracle:
    @pytest.mark.parametrize("case", list(LOCUS_GROUPS))
    def test_singular_locus_matches_per_coset_residual(self, case):
        for group in LOCUS_GROUPS[case]():
            assert singular_locus(group) == oracle_singular_locus(group)

    @pytest.mark.parametrize("case", list(CENSUS_CASES))
    def test_census_matches_per_coset_residual(self, case):
        sigma, group = CENSUS_CASES[case]()
        assert involution_fixed_census(sigma, group) == oracle_census(sigma, group)

    def test_cases_cover_every_residual(self):
        residuals = {s.residual for case in LOCUS_GROUPS.values()
                     for group in case() for s in singular_locus(group)}
        assert residuals == {"trivial", "pm1", "other"}

    def test_signflip_stratum_counts(self):
        # a stratum picks, per coordinate, free or one of the two fixed values
        for n in (4, 5, 6):
            assert len(singular_locus(signflips(n))) == 3 ** n - 1

    @settings(max_examples=40, deadline=None)
    @given(pair=signed_permutation_groups())
    def test_random_signed_permutation_groups(self, pair):
        # P is a diffeomorphism of T^n carrying G's strata onto those of
        # P G P^-1, so their shapes agree, and the conjugate's own strata
        # match the oracle
        group, conj = pair
        assert conj.order == group.order
        locus = singular_locus(conj)
        assert locus == oracle_singular_locus(conj)
        assert (sorted(map(_stratum_shape, locus))
                == sorted(map(_stratum_shape, singular_locus(group))))

    def test_negid_quarter_makes_no_self_moves(self, monkeypatch):
        # every class lies in the fixed set of the coset of -Id, the only
        # linear part a generator moves by; a move images a class's offset
        # by the generator's _act, and all 128 strata are points, whose
        # residual takes no image
        group, = _permuted_file_group(NEGID_QUARTER, IDENTITY7)
        joyce = the_group()
        moves = []
        act = AffineTorusMap._act
        monkeypatch.setattr(AffineTorusMap, "_act",
                            lambda g, num, den: moves.append(g) or act(g, num, den))
        assert len(singular_locus(group)) == 128
        assert moves == []
        # the counter sees moves where they happen: Joyce's classes of the
        # alpha coset are moved by beta and gamma
        assert len(singular_locus(joyce)) == 12
        assert moves

    def test_torus_binds_no_lru_cache(self):
        # caches keyed by input data grow with the inputs a process sees
        names = [(name, value) for name, value in vars(torus).items()]
        names += [(f"{name}.{attr}", member) for name, value in vars(torus).items()
                  if isinstance(value, type) and value.__module__ == torus.__name__
                  for attr, member in vars(value).items()]
        assert [name for name, value in names
                if isinstance(getattr(value, "__func__", value), _lru_cache_wrapper)] == []


# ---------------------------------------------------------------------------
# The integer matrix D B^-1 of the translation lattice, against the Fraction
# inverse of B.


def assert_lattice_inverse(group):
    """_translation_lattice's D B^-1 solves B X = D I and equals D times
    the Gauss-Jordan inverse of B."""
    (basis, den), lattice_inv = _translation_lattice(group)
    c = len(basis)
    assert mat_mul(basis, lattice_inv) == tuple(
        tuple(den * x for x in row) for row in identity_matrix(c))
    if c:
        assert lattice_inv == tuple(tuple(den * x for x in row)
                                    for row in inverse(basis))
    assert all(isinstance(x, int) for row in lattice_inv for x in row)


@st.composite
def translation_groups(draw):
    """Pure translations of T^c (c = 1..5) with shifts k/d, d <= 8, optionally
    with -Id, closed under the library's closure bound."""
    c = draw(st.integers(1, 5))
    shift = st.sampled_from([Fraction(k, d) for d in range(1, 9) for k in range(d)])
    gens = [D([1] * c, draw(st.lists(shift, min_size=c, max_size=c)), name=f"t{i}")
            for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens.append(D([-1] * c, name="neg"))
    try:
        return generate_group(gens)
    except GroupTooLarge:
        assume(False)


class TestLatticeInverse:
    @pytest.mark.parametrize("case", list(LOCUS_GROUPS))
    def test_locus_groups(self, case):
        # the builtin groups, their pulls and cross-sections, and the
        # large-group benchmark files plain and shuffled, among others
        for group in LOCUS_GROUPS[case]():
            assert_lattice_inverse(group)

    def test_nontrivial_lattices_are_covered(self):
        dens = {_translation_lattice(group)[0][1] for case in LOCUS_GROUPS.values()
                for group in case()}
        assert {1, 2, 4} <= dens

    @settings(max_examples=60, deadline=None)
    @given(group=translation_groups())
    def test_random_translation_groups(self, group):
        assert_lattice_inverse(group)


# ---------------------------------------------------------------------------
# Reference for the closure: breadth-first search that moves every element
# found by every generator, and the cross-section groups closed from all of
# their members, each restriction validated again by the public constructor.


def reference_generate_group(gens, bound=torus.GROUP_SIZE_BOUND):
    """The elements that gens generate, identity first, by breadth-first
    search; GroupTooLarge past bound elements."""
    ident = AffineTorusMap.identity(gens[0].n, gens[0].lines)
    elements, frontier, seen = [ident], [ident], {ident}
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = cur.compose(g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise GroupTooLarge(f"more than {bound} elements")
        elements.extend(nxt)
        frontier = nxt
    return elements


def reference_cross_section(group, i):
    keep = [j for j in range(group.n) if j != i - 1]
    new_lines = frozenset(j if j < i else j - 1 for j in group.lines if j != i)
    return reference_generate_group([
        AffineTorusMap([dense(g)[p][p] for p in keep],
                       [g.shift[p] for p in keep], new_lines, g.name)
        for g in group.elements if dense(g)[i - 1][i - 1] == 1])


def assert_few_generators(sub):
    assert sub.identity.is_identity()
    assert len(sub.elements) == len(set(sub.elements))
    assert len(sub.generators) <= log2(sub.order)


def assert_closure_matches_reference(gens, bound=torus.GROUP_SIZE_BOUND):
    group = generate_group(gens, bound)
    assert set(group.elements) == set(reference_generate_group(gens, bound))
    assert set(group.generators) <= set(gens)
    assert_few_generators(group)


def assert_sections_match_reference(group):
    for i in group.lines:
        cs = cross_section_group(group, i)
        assert set(cs.elements) == set(reference_cross_section(group, i))
        assert_few_generators(cs)


ORDER_1024_MAPS = JOYCE_HALF_E1[:3] + [((1,) * 7, step) for step in (
    (H, 0, 0, 0, 0, 0, 0), (0, Q, 0, 0, 0, 0, 0), (0, 0, 0, Q, 0, 0, 0),
    (0, 0, 0, 0, 0, H, 0), (0, 0, 0, 0, 0, 0, H))]

CLOSURE_CASES = {
    "joyce": lambda: [alpha(), beta(), gamma()],
    "joyce-gamma1": lambda: [alpha(), beta(), gamma1()],
    "alpha-beta": lambda: [alpha(), beta()],
    "identity": lambda: [AffineTorusMap.identity(7)],
    **{f"{name}-{label}": (lambda gens=gens, perm=perm:
                           _permuted_file_maps(gens, perm))
       for name, gens in (("negid-quarter", NEGID_QUARTER),
                          ("joyce-gamma-quarter", JOYCE_GAMMA_QUARTER),
                          ("joyce-half-e1", JOYCE_HALF_E1),
                          ("order-1024", ORDER_1024_MAPS))
       for label, perm in (("plain", IDENTITY7), ("shuffled", SHUFFLE7))},
    "negid-T8-order-1024": lambda: [D([-1] * 8, name="m")] + [
        D([1] * 8, [Q if j == 0 else H if j == i else 0 for j in range(8)],
          name=f"t{i}") for i in range(8)],
    **{f"signflips-T{n}": (lambda n=n: list(signflips(n).elements[1:]))
       for n in (4, 5)},
    "translations-T4": lambda: list(_translations_t4().elements),
    "rotation-T2": lambda: [rotation_t2()],
    "dihedral-T3": lambda: list(_dihedral_t3().elements),
    "rotation-T5": lambda: list(_rotation_t5().elements),
    **{case: (lambda case=case: list(ORACLE_CASES[case]()[1].elements))
       for case in ("line-kept-T2xR", "line-reversed-T2xR", "line-reversed-T1xR",
                    "line-flip-T2xR", "signflips-T4-half-e1")},
}


class TestClosureOracle:
    @pytest.mark.parametrize("case", list(CLOSURE_CASES))
    def test_matches_breadth_first_search(self, case):
        assert_closure_matches_reference(CLOSURE_CASES[case]())

    @pytest.mark.parametrize("case", list(LOCUS_GROUPS))
    def test_generators_generate_each_group(self, case):
        # also for the pulled groups, which pull builds without a closure
        for group in LOCUS_GROUPS[case]():
            assert set(reference_generate_group(
                [group.identity, *group.generators])) == set(group)
            assert_few_generators(group)

    @settings(max_examples=40, deadline=None)
    @given(gens=signed_diagonal_generators())
    def test_random_signed_diagonal_maps(self, gens):
        try:
            reference_generate_group(gens, bound=256)
        except GroupTooLarge:
            with pytest.raises(GroupTooLarge):
                generate_group(gens, bound=256)
            return
        assert_closure_matches_reference(gens, bound=256)


class TestSubgroupOracle:
    @pytest.mark.parametrize("case", list(LOCUS_GROUPS))
    def test_sections_match_full_closure(self, case):
        for group in LOCUS_GROUPS[case]():
            assert_sections_match_reference(group)

    def test_order_1024_pull_has_few_generators(self):
        group, = _permuted_file_group(ORDER_1024_MAPS, SHUFFLE7)
        pulled = pull(group, SHUFFLE7[2] + 1)
        cs = cross_section_group(pulled, SHUFFLE7[2] + 1)
        assert pulled.order == 1024 and cs.order == 512
        assert_few_generators(pulled)
        assert_few_generators(cs)

    @settings(max_examples=40, deadline=None)
    @given(group=signed_diagonal_groups())
    def test_random_pulled_groups(self, group):
        assert_sections_match_reference(group)

    @settings(max_examples=40, deadline=None)
    @given(group=signed_diagonal_groups(), data=st.data())
    def test_subgroup_of_random_members(self, group, data):
        members = data.draw(st.lists(st.sampled_from(group.elements),
                                     min_size=1, max_size=4))
        sub = generate_group(members)
        assert set(sub.elements) == set(reference_generate_group(members))
        assert set(sub.elements) <= set(group.elements)
        assert_few_generators(sub)
