"""Exact discrete forms on T^d x I and the two-stage primitive."""

import math
from fractions import Fraction
from functools import _lru_cache_wrapper

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2kit import poincare
from g2kit.errors import InvalidOperand, NotExact
from g2kit.poincare import (
    CylinderForm,
    exterior_derivative,
    poincare_primitive,
    primitive_ratio_study,
    random_exact_form,
)

F = Fraction


def sine_dx2():
    """sin(x1) dx2 on T^2 x I in complex modes."""
    return build_ref(2, 1, {
        ((1, 0), (1,), False): ((0, F(-1, 2)),),
        ((-1, 0), (1,), False): ((0, F(1, 2)),),
    })


class TestReferenceArithmetic:
    """The reference oracle's complex arithmetic on (re, im) pairs."""

    def test_arithmetic(self):
        a = (F(1, 2), F(-1, 3))
        b = (F(2), F(1, 3))
        assert c_add(a, b) == (F(5, 2), 0)
        assert c_add(a, c_mul(MINUS_ONE, b)) == (F(-3, 2), F(-2, 3))
        assert c_mul(a, b) == (F(1) + F(1, 9), F(1, 6) - F(2, 3))
        assert c_mul(MINUS_ONE, a) == (F(-1, 2), F(1, 3))
        assert c_norm_sq(a) == F(1, 4) + F(1, 9)

    def test_zero_is_trimmed(self):
        assert ref_trim([ZERO_PAIR]) == ()
        assert ref_trim([(0, F(1, 5)), ZERO_PAIR]) == ((0, F(1, 5)),)
        assert ref_scale((F(1, 3), 0), [(F(3), 0)]) == ((1, 0),)

    def test_product_norm(self):
        a = (F(2, 3), F(-1, 7))
        b = (F(-5), F(1, 2))
        assert c_norm_sq(c_mul(a, b)) == c_norm_sq(a) * c_norm_sq(b)


class TestBuild:
    def test_degree_range(self):
        # a random form's degree lies in 0..d+1
        with pytest.raises(InvalidOperand):
            random_form(2, 4, 2, 0)

    def test_zero_terms_dropped(self):
        w = build_ref(2, 1, {((1, 0), (0,), False): (ZERO_PAIR, ZERO_PAIR)})
        assert w.is_zero

    def test_addition_cancels(self):
        terms = pairs_of(sine_dx2())
        total = ref_sum(terms, ref_neg(terms))
        assert total == {}
        assert build_ref(2, 1, total).is_zero
        assert build_ref(2, 1, ref_sum(terms, terms)) == build_ref(
            2, 1, {key: ref_scale((2, 0), poly) for key, poly in terms.items()})


class TestDerivative:
    def test_hand_example(self):
        dw = exterior_derivative(sine_dx2())   # cos(x1) dx1 ^ dx2
        assert pairs_of(dw) == {
            ((1, 0), (0, 1), False): ((F(1, 2), 0),),
            ((-1, 0), (0, 1), False): ((F(1, 2), 0),),
        }

    def test_time_component_sign(self):
        # d(t dx1) = -dx1 ^ dt, i.e. +dt ^ dx1
        w = build_ref(2, 1, {((0, 0), (0,), False): (ZERO_PAIR, (1, 0))})
        dw = exterior_derivative(w)
        assert pairs_of(dw) == {((0, 0), (0,), True): ((-1, 0),)}

    @pytest.mark.parametrize("d,degree", [(2, 0), (2, 1), (2, 2), (3, 1),
                                          (3, 2), (3, 3)])
    def test_square_zero(self, d, degree):
        for seed in range(10):
            w = random_form(d, degree, cutoff=2, seed=seed)
            assert exterior_derivative(exterior_derivative(w)).is_zero

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_square_zero_property(self, seed):
        w = random_form(3, seed % 4, cutoff=3, seed=seed)
        assert exterior_derivative(exterior_derivative(w)).is_zero

    def test_top_degree_derivative_is_zero(self):
        w = build_ref(2, 3, {((1, 0), (0, 1), True): ((1, 0),)})
        assert exterior_derivative(w).is_zero


class TestPrimitive:
    def test_sine_round_trip(self):
        w = exterior_derivative(sine_dx2())
        res = poincare_primitive(w)
        assert res.primitive == sine_dx2()
        assert exterior_derivative(res.primitive) == w
        assert res.ratio_sq == F(1)
        assert res.input_norm_sq == F(1, 2)

    def test_hundred_random_bit_exact(self):
        for seed in range(100):
            w = random_exact_form(2, 2, cutoff=2, seed=seed)
            res = poincare_primitive(w)
            assert exterior_derivative(res.primitive) == w

    @pytest.mark.parametrize("d,degree", [(2, 1), (3, 2), (3, 3), (2, 3)])
    def test_other_shapes_bit_exact(self, d, degree):
        for seed in range(15):
            w = random_exact_form(d, degree, cutoff=2, seed=seed)
            res = poincare_primitive(w)
            assert exterior_derivative(res.primitive) == w

    def test_ratio_is_exact_rational(self):
        res = poincare_primitive(random_exact_form(2, 2, cutoff=2, seed=1))
        assert isinstance(res.ratio_sq, F)
        assert res.primitive_norm_sq == res.ratio_sq * res.input_norm_sq

    def test_harmonic_component_rejected(self):
        w = build_ref(2, 1, {((0, 0), (0,), False): ((1, 0),)})
        assert exterior_derivative(w).is_zero
        with pytest.raises(NotExact):
            poincare_primitive(w)

    def test_not_closed_rejected(self):
        w = build_ref(2, 1, {((1, 0), (1,), False): ((1, 0),)})
        with pytest.raises(NotExact):
            poincare_primitive(w)

    def test_zero_form_rejected(self):
        w = build_ref(2, 0, {((1, 0), (), False): ((1, 0),)})
        with pytest.raises(InvalidOperand):
            poincare_primitive(w)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_zero_form_has_no_ratio(self, degree):
        w = random_form(2, degree, 2, 0, n_terms=0)
        assert w.is_zero
        with pytest.raises(InvalidOperand, match="zero form"):
            poincare_primitive(w)

    def test_pure_time_integration(self):
        # omega = dt on T^2 x I is d(t), exact among 1-forms with
        # polynomial coefficients
        w = build_ref(2, 1, {((0, 0), (), True): ((1, 0),)})
        res = poincare_primitive(w)
        assert exterior_derivative(res.primitive) == w
        assert pairs_of(res.primitive) == {
            ((0, 0), (), False): (ZERO_PAIR, (1, 0))}


class TestRefinementStability:
    def test_max_ratio_drift_under_doubling(self):
        m2, r2 = primitive_ratio_study(2, 2, cutoff=2, n=100, seed=0)
        m4, r4 = primitive_ratio_study(2, 2, cutoff=4, n=100, seed=0)
        # the coupled ensembles genuinely differ in their fine content
        assert sum(1 for a, b in zip(r2, r4) if a != b) > 10
        assert abs(m4 - m2) < 0.10 * m2
        assert m2 == max(r2)

    def test_ratios_bounded(self):
        m8, r8 = primitive_ratio_study(2, 2, cutoff=8, n=50, seed=11)
        assert all(0 <= r < 10 for r in r8)

    @pytest.mark.parametrize("n", [0, -1])
    def test_study_needs_a_form(self, n):
        with pytest.raises(InvalidOperand):
            primitive_ratio_study(2, 2, 2, n)


class TestDrawArguments:
    def test_no_torus_of_dimension_zero(self):
        with pytest.raises(InvalidOperand):
            random_form(0, 0, 2, 0)
        with pytest.raises(InvalidOperand):
            random_exact_form(0, 1, 2, 0)

    def test_negative_cutoff(self):
        with pytest.raises(InvalidOperand):
            random_form(2, 1, -1, 0)
        with pytest.raises(InvalidOperand):
            random_exact_form(2, 2, -1, 0)

    def test_negative_polynomial_degree(self):
        with pytest.raises(InvalidOperand):
            random_form(2, 1, 2, 0, max_poly_degree=-1)
        with pytest.raises(InvalidOperand):
            random_exact_form(2, 2, 2, 0, max_poly_degree=-1)

    @pytest.mark.parametrize("degree", [0, 4, 5])
    def test_exact_degree_out_of_range(self, degree):
        with pytest.raises(InvalidOperand):
            random_exact_form(2, degree, 2, 0)


# -- the stored form is canonical: one denominator, one gcd per form --


def assert_canonical(f):
    assert isinstance(f.den, int) and f.den > 0
    assert isinstance(f.terms, tuple)
    ints = []
    for key, pairs in f.terms:
        assert isinstance(pairs, tuple) and pairs
        assert all(isinstance(p, tuple) and len(p) == 2 for p in pairs)
        assert pairs[-1] != (0, 0)
        ints.extend(v for p in pairs for v in p)
    assert all(type(v) is int for v in ints)
    assert math.gcd(f.den, *ints) == 1
    keys = [key for key, _ in f.terms]
    assert keys == sorted(set(keys))


@st.composite
def drawn_forms(draw):
    d = draw(st.integers(2, 3))
    degree = draw(st.integers(0, d + 1))
    return d, degree, random_form(
        d, degree, cutoff=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 10 ** 6)), n_terms=draw(st.integers(0, 5)),
        max_poly_degree=draw(st.integers(0, 3)))


small_coeffs = st.lists(
    st.tuples(st.fractions(-4, 4, max_denominator=12),
              st.fractions(-4, 4, max_denominator=12)),
    max_size=4)


class TestCanonical:
    @given(drawn_forms(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_form_is_canonical(self, drawn, data):
        d, degree, f = drawn
        assert_canonical(f)
        assert build_ref(d, degree, pairs_of(f)) == f
        df = exterior_derivative(f)
        assert_canonical(df)
        assert build_ref(d, df.degree, pairs_of(df)) == df
        terms = pairs_of(f)
        for g in (ref_sum(terms, terms), ref_sum(terms, ref_neg(terms)),
                  ref_neg(terms)):
            assert_canonical(build_ref(d, degree, g))
        # the same keys with other coefficients, zeros and trailing zeros
        # included, over mixed denominators
        rebuilt = build_ref(d, degree, {
            key: tuple(data.draw(small_coeffs)) + (ZERO_PAIR,) * data.draw(
                st.integers(0, 2)) for key, _ in f.terms})
        assert_canonical(rebuilt)
        expected = ref_sum(pairs_of(rebuilt), terms)
        total = build_ref(d, degree, expected)
        assert_canonical(total)
        assert pairs_of(total) == expected
        assert build_ref(d, degree, pairs_of(rebuilt)) == rebuilt
        if degree >= 1:
            w = random_exact_form(d, degree, cutoff=3,
                                  seed=data.draw(st.integers(0, 10 ** 6)))
            assert_canonical(w)
            assert_canonical(poincare_primitive(w).primitive)

    def test_fixed_forms_are_canonical(self):
        for w in (exterior_derivative(sine_dx2()), mixed_denominator_form()):
            assert_canonical(w)
            assert_canonical(poincare_primitive(w).primitive)

    def test_poincare_binds_no_lru_cache(self):
        # reproduce-all runs the same seed on every pass, so a memo would
        # measure a different program
        names = [(name, value) for name, value in vars(poincare).items()]
        names += [(f"{name}.{attr}", member)
                  for name, value in vars(poincare).items()
                  if isinstance(value, type)
                  and value.__module__ == poincare.__name__
                  for attr, member in vars(value).items()]
        assert [name for name, value in names
                if isinstance(getattr(value, "__func__", value),
                              _lru_cache_wrapper)] == []


# -- test-local reference: per-coefficient arithmetic on (re, im) pairs --
#
# A complex rational is a pair of Fractions, and a form is a plain dict
# {(mode, spatial, has_dt): tuple of pairs} without zero polynomials or
# trailing zero pairs.  Nothing here uses the library's arithmetic, so it
# is an independent oracle for the integer-pair fast path.  pairs_of and
# build_ref cross the boundary: one reads a form's integer pairs over its
# denominator, the other hands CylinderForm._of the reference terms over
# the lcm of their denominators.

ZERO_PAIR = (F(0), F(0))
MINUS_ONE = (F(-1), F(0))


def c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_norm_sq(a):
    return a[0] * a[0] + a[1] * a[1]


def pairs_of(form):
    """A library form as reference terms."""
    return {key: tuple((F(x, form.den), F(y, form.den)) for x, y in pairs)
            for key, pairs in form.terms}


def build_ref(d, degree, terms):
    """The library form with the reference terms' coefficients; zero and
    trailing zero pairs may appear."""
    den = math.lcm(*(F(v).denominator for poly in terms.values()
                     for c in poly for v in c))
    return CylinderForm._of(d, degree, den, {
        key: [(int(F(x) * den), int(F(y) * den)) for x, y in poly]
        for key, poly in terms.items()})


def random_form(d, degree, cutoff, seed, n_terms=4, max_poly_degree=2):
    """A random form drawn as random_exact_form draws its primitives."""
    return CylinderForm._of(d, degree, 6, poincare._random_polys(
        d, degree, cutoff, seed, n_terms, max_poly_degree))


def ref_trim(p):
    p = list(p)
    while p and p[-1] == ZERO_PAIR:
        p.pop()
    return tuple(p)


def ref_add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (ZERO_PAIR,) * (n - len(a))
    b = tuple(b) + (ZERO_PAIR,) * (n - len(b))
    return ref_trim(c_add(x, y) for x, y in zip(a, b))


def ref_scale(c, p):
    return ref_trim(c_mul(c, x) for x in p)


def ref_deriv(p):
    return ref_trim(c_mul((k, 0), p[k]) for k in range(1, len(p)))


def ref_integral(p):
    return ref_trim((ZERO_PAIR,) + tuple(c_mul((F(1, k + 1), 0), p[k])
                                         for k in range(len(p))))


def ref_norm_sq(p):
    total = F(0)
    for a, ca in enumerate(p):
        for b, cb in enumerate(p):
            # Re(c_a * conj(c_b))
            total += (ca[0] * cb[0] + ca[1] * cb[1]) * F(1, a + b + 1)
    return total


def ref_put(terms, key, poly):
    total = ref_add(terms.get(key, ()), poly)
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def ref_sum(a, b):
    out = dict(a)
    for key, poly in b.items():
        ref_put(out, key, poly)
    return out


def ref_neg(terms):
    return {key: ref_scale(MINUS_ONE, poly) for key, poly in terms.items()}


def ref_d(d, terms):
    out = {}
    for (mode, spatial, has_dt), poly in terms.items():
        for j in range(d):
            if mode[j] == 0 or j in spatial:
                continue
            sign = (-1) ** sum(1 for i in spatial if i < j)
            ref_put(out, (mode, tuple(sorted(spatial + (j,))), has_dt),
                    ref_scale((0, sign * mode[j]), poly))
        if not has_dt:
            ref_put(out, (mode, spatial, True),
                    ref_scale(((-1) ** len(spatial), 0), ref_deriv(poly)))
    return out


def ref_primitive(d, terms):
    """(primitive, input norm^2, primitive norm^2) of an exact form."""
    chi = {}
    for (mode, spatial, has_dt), poly in terms.items():
        if has_dt:
            ref_put(chi, (mode, spatial, False),
                    ref_scale(((-1) ** len(spatial), 0), ref_integral(poly)))
    remainder = ref_sum(terms, ref_neg(ref_d(d, chi)))
    for (mode, spatial, has_dt), poly in list(remainder.items()):
        assert not has_dt and any(mode)
        msq = sum(c * c for c in mode)
        for pos, j in enumerate(spatial):
            if mode[j]:
                c = (0, F(-mode[j], msq) * (-1) ** pos)
                ref_put(chi, (mode, spatial[:pos] + spatial[pos + 1:], False),
                        ref_scale(c, poly))
    assert ref_d(d, chi) == terms
    wsq = sum((ref_norm_sq(p) for p in terms.values()), F(0))
    csq = sum((ref_norm_sq(p) for p in chi.values()), F(0))
    return chi, wsq, csq


def assert_matches_reference(w):
    res = poincare_primitive(w)
    chi, wsq, csq = ref_primitive(w.d, pairs_of(w))
    assert pairs_of(res.primitive) == chi
    # the library form is canonical: rebuilding it from the reference
    # coefficients gives the same terms
    assert res.primitive == build_ref(w.d, w.degree - 1, chi)
    assert res.input_norm_sq == wsq
    assert res.primitive_norm_sq == csq
    assert res.ratio_sq == csq / wsq


def mixed_denominator_form():
    """d of a 1-form on T^2 x I with cubic, mixed-denominator coefficients."""
    eta = {
        ((1, -2), (0,), False): ((F(7, 6), F(-5, 4)), ZERO_PAIR,
                                 (F(1, 10), F(3, 7)), (F(-9, 14), F(2, 15))),
        ((0, 3), (1,), False): ((F(1, 3), 0), (0, F(4, 9))),
        ((2, 1), (), True): ((F(-11, 12), F(5, 8)), ZERO_PAIR,
                             (F(1, 5), F(-1, 6))),
    }
    return build_ref(2, 2, ref_d(2, eta))


class TestReferenceOracle:
    def test_fixed_forms(self):
        assert_matches_reference(exterior_derivative(sine_dx2()))
        assert_matches_reference(mixed_denominator_form())
        assert_matches_reference(build_ref(2, 1, {
            ((0, 0), (), True): ((F(2, 3), 0), ZERO_PAIR,
                                 (F(-1, 4), F(5, 6)))}))

    @pytest.mark.parametrize("d,degree", [(2, 1), (2, 2), (2, 3), (3, 1),
                                          (3, 2), (3, 3), (3, 4)])
    def test_fixed_random_forms(self, d, degree):
        for seed in range(5):
            assert_matches_reference(
                random_exact_form(d, degree, cutoff=3, seed=seed))

    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_reproduce_all_forms(self, cutoff):
        # the forms of flow-suite at seeds 0 and 3: its bit-exact count
        # draws cutoff-2 forms, its ratio study cutoff-4 forms
        for seed in range(103):
            assert_matches_reference(random_exact_form(2, 2, cutoff, seed))

    def test_derivative_matches_reference(self):
        for seed in range(20):
            w = random_form(3, seed % 5, cutoff=3, seed=seed)
            assert pairs_of(exterior_derivative(w)) == \
                ref_d(3, pairs_of(w))

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_exact_forms(self, d, data):
        degree = data.draw(st.integers(1, d + 1))
        cutoff = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 10 ** 6))
        assert_matches_reference(random_exact_form(d, degree, cutoff, seed))
