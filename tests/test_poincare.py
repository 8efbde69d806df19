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
    ComplexFrac,
    CylinderForm,
    exterior_derivative,
    poincare_primitive,
    primitive_ratio_study,
    random_exact_form,
    random_form,
)

F = Fraction
I_HALF = ComplexFrac(0, F(1, 2))
ZERO = ComplexFrac()


def sine_dx2():
    """sin(x1) dx2 on T^2 x I in complex modes."""
    return CylinderForm.build(2, 1, {
        ((1, 0), (1,), False): (-I_HALF,),
        ((-1, 0), (1,), False): (I_HALF,),
    })


class TestComplexFrac:
    def test_arithmetic(self):
        a = ComplexFrac(F(1, 2), F(-1, 3))
        b = ComplexFrac(F(2), F(1, 3))
        assert a + b == ComplexFrac(F(5, 2), 0)
        assert a - b == ComplexFrac(F(-3, 2), F(-2, 3))
        assert a * b == ComplexFrac(F(1) + F(1, 9), F(1, 6) - F(2, 3))
        assert -a == ComplexFrac(F(-1, 2), F(1, 3))
        assert a.norm_sq() == F(1, 4) + F(1, 9)

    def test_truthiness(self):
        assert not ComplexFrac()
        assert ComplexFrac(0, F(1, 5))
        assert ComplexFrac(3) * F(1, 3) == ComplexFrac(1)

    def test_product_norm(self):
        a = ComplexFrac(F(2, 3), F(-1, 7))
        b = ComplexFrac(F(-5), F(1, 2))
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


class TestBuild:
    def test_mode_length_checked(self):
        with pytest.raises(InvalidOperand):
            CylinderForm.build(2, 1, {((1,), (0,), False): (ComplexFrac(1),)})

    def test_degree_consistency(self):
        with pytest.raises(InvalidOperand):
            CylinderForm.build(2, 2, {((1, 0), (1,), False): (ComplexFrac(1),)})

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InvalidOperand):
            CylinderForm.build(2, 2, {((1, 0), (1, 1), False): (ComplexFrac(1),)})

    def test_degree_range(self):
        with pytest.raises(InvalidOperand):
            CylinderForm.build(2, 4, {})

    def test_zero_terms_dropped(self):
        w = CylinderForm.build(2, 1, {((1, 0), (0,), False): (ComplexFrac(0),)})
        assert w.is_zero

    def test_addition_cancels(self):
        w = sine_dx2()
        assert (w - w).is_zero
        assert w + (-w) == w - w

    def test_shape_mismatch(self):
        with pytest.raises(InvalidOperand):
            sine_dx2() + exterior_derivative(sine_dx2())


class TestDerivative:
    def test_hand_example(self):
        dw = exterior_derivative(sine_dx2())   # cos(x1) dx1 ^ dx2
        assert dw.mapping() == {
            ((1, 0), (0, 1), False): (ComplexFrac(F(1, 2)),),
            ((-1, 0), (0, 1), False): (ComplexFrac(F(1, 2)),),
        }

    def test_time_component_sign(self):
        # d(t dx1) = -dx1 ^ dt, i.e. +dt ^ dx1
        w = CylinderForm.build(2, 1, {
            ((0, 0), (0,), False): (ComplexFrac(0), ComplexFrac(1))})
        dw = exterior_derivative(w)
        assert dw.mapping() == {((0, 0), (0,), True): (ComplexFrac(-1),)}

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
        w = CylinderForm.build(2, 3, {
            ((1, 0), (0, 1), True): (ComplexFrac(1),)})
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
        w = CylinderForm.build(2, 1, {
            ((0, 0), (0,), False): (ComplexFrac(1),)})
        assert exterior_derivative(w).is_zero
        with pytest.raises(NotExact):
            poincare_primitive(w)

    def test_not_closed_rejected(self):
        w = CylinderForm.build(2, 1, {
            ((1, 0), (1,), False): (ComplexFrac(1),)})
        with pytest.raises(NotExact):
            poincare_primitive(w)

    def test_zero_form_rejected(self):
        w = CylinderForm.build(2, 0, {
            ((1, 0), (), False): (ComplexFrac(1),)})
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
        w = CylinderForm.build(2, 1, {((0, 0), (), True): (ComplexFrac(1),)})
        res = poincare_primitive(w)
        assert exterior_derivative(res.primitive) == w
        assert res.primitive.mapping() == {
            ((0, 0), (), False): (ComplexFrac(0), ComplexFrac(1))}


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
    st.builds(ComplexFrac,
              st.fractions(-4, 4, max_denominator=12),
              st.fractions(-4, 4, max_denominator=12)),
    max_size=4)


class TestCanonical:
    @given(drawn_forms(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_form_is_canonical(self, drawn, data):
        d, degree, f = drawn
        assert_canonical(f)
        assert CylinderForm.build(d, degree, f.mapping()) == f
        df = exterior_derivative(f)
        assert_canonical(df)
        assert CylinderForm.build(d, df.degree, df.mapping()) == df
        for g in (f + f, f - f, -f):
            assert_canonical(g)
        # the same keys with other coefficients, zeros and trailing zeros
        # included, over mixed denominators
        rebuilt = CylinderForm.build(d, degree, {
            key: tuple(data.draw(small_coeffs)) + (ZERO,) * data.draw(
                st.integers(0, 2)) for key, _ in f.terms})
        assert_canonical(rebuilt)
        total = rebuilt + f
        assert_canonical(total)
        expected = dict(rebuilt.mapping())
        for key, poly in f.mapping().items():
            ref_put(expected, key, poly)
        assert total.mapping() == expected
        assert CylinderForm.build(d, degree, rebuilt.mapping()) == rebuilt
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


# -- test-local reference: per-coefficient ComplexFrac/Fraction arithmetic --
#
# Forms are plain dicts {(mode, spatial, has_dt): tuple of ComplexFrac}
# without zero entries.  Nothing here uses the library's polynomial
# helpers, so it is an independent oracle for the integer-pair fast path.


def ref_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def ref_add(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (ZERO,) * (n - len(a))
    b = tuple(b) + (ZERO,) * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_scale(c, p):
    return ref_trim(c * x for x in p)


def ref_deriv(p):
    return ref_trim(p[k] * k for k in range(1, len(p)))


def ref_integral(p):
    return ref_trim((ZERO,) + tuple(p[k] * F(1, k + 1) for k in range(len(p))))


def ref_norm_sq(p):
    total = F(0)
    for a, ca in enumerate(p):
        for b, cb in enumerate(p):
            total += (ca * ComplexFrac(cb.re, -cb.im)).re * F(1, a + b + 1)
    return total


def ref_put(terms, key, poly):
    total = ref_add(terms.get(key, ()), poly)
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def ref_d(d, terms):
    out = {}
    for (mode, spatial, has_dt), poly in terms.items():
        for j in range(d):
            if mode[j] == 0 or j in spatial:
                continue
            sign = (-1) ** sum(1 for i in spatial if i < j)
            ref_put(out, (mode, tuple(sorted(spatial + (j,))), has_dt),
                    ref_scale(ComplexFrac(0, sign * mode[j]), poly))
        if not has_dt:
            ref_put(out, (mode, spatial, True),
                    ref_scale(ComplexFrac((-1) ** len(spatial)),
                              ref_deriv(poly)))
    return out


def ref_primitive(d, terms):
    """(primitive, input norm^2, primitive norm^2) of an exact form."""
    chi = {}
    for (mode, spatial, has_dt), poly in terms.items():
        if has_dt:
            ref_put(chi, (mode, spatial, False),
                    ref_scale(ComplexFrac((-1) ** len(spatial)),
                              ref_integral(poly)))
    remainder = dict(terms)
    for key, poly in ref_d(d, chi).items():
        ref_put(remainder, key, ref_scale(ComplexFrac(-1), poly))
    for (mode, spatial, has_dt), poly in list(remainder.items()):
        assert not has_dt and any(mode)
        msq = sum(c * c for c in mode)
        for pos, j in enumerate(spatial):
            if mode[j]:
                c = ComplexFrac(0, F(-mode[j], msq)) * ((-1) ** pos)
                ref_put(chi, (mode, spatial[:pos] + spatial[pos + 1:], False),
                        ref_scale(c, poly))
    assert ref_d(d, chi) == terms
    wsq = sum((ref_norm_sq(p) for p in terms.values()), F(0))
    csq = sum((ref_norm_sq(p) for p in chi.values()), F(0))
    return chi, wsq, csq


def assert_matches_reference(w):
    res = poincare_primitive(w)
    chi, wsq, csq = ref_primitive(w.d, w.mapping())
    assert res.primitive.mapping() == chi
    # the library form is canonical: rebuilding it from the reference
    # coefficients gives the same terms
    assert res.primitive == CylinderForm.build(w.d, w.degree - 1, chi)
    assert res.input_norm_sq == wsq
    assert res.primitive_norm_sq == csq
    assert res.ratio_sq == csq / wsq


def mixed_denominator_form():
    """d of a 1-form on T^2 x I with cubic, mixed-denominator coefficients."""
    eta = {
        ((1, -2), (0,), False): (ComplexFrac(F(7, 6), F(-5, 4)), ZERO,
                                 ComplexFrac(F(1, 10), F(3, 7)),
                                 ComplexFrac(F(-9, 14), F(2, 15))),
        ((0, 3), (1,), False): (ComplexFrac(F(1, 3)), ComplexFrac(0, F(4, 9))),
        ((2, 1), (), True): (ComplexFrac(F(-11, 12), F(5, 8)), ZERO,
                             ComplexFrac(F(1, 5), F(-1, 6))),
    }
    return CylinderForm.build(2, 2, ref_d(2, eta))


class TestReferenceOracle:
    def test_fixed_forms(self):
        assert_matches_reference(exterior_derivative(sine_dx2()))
        assert_matches_reference(mixed_denominator_form())
        assert_matches_reference(CylinderForm.build(2, 1, {
            ((0, 0), (), True): (ComplexFrac(F(2, 3)), ZERO,
                                 ComplexFrac(F(-1, 4), F(5, 6)))}))

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
            assert exterior_derivative(w).mapping() == ref_d(3, w.mapping())

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_exact_forms(self, d, data):
        degree = data.draw(st.integers(1, d + 1))
        cutoff = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 10 ** 6))
        assert_matches_reference(random_exact_form(d, degree, cutoff, seed))
