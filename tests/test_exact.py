"""Exact linear algebra: Bareiss det, row-combination mat_mul, one
Gauss–Jordan routine behind rref and rank, and the Smith normal form.  The
exact inverse that test_torus compares the translation lattice against is
read off rref here.  The Smith form is checked against its contract with
test-local arithmetic only, since every strata oracle in test_torus calls
the library's Smith form itself."""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2kit.exact import (
    det,
    identity_matrix,
    mat_mul,
    mat_vec,
    rank,
    rref,
    smith_normal_form,
)


def square_matrices(n, lo=-3, hi=3):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))


def reference_det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        p = m[col][col]
        out *= p
        for r in range(col + 1, n):
            factor = m[r][col] / p
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return out


def inverse(rows):
    """Exact inverse of a square matrix: the right half of rref([A | I]).
    Raises ValueError when A is singular."""
    n = len(rows)
    ident = identity_matrix(n)
    red = rref([tuple(row) + e for row, e in zip(rows, ident)])
    if any(row[:n] != e for row, e in zip(red, ident)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


def reference_mat_mul(a, b):
    """Triple sum over (i, j, t)."""
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                       for j in range(len(b[0]) if b else 0))
                 for i in range(len(a)))


rationals = st.one_of(st.just(0), st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=6))


@st.composite
def rational_square_matrices(draw):
    """Square rational matrices, some made singular (a row combined from the
    others) and some with a zero leading pivot."""
    n = draw(st.integers(0, 5))
    m = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        c = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        k = draw(st.integers(0, n - 1))
        others = [row for i, row in enumerate(m) if i != k]
        m[k] = [sum(ci * row[j] for ci, row in zip(c, others))
                for j in range(n)]
    if n >= 1 and draw(st.booleans()):
        m[0][0] = 0
    return m


@st.composite
def product_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    entries = draw(st.sampled_from([st.integers(-3, 3), rationals]))
    a = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return a, b


class TestDet:
    @settings(max_examples=200, deadline=None)
    @given(m=rational_square_matrices())
    def test_matches_fraction_elimination(self, m):
        got = det(m)
        assert isinstance(got, Fraction)
        assert got == reference_det(m)

    @pytest.mark.parametrize("m,expected", [
        ([], 1),
        ([[0, 1], [1, 0]], -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 2, 0], [1, 0, 0], [0, 0, 0]], 0),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]],
         Fraction(5, 12)),
    ])
    def test_fixed_cases(self, m, expected):
        assert det(m) == expected


class TestMatMul:
    @settings(max_examples=150, deadline=None)
    @given(pair=product_pairs())
    def test_matches_triple_sum(self, pair):
        a, b = pair
        assert mat_mul(a, b) == reference_mat_mul(a, b)

    def test_empty(self):
        assert mat_mul((), ()) == ()
        assert mat_mul(((), ()), ()) == ((), ())
        assert mat_mul(((1, 2),), ((), ())) == ((),)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mat_mul(((1, 2),), ((1,),))


class TestMatVec:
    @settings(max_examples=60, deadline=None)
    @given(a=integer_matrices(), data=st.data())
    def test_matches_row_sums(self, a, data):
        v = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]),
                               max_size=len(a[0])))
        assert mat_vec(a, v) == tuple(sum(x * y for x, y in zip(row, v))
                                      for row in a)

    def test_fractions(self):
        h = Fraction(1, 2)
        assert mat_vec(((h, 1), (0, -h)), (2, h)) == (Fraction(3, 2), Fraction(-1, 4))

    def test_empty(self):
        assert mat_vec((), (1, 2)) == ()
        assert mat_vec(((),), ()) == (0,)

    @pytest.mark.parametrize("a, v", [(((1, 2, 3),), (1, 1)),
                                      (((1, 2),), (1, 1, 1)),
                                      (((1, 2), (3,)), (1, 1))])
    def test_length_mismatch_raises(self, a, v):
        with pytest.raises(ValueError):
            mat_vec(a, v)


class TestInverse:
    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 5).flatmap(square_matrices))
    def test_inverse_times_matrix_is_identity(self, a):
        if round(np.linalg.det(np.array(a, dtype=float))) == 0:
            with pytest.raises(ValueError):
                inverse(a)
        else:
            assert mat_mul(inverse(a), a) == identity_matrix(len(a))
            assert mat_mul(a, inverse(a)) == identity_matrix(len(a))

    def test_rational_entries(self):
        a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]]
        assert mat_mul(inverse(a), a) == identity_matrix(2)

    @pytest.mark.parametrize("a", [
        [[0]],
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[0, 0], [0, 0]],
    ])
    def test_singular_raises(self, a):
        with pytest.raises(ValueError):
            inverse(a)


class TestRank:
    @settings(max_examples=80, deadline=None)
    @given(a=integer_matrices())
    def test_matches_numpy(self, a):
        assert rank(a) == np.linalg.matrix_rank(np.array(a, dtype=float))

    def test_empty(self):
        assert rank([]) == 0

    def test_rref_is_canonical(self):
        assert rref([[2, 4], [1, 2], [0, 3]]) == ((1, 0), (0, 1))
        assert rref([[2, 4], [1, 2]]) == ((1, 2),)


@st.composite
def smith_inputs(draw):
    """Integer matrices of 1-5 x 1-5, entries mostly in -3..3, some in
    -10..10."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3) | st.integers(-10, 10)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def triple_product(u, a, v):
    """U A V by one sum over (s, t) per entry."""
    return tuple(tuple(sum(u[i][s] * a[s][t] * v[t][j]
                           for s in range(len(a)) for t in range(len(v)))
                       for j in range(len(v[0])))
                 for i in range(len(u)))


def smith_violations(a, u, d, v):
    """The parts of the Smith contract that (U, D, V) breaks for A, by name:
    U A V = D with U, V unimodular, D diagonal and nonnegative with its
    nonzero entries first, and d_1 ... d_k the gcd of A's k x k minors for
    every k (which gives d_1 | d_2 | ...)."""
    nr, nc = len(a), len(a[0])
    broken = []
    if triple_product(u, a, v) != tuple(map(tuple, d)):
        broken.append("product")
    if abs(reference_det(u)) != 1 or abs(reference_det(v)) != 1:
        broken.append("unimodular")
    diag = [d[k][k] for k in range(min(nr, nc))]
    if any(d[i][j] for i in range(nr) for j in range(nc) if i != j):
        broken.append("diagonal")
    if any(x < 0 for x in diag):
        broken.append("nonnegative")
    if any(x and not y for x, y in zip(diag[1:], diag)):
        broken.append("zeros last")
    for k in range(1, len(diag) + 1):
        minors = [int(reference_det([[a[i][j] for j in cols] for i in rows]))
                  for rows in combinations(range(nr), k)
                  for cols in combinations(range(nc), k)]
        if prod(diag[:k]) != gcd(*minors):
            broken.append("minors")
            break
    return broken


class TestSmithNormalForm:
    @settings(max_examples=300, deadline=None)
    @given(a=smith_inputs())
    def test_meets_its_contract(self, a):
        assert smith_violations(a, *smith_normal_form(a)) == []

    @pytest.mark.parametrize("a, broken", [
        ([[2, 0], [0, 3]], ["minors"]),
        ([[4, 0, 0], [0, 6, 0]], ["minors"]),
        ([[0, 0], [0, 5]], ["zeros last", "minors"]),
    ])
    def test_permuted_diagonal_fails(self, a, broken):
        # swapping the first two diagonal entries (rows of U, columns of V)
        # keeps U A V = D and unimodularity, and breaks the divisor chain
        u, d, v = smith_normal_form(a)
        assert smith_violations(a, u, d, v) == []
        u = (u[1], u[0]) + u[2:]
        v = tuple((row[1], row[0]) + row[2:] for row in v)
        d = [list(row) for row in d]
        d[0][0], d[1][1] = d[1][1], d[0][0]
        assert smith_violations(a, u, d, v) == broken
