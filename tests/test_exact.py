"""Exact linear algebra: one Gauss–Jordan routine behind rref, rank and inverse."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2kit.errors import SingularMap
from g2kit.exact import identity_matrix, inverse, mat_mul, rank, rref


def square_matrices(n, lo=-3, hi=3):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                  max_size=cols),
                         min_size=rows, max_size=rows))


class TestInverse:
    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(1, 5).flatmap(square_matrices))
    def test_inverse_times_matrix_is_identity(self, a):
        if round(np.linalg.det(np.array(a, dtype=float))) == 0:
            with pytest.raises(SingularMap):
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
        with pytest.raises(SingularMap):
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
