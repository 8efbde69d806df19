"""Exact Betti-number bookkeeping: vectors, resolutions, product formulas."""

import math

import pytest
from hypothesis import given, strategies as st

from g2kit.betti import (
    BettiVector,
    EulerReport,
    NonSymplecticInvariants,
    borcea_voisin_betti,
    connected_sum_b2,
    dual_completion,
    holonomy_classification,
    kunneth_s1,
    moduli_dimension,
    mv_euler_check,
    open_cy_betti,
    resolve_betti,
)
from g2kit.errors import (
    InvalidEnds,
    InvalidInvariants,
    InvalidOperand,
    OddCrossSectionB3,
    RankTooLarge,
)


class TestBettiVector:
    def test_basic_access(self):
        b = BettiVector([1, 0, 3, 8])
        assert b.n == 3
        assert b[2] == 3
        assert b.get(5) == 0
        assert b.get(-1) == 0
        assert list(b) == [1, 0, 3, 8]
        assert len(b) == 4

    def test_equality_with_tuples(self):
        assert BettiVector([1, 2, 1]) == (1, 2, 1)
        assert BettiVector([1, 2, 1]) == [1, 2, 1]
        assert BettiVector([1, 2, 1]) == BettiVector([1, 2, 1])
        assert BettiVector([1, 2, 1]) != (1, 2, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidOperand):
            BettiVector([])
        with pytest.raises(InvalidOperand):
            BettiVector([1, -2, 1])

    def test_immutable(self):
        b = BettiVector([1, 0, 1])
        with pytest.raises(AttributeError):
            b.n = 5

    def test_euler_characteristic(self):
        assert BettiVector([1, 4, 6, 4, 1]).euler_characteristic == 0
        assert CP1.euler_characteristic == 2
        assert BettiVector([1, 0, 19, 40, 19, 0, 1]).euler_characteristic == 0

    @given(st.integers(min_value=0, max_value=8))
    def test_torus_euler_vanishes(self, d):
        if d > 0:
            assert torus_betti(d).euler_characteristic == 0


class TestDualCompletion:
    def test_completes_seven_manifold(self):
        full = dual_completion([1, 0, 12, 43], 7)
        assert full == (1, 0, 12, 43, 43, 12, 0, 1)

    def test_accepts_overlapping_prefix(self):
        full = dual_completion([1, 0, 12, 43, 43], 7)
        assert full == (1, 0, 12, 43, 43, 12, 0, 1)

    def test_rejects_short_prefix(self):
        with pytest.raises(InvalidOperand):
            dual_completion([1, 0, 12], 7)

    def test_rejects_inconsistent_overlap(self):
        with pytest.raises(InvalidOperand):
            dual_completion([1, 0, 12, 43, 44], 7)

    def test_rejects_overlong_prefix(self):
        with pytest.raises(InvalidOperand):
            dual_completion([1, 0, 0, 0, 0, 0, 0, 1, 5], 7)


CP1 = BettiVector([1, 0, 1])


def torus_betti(d):
    """The Betti vector of T^d: b^k = C(d, k)."""
    return BettiVector([math.comb(d, k) for k in range(d + 1)])


class _Flat:
    """Minimal stand-in for a stratum: just the torus dimension."""

    def __init__(self, torus_dim):
        self.torus_dim = torus_dim


def reference_resolve_betti(base, strata):
    """The per-stratum loop: b^k(T^d x CP^1) - b^k(T^d) added for every
    stratum T^d, by the Kunneth formula."""
    out = list(base.b)
    for stratum in strata:
        d = stratum.torus_dim
        t = torus_betti(d)
        for k in range(base.n + 1):
            out[k] += sum(t.get(j) * CP1.get(k - j)
                          for j in range(min(k, d) + 1)) - t.get(k)
    return out


class TestResolveBetti:
    @given(base=st.lists(st.integers(0, 60), min_size=1, max_size=9).map(BettiVector),
           dims=st.lists(st.integers(0, 7), max_size=20))
    def test_matches_per_stratum_loop(self, base, dims):
        strata = [_Flat(d) for d in dims]
        assert resolve_betti(base, strata) == reference_resolve_betti(base, strata)

    def test_closed_seven_manifold(self):
        base = BettiVector([1, 0, 0, 7, 7, 0, 0, 1])
        out = resolve_betti(base, [_Flat(3)] * 12)
        assert out == (1, 0, 12, 43, 43, 12, 0, 1)

    def test_open_half_mixed_strata(self):
        base = BettiVector([1, 0, 0, 4, 3, 0, 0])
        strata = [_Flat(2)] * 8 + [_Flat(3)] * 2
        out = resolve_betti(base, strata)
        assert tuple(out)[2:6] == (10, 26, 17, 2)

    def test_cross_section_k3_counts(self):
        base = BettiVector([1, 0, 3, 8, 3, 0, 1])
        out = resolve_betti(base, [_Flat(2)] * 16)
        assert out[2] == 19 and out[3] == 40
        out11 = resolve_betti(base, [_Flat(2)] * 8)
        assert out11[2] == 11 and out11[3] == 24

    def test_empty_strata(self):
        base = BettiVector([1, 2, 1])
        assert resolve_betti(base, []) == base


class TestModuliDimension:
    def test_paper_values(self):
        assert moduli_dimension(17, 40) == 36
        # the two printed companion values disagree with their own inputs by
        # one; the computed results are asserted here and the printed ones are
        # tracked in the acceptance suite
        assert moduli_dimension(19, 24) == 30
        assert moduli_dimension(20, 8) == 23
        assert moduli_dimension(21, 8) == 24

    def test_b1_term(self):
        assert moduli_dimension(10, 4, b1=1) == 10

    def test_odd_cross_section_rejected(self):
        with pytest.raises(OddCrossSectionB3):
            moduli_dimension(17, 39)


class TestHolonomyClassification:
    def test_branches(self):
        assert holonomy_classification(True, 2, False) == "cylinder"
        assert holonomy_classification(True, 1, False) == "full_G2"
        assert holonomy_classification(False, 1, False) == "reducible"
        assert holonomy_classification(True, 1, True) == "reducible"

    def test_bad_end_count(self):
        with pytest.raises(InvalidEnds):
            holonomy_classification(True, 3, False)
        with pytest.raises(InvalidEnds):
            holonomy_classification(True, 0, False)


class TestBorceaVoisinChain:
    def test_invariant_validation(self):
        NonSymplecticInvariants(10, 8)
        with pytest.raises(InvalidInvariants):
            NonSymplecticInvariants(0, 0)
        with pytest.raises(InvalidInvariants):
            NonSymplecticInvariants(21, 0)
        with pytest.raises(InvalidInvariants):
            NonSymplecticInvariants(5, 6)

    def test_negative_b3_rejected(self):
        with pytest.raises(InvalidInvariants):
            borcea_voisin_betti(NonSymplecticInvariants(20, 10))

    def test_closed_threefold(self):
        assert borcea_voisin_betti(NonSymplecticInvariants(10, 8)) == (15, 8)

    def test_open_piece(self):
        assert open_cy_betti(15, 8, 10) == (14, 20, 4)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            open_cy_betti(15, 8, 15)

    def test_full_chain_to_cylinder(self):
        b2w, b3w, ker = open_cy_betti(*borcea_voisin_betti(
            NonSymplecticInvariants(10, 8)), rank_iota_on_w=10)
        cyl = kunneth_s1(BettiVector([1, 0, b2w, b3w]))
        assert (cyl[2], cyl[3]) == (14, 34)

    @given(r=st.integers(1, 20), a=st.integers(0, 20))
    def test_bv_parity_and_euler(self, r, a):
        if a > r or 44 - 2 * r - 2 * a < 0:
            return
        b2, b3 = borcea_voisin_betti(NonSymplecticInvariants(r, a))
        # b3 must be even for the moduli-dimension formula downstream, and
        # the Euler characteristic 2(1 + b2) - b3 depends on r alone
        assert b3 % 2 == 0
        assert 2 * (1 + b2) - b3 == 6 * (r - 6)


class TestKunnethCircle:
    def test_circle_times_point(self):
        assert kunneth_s1(BettiVector([1])) == (1, 1)

    def test_circle_times_torus(self):
        assert kunneth_s1(BettiVector([1, 2, 1])) == (1, 3, 3, 1)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=7))
    def test_euler_vanishes(self, vals):
        out = kunneth_s1(BettiVector(vals))
        assert out.euler_characteristic == 0


class TestGluing:
    def test_connected_sum_b2(self):
        assert connected_sum_b2(4, 4, 4) == 12
        with pytest.raises(InvalidOperand):
            connected_sum_b2(4, -1, 4)

    def test_mv_euler_consistent_example(self):
        bm = BettiVector([1, 0, 12, 43, 43, 12, 0, 1])
        bplus = BettiVector([1, 0, 10, 26, 17, 2, 0, 0])
        bx = BettiVector([1, 0, 19, 40, 19, 0, 1])
        report = mv_euler_check(bm, bplus, bplus, bx)
        assert isinstance(report, EulerReport)
        assert report.chi_m == 0 and report.chi_cross == 0
        assert report.additive_ok and report.chi_zero_ok and report.consistent

    def test_mv_euler_flags_inconsistency(self):
        bm = BettiVector([1, 0, 12, 43, 43, 12, 0, 1])
        bad_plus = BettiVector([1, 0, 10, 26, 17, 2, 0, 1])
        bx = BettiVector([1, 0, 19, 40, 19, 0, 1])
        report = mv_euler_check(bm, bad_plus, bad_plus, bx)
        assert not report.additive_ok
        assert not report.consistent

    def test_mv_euler_validates_degrees(self):
        b7 = BettiVector([1, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(InvalidOperand):
            mv_euler_check(b7, b7, b7, b7)
