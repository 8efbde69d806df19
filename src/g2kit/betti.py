"""Betti-number bookkeeping for orbifold resolutions and product formulas.

Everything here is small exact-integer arithmetic.  A BettiVector records the
Betti numbers of a space for degrees 0..n; n is the top recorded degree, which
equals the dimension for closed manifolds but may be smaller when only part of
the cohomology is known.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Sequence

from ._frozen import Frozen
from .errors import (
    InvalidEnds,
    InvalidInvariants,
    InvalidOperand,
    OddCrossSectionB3,
    RankTooLarge,
)


class BettiVector(Frozen):
    """Immutable vector (b^0, ..., b^n) of nonnegative integers."""

    __slots__ = ("n", "b")

    def __init__(self, values: Sequence[int]):
        vals = tuple(int(v) for v in values)
        if not vals:
            raise InvalidOperand("BettiVector needs at least b^0")
        if any(v < 0 for v in vals):
            raise InvalidOperand(f"negative Betti number in {vals}")
        super().__init__(len(vals) - 1, vals)

    def __getitem__(self, k: int) -> int:
        return self.b[k]

    def get(self, k: int) -> int:
        """b^k, with 0 outside the recorded range."""
        return self.b[k] if 0 <= k <= self.n else 0

    def __len__(self):
        return len(self.b)

    def __iter__(self):
        return iter(self.b)

    def __eq__(self, other):
        if isinstance(other, BettiVector):
            return self.b == other.b
        if isinstance(other, (tuple, list)):
            return self.b == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.b)

    def __repr__(self):
        return f"BettiVector({list(self.b)})"

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** k * v for k, v in enumerate(self.b))


def dual_completion(prefix: Sequence[int], n: int) -> BettiVector:
    """Complete a truncated Betti table of a closed oriented n-manifold.

    The prefix must cover degrees 0..floor(n/2); the rest is mirrored.
    """
    prefix = list(prefix)
    m = len(prefix) - 1
    if m < n // 2:
        raise InvalidOperand(f"need Betti numbers through degree {n // 2}")
    if m > n:
        raise InvalidOperand("prefix longer than the full vector")
    full = [prefix[k] if k <= m else prefix[n - k] for k in range(n + 1)]
    for k in range(m + 1):
        if n - k <= m and prefix[k] != prefix[n - k]:
            raise InvalidOperand("prefix is not duality-consistent")
    return BettiVector(full)


def resolve_betti(base: BettiVector, strata) -> BettiVector:
    """Betti numbers of the orbifold with Betti numbers base after resolving
    each stratum, given by its torus_dim (its compact torus factor; any line
    factor is contractible and drops out).

    The resolution model's fibre retracts to CP^1, so resolving a stratum
    T^d replaces a cone factor by CP^1 and adds b^k(T^d x CP^1) - b^k(T^d)
    = b^(k-2)(T^d) = C(d, k - 2) to b^k, once per stratum with that d.
    """
    out = list(base.b)
    for d, mult in Counter(stratum.torus_dim for stratum in strata).items():
        for k in range(2, base.n + 1):
            out[k] += mult * comb(d, k - 2)
    return BettiVector(out)


def moduli_dimension(b4: int, b3_cross: int, b1: int = 0) -> int:
    """Dimension b^4 + b^3(cross-section)/2 - b^1 - 1 of the deformation space."""
    if b3_cross % 2:
        raise OddCrossSectionB3(f"cross-section b^3 = {b3_cross} is odd")
    return b4 + b3_cross // 2 - b1 - 1


def holonomy_classification(pi1_finite: bool, num_ends: int,
                            is_cylinder_or_double_cover: bool) -> str:
    """Classify the holonomy of an irreducible-candidate metric with tame ends."""
    if num_ends not in (1, 2):
        raise InvalidEnds(f"number of ends must be 1 or 2, got {num_ends}")
    if num_ends == 2:
        return "cylinder"
    if pi1_finite and not is_cylinder_or_double_cover:
        return "full_G2"
    return "reducible"


class NonSymplecticInvariants(Frozen):
    """Invariants (r, a) of an antisymplectic K3 involution's fixed lattice."""

    __slots__ = ("r", "a")

    def __init__(self, r: int, a: int):
        if not (1 <= r <= 20):
            raise InvalidInvariants(f"rank r = {r} outside 1..20")
        if not (0 <= a <= r):
            raise InvalidInvariants(f"a = {a} outside 0..r = {r}")
        super().__init__(r, a)


def borcea_voisin_betti(inv: NonSymplecticInvariants) -> tuple[int, int]:
    """(b^2, b^3) of the blown-up quotient threefold built from (r, a)."""
    b2 = 3 + 2 * inv.r - inv.a
    b3 = 44 - 2 * inv.r - 2 * inv.a
    if b3 < 0:
        raise InvalidInvariants(f"(r, a) = ({inv.r}, {inv.a}) gives negative b^3")
    return b2, b3


def open_cy_betti(b2_wbar: int, b3_wbar: int,
                  rank_iota_on_w: int) -> tuple[int, int, int]:
    """Betti data (b^2, b^3, dim ker) of the open piece W.

    The restriction map whose rank enters here is taken on H^2(W): the kernel
    is b^2(W) - rank, and b^3 gains 22 - b^2(W) + dim ker.
    """
    b2_w = b2_wbar - 1
    ker = b2_w - rank_iota_on_w
    if ker < 0:
        raise RankTooLarge(
            f"rank {rank_iota_on_w} exceeds b^2(W) = {b2_w}")
    b3_w = b3_wbar + 22 - b2_w + ker
    return b2_w, b3_w, ker


def kunneth_s1(bw: BettiVector) -> BettiVector:
    """Betti numbers of S^1 x W from those of W.

    Degrees above the input's recorded range are computed as if the input
    vanishes there, so the top entries are only meaningful when the input
    records the full cohomology.
    """
    return BettiVector([bw.get(k) + bw.get(k - 1) for k in range(bw.n + 2)])


def connected_sum_b2(d1: int, d2: int, dim_intersection: int) -> int:
    """b^2 of the glued manifold: image ranks plus their overlap dimension."""
    if min(d1, d2, dim_intersection) < 0:
        raise InvalidOperand("connected_sum_b2 needs nonnegative inputs")
    return d1 + d2 + dim_intersection


class EulerReport(Frozen):
    """The four Euler characteristics of mv_euler_check and its two verdicts."""

    __slots__ = ("chi_m", "chi_plus", "chi_minus", "chi_cross", "additive_ok",
                 "chi_zero_ok")

    @property
    def consistent(self) -> bool:
        return self.additive_ok and self.chi_zero_ok


def mv_euler_check(bm: BettiVector, bplus: BettiVector, bminus: BettiVector,
                   bx: BettiVector) -> EulerReport:
    """Euler-characteristic consistency of a two-piece decomposition.

    Checks chi(M) = chi(M+) + chi(M-) - chi(X) and chi(M) = 0, as forced by
    the long exact sequence of the decomposition in odd dimensions.
    """
    if bm.n != 7 or bplus.n != 7 or bminus.n != 7 or bx.n != 6:
        raise InvalidOperand("expected degree ranges 7, 7, 7 and 6")
    chi_m = bm.euler_characteristic
    chi_p = bplus.euler_characteristic
    chi_mi = bminus.euler_characteristic
    chi_x = bx.euler_characteristic
    return EulerReport(
        chi_m=chi_m, chi_plus=chi_p, chi_minus=chi_mi, chi_cross=chi_x,
        additive_ok=(chi_m == chi_p + chi_mi - chi_x),
        chi_zero_ok=(chi_m == 0),
    )
