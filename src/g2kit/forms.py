"""Exact exterior algebra on R^n (n <= 7), the flat G2 form and the
coassociative test.

Forms carry rational coefficients throughout.  The scenarios hand
:data:`PHI0` to torus.check_preserves_form, which reads its monomials for
the Gamma-invariance and sigma-reversal rows; wedge and evaluate serve
pullback and :func:`is_coassociative`, which decides whether PHI0 vanishes
on a 4-plane.  Neither of those two has a g2kit caller yet: pullback stays
for the benchmark's span, is_coassociative for ROADMAP item 15.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from ._frozen import Frozen
from .errors import DegeneratePlane, InvalidOperand, SingularMap
from .exact import det, frac, rank

Index = tuple[int, ...]


def _sort_index(idx: Sequence[int]) -> tuple[Index, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign or 0)."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return (), 0
    arr = list(idx)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return tuple(arr), sign


class ExteriorForm(Frozen):
    """Sparse exterior form with exact rational coefficients.

    Coefficients are keyed by strictly increasing 1-based index tuples.
    The constructor takes a mapping or (index, coefficient) pairs in any
    order and is the one canonicalizer: it sorts each index, signs the
    permutation, sums repeated keys and drops zeros.  Every operation hands
    it the raw terms of its result.  Instances are immutable.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Mapping[Sequence[int], object] = ()):
        if not (1 <= dim <= 7):
            raise InvalidOperand(f"ambient dimension {dim} out of range 1..7")
        if not (0 <= degree <= dim):
            raise InvalidOperand(f"degree {degree} out of range for dimension {dim}")
        canon: dict[Index, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for raw_idx, raw_c in items:
            idx, sign = _sort_index(raw_idx)
            if sign == 0:
                continue
            if len(idx) != degree:
                raise InvalidOperand(f"index {raw_idx} has wrong length for degree {degree}")
            if idx and (idx[0] < 1 or idx[-1] > dim):
                raise InvalidOperand(f"index {raw_idx} out of range 1..{dim}")
            c = sign * frac(raw_c)
            c = canon.get(idx, Fraction(0)) + c
            if c == 0:
                canon.pop(idx, None)
            else:
                canon[idx] = c
        super().__init__(dim, degree, canon)

    def __eq__(self, other):
        # dict equality ignores insertion order
        return isinstance(other, ExteriorForm) and \
            (self.dim, self.degree, self.coeffs) == \
            (other.dim, other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check_same_shape(other)
        return ExteriorForm(self.dim, self.degree,
                            [*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(self.dim, self.degree,
                            {idx: -c for idx, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "ExteriorForm":
        s = frac(scalar)
        return ExteriorForm(self.dim, self.degree,
                            {idx: s * c for idx, c in self.coeffs.items()})

    __rmul__ = __mul__

    def _check_same_shape(self, other: "ExteriorForm"):
        if not isinstance(other, ExteriorForm):
            raise InvalidOperand(f"expected ExteriorForm, got {type(other).__name__}")
        if self.dim != other.dim or self.degree != other.degree:
            raise InvalidOperand(
                f"shape mismatch: ({self.dim},{self.degree}) vs ({other.dim},{other.degree})")

    def terms(self) -> list[tuple[Index, Fraction]]:
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return f"ExteriorForm({self.dim}, {self.degree}, 0)"
        bits = []
        for idx, c in self.terms():
            label = "dx" + "".join(str(i) for i in idx) if idx else "1"
            bits.append(f"{c}*{label}")
        return " + ".join(bits).replace("+ -", "- ")


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    if a.dim != b.dim:
        raise InvalidOperand(f"ambient dimensions differ: {a.dim} vs {b.dim}")
    deg = a.degree + b.degree
    if deg > a.dim:
        raise InvalidOperand(f"degree {a.degree}+{b.degree} exceeds dimension {a.dim}")
    # a pair whose index sets meet wedges to zero: skip it before the
    # product of its coefficients
    return ExteriorForm(a.dim, deg, [(ia + ib, ca * cb)
                                     for ia, ca in a.coeffs.items()
                                     for ib, cb in b.coeffs.items()
                                     if set(ia).isdisjoint(ib)])


def evaluate(a: ExteriorForm, vectors: Sequence[Sequence]) -> Fraction:
    """Multilinear evaluation a(v_1, ..., v_k)."""
    if len(vectors) != a.degree:
        raise InvalidOperand(f"need {a.degree} vectors, got {len(vectors)}")
    vecs = [tuple(frac(x) for x in v) for v in vectors]
    total = Fraction(0)
    for idx, c in a.coeffs.items():
        minor = [[vecs[r][i - 1] for i in idx] for r in range(len(idx))]
        total += c * (det(minor) if idx else Fraction(1))
    return total


# No g2kit module calls LinearMapR or pullback.  perfbench/spans.py wraps
# forms.pullback by name, so both stay until the benchmark drops that span.
class LinearMapR(Frozen):
    """Invertible-or-not linear map of R^n with exact rational matrix."""

    __slots__ = ("dim", "matrix", "det")

    def __init__(self, matrix: Sequence[Sequence]):
        rows = tuple(tuple(frac(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidOperand("matrix must be square")
        super().__init__(n, rows, det(rows))

    def __eq__(self, other):
        return isinstance(other, LinearMapR) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def pullback(lin: LinearMapR, a: ExteriorForm) -> ExteriorForm:
    """Pullback of a under x -> Lx, so pullback(dx^i) = sum_j L[i][j] dx^j.

    Pullback is an algebra map: c dx^{i1...ik} goes to
    c (L*dx^{i1}) ∧ ... ∧ (L*dx^{ik}), built with the sparse wedge.
    """
    if lin.dim != a.dim:
        raise InvalidOperand(f"map dimension {lin.dim} != form dimension {a.dim}")
    if lin.det == 0:
        raise SingularMap("pullback by a singular linear map")
    n = a.dim
    ones = [ExteriorForm(n, 1, {(j,): x for j, x in enumerate(row, 1) if x})
            for row in lin.matrix]
    out = []
    for idx, c in a.coeffs.items():
        term = ExteriorForm(n, 0, {(): c})
        for i in idx:
            term = wedge(term, ones[i - 1])
        out += term.coeffs.items()
    return ExteriorForm(n, a.degree, out)


# The flat three-form on R^7, in coordinates x_1 ... x_7.
PHI0 = ExteriorForm(7, 3, {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
})


def is_coassociative(plane: Sequence[Sequence], phi: ExteriorForm) -> bool:
    """Does the given 3-form vanish on the span of the four vectors?"""
    if phi.dim != 7 or phi.degree != 3:
        raise InvalidOperand("expected a 3-form on R^7")
    vecs = [tuple(frac(x) for x in v) for v in plane]
    if len(vecs) != 4 or rank(vecs) != 4:
        raise DegeneratePlane("need four independent spanning vectors")
    for triple in combinations(range(4), 3):
        if evaluate(phi, [vecs[i] for i in triple]) != 0:
            return False
    return True
