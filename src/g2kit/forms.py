"""Exact exterior algebra on R^n (n <= 7) and the flat G2 dictionaries.

Forms carry rational coefficients throughout.  The one place irrationals can
appear, the metric normalization in :func:`metric_from_three_form`, keeps a
50-digit rational approximation and flags the result as inexact instead of
switching to floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from ._frozen import Frozen
from .errors import (
    DegenerateMetric,
    DegeneratePlane,
    InvalidOperand,
    NotHyperKahler,
    NotStable,
    SingularMap,
)
from .exact import det, frac, inverse, mat_mul, nth_root_fraction, rank

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

    def coefficient(self, *indices: int) -> Fraction:
        idx, sign = _sort_index(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.coeffs.get(idx, Fraction(0))

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


def dx(*indices: int, dim: int) -> ExteriorForm:
    """Basis monomial dx^{i1...ik} with unit coefficient."""
    return ExteriorForm(dim, len(indices), {tuple(indices): 1})


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


def contract(v: Sequence, a: ExteriorForm) -> ExteriorForm:
    """Interior product v ⌟ a."""
    if a.degree == 0:
        raise InvalidOperand("cannot contract a degree-0 form")
    vec = [frac(x) for x in v]
    if len(vec) != a.dim:
        raise InvalidOperand(f"vector length {len(vec)} != dimension {a.dim}")
    return ExteriorForm(a.dim, a.degree - 1,
                        [(idx[:p] + idx[p + 1:], (-1) ** p * vec[i - 1] * c)
                         for idx, c in a.coeffs.items()
                         for p, i in enumerate(idx)])


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

    def compose(self, other: "LinearMapR") -> "LinearMapR":
        """self after other (usual matrix product)."""
        if self.dim != other.dim:
            raise InvalidOperand("dimension mismatch in composition")
        return LinearMapR(mat_mul(self.matrix, other.matrix))

    @staticmethod
    def identity(dim: int) -> "LinearMapR":
        return LinearMapR([[int(i == j) for j in range(dim)] for i in range(dim)])

    @staticmethod
    def diagonal(signs: Sequence[int]) -> "LinearMapR":
        return LinearMapR([[signs[i] if i == j else 0 for j in range(len(signs))]
                           for i in range(len(signs))])


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


class MetricTensor(Frozen):
    """Symmetric rational metric with cached definiteness information."""

    __slots__ = ("dim", "matrix", "positive_definite", "exact")

    def __init__(self, matrix: Sequence[Sequence], exact: bool = True):
        rows = tuple(tuple(frac(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidOperand("metric matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidOperand("metric matrix must be symmetric")
        pos = all(det([row[: k + 1] for row in rows[: k + 1]]) > 0 for k in range(n))
        super().__init__(n, rows, pos, exact)

    def __eq__(self, other):
        return isinstance(other, MetricTensor) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def hodge_star(g: MetricTensor, vol: ExteriorForm, a: ExteriorForm) -> ExteriorForm:
    """Hodge dual defined by b ∧ *a = <b,a>_g vol for every b of matching degree."""
    n = a.dim
    if g.dim != n or vol.dim != n or vol.degree != n:
        raise InvalidOperand("incompatible metric / volume / form dimensions")
    if det(g.matrix) == 0:
        raise DegenerateMetric("metric is singular")
    full = tuple(range(1, n + 1))
    v = vol.coeffs.get(full, Fraction(0))
    if v == 0:
        raise DegenerateMetric("volume form vanishes")
    ginv = inverse(g.matrix)
    k = a.degree
    out = []
    for idx in combinations(range(1, n + 1), k):
        # <dx^idx, a>_g
        pairing = Fraction(0)
        for ib, cb in a.coeffs.items():
            if k == 0:
                pairing += cb
            else:
                gram = [[ginv[p - 1][q - 1] for q in ib] for p in idx]
                pairing += cb * det(gram)
        comp = tuple(i for i in full if i not in idx)
        out.append((comp, _sort_index(idx + comp)[1] * pairing * v))
    return ExteriorForm(n, n - k, out)


# The flat three-form on R^7 and its dual, in coordinates x_1 ... x_7.
PHI0 = ExteriorForm(7, 3, {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
})

STAR_PHI0 = ExteriorForm(7, 4, {
    (4, 5, 6, 7): 1, (2, 3, 6, 7): 1, (2, 3, 4, 5): 1, (1, 3, 5, 7): 1,
    (1, 3, 4, 6): -1, (1, 2, 5, 6): -1, (1, 2, 4, 7): -1,
})

# Self-dual triple on R^4 satisfying the quaternionic wedge relations.
KAPPA0_1 = ExteriorForm(4, 2, {(1, 2): 1, (3, 4): 1})
KAPPA0_2 = ExteriorForm(4, 2, {(1, 3): 1, (4, 2): 1})
KAPPA0_3 = ExteriorForm(4, 2, {(1, 4): 1, (2, 3): 1})


def metric_from_three_form(phi: ExteriorForm):
    """Metric, volume and stability flag induced by a 3-form on R^7.

    Normalized so the flat form gives exactly the identity metric with volume
    dx^{1...7}.  Returns (metric, volume, stable); metric and volume are None
    when the form is not stable.  When the normalizing root is irrational the
    metric carries 50-digit rational approximations and exact=False.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise InvalidOperand("expected a 3-form on R^7")
    n = 7
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    contractions = [contract(basis[i], phi) for i in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    full = tuple(range(1, n + 1))
    for i in range(n):
        for j in range(i, n):
            w = wedge(wedge(contractions[i], contractions[j]), phi)
            b[i][j] = b[j][i] = w.coeffs.get(full, Fraction(0))
    d = det(b)
    if d <= 0:
        return None, None, False
    t, is_exact = nth_root_fraction(d / Fraction(6 ** 7), 9)
    g_rows = [[b[i][j] / (6 * t) for j in range(n)] for i in range(n)]
    metric = MetricTensor(g_rows, exact=is_exact)
    if not metric.positive_definite:
        return None, None, False
    volume = ExteriorForm(7, 7, {full: t})
    return metric, volume, True


def theta(phi: ExteriorForm) -> ExteriorForm:
    """The nonlinear dual: Hodge star of phi in the metric phi itself induces."""
    g, vol, stable = metric_from_three_form(phi)
    if not stable:
        raise NotStable("form does not induce a positive metric")
    return hodge_star(g, vol, phi)


def _drop_index(idx: Index, t_index: int) -> Index:
    return tuple(i if i < t_index else i - 1 for i in idx)


def _raise_index(idx: Index, t_index: int) -> Index:
    return tuple(i if i < t_index else i + 1 for i in idx)


def cylinder_split(phi: ExteriorForm, t_index: int) -> tuple[ExteriorForm, ExteriorForm]:
    """Split a 3-form on R^7 as Omega + dt ∧ omega along the chosen coordinate.

    Omega and omega live on R^6 with the remaining coordinates renumbered in
    order.  g2_from_su3 is the exact inverse.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise InvalidOperand("expected a 3-form on R^7")
    if not (1 <= t_index <= 7):
        raise InvalidOperand("t_index out of range")
    omega_c: dict[Index, Fraction] = {}
    big_c: dict[Index, Fraction] = {}
    for idx, c in phi.coeffs.items():
        if t_index in idx:
            p = idx.index(t_index)
            rest = idx[:p] + idx[p + 1:]
            omega_c[_drop_index(rest, t_index)] = (-1) ** p * c
        else:
            big_c[_drop_index(idx, t_index)] = c
    return ExteriorForm(6, 3, big_c), ExteriorForm(6, 2, omega_c)


def g2_from_su3(big: ExteriorForm, omega: ExteriorForm, t_index: int) -> ExteriorForm:
    """Reassemble Omega + dt ∧ omega into a 3-form on R^7."""
    if big.dim != 6 or big.degree != 3 or omega.dim != 6 or omega.degree != 2:
        raise InvalidOperand("expected a 3-form and a 2-form on R^6")
    if not (1 <= t_index <= 7):
        raise InvalidOperand("t_index out of range")
    return ExteriorForm(7, 3, [(_raise_index(idx, t_index), c)
                               for idx, c in big.coeffs.items()] +
                        [((t_index,) + _raise_index(idx, t_index), c)
                         for idx, c in omega.coeffs.items()])


def g2_from_hyperkahler(kappa_i: ExteriorForm, kappa_j: ExteriorForm,
                        kappa_k: ExteriorForm,
                        layout: Sequence[int] = (1, 4, 5)) -> ExteriorForm:
    """Assemble a flat G2 form from a hyper-Kahler triple on R^4.

    layout names the three cylinder coordinates of R^7 (signed: a negative
    entry pairs that kappa with the negated coordinate form); the remaining
    four coordinates, in increasing order, carry the R^4 factor.
    """
    triple = (kappa_i, kappa_j, kappa_k)
    for k in triple:
        if k.dim != 4 or k.degree != 2:
            raise InvalidOperand("kappa forms must be 2-forms on R^4")
    if len(layout) != 3 or len({abs(s) for s in layout}) != 3 \
            or any(not (1 <= abs(s) <= 7) for s in layout):
        raise InvalidOperand("layout must name three distinct coordinates of R^7")
    sq = [wedge(k, k) for k in triple]
    if sq[0] != sq[1] or sq[1] != sq[2] or not sq[0]:
        raise NotHyperKahler("the three squares must agree and be nonzero")
    for a in range(3):
        for b in range(a + 1, 3):
            if wedge(triple[a], triple[b]):
                raise NotHyperKahler("mixed wedge products must vanish")
    cyl = [abs(s) for s in layout]
    signs = [1 if s > 0 else -1 for s in layout]
    slot = sorted(i for i in range(1, 8) if i not in cyl)

    def embed(k4: ExteriorForm) -> ExteriorForm:
        return ExteriorForm(7, 2, {tuple(slot[i - 1] for i in idx): c
                                   for idx, c in k4.coeffs.items()})

    one_forms = [signs[a] * dx(cyl[a], dim=7) for a in range(3)]
    phi = wedge(wedge(one_forms[0], one_forms[1]), one_forms[2])
    phi = phi + wedge(one_forms[0], embed(kappa_i))
    phi = phi + wedge(one_forms[1], embed(kappa_j))
    # the third term enters with a minus sign: that is what makes the
    # standard self-dual triple on the R^4 slots assemble exactly to the
    # flat reference form, given the sign conventions fixed by PHI0
    phi = phi - wedge(one_forms[2], embed(kappa_k))
    return phi


def is_coassociative(plane: Sequence[Sequence], phi: ExteriorForm) -> bool:
    """Does the given 3-form vanish on the span of the four vectors?

    For stable forms a vanishing restriction forces the 4-form dual to be
    nonvanishing there; that is asserted as a consistency check.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise InvalidOperand("expected a 3-form on R^7")
    vecs = [tuple(frac(x) for x in v) for v in plane]
    if len(vecs) != 4 or rank(vecs) != 4:
        raise DegeneratePlane("need four independent spanning vectors")
    for triple in combinations(range(4), 3):
        if evaluate(phi, [vecs[i] for i in triple]) != 0:
            return False
    dual = theta(phi)
    assert evaluate(dual, vecs) != 0, "dual form vanished on a null 4-plane"
    return True
