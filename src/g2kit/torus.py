"""Finite affine isometry groups of T^c x R^l and their fixed-point geometry.

Coordinates are 1-based.  A subset of coordinates may be declared as "line"
(noncompact R-factor) coordinates; the rest are circle coordinates of a torus.
All arithmetic is exact: integer matrices for the linear parts (acting
through their nonzero entries, one per row for a signed permutation),
integer numerators over one common denominator for shifts and component
offsets, Smith normal form for the fixed-point congruences.

Singular strata are found modulo the translation lattice, as crystallography
lists Wyckoff positions by point-group orbits modulo the lattice.  The
translation subgroup T = {g : linear(g) = Id} is normal in G, with lattice
Λ_T = Z^c + shifts(T).  The maps with one linear part A form a coset f T (of G,
or of G∘sigma in a census), and the union of their fixed sets, modulo Λ_T, is
{x : (A - 1) x + v_f ∈ Λ_T}: one Smith-form solve per point-group element.
Components are keyed by their class modulo span + Λ_T, the orbit search moves
these classes by the generators, and an orbit of k classes holds
k |T| / |T ∩ (span + Z^c)| components upstairs.  A coset holds a pointwise
fixer of a component iff its linear part fixes the component's directions
and x0 - A x0 lies in v_f + Λ_T; only the cosets that pass the first test,
found once per span, take the second.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .betti import BettiVector
from .errors import (
    GroupTooLarge,
    InvalidOperand,
    NotAntiInvolution,
    NotEquivariant,
    PullObstruction,
)
from .exact import (
    det,
    frac,
    identity_matrix,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from .forms import ExteriorForm, LinearMapR, pullback

GROUP_SIZE_BOUND = 1024


def _sparse(rows) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries of an integer matrix as (row, column, value)
    triples, row by row."""
    return tuple((i, j, a) for i, row in enumerate(rows)
                 for j, a in enumerate(row) if a)


def _linear_image(terms, vec, size: int) -> tuple[int, ...]:
    """M vec for the size-row matrix M with nonzero entries terms (see
    _sparse): one multiply per entry, so one per row for a signed
    permutation."""
    out = [0] * size
    for i, j, a in terms:
        out[i] += a * vec[j]
    return tuple(out)


@lru_cache(maxsize=4096)
def _linear_product(a, b):
    """Product of two linear parts; a group has few distinct ones."""
    return mat_mul(a, b)


class AffineTorusMap:
    """Affine map x -> Ax + v of T^c x R^l, with A in GL(n, Z).

    A must not mix circle and line coordinates, and must act on each line
    coordinate as +-1.  The shift is kept as integer numerators over the
    least common denominator, canonical mod 1 on circle coordinates.
    The optional name is bookkeeping only and does not enter equality.
    """

    __slots__ = ("n", "lines", "linear", "num", "den", "name", "_key", "_terms")

    def __init__(self, linear: Sequence[Sequence[int]], shift: Sequence = None,
                 lines: Iterable[int] = (), name: str = ""):
        rows = tuple(tuple(int(x) for x in row) for row in linear)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidOperand("linear part must be square")
        if abs(det(rows)) != 1:
            raise InvalidOperand("linear part must be unimodular")
        lines = frozenset(int(i) for i in lines)
        if any(not (1 <= i <= n) for i in lines):
            raise InvalidOperand("line coordinates out of range")
        for i in range(n):
            for j in range(n):
                if rows[i][j] and ((i + 1 in lines) != (j + 1 in lines)):
                    raise InvalidOperand(
                        f"linear part mixes circle and line coordinates at ({i+1},{j+1})")
        for i in lines:
            row = rows[i - 1]
            if row[i - 1] not in (1, -1) or any(row[j] for j in range(n) if j != i - 1):
                raise InvalidOperand(
                    f"line coordinate {i} must carry a plain sign action")
        if shift is None:
            shift = [0] * n
        vals = [frac(x) for x in shift]
        if len(vals) != n:
            raise InvalidOperand("shift length mismatch")
        den = lcm(*(v.denominator for v in vals))
        self._fill(n, lines, rows,
                   [v.numerator * (den // v.denominator) for v in vals], den, name)

    def _fill(self, n, lines, rows, num, den, name):
        num = [x if i + 1 in lines else x % den for i, x in enumerate(num)]
        g = gcd(den, *num)
        num, den = tuple(x // g for x in num), den // g
        for attr, value in (("n", n), ("lines", lines), ("linear", rows),
                            ("num", num), ("den", den), ("name", name),
                            ("_key", (n, lines, rows, num, den))):
            object.__setattr__(self, attr, value)

    @staticmethod
    def _from_parts(rows, num, den, lines, name) -> "AffineTorusMap":
        """A map whose linear part is already known to be valid."""
        f = object.__new__(AffineTorusMap)
        f._fill(len(rows), lines, rows, num, den, name)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("AffineTorusMap is immutable")

    def __eq__(self, other):
        return isinstance(other, AffineTorusMap) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        label = self.name or "map"
        return f"<AffineTorusMap {label} on T^{self.n - len(self.lines)}" + (
            f" x R^{len(self.lines)}>" if self.lines else ">")

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """The linear part's nonzero entries (see _sparse), filled on first
        use: the group closure builds many maps that never act on a point."""
        try:
            return self._terms
        except AttributeError:
            terms = _sparse(self.linear)
            object.__setattr__(self, "_terms", terms)
            return terms

    @property
    def shift(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_identity(self) -> bool:
        ident = all(self.linear[i][j] == (i == j) for i in range(self.n)
                    for j in range(self.n))
        return ident and not any(self.num)

    def _act(self, num, den) -> tuple[tuple[int, ...], int]:
        """Image of the point num/den, as numerators over lcm(den, self.den)."""
        d = lcm(den, self.den)
        k, s = d // den, d // self.den
        lines = self.lines
        img = _linear_image(self.terms, num, self.n)
        return tuple([v * k + t * s if i + 1 in lines else (v * k + t * s) % d
                      for i, (v, t) in enumerate(zip(img, self.num))]), d

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """self after other."""
        if self.n != other.n or self.lines != other.lines:
            raise InvalidOperand("maps act on different spaces")
        name = f"{self.name}*{other.name}" if self.name and other.name else ""
        return AffineTorusMap._from_parts(_linear_product(self.linear, other.linear),
                                          *self._act(other.num, other.den),
                                          self.lines, name)

    @staticmethod
    def identity(n: int, lines: Iterable[int] = ()) -> "AffineTorusMap":
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        return AffineTorusMap(eye, None, lines, "id")

    @staticmethod
    def diagonal(signs: Sequence[int], shift: Sequence = None,
                 lines: Iterable[int] = (), name: str = "") -> "AffineTorusMap":
        n = len(signs)
        lin = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return AffineTorusMap(lin, shift, lines, name)


class FiniteActionGroup:
    """A finite group of affine torus maps: its elements, identity first, and
    a subset of them that generates it."""

    __slots__ = ("generators", "elements", "_index")

    def __init__(self, generators: Sequence[AffineTorusMap],
                 elements: Sequence[AffineTorusMap]):
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elements)})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteActionGroup is immutable")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, f: AffineTorusMap):
        return f in self._index

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> AffineTorusMap:
        return self.elements[0]

    @property
    def n(self) -> int:
        return self.identity.n

    @property
    def lines(self) -> frozenset:
        return self.identity.lines


def generate_group(gens: Sequence[AffineTorusMap],
                   bound: int = GROUP_SIZE_BOUND) -> FiniteActionGroup:
    """The group the maps gens generate, closed from generators chosen
    greedily (Dimino's algorithm): a map joins the generators only if the
    closure so far lacks it.  The closure H so far is a group, so the new
    one is a union of cosets H r, found by moving the coset representatives
    r by the generators.  Each join at least doubles the closure, so the
    group's generators are a subset of gens of at most log2 |G| maps that
    still generates G.  Each element is composed once, plus one product per
    representative and generator.  Identity is element 0, and a closure of
    more than bound elements raises GroupTooLarge."""
    if not gens:
        raise InvalidOperand("need at least one generator (or an identity map)")
    n, lines = gens[0].n, gens[0].lines
    for g in gens:
        if g.n != n or g.lines != lines:
            raise InvalidOperand("generators act on different spaces")
    ident = AffineTorusMap.identity(n, lines)
    elements, seen, chosen = [ident], {ident}, []

    def add_coset(rep, prev):
        for h in [rep] + [h.compose(rep) for h in prev]:
            seen.add(h)
            elements.append(h)
        if len(elements) > bound:
            raise GroupTooLarge(f"group did not close within {bound} elements")

    for m in gens:
        if m in seen:
            continue
        chosen.append(m)
        prev = elements[1:]
        reps = [m]
        add_coset(m, prev)
        for r in reps:
            for g in chosen:
                prod = r.compose(g)
                if prod not in seen:
                    reps.append(prod)
                    add_coset(prod, prev)
    return FiniteActionGroup(chosen, elements)


def check_preserves_form(f: AffineTorusMap, phi: ExteriorForm, sign: int) -> bool:
    """Does the linear part pull the form back to sign * form?"""
    if f.n != phi.dim:
        raise InvalidOperand("dimension mismatch")
    if sign not in (1, -1):
        raise InvalidOperand("sign must be +1 or -1")
    return pullback(LinearMapR(f.linear), phi) == sign * phi


# ---------------------------------------------------------------------------
# fixed sets


class _Component:
    """One connected component of a fixed-point set: an affine subtorus
    (possibly times a line factor) through the point num/den, with integer
    direction vectors.  Circle entries of num are reduced mod den."""

    __slots__ = ("n", "lines", "num", "den", "directions", "free_lines")

    def __init__(self, n, lines, num, den, directions, free_lines):
        self.n = n
        self.lines = lines
        self.num = tuple(num)
        self.den = den
        self.directions = tuple(tuple(d) for d in directions)
        self.free_lines = frozenset(free_lines)

    @property
    def torus_dim(self) -> int:
        return len(self.directions)

    @property
    def line_dim(self) -> int:
        return len(self.free_lines)

    def display_offset(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def key(self, lattice=None):
        """Canonical hashable key of the component's class modulo span + Λ.

        Λ is Z^c when lattice is None, and two components are then equal iff
        their keys agree; lattice = (B, D) gives Λ = B Z^c / D.  The key
        starts with the span of the directions as primitive integer rows,
        then holds the offset's class (and its pinned line values) at the
        lowest denominator, so components over different denominators
        compare."""
        span, rows, mods = _offset_lattice(self.n, self.lines, self.free_lines,
                                           self.directions, lattice)
        den = self.den
        vals = [v % (den * m) if m else v
                for v, m in zip(_linear_image(rows, self.num, len(mods)), mods)]
        g = gcd(den, *vals)
        return (span, den // g, tuple([v // g for v in vals]),
                self.n, self.lines, self.free_lines)

    def __eq__(self, other):
        return isinstance(other, _Component) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _primitive(row) -> list[int]:
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _span_and_annihilator(rows):
    """The rows of rref(rows) and a basis of its null space, each as the
    primitive integer vector on its ray, for an integer matrix.  The basis
    has one vector per free column j, in column order: e_j minus, at each
    pivot column, the entry in column j of that pivot's rref row.

    Gauss-Jordan elimination on integer rows: a pivot row is made positive
    and every other row r becomes primitive(p r - r[col] pivot_row), which
    stays on the ray of its rational counterpart, so no Fraction is made."""
    m = [list(row) for row in rows]
    ncols = len(m[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
        top, p = m[r], m[r][col]
        for i, row in enumerate(m):
            f = row[col]
            if i != r and f:
                m[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(col)
        if len(pivots) == len(m):
            break
    span = [_primitive(row) for row in m[:len(pivots)]]
    scale = lcm(*(row[c] for row, c in zip(span, pivots)))
    ann = []
    for j in range(ncols):
        if j not in pivots:
            vec = [0] * ncols
            vec[j] = scale
            for row, c in zip(span, pivots):
                vec[c] = -row[j] * (scale // row[c])
            ann.append(tuple(_primitive(vec)))
    return tuple(tuple(row) for row in span), ann


@lru_cache(maxsize=1024)
def _offset_lattice(n, lines, free_lines, directions, lattice=None):
    """Canonical span of the directions (primitive integer rows), integer rows
    R (as _sparse entries) and moduli m such that offsets x, y over a common
    denominator D differ by an element of span + Λ iff R x = R y, row i taken
    mod D * m_i (exactly where m_i = 0).  Λ is Z^c, or B Z^c / s for
    lattice = (B, s).

    For an integer basis N of the annihilator of the span and the Smith form
    U N B V = diag(m), the circle rows are s U N; each pinned line coordinate
    adds a unit row with m = 0."""
    circ = [i for i in range(n) if (i + 1) not in lines]
    basis, scale = lattice or (identity_matrix(len(circ)), 1)
    d_rows = tuple(tuple(d[i] for i in circ) for d in directions)
    if d_rows:
        span, ann = _span_and_annihilator(d_rows)
    else:
        span, ann = (), identity_matrix(len(circ))
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
    return span, _sparse(rows), tuple(mods)


def _translation_lattice(group: FiniteActionGroup):
    """Λ_T = Z^c + shifts(T) on the circle coordinates, for the translation
    subgroup T = {g : linear(g) = Id}, as (B, D) with Λ_T = B Z^c / D, and
    the integer matrix D B^-1.

    The columns of B are the rows of the Hermite normal form of D Λ_T, built
    by inserting each translation's shift numerators with Euclid's algorithm
    on the pivots.  T is normal in G, so every linear part preserves Λ_T.
    D B^-1 is integral because Z^c ⊂ Λ_T; B is lower triangular, so forward
    substitution finds it with exact integer divisions."""
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    ident = group.identity.linear
    trans = [g for g in group.elements if g.linear == ident]
    den = lcm(*(t.den for t in trans))
    c = len(circ)
    rows = [[den * (i == j) for j in range(c)] for i in range(c)]
    for t in trans:
        vec = [t.num[i] * (den // t.den) for i in circ]
        for j in range(c):
            while vec[j]:
                q = rows[j][j] // vec[j]
                rows[j], vec = vec, [a - q * b for a, b in zip(rows[j], vec)]
            if rows[j][j] < 0:
                rows[j] = [-a for a in rows[j]]
    for j in range(c):
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    basis = tuple(zip(*rows))
    inv = [[0] * c for _ in range(c)]
    for j in range(c):
        for i in range(j, c):
            acc = den * (i == j) - sum(basis[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = acc // basis[i][i]
    return (basis, den), tuple(tuple(row) for row in inv)


def _fixed_components(f: AffineTorusMap, lattice=None,
                      lattice_inv=None) -> list[_Component]:
    """Components of Fix(f).  With lattice = (B, D) and lattice_inv the
    integer matrix D B^-1, the components modulo Λ = B Z^c / D of the union
    of Fix(f∘t) over the translations t by Λ; both default to Λ = Z^c.

    x = B y / D turns R^c/Λ into R^c/Z^c and (A - 1) x + v ∈ Λ into
    (A' - 1) y + w ∈ Z^c, with A' = (D B^-1) A B / D (integral, since A
    preserves Λ) and w = D B^-1 v.  With U (A' - 1) V = diag(d) and y = V z
    that reads d_k z_k = -(U w)_k mod 1: one Smith form for the whole coset."""
    n, lines = f.n, f.lines
    circ = [i for i in range(n) if (i + 1) not in lines]
    free_lines = set()
    for i1 in lines:
        if f.linear[i1 - 1][i1 - 1] == 1:
            if f.num[i1 - 1]:
                return []
            free_lines.add(i1)
    c = len(circ)
    basis, scale = lattice or (identity_matrix(c), 1)
    inv = lattice_inv or identity_matrix(c)
    a = tuple(tuple(f.linear[i][j] for j in circ) for i in circ)
    m = [[x // scale - (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(mat_mul(inv, mat_mul(a, basis)))]
    # -U w has numerators U inv num over f.den
    u, d, v = smith_normal_form(m) if c else ((), (), ())
    w = mat_vec(u, mat_vec(inv, tuple(-f.num[i] for i in circ)))
    diag = [d[k][k] for k in range(c)]
    if any(dk == 0 and wk % f.den for dk, wk in zip(diag, w)):
        return []
    den_y = f.den * lcm(*(abs(dk) for dk in diag if dk))
    choice_sets = [[(wk + j * f.den) * (den_y // (f.den * dk)) for j in range(abs(dk))]
                   if dk else [0] for dk, wk in zip(diag, w)]
    # one denominator for every component: reflected lines pin x_i = v_i / 2
    pinned = lines - free_lines
    den = lcm(den_y * scale, 2 * f.den if pinned else 1)
    up = den // (den_y * scale)
    base = [0] * n
    for i1 in pinned:
        base[i1 - 1] = f.num[i1 - 1] * (den // (2 * f.den))
    # x = B V z / D, placed through the nonzero entries of B V
    bv = tuple((circ[i], k, x) for i, k, x in _sparse(mat_mul(basis, v)))
    dirs = []
    for k in range(c):
        if diag[k] == 0:
            vec = [0] * n
            for i, col, x in bv:
                if col == k:
                    vec[i] = x
            dirs.append(vec)
    # base is 0 on circle coordinates and the image is 0 on line coordinates
    return [_Component(n, lines, [b + x * up % den for b, x in
                                  zip(base, _linear_image(bv, combo, n))],
                       den, dirs, free_lines)
            for combo in product(*choice_sets)]


def _transport(g: AffineTorusMap, comp: _Component) -> _Component:
    num, den = g._act(comp.num, comp.den)
    if comp.free_lines:
        num = [0 if i + 1 in comp.free_lines else x for i, x in enumerate(num)]
    dirs = [_linear_image(g.terms, d, g.n) for d in comp.directions]
    return _Component(comp.n, comp.lines, num, den, dirs, comp.free_lines)


def _span_action(cosets: dict, directions, free_lines):
    """The coset representatives whose linear part fixes every direction and
    free line, and those whose linear part negates each of them."""
    plus = list(directions)
    minus = [tuple(-x for x in d) for d in directions]
    fixing, negating = [], []
    for a, f in cosets.items():
        images = [_linear_image(f.terms, d, f.n) for d in directions]
        signs = {a[i1 - 1][i1 - 1] for i1 in free_lines}
        if images == plus and signs <= {1}:
            fixing.append(f)
        if images == minus and signs <= {-1}:
            negating.append(f)
    return fixing, negating


def _fixes_pointwise(f: AffineTorusMap, comp: _Component, lattice_inv) -> bool:
    """Does an element of the coset f T fix comp pointwise, given that the
    linear part A fixes comp's directions and free lines?

    Such an element's shift can only be x0 - A x0 at the offset x0, and the
    shifts of f T are v_f + Λ_T on the circle coordinates, so the test is
    whether D B^-1 (x0 - A x0 - v_f) is integral for Λ_T = B Z^c / D.
    lattice_inv holds the _sparse entries of the integer matrix D B^-1
    (columns indexed by coordinate) and its row count c.  The line coordinates need no test: in a finite group a line
    kept by A carries no shift, and all elements (and all census maps) that
    reverse a line share their shift on it, so x0 - A x0 - v_f is 0 there.
    The coset holds no second such element, as translations act freely."""
    inv, c = lattice_inv
    den = lcm(comp.den, f.den)
    k, s = den // comp.den, den // f.den
    diff = [(x - y) * k - t * s for x, y, t in
            zip(comp.num, _linear_image(f.terms, comp.num, f.n), f.num)]
    return not any(y % den for y in _linear_image(inv, diff, c))


def components_intersect(c1: _Component, c2: _Component) -> bool:
    """Do two fixed-set components share a point?

    They do iff their pinned line values agree and x2 - x1 lies in the span
    of both direction sets plus Z^c, which the offset lattice of the joint
    span decides over one denominator, as in _Component.key."""
    if c1.n != c2.n or c1.lines != c2.lines:
        return False
    for i1 in c1.lines:
        free = (i1 in c1.free_lines) or (i1 in c2.free_lines)
        if not free and c1.num[i1 - 1] * c2.den != c2.num[i1 - 1] * c1.den:
            return False
    _, rows, mods = _offset_lattice(c1.n, c1.lines, c1.lines,
                                    c1.directions + c2.directions)
    den = lcm(c1.den, c2.den)
    k1, k2 = den // c1.den, den // c2.den
    delta = [y * k2 - x * k1 for x, y in zip(c1.num, c2.num)]
    return not any(v % (den * m) if m else v
                   for v, m in zip(_linear_image(rows, delta, len(mods)), mods))


@dataclass(frozen=True)
class FlatStratum:
    """A flat piece of a fixed locus or singular set.

    count components upstairs form one object downstairs; offset is a point
    of one of them, stabilizer_order the order |G| / count of the setwise
    stabilizer of each, and residual records how that stabilizer acts on the
    component beyond its pointwise part ("trivial", "pm1" or "other").

    In a quotient, the components are counted modulo the translation lattice
    Λ_T: an orbit of k classes mod span + Λ_T holds k |T| / |T ∩ (span + Z^c)|
    components, where span is the span of the component's directions.
    """

    torus_dim: int
    line_dim: int
    count: int
    offset: tuple
    stabilizer_order: int = 1
    residual: str = "trivial"

    @property
    def type_label(self) -> str:
        parts = []
        if self.torus_dim:
            parts.append(f"T{self.torus_dim}")
        parts.extend(["R"] * self.line_dim)
        base = "x".join(parts) if parts else "point"
        if self.residual == "pm1":
            base += "/pm1"
        return base


def fixed_set(f: AffineTorusMap) -> list[FlatStratum]:
    """Connected components of the fixed-point set, one stratum each, ordered
    by offset.  No group acts, so count and stabilizer order are 1."""
    return sorted((FlatStratum(c.torus_dim, c.line_dim, 1, c.display_offset())
                   for c in _fixed_components(f)), key=lambda s: s.offset)


def _group_into_orbits(group: FiniteActionGroup, registry: dict, lattice):
    """registry maps the key of a class mod span + Λ_T to a component in it
    and the linear part of the coset f T of G whose fixed set gave it, or
    None when the coset lies outside G (a census map f∘sigma); returns each
    orbit as its first registered component and its number of classes.

    The search moves classes by the generators only: G is finite, so every
    element is a positive word in them, and T is normal, so every element
    maps classes to classes; a translation fixes each class and is skipped.
    So is a generator in the class's own coset f T: one element of f T fixes
    the component pointwise, and the others differ from it by translations.
    The cost is O(classes * generators)."""
    ident = group.identity.linear
    movers = [g for g in group.generators if g.linear != ident]
    unvisited = set(registry)
    orbits = []
    for key, (comp, fixer) in registry.items():
        if key not in unvisited:
            continue
        unvisited.discard(key)
        size, stack = 0, [(comp, fixer)]
        while stack:
            base, linear = stack.pop()
            size += 1
            for g in movers:
                if g.linear == linear:
                    continue
                mk = _transport(g, base).key(lattice)
                if mk in unvisited:
                    unvisited.discard(mk)
                    stack.append(registry[mk])
        orbits.append((comp, size))
    return orbits


def _t_orbit_size(comp: _Component, lattice) -> int:
    """|T| / |T ∩ (span + Z^c)|, the number of components in comp's class
    mod span + Λ_T: the index [span + Λ_T : span + Z^c], a ratio of the
    Smith moduli of the two offset lattices, found without enumerating T."""
    if lattice[1] == 1:
        # Λ_T = Z^c: T is trivial, and one Smith solve serves the span
        return 1
    args = (comp.n, comp.lines, comp.free_lines, comp.directions)
    plain = [m for m in _offset_lattice(*args)[2] if m]
    wide = [m for m in _offset_lattice(*args, lattice)[2] if m]
    return lattice[1] ** len(plain) * prod(plain) // prod(wide)


def _classify_residual(comp: _Component, setwise: int, lattice, lattice_inv,
                       span_action) -> str:
    """How the setwise stabilizer, of order |G| / |orbit|, acts beyond its
    pointwise part, decided per coset of T among the cosets span_action
    gives for comp's directions and free lines (see _span_action).

    A point fixed setwise is fixed pointwise.  An element acting as -1 on a
    component of positive dimension never fixes it pointwise, and a coset
    f T holds an element that maps comp to itself iff f comp lies in comp's
    class."""
    if not comp.directions and not comp.free_lines:
        return "trivial"
    fixing, negating = span_action
    pointwise = sum(_fixes_pointwise(f, comp, lattice_inv) for f in fixing)
    if setwise == pointwise:
        return "trivial"
    if setwise == 2 * pointwise:
        key = comp.key(lattice)
        if any(_transport(f, comp).key(lattice) == key for f in negating):
            return "pm1"
    return "other"


def _cosets(group: FiniteActionGroup) -> dict:
    """One element of each coset of the translation subgroup T, keyed by its
    linear part: the point group G/T."""
    reps = {}
    for g in group.elements:
        reps.setdefault(g.linear, g)
    return reps


def _strata(group: FiniteActionGroup, cosets: dict, maps) -> list[FlatStratum]:
    """Quotient strata of the fixed components of the cosets f T (f in maps),
    which the group permutes."""
    lattice, inv = _translation_lattice(group)
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    # D B^-1, reading the circle coordinates of a full vector
    lattice_inv = (tuple((i, circ[j], x) for i, j, x in _sparse(inv)), len(circ))
    registry: dict = {}
    for f in maps:
        # only a coset of G maps the classes of its own fixed set to
        # themselves; a census map f∘sigma lies outside G
        fixer = f.linear if f in group else None
        for comp in _fixed_components(f, lattice, inv):
            registry.setdefault(comp.key(lattice), (comp, fixer))
    orbits = _group_into_orbits(group, registry, lattice)
    # strata are ordered by dimension, then offset: over one common
    # denominator the offsets compare as integer tuples
    den = lcm(*(rep.den for rep, _ in orbits))
    fracs: dict = {}
    actions: dict = {}
    strata = []
    for rep, classes in orbits:
        count = classes * _t_orbit_size(rep, lattice)
        setwise = group.order // count
        span = (rep.directions, rep.free_lines)
        if span not in actions:
            actions[span] = _span_action(cosets, *span)
        offset = tuple(x * (den // rep.den) for x in rep.num)
        for x in offset:
            if x not in fracs:
                fracs[x] = Fraction(x, den)
        strata.append(((-(rep.torus_dim + rep.line_dim), offset), FlatStratum(
            torus_dim=rep.torus_dim,
            line_dim=rep.line_dim,
            count=count,
            offset=tuple([fracs[x] for x in offset]),
            stabilizer_order=setwise,
            residual=_classify_residual(rep, setwise, lattice, lattice_inv,
                                        actions[span]),
        )))
    strata.sort(key=lambda pair: pair[0])
    return [s for _, s in strata]


def singular_locus(group: FiniteActionGroup) -> list[FlatStratum]:
    """Orbits of fixed components of non-identity elements, as quotient strata.

    Translations act freely, so the identity coset T contributes nothing."""
    cosets = _cosets(group)
    ident = group.identity.linear
    return _strata(group, cosets, [f for a, f in cosets.items() if a != ident])


def involution_fixed_census(sigma: AffineTorusMap,
                            group: FiniteActionGroup) -> list[FlatStratum]:
    """Classify fixed loci of the coset maps g∘sigma in the quotient by the group."""
    if sigma.n != group.n or sigma.lines != group.lines:
        raise InvalidOperand("involution acts on a different space")
    if not sigma.compose(sigma).is_identity():
        raise NotAntiInvolution("map is not an involution")
    if sigma in group:
        raise NotAntiInvolution("involution lies in the group itself")
    # sigma is its own inverse
    for g in group.generators:
        if sigma.compose(g).compose(sigma) not in group:
            raise NotEquivariant("involution does not normalize the group")
    # sigma normalizes T, so the maps with one linear part form a coset f sigma T
    cosets = _cosets(group)
    return _strata(group, cosets, [f.compose(sigma) for f in cosets.values()])


def _exterior_traces(a) -> list[int]:
    """tr Λ^k A for k = 0..n of an integer n×n matrix A.

    The powers are kept as sparse rows, and Newton's identities turn the
    power traces p_j = tr A^j into the elementary symmetric functions of
    the eigenvalues:
    k e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} p_j, and e_k = tr Λ^k A.
    """
    n = len(a)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    power = [dict(row) for row in rows]
    p = [sum(row.get(i, 0) for i, row in enumerate(power))]
    for _ in range(n - 1):
        # row i of A^(j+1) sums A^j[i][k] times row k of A over the nonzero
        # A^j[i][k]: one multiply per row for a monomial block
        nxt = []
        for prow in power:
            acc: dict = {}
            for k, x in prow.items():
                for j, y in rows[k]:
                    acc[j] = acc.get(j, 0) + x * y
            nxt.append(acc)
        power = nxt
        p.append(sum(row.get(i, 0) for i, row in enumerate(power)))
    e = [1]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * p[j - 1]
                     for j in range(1, k + 1)) // k)
    return e


def quotient_betti(group: FiniteActionGroup) -> BettiVector:
    """Betti numbers of the quotient: averaged exterior-power traces of the
    circle block (line factors are contractible and contribute nothing),
    taken once per distinct block and weighted by its multiplicity."""
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    blocks: Counter = Counter()
    for linear, mult in Counter(g.linear for g in group.elements).items():
        blocks[tuple(tuple(linear[i][j] for j in circ) for i in circ)] += mult
    totals = [0] * (len(circ) + 1)
    for block, mult in blocks.items():
        totals = [t + mult * e for t, e in zip(totals, _exterior_traces(block))]
    out = []
    for k, total in enumerate(totals):
        avg = Fraction(total, group.order)
        if avg.denominator != 1 or avg < 0:
            raise InvalidOperand(
                f"invariant trace average b^{k} = {avg} is not a nonnegative integer")
        out.append(int(avg))
    return BettiVector(out)


def count_ends(group: FiniteActionGroup, i: int) -> int:
    """Ends of the quotient along line coordinate i: 2 if no element reverses it."""
    if i not in group.lines:
        raise InvalidOperand(f"coordinate {i} is not a line coordinate")
    return 1 if any(g.linear[i - 1][i - 1] == -1 for g in group.elements) else 2


def pull(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """Convert circle coordinate i to a line coordinate.

    Every element must act on x_i as a reflection or as the identity, without
    mixing it with other coordinates, and must not translate along it: such
    a translation would have infinite order on a line.  The pulled maps then
    form a group with the pulled generators.  An element that keeps x_i has
    no shift on it, and two elements that reverse x_i have the same
    canonical shift v on it, since their composite keeps x_i and so has
    shift 0 there.  In a pulled composite, where x_i is no longer read mod 1,
    the shift on x_i is therefore 0, v or v - v = 0, as on the torus: pulling
    commutes with composition and is injective, so no closure is needed.
    """
    if i in group.lines:
        raise InvalidOperand(f"coordinate {i} is already a line")
    if not (1 <= i <= group.n):
        raise InvalidOperand("coordinate out of range")
    for g in group.elements:
        row = g.linear[i - 1]
        col = [g.linear[j][i - 1] for j in range(g.n)]
        if any(row[j] for j in range(g.n) if j != i - 1) or \
                any(col[j] for j in range(g.n) if j != i - 1):
            raise PullObstruction(
                f"element {g.name or g} mixes coordinate {i} with others")
        if g.linear[i - 1][i - 1] == 1 and g.num[i - 1] != 0:
            raise PullObstruction(
                f"element {g.name or g} translates along coordinate {i}")
    new_lines = group.lines | {i}

    def pulled(g):
        return AffineTorusMap._from_parts(g.linear, g.num, g.den, new_lines, g.name)

    return FiniteActionGroup([pulled(g) for g in group.generators],
                             [pulled(g) for g in group.elements])


def cross_section_group(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """The end-preserving subgroup, restricted to the cross-section T^{n-1}.

    The restrictions need no validation.  A line coordinate carries a plain
    sign action and no map mixes lines with circles, so each element's
    linear part is block diagonal with the 1x1 block at i: dropping row and
    column i leaves a unimodular block with the same line/circle split.  An
    element that keeps a line has no shift along it (a finite group holds
    no translation along a line), so the kept shift numerators stay
    canonical and restriction is injective on the end-preserving elements."""
    if i not in group.lines:
        raise InvalidOperand(f"coordinate {i} is not a line coordinate")
    keep = [j for j in range(group.n) if j != i - 1]
    new_lines = frozenset(j if j < i else j - 1 for j in group.lines if j != i)
    members = [AffineTorusMap._from_parts(
        tuple(tuple(g.linear[p][q] for q in keep) for p in keep),
        [g.num[p] for p in keep], g.den, new_lines, g.name)
        for g in group.elements if g.linear[i - 1][i - 1] == 1]
    return generate_group(members)
