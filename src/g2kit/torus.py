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
Each call keeps one span table, keyed by the canonical span of the
directions and the free lines.  An entry holds integer rows that read an
offset's class modulo span + Λ_T, taken from the Smith solve of the first
coset with that span, the index [span + Λ_T : span + Z^c] (one more Smith
form, only when Λ_T ≠ Z^c), and the cosets that fix or negate the span.
Components are keyed by the entry and the rows' values at their offset.
The orbit search moves only offsets by the generators: a generator maps
one span to another, found once per generator and span.  An orbit of k
classes holds k [span + Λ_T : span + Z^c] components upstairs.  A coset
holds a pointwise fixer of a component iff its linear part fixes the
component's span and x0 - A x0 lies in v_f + Λ_T, one sparse image
M_f x0 with M_f = D B^-1 (1 - A) formed once per coset.  Nothing is
cached across calls.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from ._frozen import Frozen
from ._lazy import lazy_module
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

# only check_preserves_form needs the form algebra
forms = lazy_module("g2kit.forms")

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


class AffineTorusMap(Frozen):
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
        return self._then(other, mat_mul(self.linear, other.linear))

    def _then(self, other, linear) -> "AffineTorusMap":
        """self after other, given the product of their linear parts."""
        name = f"{self.name}*{other.name}" if self.name and other.name else ""
        return AffineTorusMap._from_parts(linear, *self._act(other.num, other.den),
                                          self.lines, name)

    @staticmethod
    def identity(n: int, lines: Iterable[int] = ()) -> "AffineTorusMap":
        """The identity, valid by construction: it is unimodular, mixes no
        coordinates and keeps every line."""
        lines = frozenset(int(i) for i in lines)
        if any(not (1 <= i <= n) for i in lines):
            raise InvalidOperand("line coordinates out of range")
        return AffineTorusMap._from_parts(identity_matrix(n), (0,) * n, 1, lines, "id")

    @staticmethod
    def diagonal(signs: Sequence[int], shift: Sequence = None,
                 lines: Iterable[int] = (), name: str = "") -> "AffineTorusMap":
        n = len(signs)
        lin = [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return AffineTorusMap(lin, shift, lines, name)


class FiniteActionGroup(Frozen):
    """A finite group of affine torus maps: its elements, identity first, and
    a subset of them that generates it."""

    __slots__ = ("generators", "elements", "_index")

    def __init__(self, generators: Sequence[AffineTorusMap],
                 elements: Sequence[AffineTorusMap]):
        elements = tuple(elements)
        super().__init__(tuple(generators), elements,
                         {e: i for i, e in enumerate(elements)})

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
    # a group has few distinct linear parts, so their products repeat
    products: dict = {}

    def compose(f, g):
        pair = (f.linear, g.linear)
        linear = products.get(pair)
        if linear is None:
            linear = products[pair] = mat_mul(*pair)
        return f._then(g, linear)

    def add_coset(rep, prev):
        for h in [rep] + [compose(h, rep) for h in prev]:
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
                prod = compose(r, g)
                if prod not in seen:
                    reps.append(prod)
                    add_coset(prod, prev)
    return FiniteActionGroup(chosen, elements)


def check_preserves_form(f: AffineTorusMap, phi: forms.ExteriorForm,
                         sign: int) -> bool:
    """Does the linear part pull the form back to sign * form?"""
    if f.n != phi.dim:
        raise InvalidOperand("dimension mismatch")
    if sign not in (1, -1):
        raise InvalidOperand("sign must be +1 or -1")
    return forms.pullback(forms.LinearMapR(f.linear), phi) == sign * phi


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


def _primitive(row) -> list[int]:
    """The primitive integer vector on the ray of a nonzero integer vector."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _span(rows) -> tuple[tuple[int, ...], ...]:
    """The rows of rref(rows), each as the primitive integer vector on its
    ray: one canonical form for the span of an integer matrix's rows.

    Gauss-Jordan elimination on integer rows: a pivot row is made positive
    and every other row r becomes primitive(p r - r[col] pivot_row), which
    stays on the ray of its rational counterpart, so no Fraction is made."""
    if not rows:
        return ()
    m = [list(row) for row in rows]
    pivots = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(pivots, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[pivots], m[piv] = m[piv], m[pivots]
        if m[pivots][col] < 0:
            m[pivots] = [-x for x in m[pivots]]
        top, p = m[pivots], m[pivots][col]
        for i, row in enumerate(m):
            f = row[col]
            if i != pivots and f:
                m[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots += 1
        if pivots == len(m):
            break
    return tuple(tuple(_primitive(row)) for row in m[:pivots])


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


def _solve_coset(f: AffineTorusMap, lattice=None, lattice_inv=None):
    """The fixed set of f; with lattice = (B, D) and lattice_inv the integer
    matrix D B^-1, the union of the fixed sets of f∘t over the translations
    t by Λ = B Z^c / D, modulo Λ.  Both default to Λ = Z^c.

    None when it is empty, else (free lines, directions, den, offsets,
    smith): one component per offset, the subtorus through offset / den
    along the directions, times the free lines; smith = (U, A' - 1, d) is
    the solve below, which _Span reads.

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
                return None
            free_lines.add(i1)
    c = len(circ)
    basis, scale = lattice or (identity_matrix(c), 1)
    inv = lattice_inv or identity_matrix(c)
    a = tuple(tuple(f.linear[i][j] for j in circ) for i in circ)
    if scale != 1:
        # D = 1 only for Λ = Z^c, where the Hermite basis B is the identity
        a = mat_mul(inv, mat_mul(a, basis))
    m = [[x // scale - (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    # -U w has numerators U inv num over f.den
    u, d, v = smith_normal_form(m) if c else ((), (), ())
    w = mat_vec(u, mat_vec(inv, tuple(-f.num[i] for i in circ)))
    diag = [d[k][k] for k in range(c)]
    if any(dk == 0 and wk % f.den for dk, wk in zip(diag, w)):
        return None
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
    bv = mat_mul(basis, v) if scale != 1 else v
    bv = tuple((circ[i], k, x) for i, k, x in _sparse(bv))
    dirs = []
    for k in range(c):
        if diag[k] == 0:
            vec = [0] * n
            for i, col, x in bv:
                if col == k:
                    vec[i] = x
            dirs.append(tuple(vec))
    # base is 0 on circle coordinates and the image is 0 on line coordinates
    offsets = [tuple([b + x * up % den
                      for b, x in zip(base, _linear_image(bv, combo, n))])
               for combo in product(*choice_sets)]
    return frozenset(free_lines), dirs, den, offsets, (u, m, diag)


def _fixed_components(f: AffineTorusMap, lattice=None,
                      lattice_inv=None) -> list[_Component]:
    """The components that _solve_coset finds, as _Component objects."""
    fix = _solve_coset(f, lattice, lattice_inv)
    if fix is None:
        return []
    free_lines, dirs, den, offsets, _ = fix
    return [_Component(f.n, f.lines, num, den, dirs, free_lines) for num in offsets]


def components_intersect(c1: _Component, c2: _Component) -> bool:
    """Do two fixed-set components share a point?

    They do iff their pinned line values agree and x2 - x1 lies in the span
    of both direction sets plus Z^c.  With U W V = diag(d) for the matrix W
    whose rows are the directions, the columns of V with d_k = 0 annihilate
    the span and map R^c / (span + Z^c) onto a torus, so the test is whether
    they take integer values on x2 - x1."""
    if c1.n != c2.n or c1.lines != c2.lines:
        return False
    for i1 in c1.lines:
        free = (i1 in c1.free_lines) or (i1 in c2.free_lines)
        if not free and c1.num[i1 - 1] * c2.den != c2.num[i1 - 1] * c1.den:
            return False
    circ = [i for i in range(c1.n) if (i + 1) not in c1.lines]
    den = lcm(c1.den, c2.den)
    k1, k2 = den // c1.den, den // c2.den
    delta = [c2.num[i] * k2 - c1.num[i] * k1 for i in circ]
    rows = [[d[i] for i in circ] for d in c1.directions + c2.directions]
    if not (rows and circ):
        return not any(x % den for x in delta)
    _, d, v = smith_normal_form(rows)
    rank = sum(1 for k in range(min(len(rows), len(circ))) if d[k][k])
    return not any(sum(row[k] * x for row, x in zip(v, delta)) % den
                   for k in range(rank, len(circ)))


class FlatStratum(Frozen):
    """A flat piece of a fixed locus or singular set.

    count components upstairs form one object downstairs; offset is a point
    of one of them, stabilizer_order the order |G| / count of the setwise
    stabilizer of each, and residual records how that stabilizer acts on the
    component beyond its pointwise part ("trivial", "pm1" or "other").

    In a quotient, the components are counted modulo the translation lattice
    Λ_T: an orbit of k classes mod span + Λ_T holds k |T| / |T ∩ (span + Z^c)|
    components, where span is the span of the component's directions.
    """

    __slots__ = ("torus_dim", "line_dim", "count", "offset",
                 "stabilizer_order", "residual")

    def __init__(self, torus_dim, line_dim, count, offset, stabilizer_order=1,
                 residual="trivial"):
        super().__init__(torus_dim, line_dim, count, offset, stabilizer_order,
                         residual)

    def __eq__(self, other):
        return isinstance(other, FlatStratum) and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__)

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


def _canonical_span(dirs, free_lines, circ):
    """The span table's key for directions and free lines."""
    return _span([[d[i] for i in circ] for d in dirs]), free_lines


class _Span:
    """One entry of a _strata call's span table: a span of directions with
    its free lines, shared by every coset whose fixed components run along
    it.

    Its rows (_sparse entries over all n coordinates) read an offset's
    class modulo span + Λ_T: the first `circle` of them mod 1, then one
    exact row per pinned line.  index is [span + Λ_T : span + Z^c], the
    number of components upstairs in one class.  action is filled when a
    stratum along the span first needs it (see _span_action)."""

    __slots__ = ("dirs", "free_lines", "rows", "size", "circle", "index", "action")

    def __init__(self, fix, circ, lines, lattice, lattice_inv):
        free_lines, dirs, _, _, (u, m, diag) = fix
        # row k of U (A' - 1) is d_k times row k of V^-1, and the rows of
        # V^-1 with d_k != 0 take integer values exactly on span + Z^c in
        # y = D B^-1 x, that is on span + Λ_T in x
        rows = [[x // dk for x in row] for row, dk in zip(mat_mul(u, m), diag) if dk]
        self.index = 1
        if rows and lattice[1] != 1:
            rows = mat_mul(rows, lattice_inv)
            # R x ∈ Z^(c-t) cuts out span + Λ_T, and R maps span + Z^c onto
            # R Z^c, so the index is [Z^(c-t) : R Z^c], the product of the
            # Smith moduli of R; Λ_T = Z^c needs no solve
            _, d, _ = smith_normal_form(rows)
            self.index = prod(d[k][k] for k in range(len(rows)))
        terms = [(k, circ[j], x) for k, j, x in _sparse(rows)]
        pinned = sorted(lines - free_lines)
        terms += [(len(rows) + k, i1 - 1, 1) for k, i1 in enumerate(pinned)]
        self.dirs = list(dirs)
        self.free_lines = free_lines
        self.rows = tuple(terms)
        self.circle = len(rows)
        self.size = len(rows) + len(pinned)
        self.action = None

    def key(self, num, den):
        """Canonical hashable key of the class of the point num/den modulo
        span + Λ_T, at the lowest denominator, so points over different
        denominators compare."""
        vals = _linear_image(self.rows, num, self.size)
        circle = self.circle
        vals = [v % den if i < circle else v for i, v in enumerate(vals)]
        g = gcd(den, *vals)
        if g > 1:
            return self, den // g, tuple([v // g for v in vals])
        return self, den, tuple(vals)


def _shift_test(f: AffineTorusMap, circ, lattice_inv):
    """M_f = D B^-1 (1 - A) and w_f = D B^-1 v_f (over f.den) for the coset
    f T and Λ_T = B Z^c / D, kept only in the rows where one of them is
    nonzero: the _sparse entries of those rows of M_f over all n
    coordinates, the same rows of w_f, and f.den (see _fixes_pointwise)."""
    one_minus = [[(i == j) - f.linear[p][q] for j, q in enumerate(circ)]
                 for i, p in enumerate(circ)]
    m = mat_mul(lattice_inv, one_minus)
    w = mat_vec(lattice_inv, [f.num[p] for p in circ])
    live = [i for i, (row, x) in enumerate(zip(m, w)) if x or any(row)]
    terms = tuple((k, circ[j], x) for k, i in enumerate(live)
                  for j, x in enumerate(m[i]) if x)
    return terms, tuple(w[i] for i in live), f.den


def _fixes_pointwise(test, num, den) -> bool:
    """Does an element of the coset f T fix the component through num/den
    pointwise, given that the linear part A fixes its directions and free
    lines?  test = (M_f, w_f, f.den) from _shift_test.

    Such an element's shift can only be x0 - A x0 at the offset x0, and the
    shifts of f T are v_f + Λ_T on the circle coordinates, so the test is
    whether D B^-1 (x0 - A x0 - v_f) = M_f x0 - w_f is integral, that is
    whether f.den M_f num - den w_f vanishes mod den f.den.  The line
    coordinates need no test: in a finite group a line kept by A carries no
    shift, and all elements (and all census maps) that reverse a line share
    their shift on it, so x0 - A x0 - v_f is 0 there.  The coset holds no
    second such element, as translations act freely."""
    terms, w, fden = test
    d = den * fden
    return not any((x * fden - y * den) % d
                   for x, y in zip(_linear_image(terms, num, len(w)), w))


def _span_action(span: _Span, cosets: dict, shift_test):
    """The shift tests (shift_test(f)) of the coset representatives whose
    linear part fixes every direction and free line of the span, and the
    representatives whose linear part negates each of them.  A coset is
    dropped at the first direction it neither fixes nor negates."""
    minus = [tuple(-x for x in d) for d in span.dirs]
    fixing, negating = [], []
    for a, f in cosets.items():
        signs = {a[i1 - 1][i1 - 1] for i1 in span.free_lines}
        for d, neg in zip(span.dirs, minus):
            image = _linear_image(f.terms, d, f.n)
            signs.add(1 if image == d else -1 if image == neg else 0)
            if len(signs) > 1 or 0 in signs:
                break
        if signs == {1}:
            fixing.append(shift_test(f))
        elif signs == {-1}:
            negating.append(f)
    return fixing, negating


def fixed_set(f: AffineTorusMap) -> list[FlatStratum]:
    """Connected components of the fixed-point set, one stratum each, ordered
    by offset.  No group acts, so count and stabilizer order are 1."""
    return sorted((FlatStratum(c.torus_dim, c.line_dim, 1, c.display_offset())
                   for c in _fixed_components(f)), key=lambda s: s.offset)


def _group_into_orbits(group: FiniteActionGroup, registry: dict, spans: dict,
                       circ) -> list:
    """registry maps the key of a class mod span + Λ_T to its offset num/den,
    its span table entry and the linear part of the coset f T of G whose
    fixed set gave it, or None when the coset lies outside G (a census map
    f∘sigma); returns each orbit as the key of its first registered class
    and its number of classes.

    The search moves classes by the generators only: G is finite, so every
    element is a positive word in them, and T is normal, so every element
    maps classes to classes; a translation fixes each class and is skipped.
    So is a generator in the class's own coset f T: one element of f T fixes
    the component pointwise, and the others differ from it by translations.
    A move images the offset only: g maps a span to the span of g's
    image of its directions, found once per generator and span.  The cost
    is O(classes * generators)."""
    ident = group.identity.linear
    movers = [g for g in group.generators if g.linear != ident]
    targets: dict = {}
    unvisited = set(registry)
    orbits = []
    for key in registry:
        if key not in unvisited:
            continue
        unvisited.discard(key)
        size, stack = 0, [registry[key]]
        while stack:
            num, den, span, linear = stack.pop()
            size += 1
            for i, g in enumerate(movers):
                if g.linear == linear:
                    continue
                target = targets.get((i, span))
                if target is None:
                    moved = [_linear_image(g.terms, d, g.n) for d in span.dirs]
                    target = targets[i, span] = spans[
                        _canonical_span(moved, span.free_lines, circ)]
                mk = target.key(*g._act(num, den))
                if mk in unvisited:
                    unvisited.discard(mk)
                    stack.append(registry[mk])
        orbits.append((key, size))
    return orbits


def _classify_residual(span: _Span, num, den, key, setwise: int) -> str:
    """How the setwise stabilizer, of order |G| / |orbit|, acts on the
    component through num/den (of class key) beyond its pointwise part,
    decided per coset of T among the cosets span.action gives.

    A coset f T holds an element that maps the component to itself iff f
    maps its offset into its class, and an element acting as -1 on a
    component of positive dimension never fixes it pointwise."""
    fixing, negating = span.action
    pointwise = sum(_fixes_pointwise(test, num, den) for test in fixing)
    if setwise == pointwise:
        return "trivial"
    if setwise == 2 * pointwise and any(span.key(*f._act(num, den)) == key
                                        for f in negating):
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
    which the group permutes.

    The span table, local to the call, keys each span of directions (with
    its free lines) by its canonical form and holds what every class along
    it needs (see _Span); the rows come from the Smith solve of the first
    coset with that span."""
    lattice, inv = _translation_lattice(group)
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    spans: dict = {}
    registry: dict = {}
    for f in maps:
        fix = _solve_coset(f, lattice, inv)
        if fix is None:
            continue
        free_lines, dirs, den, offsets, _ = fix
        canon = _canonical_span(dirs, free_lines, circ)
        span = spans.get(canon)
        if span is None:
            span = spans[canon] = _Span(fix, circ, group.lines, lattice, inv)
        # only a coset of G maps the classes of its own fixed set to
        # themselves; a census map f∘sigma lies outside G
        fixer = f.linear if f in group else None
        for num in offsets:
            registry.setdefault(span.key(num, den), (num, den, span, fixer))
    orbits = _group_into_orbits(group, registry, spans, circ)
    tests: dict = {}

    def shift_test(f):
        test = tests.get(f.linear)
        if test is None:
            test = tests[f.linear] = _shift_test(f, circ, inv)
        return test

    # strata are ordered by dimension, then offset: over one common
    # denominator the offsets compare as integer tuples
    den = lcm(*(registry[key][1] for key, _ in orbits))
    fracs: dict = {}
    strata = []
    for key, classes in orbits:
        num, rden, span, _ = registry[key]
        count = classes * span.index
        setwise = group.order // count
        # a point fixed setwise is fixed pointwise
        residual = "trivial"
        if span.dirs or span.free_lines:
            if span.action is None:
                span.action = _span_action(span, cosets, shift_test)
            residual = _classify_residual(span, num, rden, key, setwise)
        offset = tuple(x * (den // rden) for x in num)
        for x in offset:
            if x not in fracs:
                fracs[x] = Fraction(x, den)
        dim = len(span.dirs) + len(span.free_lines)
        strata.append(((-dim, offset), FlatStratum(
            len(span.dirs), len(span.free_lines), count,
            tuple([fracs[x] for x in offset]), setwise, residual)))
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
