"""Finite affine isometry groups of T^c x R^l and their fixed-point geometry.

Coordinates are 1-based.  A subset of coordinates may be declared as "line"
(noncompact R-factor) coordinates; the rest are circle coordinates of a torus.
Every map is x -> diag(ε) x + v with signs ε_i = ±1, which is all that the
paper's quotients use: Joyce's T^7/Γ, its pulled halves and the involutions
σ.  A map keeps its signs and the bit mask of its reversed coordinates, so
composing maps multiplies signs, and the point group is a group of masks
under XOR.  All arithmetic is exact: integer numerators over one common
denominator for shifts and component offsets, Smith normal form for the
fixed-point congruences.

Singular strata are found modulo the translation lattice, as crystallography
lists Wyckoff positions by point-group orbits modulo the lattice.  The
translation subgroup T = {g : signs(g) = +1} is normal in G, with lattice
Λ_T = Z^c + shifts(T), a general lattice.  The maps with one sign vector ε
form a coset f T (of G, or of G∘sigma in a census), and the union of their
fixed sets, modulo Λ_T, is {x : (diag(ε) - 1) x + v_f ∈ Λ_T}: one Smith-form
solve per point-group element.  Its components run along the coset's +1
coordinates S (circle directions and free lines), and every map keeps that
coordinate set, so the orbit search moves only offsets.  Each coset keeps
integer rows that read an offset's class modulo S + Λ_T, taken from its
Smith solve, and the index [S + Λ_T : S + Z^c] = [T : T ∩ (S + Z^c)],
counted over the translations whose shift is 0 off S.  An orbit of k
classes holds k [S + Λ_T : S + Z^c] components upstairs.  The cosets +1
on S form a subgroup F of the point group, and the pointwise stabilizer
of a component through x0 has order |F| / |F x0 mod Λ_T|, from one orbit
walk under a basis of F.  Nothing is cached across calls.

The quotient's Betti numbers count invariant monomials.  A sign vector
takes each monomial dx^I to ±dx^I, so the constant forms that G fixes are
spanned by the monomials on circle coordinates whose sign is +1 under
every generator, and b^k is the number of those of degree k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterable, Sequence

from ._frozen import Frozen
from .betti import BettiVector
from .errors import (
    GroupTooLarge,
    InvalidOperand,
    NotAntiInvolution,
    NotEquivariant,
    PullObstruction,
)
from .exact import frac, mat_mul, mat_vec, smith_normal_form

GROUP_SIZE_BOUND = 1024


def _sparse(rows) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries of an integer matrix as (row, column, value)
    triples, row by row."""
    return tuple((i, j, a) for i, row in enumerate(rows)
                 for j, a in enumerate(row) if a)


def _linear_image(terms, vec, size: int) -> tuple[int, ...]:
    """M vec for the size-row matrix M with nonzero entries terms (see
    _sparse): one multiply per entry."""
    out = [0] * size
    for i, j, a in terms:
        out[i] += a * vec[j]
    return tuple(out)


class AffineTorusMap(Frozen):
    """Affine map x -> diag(signs) x + v of T^c x R^l, each sign +1 or -1.

    mask has bit i set where coordinate i + 1 is reversed.  The shift is
    kept as integer numerators over the least common denominator, canonical
    mod 1 on circle coordinates.  The optional name is bookkeeping only and
    does not enter equality.
    """

    __slots__ = ("n", "lines", "signs", "mask", "num", "den", "name", "_key")

    def __init__(self, signs: Sequence[int], shift: Sequence = None,
                 lines: Iterable[int] = (), name: str = ""):
        signs = tuple(signs)
        if any(s not in (1, -1) for s in signs):
            raise InvalidOperand("signs must be +1 or -1")
        n = len(signs)
        lines = frozenset(int(i) for i in lines)
        if any(not (1 <= i <= n) for i in lines):
            raise InvalidOperand("line coordinates out of range")
        if shift is None:
            shift = [0] * n
        vals = [frac(x) for x in shift]
        if len(vals) != n:
            raise InvalidOperand("shift length mismatch")
        den = lcm(*(v.denominator for v in vals))
        self._fill(tuple(int(s) for s in signs), lines,
                   [v.numerator * (den // v.denominator) for v in vals], den, name)

    def _fill(self, signs, lines, num, den, name):
        num = [x if i + 1 in lines else x % den for i, x in enumerate(num)]
        g = gcd(den, *num)
        num, den = tuple(x // g for x in num), den // g
        n, mask = len(signs), sum(1 << i for i, s in enumerate(signs) if s < 0)
        Frozen.__init__(self, n, lines, signs, mask, num, den, name,
                        (n, lines, mask, num, den))

    @staticmethod
    def _from_parts(signs, num, den, lines, name) -> "AffineTorusMap":
        """A map whose signs and lines are already known to be valid."""
        f = object.__new__(AffineTorusMap)
        f._fill(signs, lines, num, den, name)
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
    def shift(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_identity(self) -> bool:
        return not self.mask and not any(self.num)

    def _act(self, num, den) -> tuple[tuple[int, ...], int]:
        """Image of the point num/den, as numerators over lcm(den, self.den)."""
        d = lcm(den, self.den)
        k, s = d // den, d // self.den
        img = [e * x * k + t * s for e, x, t in zip(self.signs, num, self.num)]
        lines = self.lines
        if lines:
            return tuple([v if i + 1 in lines else v % d
                          for i, v in enumerate(img)]), d
        return tuple([v % d for v in img]), d

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """self after other."""
        if self.n != other.n or self.lines != other.lines:
            raise InvalidOperand("maps act on different spaces")
        return self._then(other)

    def _then(self, other) -> "AffineTorusMap":
        """self after other, for maps on the same space."""
        name = f"{self.name}*{other.name}" if self.name and other.name else ""
        signs = tuple([a * b for a, b in zip(self.signs, other.signs)])
        return AffineTorusMap._from_parts(signs, *self._act(other.num, other.den),
                                          self.lines, name)

    @staticmethod
    def identity(n: int, lines: Iterable[int] = ()) -> "AffineTorusMap":
        lines = frozenset(int(i) for i in lines)
        if any(not (1 <= i <= n) for i in lines):
            raise InvalidOperand("line coordinates out of range")
        return AffineTorusMap._from_parts((1,) * n, (0,) * n, 1, lines, "id")


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

    def add_coset(rep, prev):
        for h in [rep] + [h._then(rep) for h in prev]:
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
                h = r._then(g)
                if h not in seen:
                    reps.append(h)
                    add_coset(h, prev)
    return FiniteActionGroup(chosen, elements)


def _monomial_sign(mask: int, bits: int) -> int:
    """The sign a map with reversal mask puts on dx^I, for I given as the
    bit mask bits (bit i - 1 for coordinate i): (-1)^popcount(mask ∩ I)."""
    return -1 if (mask & bits).bit_count() & 1 else 1


def check_preserves_form(f: AffineTorusMap, phi, sign: int) -> bool:
    """Does the linear part pull the exterior form phi back to sign * phi?
    It takes c dx^I to c _monomial_sign(mask, I) dx^I, so every monomial
    of phi must carry the sign sign."""
    if f.n != phi.dim:
        raise InvalidOperand("dimension mismatch")
    if sign not in (1, -1):
        raise InvalidOperand("sign must be +1 or -1")
    return all(_monomial_sign(f.mask, sum(1 << (i - 1) for i in idx)) == sign
               for idx in phi.coeffs)


def invariant_forms(group: FiniteActionGroup, k: int) -> list[tuple[int, ...]]:
    """A basis of the G-invariant constant k-forms on the circle block: the
    increasing tuples I of 1-based circle coordinates whose monomial dx^I
    every generator fixes.  The monomials are eigenforms of every sign
    vector and their signs multiply under composition, so the generators
    decide for all of G; a group without generators is trivial and fixes
    every monomial."""
    if k < 0:
        raise InvalidOperand(f"degree {k} is negative")
    circ = [i for i in range(1, group.n + 1) if i not in group.lines]
    # each monomial with its bit mask, kept through one generator at a time
    terms = list(zip(combinations(circ, k),
                     map(sum, combinations([1 << (i - 1) for i in circ], k))))
    for g in group.generators:
        terms = [t for t in terms if _monomial_sign(g.mask, t[1]) == 1]
    return [idx for idx, _ in terms]


# ---------------------------------------------------------------------------
# fixed sets


def _translation_lattice(group: FiniteActionGroup):
    """Λ_T = Z^c + shifts(T) on the circle coordinates, for the translation
    subgroup T = {g : signs(g) = +1}, as (B, D) with Λ_T = B Z^c / D, and
    the integer matrix D B^-1.

    The columns of B are the rows of the Hermite normal form of D Λ_T, built
    by inserting each translation's shift numerators with Euclid's algorithm
    on the pivots.  T is normal in G, so every linear part preserves Λ_T.
    D B^-1 is integral because Z^c ⊂ Λ_T; B is lower triangular, so forward
    substitution finds it with exact integer divisions."""
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    trans = [g for g in group.elements if not g.mask]
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


def _solve_coset(f: AffineTorusMap, lattice, inv):
    """The union of the fixed sets of f∘t over the translations t by
    Λ = B Z^c / D, modulo Λ, for lattice = (B, D) and inv the integer
    matrix D B^-1 (see _translation_lattice).

    None when it is empty, else (den, offsets, smith): one component per
    offset, offset / den + R^S for the coordinates S that f keeps (its +1
    circles and lines, see _plus_dims); smith = (U, A' - 1, d) is the solve
    below, which _Span reads.  A line that f keeps must carry no shift, and
    a line that f reverses pins x_i = v_i / 2.

    x = B y / D turns R^c/Λ into R^c/Z^c and (A - 1) x + v ∈ Λ into
    (A' - 1) y + w ∈ Z^c, with A' = (D B^-1) A B / D (integral, since A
    preserves Λ) and w = D B^-1 v.  With U (A' - 1) V = diag(d) and y = V z
    that reads d_k z_k = -(U w)_k mod 1: one Smith form for the whole coset."""
    n, lines = f.n, f.lines
    if any(f.signs[i1 - 1] == 1 and f.num[i1 - 1] for i1 in lines):
        return None
    circ = [i for i in range(n) if (i + 1) not in lines]
    c = len(circ)
    basis, scale = lattice
    a = tuple(tuple(f.signs[i] if i == j else 0 for j in circ) for i in circ)
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
    # one denominator for every component: reversed lines pin x_i = v_i / 2
    pinned = {i1 - 1 for i1 in lines if f.signs[i1 - 1] == -1}
    den = lcm(den_y * scale, 2 * f.den if pinned else 1)
    up = den // (den_y * scale)
    base = [f.num[i] * (den // (2 * f.den)) if i in pinned else 0 for i in range(n)]
    # x = B V z / D, placed through the nonzero entries of B V
    bv = mat_mul(basis, v) if scale != 1 else v
    bv = tuple((circ[i], k, x) for i, k, x in _sparse(bv))
    # base is 0 on circle coordinates and the image is 0 on line coordinates
    offsets = [tuple([b + x * up % den
                      for b, x in zip(base, _linear_image(bv, combo, n))])
               for combo in product(*choice_sets)]
    return den, offsets, (u, m, diag)


def _plus_dims(f: AffineTorusMap) -> tuple[int, int, int]:
    """The bit mask plus of the coordinates f keeps, and the torus_dim and
    line_dim of its fixed components: how many are circles and lines."""
    plus = ((1 << f.n) - 1) ^ f.mask
    line_dim = sum(plus >> (i1 - 1) & 1 for i1 in f.lines)
    return plus, plus.bit_count() - line_dim, line_dim


class FlatStratum(Frozen):
    """A flat piece of a fixed locus or singular set.

    count components upstairs form one object downstairs; offset is a point
    of one of them, stabilizer_order the order |G| / count of the setwise
    stabilizer of each, and residual records how that stabilizer acts on the
    component beyond its pointwise part ("trivial", "pm1" or "other").  The
    component is offset + R^S for the coordinates S in the bit mask plus
    (bit i for coordinate i + 1, as in AffineTorusMap.mask; 0 for a point).

    In a quotient, the components are counted modulo the translation lattice
    Λ_T: an orbit of k classes mod R^S + Λ_T holds
    k |T| / |T ∩ (R^S + Z^c)| components.
    """

    __slots__ = ("torus_dim", "line_dim", "count", "offset",
                 "stabilizer_order", "residual", "plus")

    def __init__(self, torus_dim, line_dim, count, offset, stabilizer_order=1,
                 residual="trivial", plus=0):
        super().__init__(torus_dim, line_dim, count, offset, stabilizer_order,
                         residual, plus)

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


def components_intersect(a: FlatStratum, b: FlatStratum, lines) -> bool:
    """Do the components offset + R^S of two strata of a space with the
    1-based line coordinates lines meet (for a quotient stratum, the one
    component through its offset)?  They do iff the offsets agree outside
    a.plus | b.plus: exactly on a line, mod 1 on a circle."""
    if len(a.offset) != len(b.offset):
        raise InvalidOperand("strata of spaces of different dimensions")
    free = a.plus | b.plus
    return all(x == y if i + 1 in lines else (x - y).denominator == 1
               for i, (x, y) in enumerate(zip(a.offset, b.offset))
               if not free >> i & 1)


class _Span:
    """The coordinates S that the fixed components of one coset f T run
    along: its +1 circle coordinates (torus_dim of them) and its free lines
    (line_dim), as the bit mask plus.  Every map keeps S.

    Its rows (_sparse entries over all n coordinates) read an offset's
    class modulo S + Λ_T, mod 1.  A line the coset reverses needs no row:
    its components all sit at x_i = v_i / 2, and every map keeps that value,
    since a map that keeps a line has no shift on it and all maps that
    reverse it share their shift there (for a census map f∘sigma too, as
    sigma normalizes G).  index is [S + Λ_T : S + Z^c], the number of
    components upstairs in one class.  action is filled when a stratum
    along S first needs it (see _span_action)."""

    __slots__ = ("plus", "torus_dim", "line_dim", "rows", "size", "index",
                 "action")

    def __init__(self, f, smith, circ, lattice, lattice_inv, supports):
        u, m, diag = smith
        # row k of U (A' - 1) is d_k times row k of V^-1, and the rows of
        # V^-1 with d_k != 0 take integer values exactly on S + Z^c in
        # y = D B^-1 x, that is on S + Λ_T in x
        rows = [[x // dk for x in row] for row, dk in zip(mat_mul(u, m), diag) if dk]
        if rows and lattice[1] != 1:
            rows = mat_mul(rows, lattice_inv)
        self.plus, self.torus_dim, self.line_dim = _plus_dims(f)
        # Λ_T / Z^c is T, so the index is [T : T ∩ (S + Z^c)]; a shift,
        # canonical mod 1, lies in S + Z^c iff it is 0 off S.  supports
        # are the masks of the coordinates each translation shifts.
        self.index = len(supports) // sum(
            1 for t in supports if t | self.plus == self.plus)
        self.rows = tuple((k, circ[j], x) for k, j, x in _sparse(rows))
        self.size = len(rows)
        self.action = None

    def key(self, num, den):
        """Canonical hashable key of the class of the point num/den modulo
        S + Λ_T, at the lowest denominator, so points over different
        denominators compare."""
        vals = [v % den for v in _linear_image(self.rows, num, self.size)]
        g = gcd(den, *vals)
        if g > 1:
            return self, den // g, tuple([v // g for v in vals])
        return self, den, tuple(vals)


def _span_action(span: _Span, cosets: dict):
    """The cosets that fix S pointwise in its directions and free lines,
    those +1 on all of S: a subgroup F of the point group, given as |F| and
    the representatives of an F2 basis of it.  Then the representatives of
    the cosets that negate S, those -1 on all of S."""
    plus = span.plus
    reached, basis = {0}, []
    for mask, f in cosets.items():
        if not mask & plus and mask not in reached:
            basis.append(f)
            reached |= {r ^ mask for r in reached}
    negating = [f for mask, f in cosets.items() if mask & plus == plus]
    return len(reached), basis, negating


def fixed_set(f: AffineTorusMap) -> list[FlatStratum]:
    """Connected components of the fixed-point set, one stratum each, ordered
    by offset: the strata of f under the trivial group, where Λ_T = Z^c and
    count, stabilizer order and residual are 1, 1 and "trivial"."""
    trivial = FiniteActionGroup((), (AffineTorusMap.identity(f.n, f.lines),))
    return _strata(trivial, _cosets(trivial), [f])


def _group_into_orbits(group: FiniteActionGroup, registry: dict) -> list:
    """registry maps the key of a class mod S + Λ_T to its offset num/den,
    its _Span and the mask of the coset f T of G whose fixed set gave it, or
    None when the coset lies outside G (a census map f∘sigma); returns each
    orbit as the key of its first registered class and its number of
    classes.

    The search moves classes by the generators only: G is finite, so every
    element is a positive word in them, and T is normal, so every element
    maps classes to classes; a translation fixes each class and is skipped.
    So is a generator in the class's own coset f T: one element of f T fixes
    the component pointwise, and the others differ from it by translations.
    Every map keeps S, so a move images the offset only.  The cost is
    O(classes * generators)."""
    movers = [g for g in group.generators if g.mask]
    unvisited = set(registry)
    orbits = []
    for key in registry:
        if key not in unvisited:
            continue
        unvisited.discard(key)
        size, stack = 0, [registry[key]]
        while stack:
            num, den, span, mask = stack.pop()
            size += 1
            for g in movers:
                if g.mask == mask:
                    continue
                image = g._act(num, den)
                if image == (num, den):  # g keeps the offset, so its class
                    continue
                mk = span.key(*image)
                if mk in unvisited:
                    unvisited.discard(mk)
                    stack.append(registry[mk])
        orbits.append((key, size))
    return orbits


def _classify_residual(span: _Span, num, den, key, setwise: int,
                       lattice_class) -> str:
    """How the setwise stabilizer, of order |G| / |orbit|, acts on the
    component through num/den (of class key) beyond its pointwise part.

    A coset of F holds one pointwise fixer iff it maps the offset x0 to
    itself modulo Λ_T (translations act freely, and a coset +1 on S moves
    the component along itself), so the pointwise stabilizer has order
    |F| / |F x0 mod Λ_T|; lattice_class reads a point's circle coordinates
    mod Λ_T, as every map keeps its line coordinates (see _Span).  A
    coset holds an element that maps the component to itself iff it maps
    its offset into its class, and an element acting as -1 on a component
    of positive dimension never fixes it pointwise."""
    order, basis, negating = span.action
    d = lcm(den, *(f.den for f in basis))
    start = tuple(x * (d // den) for x in num)
    orbit, stack = {lattice_class(start, d)}, [start]
    while stack:
        point = stack.pop()
        for f in basis:
            image = f._act(point, d)[0]
            if image == point:
                continue
            cls = lattice_class(image, d)
            if cls not in orbit:
                orbit.add(cls)
                stack.append(image)
    pointwise = order // len(orbit)
    if setwise == pointwise:
        return "trivial"
    if setwise == 2 * pointwise and any(span.key(*f._act(num, den)) == key
                                        for f in negating):
        return "pm1"
    return "other"


def _cosets(group: FiniteActionGroup) -> dict:
    """One element of each coset of the translation subgroup T, keyed by its
    mask: the point group G/T."""
    reps = {}
    for g in group.elements:
        reps.setdefault(g.mask, g)
    return reps


def _strata(group: FiniteActionGroup, cosets: dict, maps) -> list[FlatStratum]:
    """Quotient strata of the fixed components of the cosets f T (f in maps),
    which the group permutes.  Each coset's _Span comes from its own Smith
    solve."""
    lattice, inv = _translation_lattice(group)
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    supports = [sum(1 << i for i, x in enumerate(t.num) if x)
                for t in group.elements if not t.mask]
    registry: dict = {}
    for f in maps:
        fix = _solve_coset(f, lattice, inv)
        if fix is None:
            continue
        den, offsets, smith = fix
        span = _Span(f, smith, circ, lattice, inv, supports)
        # only a coset of G maps the classes of its own fixed set to
        # themselves; a census map f∘sigma lies outside G
        fixer = f.mask if f in group else None
        for num in offsets:
            registry.setdefault(span.key(num, den), (num, den, span, fixer))
    orbits = _group_into_orbits(group, registry)
    # a point's class mod Λ_T is D B^-1 x mod Z^c
    inv_terms = tuple((k, circ[j], x) for k, j, x in _sparse(inv))

    def lattice_class(num, den):
        return tuple([v % den for v in _linear_image(inv_terms, num, len(circ))])

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
        if span.plus:
            if span.action is None:
                span.action = _span_action(span, cosets)
            residual = _classify_residual(span, num, rden, key, setwise,
                                          lattice_class)
        offset = tuple(x * (den // rden) for x in num)
        for x in offset:
            if x not in fracs:
                fracs[x] = Fraction(x, den)
        strata.append(((-span.plus.bit_count(), offset), FlatStratum(
            span.torus_dim, span.line_dim, count,
            tuple([fracs[x] for x in offset]), setwise, residual, span.plus)))
    strata.sort(key=lambda pair: pair[0])
    return [s for _, s in strata]


def singular_locus(group: FiniteActionGroup) -> list[FlatStratum]:
    """Orbits of fixed components of non-identity elements, as quotient strata.

    Translations act freely, so the identity coset T contributes nothing."""
    cosets = _cosets(group)
    return _strata(group, cosets, [f for mask, f in cosets.items() if mask])


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
    # sigma normalizes T, so the maps with one sign vector form a coset f sigma T
    cosets = _cosets(group)
    return _strata(group, cosets, [f.compose(sigma) for f in cosets.values()])


def quotient_betti(group: FiniteActionGroup) -> BettiVector:
    """Betti numbers of the quotient: b^k is the number of invariant
    monomial k-forms on the circle block (line factors are contractible and
    contribute nothing)."""
    c = group.n - len(group.lines)
    return BettiVector([len(invariant_forms(group, k)) for k in range(c + 1)])


def count_ends(group: FiniteActionGroup, i: int) -> int:
    """Ends of the quotient along line coordinate i: 2 if no element reverses it."""
    if i not in group.lines:
        raise InvalidOperand(f"coordinate {i} is not a line coordinate")
    return 1 if any(g.signs[i - 1] == -1 for g in group.elements) else 2


def pull(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """Convert circle coordinate i to a line coordinate.

    No element may translate along x_i while keeping it: such a translation
    would have infinite order on a line.  The pulled maps then form a group
    with the pulled generators.  An element that keeps x_i has no shift on
    it, and two elements that reverse x_i have the same canonical shift v
    on it, since their composite keeps x_i and so has shift 0 there.  In a
    pulled composite, where x_i is no longer read mod 1, the shift on x_i
    is therefore 0, v or v - v = 0, as on the torus: pulling commutes with
    composition and is injective, so no closure is needed.
    """
    if i in group.lines:
        raise InvalidOperand(f"coordinate {i} is already a line")
    if not (1 <= i <= group.n):
        raise InvalidOperand("coordinate out of range")
    for g in group.elements:
        if g.signs[i - 1] == 1 and g.num[i - 1] != 0:
            raise PullObstruction(
                f"element {g.name or g} translates along coordinate {i}")
    new_lines = group.lines | {i}

    def pulled(g):
        return AffineTorusMap._from_parts(g.signs, g.num, g.den, new_lines, g.name)

    return FiniteActionGroup([pulled(g) for g in group.generators],
                             [pulled(g) for g in group.elements])


def cross_section_group(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """The end-preserving subgroup, restricted to the cross-section T^{n-1}.

    The restrictions need no validation: dropping coordinate i leaves
    signs and lines as valid as before.  An element that keeps a line has
    no shift along it (a finite group holds no translation along a line),
    so the kept shift numerators stay canonical and restriction is
    injective on the end-preserving elements."""
    if i not in group.lines:
        raise InvalidOperand(f"coordinate {i} is not a line coordinate")
    keep = [j for j in range(group.n) if j != i - 1]
    new_lines = frozenset(j if j < i else j - 1 for j in group.lines if j != i)
    members = [AffineTorusMap._from_parts(
        tuple(g.signs[p] for p in keep), [g.num[p] for p in keep], g.den,
        new_lines, g.name)
        for g in group.elements if g.signs[i - 1] == 1]
    return generate_group(members)
