"""Finite affine isometry groups of T^c x R^l and their fixed-point geometry.

Coordinates are 1-based.  A subset of coordinates may be declared as "line"
(noncompact R-factor) coordinates; the rest are circle coordinates of a torus.
All arithmetic is exact: integer matrices for the linear parts, integer
numerators over one common denominator for shifts and component offsets,
Smith normal form for the fixed-point congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
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
    in_span_mod_lattice,
    inverse,
    mat_mul,
    mat_vec,
    null_space,
    rref,
    smith_normal_form,
)
from .forms import ExteriorForm, LinearMapR, pullback

GROUP_SIZE_BOUND = 1024


def _linear_image(linear, vec) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, vec)) for row in linear)


class AffineTorusMap:
    """Affine map x -> Ax + v of T^c x R^l, with A in GL(n, Z).

    A must not mix circle and line coordinates, and must act on each line
    coordinate as +-1.  The shift is kept as integer numerators over the
    least common denominator, canonical mod 1 on circle coordinates.
    The optional name is bookkeeping only and does not enter equality.
    """

    __slots__ = ("n", "lines", "linear", "num", "den", "name", "_key")

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
    def shift(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def shift_denominator(self) -> int:
        return self.den

    def is_identity(self) -> bool:
        ident = all(self.linear[i][j] == (i == j) for i in range(self.n)
                    for j in range(self.n))
        return ident and not any(self.num)

    def _act(self, num, den) -> tuple[tuple[int, ...], int]:
        """Image of the point num/den, as numerators over lcm(den, self.den)."""
        d = lcm(den, self.den)
        k, s = d // den, d // self.den
        img = [sum(map(mul, row, num)) * k + t * s
               for row, t in zip(self.linear, self.num)]
        return tuple(v if i + 1 in self.lines else v % d
                     for i, v in enumerate(img)), d

    def apply(self, point: Sequence) -> tuple[Fraction, ...]:
        p = [frac(x) for x in point]
        if len(p) != self.n:
            raise InvalidOperand("point dimension mismatch")
        den = lcm(*(x.denominator for x in p))
        img, d = self._act([x.numerator * (den // x.denominator) for x in p], den)
        return tuple(Fraction(v, d) for v in img)

    def compose(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """self after other."""
        if self.n != other.n or self.lines != other.lines:
            raise InvalidOperand("maps act on different spaces")
        name = f"{self.name}*{other.name}" if self.name and other.name else ""
        return AffineTorusMap._from_parts(mat_mul(self.linear, other.linear),
                                          *self._act(other.num, other.den),
                                          self.lines, name)

    def inverse(self) -> "AffineTorusMap":
        lin = tuple(tuple(int(x) for x in row) for row in inverse(self.linear))
        name = f"{self.name}^-1" if self.name else ""
        return AffineTorusMap._from_parts(
            lin, [-x for x in _linear_image(lin, self.num)], self.den, self.lines, name)

    def order(self, cap: int = 512) -> int:
        cur = self
        for k in range(1, cap + 1):
            if cur.is_identity():
                return k
            cur = cur.compose(self)
        raise GroupTooLarge(f"order exceeds {cap}")

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
    """Closure of a finite set of commensurable affine torus maps."""

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

    @property
    def abelian(self) -> bool:
        gens = self.generators
        return all(commutes(a, b) for a, b in combinations(gens, 2))

    @property
    def exponent(self) -> int:
        return lcm(*(e.order() for e in self.elements))

    def multiplication_table(self) -> dict:
        table = {}
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                table[(i, j)] = self._index[a.compose(b)]
        return table

    def subgroup(self, members: Sequence[AffineTorusMap]) -> "FiniteActionGroup":
        for m in members:
            if m not in self._index:
                raise InvalidOperand("subgroup member not in group")
        return generate_group(members)


def generate_group(gens: Sequence[AffineTorusMap],
                   bound: int = GROUP_SIZE_BOUND) -> FiniteActionGroup:
    """BFS closure of the generators; identity is always element 0."""
    if not gens:
        raise InvalidOperand("need at least one generator (or an identity map)")
    n, lines = gens[0].n, gens[0].lines
    for g in gens:
        if g.n != n or g.lines != lines:
            raise InvalidOperand("generators act on different spaces")
    ident = AffineTorusMap.identity(n, lines)
    seen = {ident: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = cur.compose(g)
                if prod not in seen:
                    if cur.is_identity():
                        word = g.name
                    elif prod.is_identity():
                        word = "id"
                    else:
                        word = (f"{cur.name}*{g.name}"
                                if cur.name and g.name else "")
                    named = AffineTorusMap._from_parts(prod.linear, prod.num,
                                                       prod.den, lines, word)
                    seen[prod] = named
                    nxt.append(named)
                    if len(seen) > bound:
                        raise GroupTooLarge(
                            f"group did not close within {bound} elements")
        frontier = nxt
    return FiniteActionGroup(gens, tuple(seen.values()))


def commutes(f: AffineTorusMap, g: AffineTorusMap) -> bool:
    return f.compose(g) == g.compose(f)


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

    __slots__ = ("n", "lines", "num", "den", "directions", "free_lines", "_ckey")

    def __init__(self, n, lines, num, den, directions, free_lines):
        self.n = n
        self.lines = lines
        self.num = tuple(num)
        self.den = den
        self.directions = tuple(tuple(d) for d in directions)
        self.free_lines = frozenset(free_lines)
        self._ckey = None

    @property
    def torus_dim(self) -> int:
        return len(self.directions)

    @property
    def line_dim(self) -> int:
        return len(self.free_lines)

    def display_offset(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def key(self):
        """Canonical hashable key; two components are equal iff keys agree.

        It starts with the span of the directions, then holds the offset's
        class mod span + Z^c (and its pinned line values) at the lowest
        denominator, so components over different denominators compare."""
        if self._ckey is None:
            span, rows, mods = _offset_lattice(self.n, self.lines, self.free_lines,
                                               self.directions)
            den = self.den
            vals = [v % (den * m) if m else v
                    for v, m in zip(_linear_image(rows, self.num), mods)]
            g = gcd(den, *vals)
            self._ckey = (span, den // g, tuple(v // g for v in vals),
                          self.n, self.lines, self.free_lines)
        return self._ckey

    def __eq__(self, other):
        return isinstance(other, _Component) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@lru_cache(maxsize=1024)
def _offset_lattice(n, lines, free_lines, directions):
    """Canonical span of the directions, integer rows R and moduli m such that
    offsets x, y over a common denominator D lie on the same component iff
    R x = R y, row i taken mod D * m_i (exactly where m_i = 0).

    The circle rows are U N for an integer basis N of the annihilator of the
    span and the Smith form U N V = diag(m); each pinned line coordinate adds
    a unit row with m = 0."""
    circ = [i for i in range(n) if (i + 1) not in lines]
    d_rows = tuple(tuple(d[i] for i in circ) for d in directions)
    if d_rows:
        span, ann = rref(d_rows), null_space(d_rows)
    else:
        span, ann = (), [[int(i == j) for j in range(len(circ))] for i in range(len(circ))]
    rows, mods = [], []
    if ann:
        ann_int = []
        for row in ann:
            scale = lcm(*(x.denominator for x in row))
            ann_int.append([int(x * scale) for x in row])
        u, d, _ = smith_normal_form(ann_int)
        for i, row in enumerate(mat_mul(u, ann_int)):
            full = [0] * n
            for idx, c in enumerate(circ):
                full[c] = row[idx]
            rows.append(tuple(full))
            mods.append(d[i][i])
    for i1 in sorted(lines - free_lines):
        rows.append(tuple(int(j == i1 - 1) for j in range(n)))
        mods.append(0)
    return span, tuple(rows), tuple(mods)


def _fixed_components(f: AffineTorusMap) -> list[_Component]:
    n, lines = f.n, f.lines
    circ = [i for i in range(n) if (i + 1) not in lines]
    free_lines = set()
    for i1 in lines:
        if f.linear[i1 - 1][i1 - 1] == 1:
            if f.num[i1 - 1]:
                return []
            free_lines.add(i1)
    c = len(circ)
    # x is fixed iff (A - 1) x = -v mod Z^c; with U (A - 1) V = diag(d) and
    # x = V z that reads d_k z_k = w_k mod 1 for w = -U v (numerators over f.den)
    m = [[f.linear[i][j] - int(i == j) for j in circ] for i in circ]
    u, d, v = smith_normal_form(m) if c else ((), (), ())
    w = mat_vec(u, tuple(-f.num[i] for i in circ))
    diag = [d[k][k] for k in range(c)]
    if any(dk == 0 and wk % f.den for dk, wk in zip(diag, w)):
        return []
    # one denominator for every component: reflected lines pin x_i = v_i / 2
    den = f.den * lcm(1 if len(free_lines) == len(lines) else 2,
                      *(abs(dk) for dk in diag if dk))
    choice_sets = [[(wk + j * f.den) * (den // (f.den * dk)) for j in range(abs(dk))]
                   if dk else [0] for dk, wk in zip(diag, w)]
    base = [0] * n
    for i1 in lines - free_lines:
        base[i1 - 1] = f.num[i1 - 1] * (den // (2 * f.den))
    dirs = []
    for k in range(c):
        if diag[k] == 0:
            vec = [0] * n
            for idx, i in enumerate(circ):
                vec[i] = v[idx][k]
            dirs.append(vec)
    out = []
    for combo in product(*choice_sets):
        num = list(base)
        for i, x in zip(circ, mat_vec(v, combo)):
            num[i] = x % den
        out.append(_Component(n, lines, num, den, dirs, free_lines))
    out.sort(key=lambda comp: comp.num)
    return out


def _transport(g: AffineTorusMap, comp: _Component) -> _Component:
    num, den = g._act(comp.num, comp.den)
    if comp.free_lines:
        num = [0 if i + 1 in comp.free_lines else x for i, x in enumerate(num)]
    dirs = [_linear_image(g.linear, d) for d in comp.directions]
    return _Component(comp.n, comp.lines, num, den, dirs, comp.free_lines)


def _fixes_pointwise(g: AffineTorusMap, comp: _Component) -> bool:
    if any(_linear_image(g.linear, d) != d for d in comp.directions):
        return False
    for i1 in comp.free_lines:
        if g.linear[i1 - 1][i1 - 1] != 1 or g.num[i1 - 1] != 0:
            return False
    img, den = g._act(comp.num, comp.den)
    k = den // comp.den
    return all(a == b * k for i, (a, b) in enumerate(zip(img, comp.num))
               if i + 1 not in comp.free_lines)


def _acts_as_minus_one(g: AffineTorusMap, comp: _Component) -> bool:
    if any(_linear_image(g.linear, d) != tuple(-x for x in d)
           for d in comp.directions):
        return False
    return all(g.linear[i1 - 1][i1 - 1] == -1 for i1 in comp.free_lines)


def components_intersect(c1: _Component, c2: _Component) -> bool:
    """Do two fixed-set components share a point?"""
    if c1.n != c2.n or c1.lines != c2.lines:
        return False
    for i1 in c1.lines:
        free = (i1 in c1.free_lines) or (i1 in c2.free_lines)
        if not free and c1.num[i1 - 1] * c2.den != c2.num[i1 - 1] * c1.den:
            return False
    circ = [i for i in range(c1.n) if (i + 1) not in c1.lines]
    if not circ:
        return True
    joint = [tuple(d[i] for i in circ) for d in c1.directions + c2.directions]
    off1, off2 = c1.display_offset(), c2.display_offset()
    delta = [off2[i] - off1[i] for i in circ]
    return in_span_mod_lattice(joint, delta)


@dataclass(frozen=True)
class FlatStratum:
    """A flat piece of a fixed locus or singular set.

    count components upstairs (their representative offsets listed) that form
    one object downstairs; residual records how the setwise stabilizer acts on
    the component beyond its pointwise part.
    """

    torus_dim: int
    line_dim: int
    count: int
    offsets: tuple
    stabilizer: str = ""
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

    def to_json_dict(self) -> dict:
        return {
            "torus_dim": self.torus_dim,
            "line_dim": self.line_dim,
            "count": self.count,
            "type": self.type_label,
            "stabilizer": self.stabilizer,
            "residual": self.residual,
            "offsets": [[str(x) for x in off] for off in self.offsets],
        }


def fixed_set(f: AffineTorusMap) -> list[FlatStratum]:
    """Connected components of the fixed-point set, one stratum each."""
    comps = _fixed_components(f)
    return [FlatStratum(torus_dim=c.torus_dim, line_dim=c.line_dim, count=1,
                        offsets=(c.display_offset(),), stabilizer=f.name or "",
                        residual="trivial")
            for c in comps]


def _group_into_orbits(group: FiniteActionGroup, registry: dict):
    """registry maps component key -> (component, fixing maps); returns the
    orbits as lists of registry components, each sorted by offset.

    The search moves components by the generators only: G is finite, so
    every element is a positive word in them, and the cost is
    O(components * generators) rather than O(components * |G|).  The key
    (span first) orders components through the same point, so the order
    does not depend on the order of the search."""
    unvisited = set(registry)
    orbits = []
    for key, (comp, _) in registry.items():
        if key not in unvisited:
            continue
        unvisited.discard(key)
        orbit, stack = [], [comp]
        while stack:
            base = stack.pop()
            orbit.append(base)
            for g in group.generators:
                mk = _transport(g, base).key()
                if mk in unvisited:
                    unvisited.discard(mk)
                    stack.append(registry[mk][0])
        orbit.sort(key=lambda c: (c.display_offset(), c.key()))
        orbits.append(orbit)
    return orbits


def _classify_residual(group: FiniteActionGroup, comp: _Component,
                       orbit_size: int) -> str:
    """How the setwise stabilizer, of order |G| / |orbit|, acts beyond its
    pointwise part.  An element acting as -1 on a component of positive
    dimension never fixes it pointwise, so only those need the setwise test."""
    setwise = group.order // orbit_size
    pointwise = sum(_fixes_pointwise(g, comp) for g in group.elements)
    if setwise == pointwise:
        return "trivial"
    if setwise == 2 * pointwise and any(
            _acts_as_minus_one(g, comp) and _transport(g, comp) == comp
            for g in group.elements):
        return "pm1"
    return "other"


def _strata(group: FiniteActionGroup, maps) -> list[FlatStratum]:
    """Quotient strata of the fixed components of maps, which the group permutes."""
    registry: dict = {}
    for f in maps:
        for comp in _fixed_components(f):
            registry.setdefault(comp.key(), (comp, set()))[1].add(f)
    strata = []
    for orbit in _group_into_orbits(group, registry):
        rep = orbit[0]
        fixers = {h.name or "?" for c in orbit for h in registry[c.key()][1]}
        strata.append(FlatStratum(
            torus_dim=rep.torus_dim,
            line_dim=rep.line_dim,
            count=len(orbit),
            offsets=tuple(c.display_offset() for c in orbit),
            stabilizer=",".join(sorted(fixers)),
            residual=_classify_residual(group, rep, len(orbit)),
        ))
    strata.sort(key=lambda s: (-(s.torus_dim + s.line_dim), s.stabilizer,
                               s.offsets))
    return strata


def singular_locus(group: FiniteActionGroup) -> list[FlatStratum]:
    """Orbits of fixed components of non-identity elements, as quotient strata."""
    return _strata(group, [g for g in group.elements if not g.is_identity()])


def involution_fixed_census(sigma: AffineTorusMap,
                            group: FiniteActionGroup) -> list[FlatStratum]:
    """Classify fixed loci of the coset maps g∘sigma in the quotient by the group."""
    if sigma.n != group.n or sigma.lines != group.lines:
        raise InvalidOperand("involution acts on a different space")
    if not sigma.compose(sigma).is_identity():
        raise NotAntiInvolution("map is not an involution")
    if sigma in group:
        raise NotAntiInvolution("involution lies in the group itself")
    sigma_inv = sigma.inverse()
    for g in group.elements:
        if sigma.compose(g).compose(sigma_inv) not in group:
            raise NotEquivariant("involution does not normalize the group")
    return _strata(group, [g.compose(sigma) for g in group.elements])


def _exterior_traces(a) -> list[int]:
    """tr Λ^k A for k = 0..n of an integer n×n matrix A.

    Newton's identities turn the power traces p_j = tr A^j into the
    elementary symmetric functions of the eigenvalues:
    k e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} p_j, and e_k = tr Λ^k A.
    """
    n = len(a)
    p, power = [], identity_matrix(n)
    for _ in range(n):
        power = mat_mul(power, a)
        p.append(sum(power[i][i] for i in range(n)))
    e = [1]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * p[j - 1]
                     for j in range(1, k + 1)) // k)
    return e


def quotient_betti(group: FiniteActionGroup) -> BettiVector:
    """Betti numbers of the quotient: averaged exterior-power traces of the
    circle block (line factors are contractible and contribute nothing)."""
    circ = [i for i in range(group.n) if (i + 1) not in group.lines]
    totals = [0] * (len(circ) + 1)
    for g in group.elements:
        block = [[g.linear[i][j] for j in circ] for i in circ]
        totals = [t + e for t, e in zip(totals, _exterior_traces(block))]
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


def pull(group: FiniteActionGroup, i: int,
         bound: int = GROUP_SIZE_BOUND) -> FiniteActionGroup:
    """Convert circle coordinate i to a line coordinate.

    Every element must act on x_i as a reflection or as the identity; a
    translation along a coordinate that becomes a line has infinite order and
    is rejected.
    """
    if i in group.lines:
        raise InvalidOperand(f"coordinate {i} is already a line")
    if not (1 <= i <= group.n):
        raise InvalidOperand("coordinate out of range")
    new_lines = group.lines | {i}
    moved = []
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
        moved.append(AffineTorusMap(g.linear, g.shift, new_lines, g.name))
    member_set = set(moved)
    for a in moved:
        for b in moved:
            if a.compose(b) not in member_set:
                raise PullObstruction(
                    "pulled maps do not close into a finite group")
    gens = [AffineTorusMap(g.linear, g.shift, new_lines, g.name)
            for g in group.generators]
    return generate_group(gens, bound)


def end_preserving_subgroup(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """Subgroup of elements that fix the ends of line coordinate i."""
    if i not in group.lines:
        raise InvalidOperand(f"coordinate {i} is not a line coordinate")
    members = [g for g in group.elements if g.linear[i - 1][i - 1] == 1]
    return generate_group(members)


def cross_section_group(group: FiniteActionGroup, i: int) -> FiniteActionGroup:
    """The end-preserving subgroup, restricted to the cross-section T^{n-1}."""
    sub = end_preserving_subgroup(group, i)
    keep = [j for j in range(group.n) if j != i - 1]
    new_lines = frozenset(j if j < i else j - 1 for j in group.lines if j != i)
    members = []
    for g in sub.elements:
        lin = [[g.linear[p][q] for q in keep] for p in keep]
        shf = [g.shift[p] for p in keep]
        members.append(AffineTorusMap(lin, shf, new_lines, g.name))
    return generate_group(members)
