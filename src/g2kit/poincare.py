"""Exact primitives for exact forms on a torus cross a unit interval.

Forms live on T^d x [0, 1] and are finite sums of terms

    c(t) * exp(i m.x) * dx_I         or        c(t) * exp(i m.x) * dx_I ^ dt,

with m an integer wavenumber, I a strictly increasing index tuple, and
c a polynomial in t with complex rational coefficients.  The torus
circles have circumference 2*pi, so the exterior derivative multiplies
mode m by the integer wedge factors i*m_j and everything stays inside
exact arithmetic.  A primitive is assembled in two stages: integrate
the dt-component in t, then invert the Laplacian mode by mode on the
closed remainder (delta of the mode over |m|^2).  Because |m|^2 is an
integer, d(primitive) == input holds bit for bit, and harmonic
(zero-mode) components are detected exactly.

A polynomial c(t) is stored as integer pairs over one common
denominator, (den, ((re0, im0), (re1, im1), ...)) for
c(t) = sum_k (re_k + i im_k) t^k / den, with den > 0, the whole tuple
in lowest terms and no trailing zero pair; the zero polynomial is ().
That form is canonical, so equal polynomials are equal tuples.
ComplexFrac is the coefficient type at the boundary only:
CylinderForm.build takes it and CylinderForm.mapping returns it.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import InvalidOperand, NotExact, NumericFailure


@dataclass(frozen=True)
class ComplexFrac:
    """Complex number with Fraction real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other):
        return ComplexFrac(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexFrac(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ComplexFrac(self.re * other, self.im * other)
        return ComplexFrac(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexFrac(-self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)


def _pcanon(den, pairs):
    """The canonical polynomial of pairs over den > 0, or () if it is 0."""
    n = len(pairs)
    while n and pairs[n - 1] == (0, 0):
        n -= 1
    if not n:
        return ()
    g = math.gcd(den, *chain.from_iterable(pairs))
    return (den // g, tuple((x // g, y // g) for x, y in pairs[:n]))


def _from_quotients(coeffs):
    """Polynomial from integer (re_num, re_den, im_num, im_den) coefficients.

    Coefficients come lowest degree first, denominators positive.
    """
    den = math.lcm(*chain.from_iterable((q, s) for _, q, _, s in coeffs))
    return _pcanon(den, [(a * (den // q), b * (den // s))
                         for a, q, b, s in coeffs])


def _to_complex(p):
    """The coefficients of a nonzero p as a tuple of ComplexFrac."""
    den, pairs = p
    return tuple(ComplexFrac(Fraction(x, den), Fraction(y, den))
                 for x, y in pairs)


def _padd(a, b):
    """a + b, where either may be (); the helpers below take nonzero p."""
    if not a:
        return b
    if not b:
        return a
    (da, pa), (db, pb) = a, b
    if len(pa) < len(pb):
        (da, pa), (db, pb) = b, a
    den = math.lcm(da, db)
    ka, kb = den // da, den // db
    out = [(x * ka + u * kb, y * ka + v * kb)
           for (x, y), (u, v) in zip(pa, pb)]
    out.extend((x * ka, y * ka) for x, y in pa[len(pb):])
    return _pcanon(den, out)


def _pscale(c, p):
    """c * p for a Gaussian rational c given as integers (re, im, den)."""
    re, im, cden = c
    den, pairs = p
    return _pcanon(den * cden, [(x * re - y * im, x * im + y * re)
                                for x, y in pairs])


def _pderiv(p):
    den, pairs = p
    return _pcanon(den, [(k * x, k * y)
                         for k, (x, y) in enumerate(pairs) if k])


def _pintegral(p):
    """The primitive of p vanishing at t = 0."""
    den, pairs = p
    scale = math.lcm(*range(1, len(pairs) + 1))
    return _pcanon(den * scale, [(0, 0)] + [
        (x * (scale // (k + 1)), y * (scale // (k + 1)))
        for k, (x, y) in enumerate(pairs)])


def _pnorm_sq(p):
    """Exact integral over [0, 1] of |p(t)|^2, a positive Fraction."""
    den, pairs = p
    scale = math.lcm(*range(1, 2 * len(pairs)))
    total = 0
    for a, (xa, ya) in enumerate(pairs):
        for b, (xb, yb) in enumerate(pairs):
            # Re(c_a * conj(c_b)) over the common denominator
            total += (xa * xb + ya * yb) * (scale // (a + b + 1))
    return Fraction(total, scale * den * den)


@dataclass(frozen=True)
class CylinderForm:
    """Finite Fourier-polynomial form on T^d x [0, 1].

    terms is a sorted tuple of ((mode, spatial, has_dt), poly) entries,
    each poly a nonzero canonical (den, integer pairs) polynomial as in
    the module docstring.  Use build() to construct one from a mapping
    to ComplexFrac coefficient tuples, and mapping() to read it back.
    """

    d: int
    degree: int
    terms: tuple

    @classmethod
    def build(cls, d, degree, mapping):
        if d < 1 or not 0 <= degree <= d + 1:
            raise InvalidOperand(f"bad dimensions d={d}, degree={degree}")
        canon = {}
        for (mode, spatial, has_dt), poly in mapping.items():
            mode = tuple(int(c) for c in mode)
            spatial = tuple(spatial)
            if len(mode) != d:
                raise InvalidOperand(f"mode {mode} is not length {d}")
            if list(spatial) != sorted(set(spatial)) or \
                    any(not 0 <= j < d for j in spatial):
                raise InvalidOperand(f"bad index tuple {spatial}")
            if len(spatial) + bool(has_dt) != degree:
                raise InvalidOperand(
                    f"term {spatial} dt={bool(has_dt)} has wrong degree")
            key = (mode, spatial, bool(has_dt))
            p = _from_quotients([(c.re.numerator, c.re.denominator,
                                  c.im.numerator, c.im.denominator)
                                 for c in poly])
            canon[key] = _padd(canon.get(key, ()), p)
        return cls._of(d, degree, canon)

    @classmethod
    def _of(cls, d, degree, polys):
        """Form from a key -> canonical polynomial dict; drops zeros."""
        return cls(d=d, degree=degree,
                   terms=tuple(sorted((k, p) for k, p in polys.items() if p)))

    def mapping(self):
        return {k: _to_complex(p) for k, p in self.terms}

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, CylinderForm) or other.d != self.d \
                or other.degree != self.degree:
            raise InvalidOperand("can only add forms of equal shape")
        merged = dict(self.terms)
        for k, p in other.terms:
            merged[k] = _padd(merged.get(k, ()), p)
        return CylinderForm._of(self.d, self.degree, merged)

    def __neg__(self):
        return CylinderForm(self.d, self.degree,
                            tuple((k, _pscale((-1, 0, 1), p))
                                  for k, p in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def norm_sq(self):
        """Squared L2 norm over the common (2*pi)^d volume factor."""
        return sum((_pnorm_sq(p) for _, p in self.terms), Fraction(0))

    def norm(self):
        return math.sqrt(self.norm_sq())


def _wedge_sign(j, spatial):
    """Sign of dx_j ^ dx_I -> dx_{sorted}, or None if j is in I."""
    if j in spatial:
        return None
    return (-1) ** sum(1 for i in spatial if i < j)


def exterior_derivative(form):
    out = {}

    def put(key, poly):
        out[key] = _padd(out.get(key, ()), poly)

    for (mode, spatial, has_dt), poly in form.terms:
        for j in range(form.d):
            if mode[j] == 0:
                continue
            sign = _wedge_sign(j, spatial)
            if sign is None:
                continue
            merged = tuple(sorted(spatial + (j,)))
            put((mode, merged, has_dt), _pscale((0, sign * mode[j], 1), poly))
        if not has_dt:
            dp = _pderiv(poly)
            if dp:
                put((mode, spatial, True),
                    _pscale(((-1) ** len(spatial), 0, 1), dp))
    # the derivative of a top-degree form is the zero top form
    return CylinderForm._of(form.d, min(form.degree + 1, form.d + 1), out)


def _codifferential_over_laplacian(mode, spatial, poly):
    """Terms of delta/|m|^2 applied to poly * e(m) * dx_I, m != 0."""
    msq = sum(c * c for c in mode)
    for pos, j in enumerate(spatial):
        if mode[j] == 0:
            continue
        c = (0, -mode[j] * (-1) ** pos, msq)
        yield (mode, spatial[:pos] + spatial[pos + 1:], False), \
            _pscale(c, poly)


@dataclass(frozen=True)
class PrimitiveResult:
    primitive: CylinderForm
    ratio: float
    ratio_sq: Fraction
    input_norm_sq: Fraction
    primitive_norm_sq: Fraction


def poincare_primitive(form):
    """Exact primitive of an exact form, with its norm ratio.

    Stage one integrates the dt-component from t = 0; stage two applies
    the inverse Laplacian times the codifferential to each nonzero mode
    of the remainder.  The result chi satisfies
    exterior_derivative(chi) == form exactly.  Raises NotExact if the
    input is not closed or carries a harmonic (constant) component.
    """
    if form.degree < 1:
        raise InvalidOperand("a 0-form has no primitive")
    if not exterior_derivative(form).is_zero:
        raise NotExact("input form is not closed")

    chi1 = {}
    for (mode, spatial, has_dt), poly in form.terms:
        if has_dt:
            sign = ((-1) ** len(spatial), 0, 1)
            chi1[(mode, spatial, False)] = _pscale(sign, _pintegral(poly))
    chi1 = CylinderForm._of(form.d, form.degree - 1, chi1)

    remainder = form - exterior_derivative(chi1)
    chi2 = {}
    for (mode, spatial, has_dt), poly in remainder.terms:
        if has_dt:
            raise NumericFailure("remainder kept a dt component")
        if not any(mode):
            raise NotExact(
                "harmonic component: zero-mode term on " + repr(spatial))
        for key, p in _codifferential_over_laplacian(mode, spatial, poly):
            chi2[key] = _padd(chi2.get(key, ()), p)
    chi = chi1 + CylinderForm._of(form.d, form.degree - 1, chi2)

    if exterior_derivative(chi) != form:
        raise NumericFailure("constructed primitive does not differentiate "
                             "back to the input")
    wsq = form.norm_sq()
    csq = chi.norm_sq()
    ratio_sq = csq / wsq
    return PrimitiveResult(primitive=chi, ratio=math.sqrt(float(ratio_sq)),
                           ratio_sq=ratio_sq, input_norm_sq=wsq,
                           primitive_norm_sq=csq)


def _geometric_component(rng, cutoff):
    """Wavenumber with a geometric tail, clamped to the cutoff.

    One uniform draw per component, so runs at different cutoffs share
    the random stream: the cutoff-2N form is the cutoff-N form with its
    clamped components allowed to reach their finer values.
    """
    u = rng.random()
    k = min(int(-math.log2(1.0 - u)), cutoff)
    return k if rng.random() < 0.5 else -k


def random_form(d, degree, cutoff, seed, n_terms=4, max_poly_degree=2):
    """Random form with small rational coefficients and |m|_inf <= cutoff.

    Mode components decay geometrically toward high wavenumbers, the
    regime where refining the cutoff adds detail without moving the
    bulk of the norm.
    """
    if not 0 <= degree <= d + 1:
        raise InvalidOperand(f"degree {degree} out of range for d={d}")
    rng = random.Random(seed)
    terms = {}

    def rand_poly():
        n = rng.randint(1, max_poly_degree + 1)
        return _from_quotients([(rng.randint(-3, 3), rng.randint(1, 3),
                                 rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(n)])

    for _ in range(n_terms):
        mode = tuple(_geometric_component(rng, cutoff) for _ in range(d))
        if degree > d:
            has_dt = True
        elif degree == 0:
            has_dt = False
        else:
            has_dt = rng.random() < 0.5
        spatial = tuple(sorted(rng.sample(range(d), degree - has_dt)))
        key = (mode, spatial, has_dt)
        terms[key] = _padd(terms.get(key, ()), rand_poly())
    return CylinderForm._of(d, degree, terms)


def random_exact_form(d, degree, cutoff, seed, n_terms=4, max_poly_degree=2):
    """d of a random (degree-1)-form; retries until the result is nonzero."""
    for attempt in range(100):
        eta = random_form(d, degree - 1, cutoff, seed * 1_000 + attempt,
                          n_terms=n_terms, max_poly_degree=max_poly_degree)
        omega = exterior_derivative(eta)
        if not omega.is_zero:
            return omega
    raise NumericFailure("failed to draw a nonzero exact form")


def primitive_ratio_study(d, degree, cutoff, n, seed=0):
    """Max and all primitive norm ratios over n random exact forms."""
    ratios = []
    for i in range(n):
        omega = random_exact_form(d, degree, cutoff, seed + i)
        ratios.append(poincare_primitive(omega).ratio)
    return max(ratios), ratios
