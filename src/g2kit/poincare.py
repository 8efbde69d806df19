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

A form is stored as integer pairs over one denominator for the whole
form: each term's polynomial is ((re0, im0), (re1, im1), ...) for
c(t) = sum_k (re_k + i im_k) t^k / den.  The form is canonical: den > 0,
den and all the integers have gcd 1, no polynomial is zero or ends in a
zero pair, and the terms are sorted by key; so equal forms are equal
tuples.  Every operation is integer work over one denominator (one lcm
for the t-integral and one for 1/|m|^2) and ends in one gcd per form.
ComplexFrac is the coefficient type at the boundary only:
CylinderForm.build takes it and CylinderForm.mapping returns it.
"""

import math
import random
from fractions import Fraction
from itertools import chain, zip_longest

from ._frozen import Frozen
from .errors import InvalidOperand, NotExact, NumericFailure


class ComplexFrac(Frozen):
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        super().__init__(Fraction(re), Fraction(im))

    def __eq__(self, other):
        return isinstance(other, ComplexFrac) and \
            (self.re, self.im) == (other.re, other.im)


def _put(polys, key, pairs):
    """polys[key] += pairs, both integer pairs over the same denominator."""
    old = polys.get(key)
    polys[key] = pairs if old is None else [
        (x + u, y + v) for (x, y), (u, v) in zip_longest(old, pairs,
                                                         fillvalue=(0, 0))]


def _times_i(k, pairs):
    """The pairs of i*k*c(t)."""
    return [(-k * y, k * x) for x, y in pairs]


class CylinderForm(Frozen):
    """Finite Fourier-polynomial form on T^d x [0, 1].

    terms is a sorted tuple of ((mode, spatial, has_dt), pairs) entries,
    each pairs a nonzero polynomial over the form's one denominator den,
    canonical as in the module docstring.  Use build() to construct one
    from a mapping to ComplexFrac coefficient tuples, and mapping() to
    read it back.
    """

    __slots__ = ("d", "degree", "den", "terms")

    def __eq__(self, other):
        return isinstance(other, CylinderForm) and \
            (self.d, self.degree, self.den, self.terms) == \
            (other.d, other.degree, other.den, other.terms)

    @classmethod
    def build(cls, d, degree, mapping):
        if d < 1 or not 0 <= degree <= d + 1:
            raise InvalidOperand(f"bad dimensions d={d}, degree={degree}")
        items = []
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
            items.append(((mode, spatial, bool(has_dt)), poly))
        den = math.lcm(*(q for _, poly in items for c in poly
                         for q in (c.re.denominator, c.im.denominator)))
        polys = {}
        for key, poly in items:
            _put(polys, key, [(c.re.numerator * (den // c.re.denominator),
                               c.im.numerator * (den // c.im.denominator))
                              for c in poly])
        return cls._of(d, degree, den, polys)

    @classmethod
    def _of(cls, d, degree, den, polys):
        """The canonical form of a key -> integer pairs dict over den > 0."""
        terms = []
        g = den
        for key, pairs in polys.items():
            while pairs and pairs[-1] == (0, 0):
                pairs = pairs[:-1]
            if pairs:
                terms.append((key, tuple(pairs)))
                if g > 1:
                    g = math.gcd(g, *chain.from_iterable(pairs))
        terms.sort()
        if g > 1:
            den //= g
            terms = [(key, tuple((x // g, y // g) for x, y in pairs))
                     for key, pairs in terms]
        return cls(d, degree, den, tuple(terms))

    def mapping(self):
        return {k: tuple(ComplexFrac(Fraction(x, self.den),
                                     Fraction(y, self.den)) for x, y in p)
                for k, p in self.terms}

    @property
    def is_zero(self):
        return not self.terms

    def norm_sq(self):
        """Squared L2 norm over the common (2*pi)^d volume factor."""
        n = max((len(pairs) for _, pairs in self.terms), default=0)
        scale = math.lcm(*range(1, 2 * n))
        weight = [scale // (k + 1) for k in range(2 * n - 1)]
        total = 0
        for _, pairs in self.terms:
            for a, (xa, ya) in enumerate(pairs):
                for b, (xb, yb) in enumerate(pairs):
                    # Re(c_a * conj(c_b)) over den^2
                    total += (xa * xb + ya * yb) * weight[a + b]
        return Fraction(total, scale * self.den * self.den)


def _derivative_polys(terms):
    """d of (key, pairs) terms, as a key -> pairs dict over the same den."""
    out = {}
    for (mode, spatial, has_dt), pairs in terms:
        sign = 1  # of dx_j ^ dx_I -> dx_{sorted}: -1 per index of I below j
        for j, m in enumerate(mode):
            if j in spatial:
                sign = -sign
            elif m:
                _put(out, (mode, tuple(sorted(spatial + (j,))), has_dt),
                     _times_i(sign * m, pairs))
        if not has_dt and len(pairs) > 1:
            sign = (-1) ** len(spatial)
            _put(out, (mode, spatial, True),
                 [(sign * k * x, sign * k * y)
                  for k, (x, y) in enumerate(pairs) if k])
    return out


def exterior_derivative(form):
    # the derivative of a top-degree form is the zero top form
    return CylinderForm._of(form.d, min(form.degree + 1, form.d + 1),
                            form.den, _derivative_polys(form.terms))


class PrimitiveResult(Frozen):
    """A primitive chi of an exact form omega, with ratio = |chi| / |omega|
    and the exact squared norms it comes from."""

    __slots__ = ("primitive", "ratio", "ratio_sq", "input_norm_sq",
                 "primitive_norm_sq")


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
    if form.is_zero:
        raise InvalidOperand("the zero form has no norm ratio")
    if not exterior_derivative(form).is_zero:
        raise NotExact("input form is not closed")

    # chi1, the t-integral from 0 of every dt polynomial, and the
    # remainder form - d(chi1), both over den1 = den * lcm(1..n)
    scale = math.lcm(*range(1, 1 + max(
        (len(pairs) for (_, _, has_dt), pairs in form.terms if has_dt),
        default=0)))
    den1 = form.den * scale
    chi1 = {}
    for (mode, spatial, has_dt), pairs in form.terms:
        if has_dt:
            sign = (-1) ** len(spatial)
            chi1[(mode, spatial, False)] = [(0, 0)] + [
                (sign * x * (scale // (k + 1)), sign * y * (scale // (k + 1)))
                for k, (x, y) in enumerate(pairs)]
    remainder = {key: [(x * scale, y * scale) for x, y in pairs]
                 for key, pairs in form.terms}
    for key, pairs in _derivative_polys(chi1.items()).items():
        _put(remainder, key, [(-x, -y) for x, y in pairs])
    remainder = CylinderForm._of(form.d, form.degree, den1, remainder)

    for (mode, spatial, has_dt), _ in remainder.terms:
        if has_dt:
            raise NumericFailure("remainder kept a dt component")
        if not any(mode):
            raise NotExact(
                "harmonic component: zero-mode term on " + repr(spatial))
    # chi1 plus delta / |m|^2 of each mode, over one lcm of chi1's den
    # and the remainder's den times each |m|^2
    msq = {mode: sum(c * c for c in mode)
           for (mode, _, _), _ in remainder.terms}
    den = math.lcm(den1, *(remainder.den * m for m in msq.values()))
    k = den // den1
    chi = {key: [(x * k, y * k) for x, y in pairs]
           for key, pairs in chi1.items()}
    for (mode, spatial, _), pairs in remainder.terms:
        q = den // (remainder.den * msq[mode])
        for pos, j in enumerate(spatial):
            if mode[j]:
                _put(chi, (mode, spatial[:pos] + spatial[pos + 1:], False),
                     _times_i(-mode[j] * (-1) ** pos * q, pairs))
    chi = CylinderForm._of(form.d, form.degree - 1, den, chi)

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

    Each coefficient is (a + i b) with a = r/q, b = s/p, r, s drawn from
    -3..3 and q, p from 1..3.  Mode components decay geometrically toward
    high wavenumbers, the regime where refining the cutoff adds detail
    without moving the bulk of the norm.
    """
    return CylinderForm._of(d, degree, 6, _random_polys(
        d, degree, cutoff, seed, n_terms, max_poly_degree))


def _random_polys(d, degree, cutoff, seed, n_terms, max_poly_degree):
    """The terms of random_form as a key -> pairs dict over den 6."""
    if d < 1 or not 0 <= degree <= d + 1:
        raise InvalidOperand(f"bad dimensions d={d}, degree={degree}")
    if cutoff < 0:
        raise InvalidOperand(f"negative cutoff {cutoff}")
    if max_poly_degree < 0:
        raise InvalidOperand(f"negative max_poly_degree {max_poly_degree}")
    rng = random.Random(seed)
    lengths = range(1, max_poly_degree + 2)
    numerators = range(-3, 4)
    # 6 // q for q = 1, 2, 3: the numerator's factor over den 6
    factors = (6, 3, 2)
    terms = {}
    for _ in range(n_terms):
        mode = tuple(_geometric_component(rng, cutoff) for _ in range(d))
        if degree > d:
            has_dt = True
        elif degree == 0:
            has_dt = False
        else:
            has_dt = rng.random() < 0.5
        spatial = tuple(sorted(rng.sample(range(d), degree - has_dt)))
        # choice(range(a, b + 1)) draws what randint(a, b) would
        _put(terms, (mode, spatial, has_dt), [
            (rng.choice(numerators) * rng.choice(factors),
             rng.choice(numerators) * rng.choice(factors))
            for _ in range(rng.choice(lengths))])
    return terms


def random_exact_form(d, degree, cutoff, seed, n_terms=4, max_poly_degree=2):
    """d of a random (degree-1)-form; retries until the result is nonzero."""
    if not 1 <= degree <= d + 1:
        raise InvalidOperand(f"no exact {degree}-form on T^{d} x I")
    for attempt in range(100):
        eta = _random_polys(d, degree - 1, cutoff, seed * 1_000 + attempt,
                            n_terms, max_poly_degree)
        omega = CylinderForm._of(d, degree, 6, _derivative_polys(eta.items()))
        if not omega.is_zero:
            return omega
    raise NumericFailure("failed to draw a nonzero exact form")


def primitive_ratio_study(d, degree, cutoff, n, seed=0):
    """Max and all primitive norm ratios over n random exact forms."""
    if n < 1:
        raise InvalidOperand(f"a ratio study needs n >= 1 forms, not {n}")
    ratios = []
    for i in range(n):
        omega = random_exact_form(d, degree, cutoff, seed + i)
        ratios.append(poincare_primitive(omega).ratio)
    return max(ratios), ratios
