"""Pointwise numerics for the Eguchi-Hanson family on the C^2/{+-1} chart.

Everything here is a function of the scale parameter s and a base point
(z1, z2) != 0.  The Kahler potential is the Ricci-flat one,

    f_s = sqrt(r^4 + s^4) + s^2 log r^2 - s^2 log(sqrt(r^4 + s^4) + s^2),

whose complex Hessian has unit determinant identically; the middle term
must grow logarithmically in r for that to hold, a constant in r there
produces a metric that is not Ricci-flat.  Radial derivatives are
implemented in closed form.  Finite differences appear only in
ricci_ratio, which differentiates log det h of the closed-form metric on
a stencil of 66 points around each chart point.  The stencils of a list
of points are evaluated as one stack, up to RICCI_STACK_POINTS points at
a time, and each point keeps the bits it has alone.

The curvature probe runs as stacks too: the metric, its inverse, its
first derivatives, the 16 tensor entries, the positivity check, the
frame h^(-1/2), the four frame changes and the norms of up to
CURVATURE_STACK_POINTS points at a time, with the bits of one point
alone.  Two things keep those bits.  The tensor's complex products are
written out in real and imaginary parts, because numpy's vectorised
complex multiply rounds differently from the scalar one that a per-point
sum would use.  The potential derivatives are taken one point at a
time, because potential_derivatives on an array u rounds u**3, q**3,
u**4 and q**5 differently from scalar powers.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from ._lazy import lazy_module
from .errors import ChartSingular, InvalidOperand, InvalidScale, NumericFailure

np = lazy_module("numpy")

# declared tolerances for the numeric verdicts, in one place
TOLERANCES = {
    "ricci": 1e-6,       # |Ricci| / |h|, relative
    "scaling": 1e-8,     # accepted pullback-candidate deviation
    "flat_limit": 1e-6,  # |h - Id| far from the exceptional set
}
# chart points per stack of ricci_ratio.  A point's 66 stencil rows and
# their temporaries take about 18 KiB (tracemalloc), so a full stack
# holds 1.1 MiB.  Points cost about the same from stacks of 16 up;
# unbounded, the 4000 points of --eh-check --s 1 --samples 4000 raised
# its peak RSS from 38 MB to 112 MB.
RICCI_STACK_POINTS = 64
# chart points per stack of the curvature probe, filled with whole
# scales of 24 points (42 scales, 1008 points).  A point's tensor and its
# temporaries take about 1.8 KiB (tracemalloc), so a full stack holds
# under 2 MiB.  A stack of one scale spends most of its time in per-call
# numpy overhead: --eh-check at 2621 scales of one sample took 4.3 s of
# CPU with a stack per scale, and 3.3 s in full stacks, in back-to-back
# runs on a 2-core x86-64 VM.
CURVATURE_STACK_POINTS = 1024


def _check_scale(s) -> None:
    if not (s > 0 and math.isfinite(float(s))):
        raise InvalidScale(f"scale parameter must be positive, got {s!r}")


def potential(s: float, r: float) -> float:
    """Kahler potential at radius r = |z| on the chart away from r = 0."""
    _check_scale(s)
    u = r * r
    if not u > 0:
        raise ChartSingular("the potential has a logarithmic pole at r = 0")
    q = np.hypot(u, s * s)  # sqrt(r^4 + s^4), stable for r >> s
    return float(q + s * s * (np.log(u) - np.log(q + s * s)))


def potential_derivatives(s: float, u, order: int = 2):
    """Derivatives of the potential with respect to u = r^2, in closed form.

    Returns (f', f'', ..., f^(order)) as a tuple; entries follow from
    repeated differentiation of f'(u) = q/u with q = sqrt(u^2 + s^4).
    u may be an array, and then each entry is one too.
    """
    _check_scale(s)
    if not np.all(u > 0):
        raise ChartSingular("derivatives require u = r^2 > 0")
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    s4 = s * s * s * s
    q = np.hypot(u, s * s)
    out = [q / u]
    if order >= 2:
        out.append(-s4 / (u * u * q))
    if order >= 3:
        out.append(s4 * (3 * u * u + 2 * s4) / (u ** 3 * q ** 3))
    if order >= 4:
        out.append(3 * s4 * (2 / (u * u * q ** 3)
                             - (3 * u * u + 2 * s4)
                             * (1 / (u ** 4 * q ** 3) + 1 / (u * u * q ** 5))))
    return tuple(out)


def _base_point(z1, z2) -> np.ndarray:
    z = np.array([z1, z2], dtype=complex)
    if not float(abs(z[0]) ** 2 + abs(z[1]) ** 2) > 0:
        raise ChartSingular("the chart excludes the origin of C^2")
    return z


def _dots(x):
    """x . x for each row of x, each with the bits of x.dot(x) on that
    row alone: matmul takes the same dot product per row."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _frobenius_norms(m):
    """np.linalg.norm of each complex matrix of a stack, with its bits."""
    flat = m.reshape(len(m), -1)
    return np.sqrt(_dots(flat.real) + _dots(flat.imag))


def _metrics(fp, fpp, z):
    """f' Id + f'' zbar_i z_j for each entry of fp and fpp and row of z,
    as an (n, 2, 2) stack."""
    return (fp[:, None, None] * np.eye(2, dtype=complex)
            + fpp[:, None, None] * (z.conj()[:, :, None] * z[:, None, :]))


def _radial_points(points):
    """The rows z of the points (z1, z2) and u = |z|^2 at each, as arrays.

    u is formed from numpy scalars, whose ** 2 calls pow, where an array's
    ** 2 rounds x * x.
    """
    z = np.array([_base_point(z1, z2) for z1, z2 in points])
    return z, np.array([abs(z1) ** 2 + abs(z2) ** 2 for z1, z2 in z])


def _kahler_metrics(s, points):
    """The scale-s metric at each point (z1, z2), as an (n, 2, 2) stack,
    each with the bits of its point alone.  The first two derivatives of
    the potential take no powers of u, so they may take the array."""
    z, u = _radial_points(points)
    return _metrics(*potential_derivatives(s, u), z)


def kahler_metric_at(s: float, z1, z2) -> np.ndarray:
    """Closed-form metric h_{i jbar} = f' Id + f'' zbar_i z_j at (z1, z2),
    as a 2x2 complex array."""
    return _kahler_metrics(s, [(z1, z2)])[0]


def _real_coords(z: np.ndarray) -> np.ndarray:
    return np.array([z[0].real, z[0].imag, z[1].real, z[1].imag], float)


def _to_complex(x) -> tuple:
    return complex(x[0], x[1]), complex(x[2], x[3])


def _complex_hessian(real_hessian) -> np.ndarray:
    """Assemble d^2/dz_i dzbar_j from the real 4x4 Hessian.

    Coordinates are ordered (Re z1, Im z1, Re z2, Im z2).  real_hessian
    may be an array or nested lists.
    """
    out = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            out[i, j] = 0.25 * (
                float(real_hessian[xi][xj]) + float(real_hessian[yi][yj])
                + 1j * (float(real_hessian[xi][yj])
                        - float(real_hessian[yi][xj])))
    return out


# the pairs i < j of the four real coordinates, as np.triu_indices(4, 1)
# lists them
_PAIRS = ((0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3))


def _stencils(x, h):
    """For each row of x and entry of h, the rows x, x +- h e_i and
    x +- h e_i +- h e_j (i < j): a (points, 33, 4) stack.

    The entries are formed as x + ei + ej with ei = h e_i, in the order
    _hessians_from_stencils reads them; ei holds zeros off its axis even
    where h is inf.
    """
    e = np.zeros((len(x), 4, 4))
    e[:, range(4), range(4)] = h[:, None]
    ei, ej = e[:, _PAIRS[0]], e[:, _PAIRS[1]]
    x = x[:, None]
    return np.concatenate([x, x + e, x - e, x + ei + ej, x + ei - ej,
                           x - ei + ej, x - ei - ej], axis=1)


def _hessians_from_stencils(f, h):
    """Central-difference Hessians from the values f on _stencils(x, h)."""
    out = np.zeros((len(f), 4, 4))
    out[:, range(4), range(4)] = ((f[:, 1:5] - 2 * f[:, :1] + f[:, 5:9])
                                  / (h * h)[:, None])
    pp, pm, mp, mm = f[:, 9:].reshape(-1, 4, 6).swapaxes(0, 1)
    i, j = _PAIRS
    out[:, i, j] = out[:, j, i] = (pp - pm - mp + mm) / (4 * h * h)[:, None]
    return out


def _ricci_hessians(s, points):
    """The real Hessians of log det h at each point, as a (points, 4, 4)
    stack.

    log det h of the closed-form metric is differentiated by central
    differences with Richardson extrapolation over the steps h = 0.05 r
    and h/2.  Each point's 66 stencil rows join one stack, and every row
    takes the arithmetic of a lone point.  The first refused point in the
    list raises: ChartSingular for the origin or a stencil row with
    |z|^2 = 0, NumericFailure where a step does not move the point.
    """
    _check_scale(s)
    refused = None
    x0 = []
    for z1, z2 in points:
        try:
            x0.append(_real_coords(_base_point(z1, z2)))
        except ChartSingular as e:
            refused = e
            break
    x0 = np.array(x0).reshape(-1, 4)
    # each radius from its row's dot product, as np.linalg.norm takes it
    # for one point; np.linalg.norm(axis=1) rounds differently
    r = np.sqrt(_dots(x0))
    h = 0.05 * r
    fits = (np.all(x0 + h[:, None] != x0, axis=1)
            & np.all(x0 + (h / 2)[:, None] != x0, axis=1))
    if not fits.all():
        refused = NumericFailure(
            "finite-difference step underflows at this point")
        first = np.argmin(fits)
        x0, h = x0[:first], h[:first]
    x = np.concatenate([_stencils(x0, h), _stencils(x0, h / 2)],
                       axis=1).reshape(-1, 4)

    m = _metrics(*potential_derivatives(s, _dots(x)), x.view(complex))
    # the real part of the determinant, written out: numpy's vectorised
    # complex multiply rounds differently from its scalar one
    a, b, c, e = m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0]
    det = ((a.real * b.real - a.imag * b.imag)
           - (c.real * e.real - c.imag * e.imag))
    f = np.log(det).reshape(len(x0), 66)
    if refused is not None:
        raise refused
    return (4 * _hessians_from_stencils(f[:, 33:], h / 2)
            - _hessians_from_stencils(f[:, :33], h)) / 3


def ricci_ratio(s: float, points):
    """|Ricci| / |h| at each of a non-empty list of points (z1, z2), the
    relative Ricci-flatness defect.

    The result is numerically zero for the Ricci-flat family; the size of
    the residual measures the quality of the derivative code.  The points
    are evaluated in stacks of up to RICCI_STACK_POINTS, each ratio bit
    for bit that of its point alone, and the first refused point raises
    its error.
    """
    if not points:
        raise InvalidOperand("the list of points is empty")
    ratios = []
    for first in range(0, len(points), RICCI_STACK_POINTS):
        chunk = points[first:first + RICCI_STACK_POINTS]
        hess = _ricci_hessians(s, chunk)
        ric = np.array([_complex_hessian(rows) for rows in hess.tolist()])
        ratios += (_frobenius_norms(ric)
                   / _frobenius_norms(_kahler_metrics(s, chunk))).tolist()
    return ratios


def flat_deviation(s: float, z1, z2) -> float:
    """Relative distance of h from the flat identity metric at (z1, z2)."""
    m = kahler_metric_at(s, z1, z2)
    return float(np.linalg.norm(m - np.eye(2)) / np.sqrt(2.0))


def sample_points(n: int, s: float, seed: int, rmin: float = 0.3,
                  rmax: float = 3.0):
    """n random chart points with radius log-uniform in [rmin*s, rmax*s]."""
    _check_scale(s)
    rng = np.random.default_rng(seed)
    radii = s * np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=n))
    raw = rng.normal(size=(n, 4))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    pts = raw * radii[:, None]
    return [_to_complex(row) for row in pts]


class ScalingReport(Frozen):
    """Max relative deviation of the pullback from each rescaling candidate."""

    __slots__ = ("s", "lam", "matches_lambda_s", "matches_s_over_lambda")

    @property
    def verdict(self) -> str:
        a, b = self.matches_lambda_s, self.matches_s_over_lambda
        if a < TOLERANCES["scaling"] <= b:
            return "lambda*s"
        if b < TOLERANCES["scaling"] <= a:
            return "s/lambda"
        return "ambiguous"


def scaling_identity_probe(s: float, lam: float, points) -> ScalingReport:
    """Compare the dilation pullback of the metric with both rescalings.

    The pullback of the scale-s metric under z -> lam*z is evaluated at
    each sample and held against lam^2 times the metric at scale lam*s
    and at scale s/lam.  Both scores are reported; no candidate is
    privileged.
    """
    _check_scale(s)
    _check_scale(lam)
    dev_ls, dev_sl = 0.0, 0.0
    for z1, z2 in points:
        pulled = lam ** 2 * kahler_metric_at(s, lam * z1, lam * z2)
        for dev, cand in ((0, lam * s), (1, s / lam)):
            ref = lam ** 2 * kahler_metric_at(cand, z1, z2)
            score = float(np.linalg.norm(pulled - ref) / np.linalg.norm(ref))
            if dev == 0:
                dev_ls = max(dev_ls, score)
            else:
                dev_sl = max(dev_sl, score)
    return ScalingReport(float(s), float(lam), dev_ls, dev_sl)


def _eh_derivatives(s, u):
    """The potential's derivatives up to fourth order at each entry of u,
    taken one float at a time, as an (n, 4) array."""
    return np.array([potential_derivatives(s, float(x), order=4) for x in u])


# complex numbers below are (real, imaginary) pairs of arrays, and _mul
# writes out the product of numpy's scalar complex multiply: its
# vectorised one rounds differently.  A real factor f enters as (f, 0.0),
# as numpy scalars promote it.
def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _curvature_tensors(z, d, h):
    """Kahler curvature R_{i jbar k lbar} of a radial-potential metric h
    at each row of z, as an (n, 2, 2, 2, 2) stack with each point's bits.

    R = -d^2 h_{i jbar}/dz_k dzbar_l
        + h^{p qbar} (d h_{i qbar}/dz_k) conj(d h_{j pbar}/dz_l),
    assembled from the potential's derivatives d with respect to u, up to
    fourth order, one row a point.  Index order [i, j, k, l], unbarred first.
    The entries follow the per-point sums term by term, over broadcast
    index axes (n, i, j, k, l).  A metric that is singular in floating
    point raises NumericFailure.
    """
    eye = np.eye(2)

    def at(x, axes):
        """Row slots of x moved onto the named index axes."""
        shape = [len(x)] + [1] * 4
        for a in axes:
            shape["ijkl".index(a) + 1] = 2
        return x.reshape(shape)

    d1, d2, d3 = (at(d[:, m], "") for m in (1, 2, 3))

    def delta(a, b):
        return at(eye[None], a + b), 0.0

    def zbar(a):
        return at(z.real, a), at(-z.imag, a)

    def zed(a):
        return at(z.real, a), at(z.imag, a)

    # d h_{i jbar}/dz_k, held as axes (n, i, j, k)
    dh = _add(_mul((d1, 0.0), _add(_mul(zbar("k"), delta("i", "j")),
                                   _mul(zbar("i"), delta("j", "k")))),
              _mul(_mul(_mul((d2, 0.0), zbar("k")), zbar("i")), zed("j")))
    dh = [x.reshape(-1, 2, 2, 2) for x in dh]

    # d1 times the Python integer (k==l)(i==j) + (i==l)(j==k), which may
    # be 2, so the deltas stay numbers here
    count = (at(eye[None], "kl") * at(eye[None], "ij")
             + at(eye[None], "il") * at(eye[None], "jk"))
    second = _add((d1 * count, 0.0), _mul((d2, 0.0), _add(_add(_add(
        _mul(_mul(zed("l"), zbar("k")), delta("i", "j")),
        _mul(_mul(zed("l"), zbar("i")), delta("j", "k"))),
        _mul(_mul(delta("k", "l"), zbar("i")), zed("j"))),
        _mul(_mul(delta("i", "l"), zbar("k")), zed("j")))))
    second = _add(second, _mul(_mul(_mul(_mul((d3, 0.0), zed("l")),
                                         zbar("k")), zbar("i")), zed("j")))

    # h^{p qbar} (d h_{i qbar}/dz_k) conj(d h_{j pbar}/dz_l), added to 0
    # over p, then q
    try:
        hinv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        raise NumericFailure("metric singular at sample point") from None
    corr = (0.0, 0.0)
    for p in range(2):
        for q in range(2):
            hqp = (at(hinv.real[:, q, p], ""), at(hinv.imag[:, q, p], ""))
            left = (dh[0][:, :, q, None, :, None],
                    dh[1][:, :, q, None, :, None])
            right = (dh[0][:, None, :, p, None, :],
                     -dh[1][:, None, :, p, None, :])
            corr = _add(corr, _mul(_mul(hqp, left), right))
    out = np.empty((len(z), 2, 2, 2, 2), dtype=complex)
    out.real, out.imag = _add((-second[0], -second[1]), corr)
    return out


def _curvature_norms(z, d):
    """Orthonormal-frame Frobenius norm of the curvature tensor at each
    row of z, with its potential derivatives d, each with the bits of its
    point alone.

    A metric that is not positive definite at any point raises
    NumericFailure before any tensor is formed.
    """
    h = _metrics(d[:, 0], d[:, 1], z)
    w, v = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(1, 2)))
    if np.any(w <= 0):
        raise NumericFailure("metric not positive definite at sample point")
    # h^(-1/2), Hermitian, as v @ np.diag(w ** -0.5) @ v^H per point
    scale = np.zeros_like(h, dtype=float)
    scale[:, range(2), range(2)] = w ** -0.5
    c = v @ scale @ v.conj().swapaxes(1, 2)
    r = _curvature_tensors(z, d, h)
    # unbarred slots contract with conj(c), barred slots with c, so that
    # the frame columns A = conj(c) satisfy A^T h conj(A) = Id
    r = np.einsum("nia,nijkl->najkl", c.conj(), r)
    r = np.einsum("njb,najkl->nabkl", c, r)
    r = np.einsum("nkc,nabkl->nabcl", c.conj(), r)
    r = np.einsum("nld,nabcl->nabcd", c, r)
    return _frobenius_norms(r)


class CurvatureScalingReport(Frozen):
    """Peak curvature norm per scale, and the log-log slope across the
    scales (None for a single scale)."""

    __slots__ = ("s_values", "max_norms", "slope")


def curvature_injectivity_scaling_probe(s_list) -> CurvatureScalingReport:
    """Peak curvature norm per scale and the log-log slope across scales.

    Samples a fixed absolute grid, 8 radii log-spaced over [0.2, 2.5]
    times 3 directions drawn with seed 7, records the maximal pointwise
    curvature norm for each s, and fits log max-norm against log s when
    at least two scales are given.
    """
    s_values = tuple(float(s) for s in s_list)
    for s in s_values:
        _check_scale(s)
    if len(set(s_values)) != len(s_values):
        # a repeated scale leaves the log-log slope undefined
        raise InvalidOperand(f"repeated scale in {s_values}")
    radii = np.exp(np.linspace(np.log(0.2), np.log(2.5), 8))
    dirs = np.random.default_rng(7).normal(size=(3, 4))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    points = [_to_complex(r * d) for r in radii for d in dirs]
    z, u = _radial_points(points)
    per_stack = CURVATURE_STACK_POINTS // len(points)
    maxima = []
    for first in range(0, len(s_values), per_stack):
        chunk = s_values[first:first + per_stack]
        d = np.concatenate([_eh_derivatives(s, u) for s in chunk])
        norms = _curvature_norms(np.tile(z, (len(chunk), 1)), d)
        # each maximum starts from 0.0 and skips NaN norms, as Python's
        # max does
        maxima += [max([0.0] + row)
                   for row in norms.reshape(-1, len(points)).tolist()]
    slope = None
    if len(s_values) >= 2:
        slope = float(np.polyfit(np.log(s_values), np.log(maxima), 1)[0])
    return CurvatureScalingReport(s_values, tuple(maxima), slope)
