"""Pointwise numerics for the Eguchi-Hanson family on the C^2/{+-1} chart.

Everything here is a function of the scale parameter s and a base point
(z1, z2) != 0.  The Kahler potential is the Ricci-flat one,

    f_s = sqrt(r^4 + s^4) + s^2 log r^2 - s^2 log(sqrt(r^4 + s^4) + s^2),

whose complex Hessian has unit determinant identically; the middle term
must grow logarithmically in r for that to hold, a constant in r there
produces a metric that is not Ricci-flat.  Radial derivatives are
implemented in closed form.  Finite differences appear only in
ricci_at, which differentiates log det h of the closed-form metric on a
stencil of 66 points evaluated as one stack.
"""

from __future__ import annotations

import math

from ._lazy import lazy_module
from .errors import ChartSingular, InvalidOperand, InvalidScale, NumericFailure

np = lazy_module("numpy")

# declared tolerances for the numeric verdicts, in one place
TOLERANCES = {
    "ricci": 1e-6,       # |Ricci| / |h|, relative
    "scaling": 1e-8,     # accepted pullback-candidate deviation
    "flat_limit": 1e-6,  # |h - Id| far from the exceptional set
}


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


class HermitianMetric2:
    """2x2 complex Hessian data h_{i jbar} attached to a base point."""

    __slots__ = ("matrix", "point")

    def __init__(self, matrix, point=(complex("nan"), complex("nan"))):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMetric2 is immutable")

    def det(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def _base_point(z1, z2, dtype=complex) -> np.ndarray:
    z = np.array([z1, z2], dtype=dtype)
    if not float(abs(z[0]) ** 2 + abs(z[1]) ** 2) > 0:
        raise ChartSingular("the chart excludes the origin of C^2")
    return z


def kahler_metric_at(s: float, z1, z2) -> HermitianMetric2:
    """Closed-form metric h_{i jbar} = f' Id + f'' zbar_i z_j at (z1, z2)."""
    z = _base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    fp, fpp = potential_derivatives(s, u, order=2)
    m = fp * np.eye(2, dtype=complex) + fpp * np.outer(z.conj(), z)
    return HermitianMetric2(m, (complex(z1), complex(z2)))


def _real_coords(z: np.ndarray) -> np.ndarray:
    return np.array([z[0].real, z[0].imag, z[1].real, z[1].imag], float)


def _to_complex(x) -> tuple:
    return complex(x[0], x[1]), complex(x[2], x[3])


def _complex_hessian(real_hessian) -> np.ndarray:
    """Assemble d^2/dz_i dzbar_j from the real 4x4 Hessian.

    Coordinates are ordered (Re z1, Im z1, Re z2, Im z2).
    """
    out = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            out[i, j] = 0.25 * (
                float(real_hessian[xi, xj]) + float(real_hessian[yi, yj])
                + 1j * (float(real_hessian[xi, yj])
                        - float(real_hessian[yi, xj])))
    return out


def _stencil(x, h):
    """Rows x, x +- h e_i and x +- h e_i +- h e_j (i < j): 33 points for n = 4.

    The entries are formed as x + ei + ej with ei = h e_i, in the order
    _hessian_from_stencil reads them.
    """
    e = np.diag(np.full(len(x), h, dtype=x.dtype))
    i, j = np.triu_indices(len(x), 1)
    return np.concatenate([x[None], x + e, x - e,
                           x + e[i] + e[j], x + e[i] - e[j],
                           x - e[i] + e[j], x - e[i] - e[j]])


def _hessian_from_stencil(f, h):
    """Central-difference Hessian from the values f on _stencil(x, h)."""
    n = math.isqrt((len(f) - 1) // 2)
    out = np.diag((f[1:n + 1] - 2 * f[0] + f[n + 1:2 * n + 1]) / (h * h))
    pp, pm, mp, mm = f[2 * n + 1:].reshape(4, -1)
    i, j = np.triu_indices(n, 1)
    out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4 * h * h)
    return out


def ricci_at(s: float, z1, z2, outer: float | None = None,
             precision: str = "double") -> HermitianMetric2:
    """Ricci coefficients of the closed-form metric at (z1, z2).

    log det h is evaluated from the closed-form Hessian and differentiated
    by central differences with Richardson extrapolation (steps h and
    h/2).  The result is numerically zero for the Ricci-flat family; the
    size of the residual measures the quality of the derivative code.
    precision = "extended" switches the evaluation to long double
    arithmetic.  All 66 stencil points go through log det h as one stack;
    each row takes the arithmetic of a lone point.
    """
    if precision not in ("double", "extended"):
        raise InvalidScale(f"unknown precision {precision!r}")
    dtype = np.longdouble if precision == "extended" else np.float64
    _check_scale(s)
    z = _base_point(z1, z2)
    x0 = _real_coords(z).astype(dtype)
    r = float(np.linalg.norm(x0))
    h = dtype(outer if outer is not None else 0.05 * r)
    if not np.all(x0 + h != x0) or not np.all(x0 + h / 2 != x0):
        raise NumericFailure("finite-difference step underflows at this point")
    x = np.concatenate([_stencil(x0, h), _stencil(x0, h / 2)])

    # f' Id + f'' zbar_i z_j row by row, as kahler_metric_at forms it;
    # the points enter the complex matrix in double precision
    u = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
    fp, fpp = potential_derivatives(s, u, order=2)
    zz = x.astype(np.float64).view(complex)
    m = (fp[:, None, None] * np.eye(2, dtype=complex)
         + fpp[:, None, None] * (zz.conj()[:, :, None] * zz[:, None, :]))
    # the real part of the determinant, written out: numpy's vectorised
    # complex multiply rounds differently from its scalar one
    a, b, c, e = m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0]
    det = ((a.real * b.real - a.imag * b.imag)
           - (c.real * e.real - c.imag * e.imag))
    coarse, fine = np.split(np.log(det), 2)
    hess = (4 * _hessian_from_stencil(fine, h / 2)
            - _hessian_from_stencil(coarse, h)) / 3
    return HermitianMetric2(-_complex_hessian(hess),
                            (complex(z1), complex(z2)))


def ricci_ratio(s: float, z1, z2, precision: str = "double") -> float:
    """|Ricci| / |h| at a point, the relative Ricci-flatness defect."""
    ric = ricci_at(s, z1, z2, precision=precision)
    return ric.norm() / kahler_metric_at(s, z1, z2).norm()


def flat_deviation(s: float, z1, z2) -> float:
    """Relative distance of h from the flat identity metric at (z1, z2)."""
    m = kahler_metric_at(s, z1, z2).matrix
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


class ScalingReport:
    """Max relative deviation of the pullback from each rescaling candidate."""

    __slots__ = ("s", "lam", "matches_lambda_s", "matches_s_over_lambda")

    def __init__(self, s, lam, matches_lambda_s, matches_s_over_lambda):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "matches_lambda_s", matches_lambda_s)
        object.__setattr__(self, "matches_s_over_lambda",
                           matches_s_over_lambda)

    def __setattr__(self, name, value):
        raise AttributeError("ScalingReport is immutable")

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
        pulled = lam ** 2 * kahler_metric_at(s, lam * z1, lam * z2).matrix
        for dev, cand in ((0, lam * s), (1, s / lam)):
            ref = lam ** 2 * kahler_metric_at(cand, z1, z2).matrix
            score = float(np.linalg.norm(pulled - ref) / np.linalg.norm(ref))
            if dev == 0:
                dev_ls = max(dev_ls, score)
            else:
                dev_sl = max(dev_sl, score)
    return ScalingReport(float(s), float(lam), dev_ls, dev_sl)


def radial_metric(derivs, z1, z2) -> np.ndarray:
    """Complex Hessian f' Id + f'' zbar_i z_j for any radial potential.

    derivs maps u = |z|^2 to a tuple of derivatives of the potential with
    respect to u; at least two entries are used here.
    """
    z = _base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    d = derivs(u)
    return d[0] * np.eye(2, dtype=complex) + d[1] * np.outer(z.conj(), z)


def radial_metric_first_derivatives(derivs, z1, z2) -> np.ndarray:
    """d h_{i jbar} / dz_k for a radial potential; index order [k, i, j]."""
    z = _base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    d = derivs(u)
    zc = z.conj()
    out = np.empty((2, 2, 2), dtype=complex)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                out[k, i, j] = (d[1] * (zc[k] * (i == j) + zc[i] * (j == k))
                                + d[2] * zc[k] * zc[i] * z[j])
    return out


def radial_curvature_tensor(derivs, z1, z2) -> np.ndarray:
    """Kahler curvature R_{i jbar k lbar} of a radial-potential metric.

    R = -d^2 h_{i jbar}/dz_k dzbar_l
        + h^{p qbar} (d h_{i qbar}/dz_k) conj(d h_{j pbar}/dz_l),
    assembled from derivatives of the potential up to fourth order.
    Index order [i, j, k, l], unbarred first.
    """
    z = _base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    d = derivs(u)
    if len(d) < 4:
        raise InvalidScale("curvature needs four potential derivatives")
    zc = z.conj()
    h = radial_metric(derivs, z1, z2)
    hinv = np.linalg.inv(h)
    dh = radial_metric_first_derivatives(derivs, z1, z2)
    out = np.empty((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ell in range(2):
                    second = (d[1] * ((k == ell) * (i == j)
                                      + (i == ell) * (j == k))
                              + d[2] * (z[ell] * zc[k] * (i == j)
                                        + z[ell] * zc[i] * (j == k)
                                        + (k == ell) * zc[i] * z[j]
                                        + (i == ell) * zc[k] * z[j])
                              + d[3] * z[ell] * zc[k] * zc[i] * z[j])
                    corr = 0
                    for p in range(2):
                        for q in range(2):
                            corr += (hinv[q, p] * dh[k, i, q]
                                     * np.conj(dh[ell, j, p]))
                    out[i, j, k, ell] = -second + corr
    return out


def radial_curvature_norm(derivs, z1, z2) -> float:
    """Orthonormal-frame Frobenius norm of the curvature tensor."""
    h = radial_metric(derivs, z1, z2)
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    if np.any(w <= 0):
        raise NumericFailure("metric not positive definite at sample point")
    c = v @ np.diag(w ** -0.5) @ v.conj().T  # h^(-1/2), Hermitian
    r = radial_curvature_tensor(derivs, z1, z2)
    # unbarred slots contract with conj(c), barred slots with c, so that
    # the frame columns A = conj(c) satisfy A^T h conj(A) = Id
    r = np.einsum("ia,ijkl->ajkl", c.conj(), r)
    r = np.einsum("jb,ajkl->abkl", c, r)
    r = np.einsum("kc,abkl->abcl", c.conj(), r)
    r = np.einsum("ld,abcl->abcd", c, r)
    return float(np.linalg.norm(r))


def _eh_derivs(s: float):
    return lambda u: potential_derivatives(s, u, order=4)


def curvature_norm(s: float, z1, z2) -> float:
    """Orthonormal-frame curvature norm of the scale-s metric at (z1, z2)."""
    _check_scale(s)
    return radial_curvature_norm(_eh_derivs(s), z1, z2)


class CurvatureScalingReport:
    """Peak curvature norm per scale, and the log-log slope across the
    scales (None for a single scale)."""

    __slots__ = ("s_values", "max_norms", "slope")

    def __init__(self, s_values, max_norms, slope):
        object.__setattr__(self, "s_values", s_values)
        object.__setattr__(self, "max_norms", max_norms)
        object.__setattr__(self, "slope", slope)

    def __setattr__(self, name, value):
        raise AttributeError("CurvatureScalingReport is immutable")


def curvature_injectivity_scaling_probe(s_list, radii=None,
                                        directions=3, seed=7) -> CurvatureScalingReport:
    """Peak curvature norm per scale and the log-log slope across scales.

    Samples a fixed absolute grid of radii and directions, records the
    maximal pointwise curvature norm for each s, and fits
    log max-norm against log s when at least two scales are given.
    """
    s_values = tuple(float(s) for s in s_list)
    for s in s_values:
        _check_scale(s)
    if len(set(s_values)) != len(s_values):
        # a repeated scale leaves the log-log slope undefined
        raise InvalidOperand(f"repeated scale in {s_values}")
    if radii is None:
        radii = np.exp(np.linspace(np.log(0.2), np.log(2.5), 8))
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, 4))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    maxima = []
    for s in s_values:
        best = 0.0
        for r in radii:
            for d in dirs:
                z1, z2 = _to_complex(r * d)
                best = max(best, curvature_norm(s, z1, z2))
        maxima.append(best)
    slope = None
    if len(s_values) >= 2:
        slope = float(np.polyfit(np.log(s_values), np.log(maxima), 1)[0])
    return CurvatureScalingReport(s_values, tuple(maxima), slope)
