"""Eguchi-Hanson pointwise numerics: potential, metric, Ricci, scaling.

The curvature conventions are validated against a constant-curvature
oracle (the Fubini-Study potential log(1+u), whose orthonormal-frame
curvature norm is sqrt(12) at every point and whose Ricci tensor is
exactly three times the metric).

The curvature probe runs as stacks; the per-point loops it replaced are
kept here as the oracle (loop_curvature_norm and its helpers), and the
library must give their bits.

Three assertions below are strict xfails: they pin the printed closed
form of the potential, which assigns a finite value at the chart center
and is convex in the squared radius.  The potential with unit-determinant
complex Hessian (the one every other check in this file needs) differs
from it by a radial logarithm, has a pole at the center, and is concave
in the squared radius.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from g2kit.eguchi_hanson import (
    RICCI_STACK_POINTS,
    TOLERANCES,
    curvature_injectivity_scaling_probe,
    flat_deviation,
    kahler_metric_at,
    potential,
    potential_derivatives,
    ricci_ratio,
    sample_points,
    scaling_identity_probe,
)
from g2kit import eguchi_hanson
from g2kit.errors import (
    ChartSingular,
    G2KitError,
    InvalidOperand,
    InvalidScale,
    NumericFailure,
)
from g2kit.scenarios import _eh_suite

SCALES = (0.5, 1.0, 2.0)


def is_positive_definite(metric):
    """Are the eigenvalues of the metric's Hermitian part all positive?"""
    sym = 0.5 * (metric + metric.conj().T)
    return bool(np.all(np.linalg.eigvalsh(sym) > 0))


def stacked_points(derivs, points):
    """The rows of the points and derivs(u) at each, one float u at a
    time, as the curvature kernels take them."""
    z, u = eguchi_hanson._radial_points(points)
    return z, np.array([derivs(float(x)) for x in u])


def stacked_tensors(derivs, points):
    """The stacked metrics and curvature tensors at the points."""
    z, d = stacked_points(derivs, points)
    h = eguchi_hanson._metrics(d[:, 0], d[:, 1], z)
    return h, eguchi_hanson._curvature_tensors(z, d, h)


def ricci_from_curvature(derivs, points):
    """Trace h^{qbar p} R_{p qbar k lbar} of the curvature tensor at each
    point."""
    h, r = stacked_tensors(derivs, points)
    return np.einsum("nji,nijkl->nkl", np.linalg.inv(h), r)


def hessian_once(fun, x, h):
    """Central-difference Hessian of fun at x, one call per stencil point."""
    n = len(x)
    out = np.empty((n, n), dtype=np.asarray(x).dtype)
    f0 = fun(x)
    for i in range(n):
        e = np.zeros(n, dtype=x.dtype)
        e[i] = h
        out[i, i] = (fun(x + e) - 2 * f0 + fun(x - e)) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n, dtype=x.dtype)
            ej = np.zeros(n, dtype=x.dtype)
            ei[i] = h
            ej[j] = h
            out[i, j] = out[j, i] = (
                fun(x + ei + ej) - fun(x + ei - ej)
                - fun(x - ei + ej) + fun(x - ei - ej)) / (4 * h * h)
    return out


def hessian_richardson(fun, x, h):
    """Richardson extrapolation of hessian_once over the steps h and h/2."""
    if not np.all(x + h != x) or not np.all(x + h / 2 != x):
        raise NumericFailure("finite-difference step underflows at this point")
    coarse = hessian_once(fun, x, h)
    fine = hessian_once(fun, x, h / 2)
    return (4 * fine - coarse) / 3


def metric_fd_at(s, z1, z2):
    """Cross-check metric: complex Hessian of the potential by differences."""
    z = eguchi_hanson._base_point(z1, z2)
    x0 = eguchi_hanson._real_coords(z)
    h = 1e-3 * max(float(np.linalg.norm(x0)), s)

    def fun(x):
        return potential(s, float(np.linalg.norm(x)))

    hess = hessian_richardson(fun, x0, h)
    return eguchi_hanson._complex_hessian(hess)


def scalar_ricci_at(s, z1, z2):
    """Ricci coefficients at (z1, z2), with log det h evaluated one
    stencil point at a time."""
    z = eguchi_hanson._base_point(z1, z2)
    x0 = eguchi_hanson._real_coords(z)
    r = float(np.linalg.norm(x0))
    h_out = np.float64(0.05 * r)

    def logdet(x):
        u = np.dot(x, x)
        fp, fpp = potential_derivatives(s, u, order=2)
        zz = np.array([complex(x[0], x[1]), complex(x[2], x[3])])
        m = fp * np.eye(2, dtype=complex) + fpp * np.outer(zz.conj(), zz)
        d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        return np.log(d)

    hess = hessian_richardson(logdet, x0, h_out)
    return -eguchi_hanson._complex_hessian(hess)


def scalar_ricci_ratio(s, z1, z2):
    """|Ricci| / |h| from scalar_ricci_at."""
    ric = scalar_ricci_at(s, z1, z2)
    h = kahler_metric_at(s, z1, z2)
    return float(np.linalg.norm(ric)) / float(np.linalg.norm(h))


def ricci_from_potential(potential_fn, z1, z2, inner=None, outer=None):
    """Ricci coefficients -d^2 log det h / dz dzbar for a radial potential.

    The metric itself is obtained from `potential_fn(r)` by nested central
    differences with Richardson extrapolation, so this works for any
    potential, not only the closed-form family.
    """
    z = eguchi_hanson._base_point(z1, z2)
    x0 = eguchi_hanson._real_coords(z)
    r = float(np.linalg.norm(x0))
    h_in = float(inner if inner is not None else 0.01 * r)
    h_out = float(outer if outer is not None else 0.08 * r)

    def logdet(x):
        def fun(y):
            return potential_fn(np.sqrt(np.dot(y, y)))
        m = eguchi_hanson._complex_hessian(hessian_richardson(fun, x, h_in))
        d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        if not d > 0:
            raise NumericFailure("finite-difference metric lost positivity")
        return float(np.log(d))

    return -eguchi_hanson._complex_hessian(
        hessian_richardson(logdet, x0, h_out))


def eh_derivs(s):
    return lambda u: potential_derivatives(s, u, order=4)


def loop_metric(derivs, z1, z2):
    """f' Id + f'' zbar_i z_j at one point, from np.outer."""
    z = eguchi_hanson._base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    d = derivs(u)
    return d[0] * np.eye(2, dtype=complex) + d[1] * np.outer(z.conj(), z)


def loop_metric_first_derivatives(derivs, z1, z2):
    """d h_{i jbar} / dz_k, index order [k, i, j], one scalar at a time."""
    z = eguchi_hanson._base_point(z1, z2)
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


def loop_curvature_tensor(derivs, z1, z2):
    """R_{i jbar k lbar} at one point, one scalar entry at a time."""
    z = eguchi_hanson._base_point(z1, z2)
    u = float(abs(z[0]) ** 2 + abs(z[1]) ** 2)
    d = derivs(u)
    if len(d) < 4:
        raise InvalidScale("curvature needs four potential derivatives")
    zc = z.conj()
    hinv = np.linalg.inv(loop_metric(derivs, z1, z2))
    dh = loop_metric_first_derivatives(derivs, z1, z2)
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


def loop_curvature_norm(derivs, z1, z2):
    """Orthonormal-frame norm of loop_curvature_tensor at one point."""
    h = loop_metric(derivs, z1, z2)
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    if np.any(w <= 0):
        raise NumericFailure("metric not positive definite at sample point")
    c = v @ np.diag(w ** -0.5) @ v.conj().T
    r = loop_curvature_tensor(derivs, z1, z2)
    r = np.einsum("ia,ijkl->ajkl", c.conj(), r)
    r = np.einsum("jb,ajkl->abkl", c, r)
    r = np.einsum("kc,abkl->abcl", c.conj(), r)
    r = np.einsum("ld,abcl->abcd", c, r)
    return float(np.linalg.norm(r))


def probe_grid():
    """The curvature probe's 8 radii x 3 directions, in its order."""
    radii = np.exp(np.linspace(np.log(0.2), np.log(2.5), 8))
    dirs = np.random.default_rng(7).normal(size=(3, 4))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return [eguchi_hanson._to_complex(r * d) for r in radii for d in dirs]


PROBE_GRID = probe_grid()
# points with zero coordinates, signed zeros among them
AXIS_POINTS = [(0.5 + 0j, 0j), (0j, 1.3 + 0j), (0j, -0.7j), (-1.1 + 0j, 0j),
               (complex(0.3, -0.0), complex(-0.0, 0.2))]


def loop_probe_peaks(s_values):
    """The probe's peak norm per scale, one point at a time."""
    peaks = []
    for s in s_values:
        best = 0.0
        for z1, z2 in PROBE_GRID:
            best = max(best, loop_curvature_norm(eh_derivs(s), z1, z2))
        peaks.append(best)
    return peaks


def stacked_norms(derivs, points):
    return eguchi_hanson._curvature_norms(*stacked_points(derivs, points))


def bits(values):
    """The bytes of float64 values; every NaN counts as the same NaN,
    whatever its sign bit."""
    a = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def fs_derivs(u):
    # Fubini-Study potential log(1 + u): constant holomorphic sectional
    # curvature, used as an independent oracle for the curvature code
    t = 1.0 / (1.0 + u)
    return (t, -t * t, 2 * t ** 3, -6 * t ** 4)


class TestPotential:
    def test_scale_validation(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidScale):
                potential(bad, 1.0)

    def test_center_is_a_pole(self):
        with pytest.raises(ChartSingular):
            potential(1.0, 0.0)

    def test_asymptotic_to_squared_radius(self):
        for s in SCALES:
            assert abs(potential(s, 1e4) / 1e8 - 1) < 1e-6

    def test_monotone_in_radius(self):
        rs = np.linspace(0.2, 4.0, 40)
        vals = [potential(1.0, r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_radius_stable(self):
        v = potential(1.0, 1e120)
        assert math.isfinite(v) and abs(v / 1e240 - 1) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the printed closed form assigns a finite center value; the "
               "unit-determinant potential has a logarithmic pole there")
    def test_printed_center_value(self):
        assert potential(2.0, 0.0) == pytest.approx(4.0 * (1 - math.log(2)))

    @pytest.mark.xfail(
        strict=True,
        reason="the printed closed form has a constant middle term; unit "
               "determinant of the Hessian requires a radial logarithm")
    def test_printed_unit_scale_closed_form(self):
        r = 2.0
        q = math.sqrt(r ** 4 + 1)
        assert potential(1.0, r) == pytest.approx(q - math.log(q + 1))

    @pytest.mark.xfail(
        strict=True,
        reason="the unit-determinant potential is concave in the squared "
               "radius; convexity there holds only for the printed variant")
    def test_convex_in_squared_radius(self):
        for u in (0.3, 1.0, 3.0):
            h = 1e-3 * u
            f = lambda uu: potential(1.0, math.sqrt(uu))
            second = (f(u + h) - 2 * f(u) + f(u - h)) / (h * h)
            assert second > 0


class TestPotentialDerivatives:
    def test_finite_difference_ladder(self):
        for s in (0.7, 1.3):
            for u in (0.3, 1.0, 5.0):
                d = potential_derivatives(s, u, order=4)
                h = 1e-4 * u
                f = lambda uu: potential(s, math.sqrt(uu))
                fd1 = (f(u + h) - f(u - h)) / (2 * h)
                assert abs(fd1 - d[0]) < 1e-6 * abs(d[0])
                g = lambda uu: potential_derivatives(s, uu, 1)[0]
                fd2 = (g(u + h) - g(u - h)) / (2 * h)
                assert abs(fd2 - d[1]) < 1e-5 * abs(d[1])
                g2 = lambda uu: potential_derivatives(s, uu, 2)[1]
                fd3 = (g2(u + h) - g2(u - h)) / (2 * h)
                assert abs(fd3 - d[2]) < 1e-5 * abs(d[2])
                g3 = lambda uu: potential_derivatives(s, uu, 3)[2]
                fd4 = (g3(u + h) - g3(u - h)) / (2 * h)
                assert abs(fd4 - d[3]) < 1e-5 * abs(d[3])

    def test_validation(self):
        with pytest.raises(ChartSingular):
            potential_derivatives(1.0, 0.0)
        with pytest.raises(ValueError):
            potential_derivatives(1.0, 1.0, order=5)


class TestMetric:
    def test_unit_determinant(self):
        for s in SCALES:
            for z1, z2 in sample_points(8, s, seed=1):
                assert abs(np.linalg.det(kahler_metric_at(s, z1, z2)) - 1) \
                    < 1e-12

    def test_hermitian_and_positive(self):
        for s in SCALES:
            for z1, z2 in sample_points(6, s, seed=2):
                m = kahler_metric_at(s, z1, z2)
                assert np.linalg.norm(m - m.conj().T) < 1e-14
                assert is_positive_definite(m)

    def test_golden_value_on_axis(self):
        m = kahler_metric_at(1.0, 1.0 + 0j, 0j)
        root2 = math.sqrt(2.0)
        assert abs(m[0, 0] - 1 / root2) < 1e-12
        assert abs(m[1, 1] - root2) < 1e-12
        assert abs(m[0, 1]) < 1e-15 and abs(m[1, 0]) < 1e-15

    def test_finite_difference_cross_check(self):
        for s in SCALES:
            for z1, z2 in sample_points(4, s, seed=3):
                a = kahler_metric_at(s, z1, z2)
                b = metric_fd_at(s, z1, z2)
                assert np.linalg.norm(a - b) < 1e-6 * np.linalg.norm(a)

    def test_origin_excluded(self):
        with pytest.raises(ChartSingular):
            kahler_metric_at(1.0, 0j, 0j)

    def test_flat_limit(self):
        devs = [flat_deviation(s, 1.0 + 0j, 0j) for s in (0.4, 0.2, 0.1)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4

    def test_far_field_flat(self):
        assert flat_deviation(1.0, 1000.0 + 0j, 0j) < TOLERANCES["flat_limit"]
        assert flat_deviation(0.5, 300.0 + 400.0j, 0j) < TOLERANCES["flat_limit"]

    def test_container_rejects_indefinite(self):
        # the positivity check above is not vacuous
        assert not is_positive_definite(np.diag([1.0 + 0j, -1.0 + 0j]))


class TestRicci:
    def test_closed_form_family_is_flat(self):
        for s in SCALES:
            assert max(ricci_ratio(s, sample_points(20, s, seed=4))) \
                < TOLERANCES["ricci"]

    def test_nested_differences_from_potential(self):
        z1, z2 = 0.9 + 0.1j, 0.4 - 0.2j
        ric = ricci_from_potential(lambda r: potential(1.0, r), z1, z2)
        h = np.linalg.norm(kahler_metric_at(1.0, z1, z2))
        assert np.linalg.norm(ric) / h < TOLERANCES["ricci"]

    def test_flat_control(self):
        ric = ricci_from_potential(lambda r: r * r, 0.9 + 0.1j, 0.4 - 0.2j,
                                   inner=0.1, outer=0.2)
        assert np.linalg.norm(ric) < 1e-10

    def test_constant_middle_term_variant_is_not_flat(self):
        # replacing the radial logarithm by a constant breaks flatness;
        # this guards the check itself against being vacuous
        def variant(r, s=1.0):
            u = r * r
            q = math.hypot(u, s * s)
            return q - s * s * math.log(q + s * s)

        ric = ricci_from_potential(variant, 0.9 + 0.1j, 0.4 - 0.2j)
        assert np.linalg.norm(ric) > 1e-2

    @pytest.mark.parametrize("s", SCALES)
    def test_stacked_stencil_matches_scalar_path(self, s):
        # bit for bit: the same Ricci bytes as 66 single-point evaluations
        for seed in (0, 4, 11):
            for z1, z2 in sample_points(8, s, seed=seed, rmin=0.1, rmax=10):
                hess = eguchi_hanson._ricci_hessians(s, [(z1, z2)])[0]
                got = -eguchi_hanson._complex_hessian(hess)
                want = scalar_ricci_at(s, z1, z2)
                assert got.tobytes() == want.tobytes()

    def test_overflowing_step_gives_nan_like_scalar_path(self):
        # at s = 1e300 the radius and the step overflow to inf; the stencil
        # must still hold zeros off its axes, so both paths end in NaN
        z1, z2 = sample_points(1, 1e300, seed=0)[0]
        with np.errstate(all="ignore"):
            hess = eguchi_hanson._ricci_hessians(1e300, [(z1, z2)])[0]
            got = -eguchi_hanson._complex_hessian(hess)
            want = scalar_ricci_at(1e300, z1, z2)
        assert np.isnan(got).all() and np.isnan(want).all()


# points that ricci_ratio refuses: the origin, a radius whose step does not
# move the point, and a point whose stencil reaches rows with u = 0 in
# double precision (|z|^2 rounds up to the least subnormal, a row 5%
# closer to the origin rounds down to 0)
ORIGIN = (0j, 0j)
INFINITE = (complex("inf"), 0j)
UNDERFLOW = (1.6e-162 + 0j, 0j)


def first_error(call):
    """The type and message of the G2KitError call() raises, or None."""
    try:
        with np.errstate(all="ignore"):
            call()
    except G2KitError as e:
        return type(e), str(e)
    return None


class TestRicciStack:
    """ricci_ratio over a list of points against one point at a time."""

    @pytest.mark.parametrize("count", [1, 20, RICCI_STACK_POINTS + 1])
    def test_list_matches_scalar_path(self, count):
        for s in SCALES:
            points = sample_points(count, s, seed=count, rmin=0.1, rmax=10)
            got = ricci_ratio(s, points)
            want = [scalar_ricci_ratio(s, z1, z2) for z1, z2 in points]
            assert all(type(r) is float for r in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("at", [0, 7, RICCI_STACK_POINTS + 1])
    @pytest.mark.parametrize("bad", [
        (ORIGIN, INFINITE), (INFINITE, ORIGIN), (UNDERFLOW, INFINITE),
        (INFINITE, UNDERFLOW), (UNDERFLOW, ORIGIN)])
    def test_first_refused_point_raises_its_error(self, bad, at):
        good = sample_points(RICCI_STACK_POINTS + 4, 1.0, seed=2)
        points = good[:at] + list(bad) + good[at:]

        def per_point():
            for z1, z2 in points:
                scalar_ricci_at(1.0, z1, z2)

        want = first_error(per_point)
        assert want is not None
        assert first_error(lambda: ricci_ratio(1.0, points)) == want

    def test_underflowing_stencil_row_is_refused(self):
        with pytest.raises(ChartSingular, match="u = r"):
            ricci_ratio(1.0, [UNDERFLOW])

    def test_overflowing_scale_gives_nan_rows(self):
        points = sample_points(RICCI_STACK_POINTS + 1, 1e300, seed=0)
        with np.errstate(all="ignore"):
            got = ricci_ratio(1e300, points)
            want = [scalar_ricci_ratio(1e300, z1, z2) for z1, z2 in points]
        assert np.isnan(got).all() and np.isnan(want).all()

    def test_refuses_empty_list(self):
        with pytest.raises(InvalidOperand):
            ricci_ratio(1.0, [])

    def test_eh_suite_rows_are_maxima_of_lone_points(self):
        # 600 samples run as stacks of RICCI_STACK_POINTS and a remainder
        rows = {r.check: r.computed for r in _eh_suite(3, samples=600).rows}
        for s in SCALES:
            want = max(ricci_ratio(s, [point])[0]
                       for point in sample_points(600, s, seed=3))
            got = rows[f"ricci_max_ratio_s={s:g}"]
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCurvature:
    def test_constant_curvature_oracle_norm(self):
        norms = stacked_norms(fs_derivs, sample_points(6, 1.0, seed=5))
        assert np.all(abs(norms - math.sqrt(12.0)) < 1e-9)

    def test_constant_curvature_oracle_einstein(self):
        points = sample_points(5, 1.0, seed=6)
        h, _ = stacked_tensors(fs_derivs, points)
        ric = ricci_from_curvature(fs_derivs, points)
        assert np.all(np.linalg.norm(ric - 3 * h, axis=(1, 2)) < 1e-9)

    def test_family_curvature_is_ricci_traceless(self):
        for s in (0.5, 2.0):
            points = sample_points(5, s, seed=7)
            tr = ricci_from_curvature(eh_derivs(s), points)
            assert np.all(np.linalg.norm(tr, axis=(1, 2)) < 1e-9)

    def test_norm_decreases_outward(self):
        vals = stacked_norms(eh_derivs(1.0),
                             [(r + 0j, 0j) for r in (0.3, 1.0, 3.0)])
        assert vals[0] > vals[1] > vals[2] > 0

    def test_rescaling_relation(self):
        z1, z2 = 0.8 + 0.3j, -0.2 + 0.5j
        for s in (0.5, 2.0):
            a = stacked_norms(eh_derivs(s), [(z1, z2)])[0]
            b = stacked_norms(eh_derivs(1.0), [(z1 / s, z2 / s)])[0] / (s * s)
            assert abs(a - b) < 1e-9 * abs(b)

    def test_probe_slope(self):
        rep = curvature_injectivity_scaling_probe(SCALES)
        assert abs(rep.slope + 2) < 0.1
        assert abs(rep.max_norms[0] / rep.max_norms[1] - 4) < 0.7

    def test_probe_single_scale(self):
        rep = curvature_injectivity_scaling_probe([1.0])
        assert rep.slope is None and len(rep.max_norms) == 1

    @pytest.mark.parametrize("scales", [
        [1.0, 1.0], [0.5, 2.0, 0.5], [1.0, float("nan")],
        [1.0, float("inf")], [1.0, 0.0], [-1.0, 1.0],
    ], ids=repr)
    def test_probe_rejects_bad_scales(self, scales, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the scales were checked")

        # the probe gathers each scale's points, then runs the stacked
        # kernel; neither may run for a refused list
        monkeypatch.setattr(eguchi_hanson, "_radial_points", no_sampling)
        monkeypatch.setattr(eguchi_hanson, "_curvature_norms", no_sampling)
        with pytest.raises(InvalidOperand):
            curvature_injectivity_scaling_probe(scales)


class TestCurvatureStack:
    """The stacked curvature kernel against the per-point loops above,
    bit for bit."""

    @seed(25)
    @settings(max_examples=60, deadline=None)
    @given(log_s=st.floats(math.log(1e-3), math.log(1e3)),
           sample_seed=st.integers(0, 2 ** 16))
    def test_norms_match_loop(self, log_s, sample_seed):
        s = math.exp(log_s)
        points = sample_points(8, s, seed=sample_seed) + PROBE_GRID
        want = [loop_curvature_norm(eh_derivs(s), z1, z2)
                for z1, z2 in points]
        assert bits(stacked_norms(eh_derivs(s), points)) == bits(want)
        assert bits([stacked_norms(eh_derivs(s), [point])[0]
                     for point in points[::4]]) == bits(want[::4])

    @pytest.mark.parametrize("s", [1e-100, 1e-50, 1e-20, 10.0, 100.0, 1e3,
                                   1.5e3])
    def test_extreme_scales_match_loop(self, s):
        points = PROBE_GRID + sample_points(8, s, seed=0) + AXIS_POINTS
        with np.errstate(all="ignore"):
            want = [loop_curvature_norm(eh_derivs(s), z1, z2)
                    for z1, z2 in points]
            got = stacked_norms(eh_derivs(s), points)
            peaks = curvature_injectivity_scaling_probe([s]).max_norms
        assert bits(got) == bits(want)
        assert bits(peaks) == bits(loop_probe_peaks([s]))
        if s <= 1e-50:
            # s^4 underflows, and every norm on the grid is zero
            assert not np.any(got[:len(PROBE_GRID)])

    @pytest.mark.parametrize("s", [0.5, 2.0, 1e3])
    def test_tensor_matches_loop(self, s):
        for z1, z2 in sample_points(6, s, seed=1) + AXIS_POINTS:
            _, (got,) = stacked_tensors(eh_derivs(s), [(z1, z2)])
            want = loop_curvature_tensor(eh_derivs(s), z1, z2)
            assert got.tobytes() == want.tobytes()

    def test_fubini_study_matches_loop(self):
        for z1, z2 in sample_points(12, 1.0, seed=5) + AXIS_POINTS:
            (h,), (r,) = stacked_tensors(fs_derivs, [(z1, z2)])
            assert h.tobytes() == loop_metric(fs_derivs, z1, z2).tobytes()
            assert (r.tobytes()
                    == loop_curvature_tensor(fs_derivs, z1, z2).tobytes())
            assert (bits(stacked_norms(fs_derivs, [(z1, z2)]))
                    == bits([loop_curvature_norm(fs_derivs, z1, z2)]))

    @pytest.mark.parametrize("s", [2e3, 1e30, 2.0 ** 100])
    def test_not_positive_definite_raises_like_loop(self, s, monkeypatch):
        def loop():
            for z1, z2 in PROBE_GRID:
                loop_curvature_norm(eh_derivs(s), z1, z2)

        want = first_error(loop)
        assert want == (NumericFailure,
                        "metric not positive definite at sample point")
        for z1, z2 in PROBE_GRID:
            assert (first_error(lambda: stacked_norms(eh_derivs(s),
                                                      [(z1, z2)]))
                    == first_error(lambda: loop_curvature_norm(
                        eh_derivs(s), z1, z2)))

        def no_tensor(*args):
            raise AssertionError("formed a tensor before the check")

        monkeypatch.setattr(eguchi_hanson, "_curvature_tensors", no_tensor)
        assert first_error(
            lambda: curvature_injectivity_scaling_probe([1.0, s])) == want

    @pytest.mark.parametrize("s,index", [(1e4, 5), (1e30, 11), (1e30, 19)])
    def test_singular_metric_raises_numeric_failure(self, s, index):
        # the scale-s metric at this grid point is singular in floating
        # point, so it has no inverse to contract the tensor with
        assert first_error(lambda: stacked_tensors(
            eh_derivs(s), [PROBE_GRID[index]])) == (
            NumericFailure, "metric singular at sample point")

    def test_origin_is_refused_like_loop(self):
        want = first_error(lambda: loop_curvature_norm(eh_derivs(1.0),
                                                       *ORIGIN))
        assert want is not None and want[0] is ChartSingular
        assert first_error(
            lambda: stacked_norms(eh_derivs(1.0), [ORIGIN])) == want
        assert first_error(
            lambda: stacked_tensors(fs_derivs, [ORIGIN])) == want

    def test_probe_across_stacks_matches_loop(self):
        # more scales than one stack holds
        scales = np.geomspace(0.1, 2.0, 50).tolist()
        assert len(scales) * len(PROBE_GRID) > \
            eguchi_hanson.CURVATURE_STACK_POINTS
        rep = curvature_injectivity_scaling_probe(scales)
        assert bits(rep.max_norms) == bits(loop_probe_peaks(scales))

    def test_eh_suite_curvature_rows_match_loop(self):
        rows = {r.check: r.computed for r in _eh_suite(0).rows}
        want = np.polyfit(np.log(SCALES), np.log(loop_probe_peaks(SCALES)),
                          1)[0]
        assert bits(rows["curvature_slope"]) == bits(want)
        rows = {r.check: r.computed
                for r in _eh_suite(0, scales=(1.0,)).rows}
        assert bits(rows["curvature_peak_norms"]) == bits(
            loop_probe_peaks([1.0]))


class TestScalingProbe:
    def test_identifies_reciprocal_scale(self):
        rep = scaling_identity_probe(1.0, 2.0, sample_points(10, 1.0, seed=8))
        assert rep.verdict == "s/lambda"
        assert rep.matches_s_over_lambda < TOLERANCES["scaling"]
        assert rep.matches_lambda_s > 1e-2
        assert rep.matches_lambda_s >= 1e6 * rep.matches_s_over_lambda

    def test_identity_dilation_matches_both(self):
        rep = scaling_identity_probe(1.0, 1.0, sample_points(4, 1.0, seed=8))
        assert rep.matches_lambda_s < 1e-14
        assert rep.matches_s_over_lambda < 1e-14
        assert rep.verdict == "ambiguous"

    def test_reciprocal_probe_consistent(self):
        rep = scaling_identity_probe(2.0, 0.5, sample_points(10, 2.0, seed=9))
        assert rep.verdict == "s/lambda"

    def test_validation(self):
        with pytest.raises(InvalidScale):
            scaling_identity_probe(1.0, 0.0, [(1 + 0j, 0j)])


class TestSamplePoints:
    def test_deterministic(self):
        assert sample_points(5, 1.0, seed=3) == sample_points(5, 1.0, seed=3)

    def test_radius_bounds(self):
        for z1, z2 in sample_points(50, 2.0, seed=4, rmin=0.5, rmax=1.5):
            r = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
            assert 0.99 <= r <= 3.01
