"""Mode-system spectrum, hyperbolic splitting, and decay-rate trials."""

import copy
import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from g2kit.errors import CutoffTooLarge, IntegratorError, InvalidOperand
from g2kit import flow
from g2kit.flow import (
    INTEGRATOR_ATOL,
    INTEGRATOR_RTOL,
    MAX_TRIAL_WORK,
    NORM_BLOCK_FLOATS,
    FlowState,
    QuadraticMap,
    Trajectory,
    build_mode_system,
    decay_trials,
    integrate_flow,
    monotone_gap_check,
    random_quadratic,
)

TWO_PI = 2 * math.pi


def per_restart_values(tensor, rng, restarts=6, iters=40):
    """The power iteration's value of each restart, one at a time."""
    n = tensor.shape[0]
    values = []
    for _ in range(restarts):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = np.einsum("ijk,j,k->i", tensor, v, u)
            w /= max(np.linalg.norm(w), 1e-300)
            v = np.einsum("ijk,i,k->j", tensor, w, u)
            v /= max(np.linalg.norm(v), 1e-300)
            u = np.einsum("ijk,i,j->k", tensor, w, v)
            u /= max(np.linalg.norm(u), 1e-300)
        values.append(float(np.einsum("ijk,i,j,k", tensor, w, v, u)))
    return values


def per_restart_operator_norm(tensor, rng, restarts=6, iters=40):
    """The power-iteration calibration with one restart at a time."""
    return max(0.0, *per_restart_values(tensor, rng, restarts, iters))


def per_restart_quadratic_tensor(system, k, seed, ball_radius=1.0):
    """random_quadratic's tensor, calibrated by per_restart_operator_norm."""
    rng = np.random.default_rng(seed)
    n = system.dim
    t = rng.standard_normal((n, n, n))
    t = 0.5 * (t + t.transpose(0, 2, 1))
    return (k / (2.0 * ball_radius * per_restart_operator_norm(t, rng))) * t


def lone_dormand_prince(fun, y0, t_eval):
    """Dormand-Prince 5(4) on one trajectory with scalar step control,
    every numpy operation in the order of SciPy's RK45: the reference that
    each row of the stacked _dormand_prince must match.

    Returns (states, nfev, rejected steps).
    """
    A, B, E, P = (np.array(m) for m in (flow._DP_A, flow._DP_B, flow._DP_E,
                                        flow._DP_P))
    rtol, atol = INTEGRATOR_RTOL, INTEGRATOR_ATOL
    rms = lambda x: np.linalg.norm(x) / x.size ** 0.5
    t_bound = float(t_eval[-1])
    y = y0
    f = fun(y)
    nfev = 2
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound)
    K = np.empty((len(A) + 1, y.size))
    out = np.empty((y.size, len(t_eval)))
    t, i, rejections = 0.0, 0, 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegratorError(
                    "Required step size is less than spacing between "
                    "numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, len(A)):
                K[s] = fun(y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = fun(y_new)
            nfev += len(A)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = rms(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = flow._MAX_FACTOR
                else:
                    factor = min(flow._MAX_FACTOR, flow._SAFETY
                                 * error_norm ** flow._ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(flow._MIN_FACTOR,
                         flow._SAFETY * error_norm ** flow._ERROR_EXPONENT)
            rejected = True
            rejections += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i:
            dense = K.T.dot(P)
            x = (t_eval[i:i_new] - t_old) / (t - t_old)
            p = np.cumprod(np.tile(x, (P.shape[1], 1)), axis=0)
            out[:, i:i_new] = (t - t_old) * np.dot(dense, p) + y_old[:, None]
            i = i_new
    return out.T, nfev, rejections


def lone_run(system, Q, x0, T, samples=201):
    """One trajectory from lone_dormand_prince, with its rejected steps."""
    fun = system.matvec if Q is None else lambda x: system.matvec(x) + Q(x)
    times = np.linspace(0.0, float(T), samples)
    states, nfev, rejections = lone_dormand_prince(fun, x0.x, times)
    return flow._trajectory(system, Q, times, states, nfev), rejections


def lone_decay_trials(d, N, k_frac=0.1, trials=20, seed=0):
    """decay_trials as a loop of lone trials, each calibrated one restart
    at a time and integrated alone."""
    system = build_mode_system(d, N)
    k = k_frac * system.mu
    out = []
    for i in range(trials):
        Q = QuadraticMap(per_restart_quadratic_tensor(system, k, seed + i),
                         lipschitz_bound=k, ball_radius=1.0)
        x0 = system.random_minus_state(seed=seed + 10_000 + i, norm=0.01)
        traj, _ = lone_run(system, Q, x0, 2.0 / system.mu)
        out.append((traj, monotone_gap_check(traj)))
    return out


def assert_same_runs(got, want):
    """Trajectories equal bit for bit: states, norms, nfev and rate."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.states.shape == b.states.shape
        assert a.states.strides == b.states.strides
        for name in ("times", "states", "norms", "plus_norms", "minus_norms"):
            assert np.array_equal(getattr(a, name).view(np.int64),
                                  getattr(b, name).view(np.int64)), name
        assert a.nfev == b.nfev
        assert (a.decaying, a.escaped) == (b.decaying, b.escaped)
        assert np.float64(a.fitted_rate).view(np.int64) == \
            np.float64(b.fitted_rate).view(np.int64)


def _wedge_matrix(vector, d, p):
    """Matrix of xi -> v ^ xi from (p-1)-forms to p-forms.

    Bases are lexicographically ordered index combinations.
    """
    rows = list(itertools.combinations(range(d), p))
    cols = list(itertools.combinations(range(d), p - 1))
    row_index = {c: i for i, c in enumerate(rows)}
    W = np.zeros((len(rows), len(cols)))
    for j, idx in enumerate(cols):
        for i in range(d):
            if i in idx:
                continue
            merged = tuple(sorted(idx + (i,)))
            sign = (-1) ** merged.index(i)
            W[row_index[merged], j] += sign * vector[i]
    return W


def reference_build(d, N):
    """build_mode_system's stacks, assembled one mode at a time.

    Returns (weights, coupling, stacked, plus, minus) from one wedge
    matrix, SVD and coupling SVD per mode.
    """
    p = min(3, d)
    r = math.comb(d - 1, p - 1)
    modes = [m for m in itertools.product(range(-N, N + 1), repeat=d) if any(m)]
    blocks = len(modes)
    weights = np.empty(blocks)
    coupling = np.empty((blocks, r, r))
    stacked = np.zeros((blocks, 2 * r, 2 * r))
    plus = np.empty((blocks, 2 * r, r))
    minus = np.empty((blocks, 2 * r, r))
    for k, m in enumerate(modes):
        norm = math.sqrt(sum(c * c for c in m))
        W = _wedge_matrix(np.array(m) / norm, d, p)
        U, s, Vt = np.linalg.svd(W)
        assert int(np.sum(s > 0.5)) == r and s[r - 1] >= 1e-12
        M = U[:, :r].T @ W @ Vt[:r].T
        weight = weights[k] = 2 * math.pi * norm
        coupling[k] = M
        stacked[k, :r, r:] = weight * M
        stacked[k, r:, :r] = weight * M.T
        P, _, Qt = np.linalg.svd(M)
        plus[k, :r] = P / math.sqrt(2)
        plus[k, r:] = Qt.T / math.sqrt(2)
        minus[k, :r] = P / math.sqrt(2)
        minus[k, r:] = -Qt.T / math.sqrt(2)
    return weights, coupling, stacked, plus, minus


def ambient_operator(system):
    """Independent assembly on the uncompressed form spaces.

    Block-diagonal over modes of 2*pi*|m| * [[0, W], [W^T, 0]] with W the
    raw wedge matrix (no SVD).  Contains the kernel of the wedge maps, so
    its spectrum is the retained one plus zeros.
    """
    a = math.comb(system.d, system.p)
    bdim = a + math.comb(system.d, system.p - 1)
    out = np.zeros((bdim * len(system.modes),) * 2)
    for k, m in enumerate(system.modes):
        norm = math.sqrt(sum(c * c for c in m))
        W = _wedge_matrix(np.array(m) / norm, system.d, system.p)
        o = k * bdim
        out[o:o + a, o + a:o + bdim] = TWO_PI * norm * W
        out[o + a:o + bdim, o:o + a] = TWO_PI * norm * W.T
    return out


def random_plus_state(system, seed, norm=1.0):
    """A state in the growing subspace B+ with the requested norm, drawn as
    random_minus_state draws one in B-."""
    blocks, _, r = system._plus.shape
    c = np.random.default_rng(seed).standard_normal(blocks * r)
    x = np.einsum("kir,kr->ki", system._plus, c.reshape(blocks, r)).reshape(-1)
    return FlowState(norm * x / np.linalg.norm(x))


def minus_eigenstate(system, block_index, which=0, norm=1.0):
    """An exact eigenvector of L in B- supported on one mode block."""
    x = np.zeros((len(system.modes), system.block_size))
    x[block_index] = system._minus[block_index, :, which]
    return FlowState(norm * x.reshape(-1))


def per_block_spectrum(system):
    """The eigenvalues block by block: the singular values of each coupling
    times its weight, and their negatives, concatenated and sorted."""
    parts = []
    for weight, coupling in zip(system._weights, system._coupling):
        s = np.linalg.svd(coupling, compute_uv=False)
        parts.append(np.concatenate([weight * s, -weight * s]))
    return np.sort(np.concatenate(parts))


def lattice_counts(d, N):
    """Brute-force count of nonzero lattice vectors by squared norm."""
    c = Counter()
    for m in itertools.product(range(-N, N + 1), repeat=d):
        k = sum(x * x for x in m)
        if k:
            c[k] += 1
    return c


def eig_multiset(vals, tol=1e-8):
    out = Counter()
    for v in vals:
        if abs(v) < tol:
            continue
        k = round((v / TWO_PI) ** 2)
        assert abs(abs(v) - TWO_PI * math.sqrt(k)) < tol
        out[(1 if v > 0 else -1, k)] += 1
    return out


class TestBuildValidation:
    @pytest.mark.parametrize("d,N", [(1, 1), (7, 1), (2, 0), (2, -3)])
    def test_domain(self, d, N):
        with pytest.raises(InvalidOperand):
            build_mode_system(d, N)

    def test_budget(self):
        with pytest.raises(CutoffTooLarge):
            build_mode_system(6, 2)

    @pytest.mark.parametrize("d,N", [(2, 1), (3, 1), (4, 1), (2, 2)])
    def test_shape(self, d, N):
        sys_ = build_mode_system(d, N)
        p = min(3, d)
        r = math.comb(d - 1, p - 1)
        n_modes = (2 * N + 1) ** d - 1
        assert sys_.p == p
        assert len(sys_.modes) == n_modes
        assert sys_.dim == 2 * r * n_modes
        assert sys_.block_size == 2 * r


class TestSpectrum:
    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_blockwise_matches_lattice_counts(self, d, N):
        sys_ = build_mode_system(d, N)
        r = math.comb(d - 1, sys_.p - 1)
        expected = Counter()
        for k, c in lattice_counts(d, N).items():
            expected[(1, k)] = c * r
            expected[(-1, k)] = c * r
        assert eig_multiset(sys_.spectrum()) == expected

    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1)])
    def test_dense_oracle(self, d, N):
        sys_ = build_mode_system(d, N)
        dense = np.linalg.eigvalsh(sys_.dense_operator())
        assert np.allclose(np.sort(sys_.spectrum()), dense, atol=1e-9)

    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_ambient_assembly_oracle(self, d, N):
        # independent route: raw wedge matrices, no SVD compression
        sys_ = build_mode_system(d, N)
        amb = np.linalg.eigvalsh(ambient_operator(sys_))
        nz = amb[np.abs(amb) > 1e-8]
        assert len(nz) == sys_.dim
        assert np.allclose(np.sort(nz), np.sort(sys_.spectrum()), atol=1e-9)
        assert eig_multiset(amb) == eig_multiset(sys_.spectrum())

    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1), (4, 1), (6, 1)])
    def test_batched_svd_matches_per_block_loop(self, d, N):
        sys_ = build_mode_system(d, N)
        assert np.array_equal(sys_.spectrum(), per_block_spectrum(sys_))

    @pytest.mark.parametrize("d,N", [(3, 1), (4, 1)])
    def test_stacks_follow_the_modes(self, d, N):
        # the couplings are symmetric at (3, 1) but not at (4, 1)
        sys_ = build_mode_system(d, N)
        r = sys_.block_size // 2
        assert sys_.norm_sq == tuple(sum(c * c for c in m) for m in sys_.modes)
        for k, m in enumerate(sys_.modes):
            weight = TWO_PI * math.sqrt(sys_.norm_sq[k])
            assert sys_._weights[k] == weight
            block = sys_._stacked[k]
            assert np.array_equal(block[:r, r:], weight * sys_._coupling[k])
            assert np.array_equal(block[r:, :r], weight * sys_._coupling[k].T)
            assert not block[:r, :r].any() and not block[r:, r:].any()

    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (4, 1), (5, 1), (6, 1)])
    def test_stacked_build_matches_per_mode_loop(self, d, N):
        sys_ = build_mode_system(d, N)
        names = ("_weights", "_coupling", "_stacked", "_plus", "_minus")
        for name, want in zip(names, reference_build(d, N)):
            got = getattr(sys_, name)
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name

    def test_pairing_symmetry(self):
        spec = build_mode_system(2, 2).spectrum()
        assert np.allclose(spec + spec[::-1], 0, atol=1e-10)

    def test_gap_is_two_pi(self):
        for d, N in [(2, 1), (2, 2), (3, 1), (4, 1)]:
            assert abs(build_mode_system(d, N).mu - TWO_PI) < 1e-12

    def test_table_n2(self):
        assert build_mode_system(2, 2).spectrum_table() == \
            {1: 4, 2: 4, 4: 4, 5: 8, 8: 4}


class TestBigSystem:
    def test_metadata_without_dense(self):
        sys_ = build_mode_system(6, 1)
        assert sys_.dim == 728 * 20
        assert abs(sys_.mu - TWO_PI) < 1e-12
        assert sys_.spectrum_table() == {1: 120, 2: 600, 3: 1600,
                                         4: 2400, 5: 1920, 6: 640}
        spec = sys_.spectrum()
        assert len(spec) == sys_.dim
        assert np.allclose(spec + spec[::-1], 0, atol=1e-8)
        assert abs(spec[spec > 0].min() - TWO_PI) < 1e-9
        with pytest.raises(CutoffTooLarge):
            sys_.dense_operator()


class TestSplitting:
    def setup_method(self):
        self.sys = build_mode_system(2, 1)

    def test_complementary_projections(self):
        x = np.random.default_rng(0).standard_normal(self.sys.dim)
        p = self.sys.project_plus(x)
        m = self.sys.project_minus(x)
        assert np.allclose(p + m, x, atol=1e-12)
        assert np.allclose(self.sys.project_plus(p), p, atol=1e-12)
        assert np.allclose(self.sys.project_minus(p), 0, atol=1e-12)

    def test_invariant_under_operator(self):
        x = np.random.default_rng(1).standard_normal(self.sys.dim)
        lhs = self.sys.project_plus(self.sys.matvec(x))
        rhs = self.sys.matvec(self.sys.project_plus(x))
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_equal_dimensions(self):
        eye = np.eye(self.sys.dim)
        for project in (self.sys.project_plus, self.sys.project_minus):
            image = np.column_stack([project(e) for e in eye])
            assert np.linalg.matrix_rank(image) == self.sys.dim // 2

    def test_state_split(self):
        x = np.random.default_rng(2).standard_normal(self.sys.dim)
        plus, minus = self.sys.project_plus(x), self.sys.project_minus(x)
        assert np.allclose(plus + minus, x)
        assert np.allclose(self.sys.project_minus(plus), 0, atol=1e-12)

    def test_random_minus_state(self):
        st = self.sys.random_minus_state(seed=5, norm=0.25)
        assert abs(np.linalg.norm(st.x) - 0.25) < 1e-12
        assert np.linalg.norm(self.sys.project_plus(st.x)) < 1e-12

    def test_state_validation(self):
        with pytest.raises(InvalidOperand):
            FlowState(np.array([1.0, np.nan]))


class TestBlockwiseStorage:
    """The per-block bases against dense references built in the test."""

    @pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_projections_match_spectral_projector(self, d, N):
        sys_ = build_mode_system(d, N)
        w, V = np.linalg.eigh(sys_.dense_operator())
        pos = V[:, w > 0]
        plus = pos @ pos.T
        eye = np.eye(sys_.dim)
        got_plus = np.column_stack([sys_.project_plus(e) for e in eye])
        got_minus = np.column_stack([sys_.project_minus(e) for e in eye])
        assert np.max(np.abs(got_plus - plus)) < 1e-10
        assert np.max(np.abs(got_minus - (eye - plus))) < 1e-10

    def test_batched_projection_matches_rows(self):
        sys_ = build_mode_system(3, 1)
        xs = np.random.default_rng(7).standard_normal((5, sys_.dim))
        batch = sys_.project_minus(xs)
        for x, row in zip(xs, batch):
            assert np.array_equal(sys_.project_minus(x), row)

    @staticmethod
    def _dense_basis(basis):
        """dim x dim/2 columns, each block's basis of the stack placed at
        its offset."""
        blocks, size, r = basis.shape
        out = np.zeros((blocks * size, blocks * r))
        for k in range(blocks):
            out[k * size:(k + 1) * size, k * r:(k + 1) * r] = basis[k]
        return out

    @pytest.mark.parametrize("d,N", [(2, 1), (3, 1)])
    @pytest.mark.parametrize("which", ["minus", "plus"])
    def test_random_states_match_dense_bytes(self, d, N, which):
        sys_ = build_mode_system(d, N)
        dense = self._dense_basis(getattr(sys_, f"_{which}"))
        draw = (sys_.random_minus_state if which == "minus" else
                lambda seed, norm: random_plus_state(sys_, seed, norm))
        for seed in (0, 1, 10_000, 10_019):
            c = np.random.default_rng(seed).standard_normal(dense.shape[1])
            x = dense @ c
            expected = 0.01 * x / np.linalg.norm(x)
            assert np.array_equal(draw(seed=seed, norm=0.01).x, expected)

    def test_large_build_memory(self):
        tracemalloc.start()
        try:
            build_mode_system(6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestLinearFlow:
    def setup_method(self):
        self.sys = build_mode_system(2, 1)
        self.T = 5.0 / self.sys.mu

    def test_reproduces_exponential(self):
        x0 = minus_eigenstate(self.sys, 0)   # mode (-1,-1)
        lam = -TWO_PI * math.sqrt(2)
        traj = integrate_flow(self.sys, None, x0, self.T)
        for i in (50, 120, 200):
            exact = math.exp(lam * traj.times[i]) * x0.x
            err = np.linalg.norm(traj.states[i] - exact)
            assert err < 1e-6 * np.linalg.norm(exact)

    def test_eigenmode_rate(self):
        idx = self.sys.norm_sq.index(1)
        traj = integrate_flow(self.sys, None,
                              minus_eigenstate(self.sys, idx), self.T)
        assert traj.decaying
        assert abs(traj.fitted_rate - self.sys.mu) < 1e-6

    def test_two_samples_fit_the_two_point_slope(self):
        # a fit over the last half of two samples sees one point, warns
        # and gives 3.35, below mu = 6.28
        x0 = self.sys.random_minus_state(seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_flow(self.sys, None, x0, 2.0 / self.sys.mu,
                                  samples=2)
        (t0, t1), (n0, n1) = traj.times, traj.norms
        assert traj.decaying
        slope = (math.log(n1) - math.log(n0)) / (t1 - t0)
        assert traj.fitted_rate == pytest.approx(-slope, rel=1e-12)
        assert traj.fitted_rate > self.sys.mu

    def test_growth_flagged(self):
        x0 = random_plus_state(self.sys, seed=1, norm=0.01)
        traj = integrate_flow(self.sys, None, x0, self.T)
        assert not traj.decaying
        assert traj.fitted_rate is None


class TestInPlaceIntegrator:
    """The preallocated states buffer and the row-blocked norms."""

    @staticmethod
    def _whole_array_norms(system, traj):
        return (np.linalg.norm(traj.states, axis=1),
                np.linalg.norm(system.project_plus(traj.states), axis=1),
                np.linalg.norm(system.project_minus(traj.states), axis=1))

    def _assert_norms_match(self, system, samples):
        x0 = system.random_minus_state(seed=3)
        traj = integrate_flow(system, None, x0, 2.0 / system.mu,
                              samples=samples)
        got = (traj.norms, traj.plus_norms, traj.minus_norms)
        for a, b in zip(got, self._whole_array_norms(system, traj)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("samples", [2, 3, 201])
    def test_block_norms_match_whole_array(self, samples):
        for d in (2, 5):
            self._assert_norms_match(build_mode_system(d, 1), samples)

    def test_block_norms_with_one_row_tail(self):
        # (5, 1) has dim 2904, so a block holds 22 rows; 45 samples are two
        # full blocks and one row, which joins the second block
        system = build_mode_system(5, 1)
        step = NORM_BLOCK_FLOATS // system.dim
        samples = 2 * step + 1
        blocks = flow._row_blocks(samples, system.dim)
        assert len(blocks) == 2 and blocks[-1] == slice(step, samples)
        self._assert_norms_match(system, samples)

    def test_blocks_cover_rows_and_never_hold_one(self):
        for cols in (16, 2904, 14560, 40000, NORM_BLOCK_FLOATS):
            for rows in range(2, 60):
                blocks = flow._row_blocks(rows, cols)
                assert blocks[0].start == 0 and blocks[-1].stop == rows
                for a, b in zip(blocks, blocks[1:]):
                    assert a.stop == b.start
                assert all(b.stop - b.start >= 2 for b in blocks)
        # within the budget a states array is one block
        assert len(flow._row_blocks(201, 52)) == 1

    def test_states_layout(self):
        system = build_mode_system(3, 1)
        traj = integrate_flow(system, None, system.random_minus_state(0), 0.1)
        assert traj.states.shape == (201, system.dim)
        assert traj.states.flags.f_contiguous

    def test_peak_memory_near_states(self):
        system = build_mode_system(5, 1)
        x0 = system.random_minus_state(seed=0)
        tracemalloc.start()
        try:
            traj = integrate_flow(system, None, x0, 2.0 / system.mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * traj.states.nbytes


class TestQuadraticMap:
    def setup_method(self):
        self.sys = build_mode_system(2, 1)

    def test_sampled_lipschitz_within_bound(self):
        Q = random_quadratic(self.sys, k=self.sys.mu / 10,
                             ball_radius=1.0, seed=3)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(500):
            a = rng.standard_normal(self.sys.dim)
            a *= rng.uniform(0, 1) / np.linalg.norm(a)
            b = rng.standard_normal(self.sys.dim)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            d = np.linalg.norm(a - b)
            if d > 1e-12:
                worst = max(worst, np.linalg.norm(Q(a) - Q(b)) / d)
        assert worst <= Q.lipschitz_bound * (1 + 1e-9)
        assert worst > 0.2 * Q.lipschitz_bound   # rescaling is not vacuous

    def test_jacobian_consistency(self):
        Q = random_quadratic(self.sys, k=1.0, ball_radius=1.0, seed=4)
        rng = np.random.default_rng(6)
        x = 0.1 * rng.standard_normal(self.sys.dim)
        J = 2.0 * np.einsum("ijk,k->ij", Q.tensor, x)  # T symmetric in (j, k)
        h = 1e-6
        for j in (0, 3, 7):
            e = np.zeros(self.sys.dim)
            e[j] = h
            fd = (Q(x + e) - Q(x - e)) / (2 * h)
            assert np.allclose(fd, J[:, j], atol=1e-7)

    @pytest.mark.parametrize("d,N", [(4, 1), (5, 1), (6, 1), (2, 6)])
    def test_size_budget(self, d, N):
        with pytest.raises(CutoffTooLarge):
            random_quadratic(build_mode_system(d, N), k=1.0)

    def test_seed_list_counts_against_the_budget(self):
        # one dim-240 tensor fits the coefficient budget, two do not
        system = build_mode_system(2, 5)
        assert system.dim ** 3 <= flow.MAX_QUADRATIC_COEFFICIENTS \
            < 2 * system.dim ** 3
        with pytest.raises(CutoffTooLarge, match="2 quadratic tensors"):
            random_quadratic(system, k=1.0, seed=[0, 1])

    def test_empty_seed_list(self):
        with pytest.raises(InvalidOperand, match="seeds"):
            random_quadratic(self.sys, k=1.0, seed=[])

    def test_validation(self):
        with pytest.raises(InvalidOperand):
            random_quadratic(self.sys, k=0.0, ball_radius=1.0, seed=0)
        Q = random_quadratic(self.sys, k=self.sys.mu, ball_radius=1.0, seed=0)
        with pytest.raises(InvalidOperand):
            integrate_flow(self.sys, Q, self.sys.random_minus_state(0, 0.01),
                           T=1.0)

    @pytest.mark.parametrize("T,samples", [
        (0.0, 201), (-1.0, 201), (math.inf, 201), (math.nan, 201),
        (1.0, 1), (1.0, 0), (1.0, 2.5), (1.0, 201.0), (1.0, "201")])
    def test_horizon_and_samples_validated(self, T, samples):
        with pytest.raises(InvalidOperand):
            integrate_flow(self.sys, None, minus_eigenstate(self.sys, 0), T,
                           samples=samples)

    def test_integer_samples_of_any_type(self):
        x0 = minus_eigenstate(self.sys, 0)
        a = integrate_flow(self.sys, None, x0, 1.0, samples=np.int64(11))
        b = integrate_flow(self.sys, None, x0, 1.0, samples=11)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("length", [5, 8, 32, 0])
    def test_start_state_length_validated(self, length):
        x0 = FlowState(np.ones(length))
        with pytest.raises(InvalidOperand, match="dim 16"):
            integrate_flow(self.sys, None, x0, 1.0)
        Q = random_quadratic(self.sys, 0.1 * self.sys.mu, seed=0)
        with pytest.raises(InvalidOperand):
            integrate_flow(self.sys, Q, np.ones(length), 1.0)


class TestCalibrationOracle:
    """The batched power iteration against one restart at a time."""

    @pytest.mark.parametrize("d,N,seeds", [
        (2, 1, range(12)), (2, 2, (0, 7)), (3, 1, (0, 3)), (2, 3, (0,))])
    def test_tensor_bits(self, d, N, seeds):
        system = build_mode_system(d, N)
        for seed in seeds:
            k = 0.1 * system.mu
            got = random_quadratic(system, k, seed=seed).tensor
            want = per_restart_quadratic_tensor(system, k, seed)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d,N,seeds", [
        (2, 1, list(range(12))), (2, 2, [0, 7]), (3, 1, [3, 0])])
    def test_stacked_draw_bits(self, d, N, seeds):
        system = build_mode_system(d, N)
        k = 0.1 * system.mu
        maps = random_quadratic(system, k, ball_radius=0.5, seed=seeds)
        assert len(maps) == len(seeds)
        for seed, Q in zip(seeds, maps):
            want = per_restart_quadratic_tensor(system, k, seed, 0.5)
            assert np.array_equal(Q.tensor.view(np.int64),
                                  want.view(np.int64))
            assert (Q.lipschitz_bound, Q.ball_radius) == (k, 0.5)

    @pytest.mark.parametrize("restarts,iters", [(1, 1), (3, 5), (6, 40)])
    def test_norm_bits(self, restarts, iters):
        # a stack of three tensors that are not symmetric in (j, k)
        gen = np.random.default_rng(5)
        stack = gen.standard_normal((3, 16, 16, 16))
        got = flow._tensor_operator_norms(
            stack, [np.random.default_rng(s) for s in range(3)], restarts,
            iters)
        for s, t in enumerate(stack):
            want = per_restart_operator_norm(t, np.random.default_rng(s),
                                             restarts, iters)
            assert np.float64(got[s]).view(np.int64) == \
                np.float64(want).view(np.int64)

    @pytest.mark.parametrize("n", [52, 90, 91])
    @pytest.mark.parametrize("restarts", [1, 6])
    def test_norm_bits_at_larger_dims(self, n, restarts):
        # a stack of two non-symmetric tensors: einsum's loops differ from
        # dim 16, and above dim 90 an (i, j) slice no longer fits one
        # 8192-float buffer
        stack = np.random.default_rng(n).standard_normal((2, n, n, n))
        got = flow._tensor_operator_norms(
            stack, [np.random.default_rng(s) for s in (4, 9)], restarts, 3)
        for s, t, norm in zip((4, 9), stack, got):
            want = per_restart_operator_norm(t, np.random.default_rng(s),
                                             restarts, 3)
            assert np.float64(norm).view(np.int64) == \
                np.float64(want).view(np.int64)

    def test_zero_tensor(self):
        t = np.zeros((1, 4, 4, 4))
        assert flow._tensor_operator_norms(
            t, [np.random.default_rng(0)]) == [0.0]


def quadratic_draws(n, seeds):
    """random_quadratic's uncalibrated stack for seeds, with each seed's
    rng after its tensor draw."""
    rngs = [np.random.default_rng(s) for s in seeds]
    stack = np.stack([rng.standard_normal((n, n, n)) for rng in rngs])
    return 0.5 * (stack + stack.transpose(0, 1, 3, 2)), rngs


def screened(stack, rngs):
    """_screen_restarts' values for the restarts that rngs start."""
    n = stack.shape[1]
    starts = np.stack([rng.standard_normal((6, 3, n))
                       for rng in copy.deepcopy(rngs)])
    return flow._screen_restarts(stack, flow._unit_rows(starts[:, :, 0]),
                                 flow._unit_rows(starts[:, :, 2]), 40)


def margin_counts(stack, rngs, margin):
    """Each tensor's number of restarts screened within margin of its top."""
    ranked = screened(stack, rngs)
    top = ranked.max(axis=1, keepdims=True)
    return [int(c) for c in (ranked >= top - margin * np.abs(top)).sum(1)]


def spy_einsum(monkeypatch):
    """Record (subscripts, operands) of every np.einsum call."""
    calls, einsum = [], np.einsum

    def spy(spec, *operands):
        calls.append((spec, operands))
        return einsum(spec, *operands)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


def assert_same_norms(got, want):
    assert np.array_equal(np.array(got).view(np.int64),
                          np.array(want).view(np.int64))


class TestRestartScreen:
    """The matmul screen ranks the restarts; only the top ones run in
    einsum, and the norms keep the all-restart einsum's bits."""

    @pytest.mark.parametrize("n,seeds", [
        pytest.param(16, range(200), id="dim16"),
        pytest.param(16, range(3, 23), id="dim16-seed3"),
        pytest.param(48, range(2000, 2006), id="dim48"),
        pytest.param(52, range(1000, 1006), id="dim52")])
    def test_screen_premise(self, n, seeds):
        # every restart's screened value lies within 1e-9 of its top of its
        # einsum value, so the best einsum restart ranks within 2e-9 of the
        # top, inside SCREEN_MARGIN; and the norms match the all-restart
        # einsum oracle bit for bit.  dim16-seed3 is the stack flow-suite
        # calibrates at seed 3.
        assert flow.SCREEN_MARGIN >= 2e-9
        seeds = list(seeds)
        for first in range(0, len(seeds), 20):
            batch = seeds[first:first + 20]
            stack, rngs = quadratic_draws(n, batch)
            exact = [per_restart_values(t, rng)
                     for t, rng in zip(stack, copy.deepcopy(rngs))]
            for row, values in zip(screened(stack, rngs), exact):
                top = max(values)
                assert np.all(np.abs(row - values) <= 1e-9 * abs(top))
            assert_same_norms(flow._tensor_operator_norms(stack, rngs),
                              [max(0.0, *values) for values in exact])

    def test_exact_rows_counted(self, monkeypatch):
        # the (tensors, restarts) shape of each einsum w-update, and the
        # tensors it reads
        stack, rngs = quadratic_draws(16, range(20))
        counts = margin_counts(stack, rngs, flow.SCREEN_MARGIN)
        assert sorted(Counter(counts).items()) == [(1, 9), (2, 7), (3, 3),
                                                   (4, 1)]
        calls = spy_einsum(monkeypatch)
        system = build_mode_system(3, 1)
        for seed in (0, 1, 2):
            random_quadratic(system, 0.1 * system.mu, seed=seed)
        assert [ops[1].shape for spec, ops in calls
                if spec == "bijk,brj,brk->bri"] == [(1, 1, 52)] * 3 * 40
        calls.clear()
        flow._tensor_operator_norms(stack, rngs)
        runs, shapes = Counter(), {}
        for spec, (group, v, *_) in calls:
            if spec == "bijk,brj,brk->bri":
                members = tuple(i for i, t in enumerate(stack)
                                if any(np.array_equal(t, g) for g in group))
                runs[members] += 1
                shapes[members] = v.shape[:2]
        # one group per count, each run through the 40 updates, and each
        # group's restarts the count of every tensor in it
        assert sorted(runs) == sorted(
            tuple(i for i, c in enumerate(counts) if c == count)
            for count in set(counts))
        assert set(runs.values()) == {40}
        for members, (b, r) in shapes.items():
            assert b == len(members) and {counts[i] for i in members} == {r}
        # 36 rows per update, where the stack's largest count ran 4 x 20
        assert sum(b * r for b, r in shapes.values()) == sum(counts) == 36
        calls.clear()
        assert flow._tensor_operator_norms(
            np.zeros((1, 4, 4, 4)), [np.random.default_rng(0)]) == [0.0]
        assert [ops[1].shape[1] for spec, ops in calls
                if spec == "bijk,brj,brk->bri"] == [6] * 40

    def test_mixed_counts_match_the_oracle(self):
        # a zero tensor (all 6 restarts tie) amid draws that keep 1 to 4
        draws, rngs = quadratic_draws(16, range(20))
        stack = np.insert(draws, 7, 0.0, axis=0)
        rngs.insert(7, np.random.default_rng(99))
        counts = margin_counts(stack, rngs, flow.SCREEN_MARGIN)
        assert set(counts) == {1, 2, 3, 4, 6} and counts[7] == 6
        want = [per_restart_operator_norm(t, rng)
                for t, rng in zip(stack, copy.deepcopy(rngs))]
        assert_same_norms(flow._tensor_operator_norms(stack, rngs), want)

    @pytest.mark.parametrize("case", ["lone", "equal-counts"])
    def test_one_group_reads_the_stack(self, monkeypatch, case):
        # where every tensor keeps the same count, every einsum reads the
        # stack passed in, with no gathered copy
        if case == "lone":
            stack, rngs = quadratic_draws(52, [1000])
        else:
            draws, rngs = quadratic_draws(16, range(20))
            counts = margin_counts(draws, rngs, flow.SCREEN_MARGIN)
            ones = [i for i, c in enumerate(counts) if c == 1]
            stack, rngs = draws[ones], [rngs[i] for i in ones]
            assert len(ones) == 9 and stack.flags.c_contiguous
        want = [per_restart_operator_norm(t, rng)
                for t, rng in zip(stack, copy.deepcopy(rngs))]
        calls = spy_einsum(monkeypatch)
        got = flow._tensor_operator_norms(stack, rngs)
        assert len(calls) == 3 * 40 + 1
        assert all(ops[0] is stack for _, ops in calls)
        assert_same_norms(got, want)

    def test_count_of_one_is_caught(self, monkeypatch):
        # negative control: with no margin every tensor runs only its
        # top-screened restart, and the stack of seeds 40-59, where seed
        # 58 keeps two restarts within the margin, no longer matches the
        # oracle
        stack, rngs = quadratic_draws(16, range(40, 60))
        assert margin_counts(stack, rngs, flow.SCREEN_MARGIN)[18] == 2
        assert margin_counts(stack, rngs, 0.0) == [1] * 20
        want = [per_restart_operator_norm(t, rng)
                for t, rng in zip(stack, copy.deepcopy(rngs))]
        assert_same_norms(flow._tensor_operator_norms(
            stack, copy.deepcopy(rngs)), want)
        monkeypatch.setattr(flow, "SCREEN_MARGIN", 0.0)
        assert flow._tensor_operator_norms(stack, rngs) != want

    def test_reversed_ranking_is_caught(self, monkeypatch):
        # negative control: run the worst-ranked restarts instead, and the
        # comparison with the oracle fails
        screen = flow._screen_restarts
        monkeypatch.setattr(flow, "_screen_restarts",
                            lambda *args: -screen(*args))
        stack, rngs = quadratic_draws(16, range(20))
        want = [per_restart_operator_norm(t, rng)
                for t, rng in zip(stack, copy.deepcopy(rngs))]
        assert flow._tensor_operator_norms(stack, rngs) != want


class TestDecayTrials:
    def test_rate_bound_and_gap(self):
        system, runs = decay_trials(d=2, N=1, k_frac=0.1, trials=20, seed=0)
        k = 0.1 * system.mu
        bound = system.mu - 2 * k - 0.05 * system.mu
        assert len(runs) == 20
        assert all(t.decaying and not t.escaped for t, _ in runs)
        for traj, chk in runs:
            assert traj.fitted_rate >= bound
            assert chk.monotone
            assert chk.dominance
            assert chk.ok

    def test_deterministic(self):
        _, a = decay_trials(d=2, N=1, trials=3, seed=0)
        _, b = decay_trials(d=2, N=1, trials=3, seed=0)
        for (t1, _), (t2, _) in zip(a, b):
            assert np.array_equal(t1.states, t2.states)
            assert t1.nfev == t2.nfev > 0

    @pytest.mark.parametrize("trials", [0, -2, 1.5, 2.0, "3", None])
    def test_needs_a_trial(self, trials):
        with pytest.raises(InvalidOperand):
            decay_trials(d=2, N=1, trials=trials)

    @pytest.mark.parametrize("d,N,trials", [
        (3, 2, 20), (3, 2, 1), (2, 5, 1), (2, 4, 3), (2, 3, 10),
        (6, 1, 1)])
    def test_work_budget_checked_before_building(self, d, N, trials,
                                                 monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built or drawn before the budget check")

        monkeypatch.setattr(flow, "build_mode_system", unreachable)
        monkeypatch.setattr(flow, "random_quadratic", unreachable)
        with pytest.raises(CutoffTooLarge, match="budget"):
            decay_trials(d=d, N=N, trials=trials)

    @pytest.mark.parametrize("kwargs", [
        {"k_frac": 0.5}, {"k_frac": 0.9}, {"k_frac": 0.0}, {"k_frac": -0.1},
        {"k_frac": math.nan}, {"k_frac": math.inf}, {"k_frac": "0.1"}],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_arguments_refused_before_building(self, kwargs,
                                                   monkeypatch):
        def unreachable(*args, **kw):
            raise AssertionError("built or drawn before the argument check")

        monkeypatch.setattr(flow, "build_mode_system", unreachable)
        monkeypatch.setattr(flow, "random_quadratic", unreachable)
        with pytest.raises(InvalidOperand, match=next(iter(kwargs))):
            decay_trials(d=2, N=4, trials=1, **kwargs)

    def test_largest_k_frac_below_half_stays_below_mu_half(self):
        # mu is 2*pi at every size, so k_frac < 1/2 keeps k < mu/2 exactly
        mu = build_mode_system(2, 1).mu
        assert np.nextafter(0.5, 0.0) * mu < mu / 2

    @pytest.mark.parametrize("d,N,trials", [
        (2, 1, 20), (3, 1, 10), (2, 2, 20), (3, 1, 20), (2, 3, 9),
        (2, 4, 2)])
    def test_work_budget_admits(self, d, N, trials):
        # flow-suite (2, 1) x 20, the benchmark's decay trials (2, 1) x 20
        # and (3, 1) x 10, every builtin size at the CLI's 20 trials, and
        # the most trials the README admits at dims 96 and 160
        dim = build_mode_system(d, N).dim
        assert dim ** 3 * trials <= MAX_TRIAL_WORK


class TestStackedTrials:
    """decay_trials' stacks and integrate_flow's lockstep rows against
    lone runs: lone_dormand_prince per trial, calibrated one restart at a
    time."""

    @staticmethod
    def _assert_matches_lone(d, N, trials, seed):
        _, runs = decay_trials(d=d, N=N, trials=trials, seed=seed)
        want = lone_decay_trials(d, N, trials=trials, seed=seed)
        assert_same_runs([t for t, _ in runs], [t for t, _ in want])
        for (_, a), (_, b) in zip(runs, want):
            assert (a.monotone, a.dominance) == (b.monotone, b.dominance)

    @pytest.mark.parametrize("d,N,trials,seed", [
        (2, 1, 20, 0), (2, 1, 20, 3), (2, 2, 3, 1), (3, 1, 2, 0)])
    def test_decay_trials_match_lone_trials(self, d, N, trials, seed):
        self._assert_matches_lone(d, N, trials, seed)

    def test_trials_split_into_two_stacks(self, monkeypatch):
        # room for three dim-16 tensors per stack: 5 trials are 3 + 2
        monkeypatch.setattr(flow, "STACK_TENSOR_FLOATS", 3 * 16 ** 3)
        sizes = []
        integrate = flow.integrate_flow

        def counted(system, Q, x0, T, samples=201):
            sizes.append(len(x0))
            return integrate(system, Q, x0, T, samples)

        monkeypatch.setattr(flow, "integrate_flow", counted)
        self._assert_matches_lone(2, 1, 5, 7)
        assert sizes == [3, 2]

    def test_default_trials_form_one_stack(self, monkeypatch):
        sizes = []
        integrate = flow.integrate_flow

        def counted(system, Q, x0, T, samples=201):
            sizes.append(len(x0))
            return integrate(system, Q, x0, T, samples)

        monkeypatch.setattr(flow, "integrate_flow", counted)
        decay_trials(2, 1, trials=20)
        assert sizes == [20]
        sizes.clear()
        decay_trials(3, 1, trials=2)
        assert sizes == [1, 1]

    def test_peak_memory_of_one_stack(self):
        # the 20 dim-16 tensors of one stack take 640 KiB; the peak holds
        # the maps, their stacked copy in integrate_flow and the states
        # buffer, about 3.1 times that
        stack_bytes = 20 * 16 ** 3 * 8
        decay_trials(2, 1, trials=20)   # first-call caches stay out
        tracemalloc.start()
        try:
            decay_trials(2, 1, trials=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * stack_bytes

    def test_one_map_list_is_not_copied(self):
        # decay_trials passes each trial of dim 48 or more as a list of one
        # map; the integration reads its 7 MiB dim-96 tensor in place
        system = build_mode_system(2, 3)
        n = system.dim
        Q = QuadraticMap(np.zeros((n, n, n)), lipschitz_bound=0.1 * system.mu,
                         ball_radius=1.0)
        x0 = system.random_minus_state(seed=0, norm=0.01)
        integrate_flow(system, [Q], [x0], T=0.05)   # first-call caches
        tracemalloc.start()
        try:
            integrate_flow(system, [Q], [x0], T=2.0 / system.mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @staticmethod
    def _mixed_stack(system):
        """A large growing start under a strong map, which rejects steps,
        beside rows that take other step counts."""
        maps = [random_quadratic(system, f * system.mu, seed=s)
                for f, s in ((0.4, 1), (0.1, 0), (0.2, 5))]
        starts = [random_plus_state(system, seed=2, norm=1.0),
                  system.random_minus_state(seed=3, norm=0.01),
                  random_plus_state(system, seed=4, norm=0.3)]
        return maps, starts

    def test_rows_take_their_own_steps(self):
        system = build_mode_system(2, 1)
        maps, starts = self._mixed_stack(system)
        got = integrate_flow(system, maps, starts, 0.3, samples=17)
        lone = [lone_run(system, Q, x0, 0.3, samples=17)
                for Q, x0 in zip(maps, starts)]
        assert_same_runs(got, [t for t, _ in lone])
        assert len({t.nfev for t in got}) == 3
        assert lone[0][1] > 0

    class _DenseSpy:
        """numpy for flow, logging each step (one searchsorted) and the
        (rows, columns) of each dense-output product within it."""

        def __init__(self):
            self.steps = []

        def __getattr__(self, name):
            return getattr(np, name)

        def searchsorted(self, *args, **kwargs):
            self.steps.append([])
            return np.searchsorted(*args, **kwargs)

        def matmul(self, a, b, *args, **kwargs):
            if np.ndim(a) == np.ndim(b) == 3 and a.shape[2] == 4 == b.shape[1]:
                self.steps[-1].append((b.shape[0], b.shape[2]))
            return np.matmul(a, b, *args, **kwargs)

    def _dense_steps(self, monkeypatch, samples, T=0.3):
        """The mixed stack's run against its lone runs, bit for bit, and
        the spy's log of its dense-output products."""
        system = build_mode_system(2, 1)
        maps, starts = self._mixed_stack(system)
        spy = self._DenseSpy()
        with monkeypatch.context() as m:
            m.setattr(flow, "np", spy)
            got = integrate_flow(system, maps, starts, T, samples=samples)
        assert_same_runs(got, [lone_run(system, Q, x0, T, samples)[0]
                               for Q, x0 in zip(maps, starts)])
        return spy.steps

    def test_two_samples(self, monkeypatch):
        # a row writes a column only on its first and its last accepted
        # step, and the rows take those in different steps
        steps = self._dense_steps(monkeypatch, 2)
        writing = sum(1 for s in steps if s)
        assert writing <= 2 * 3 and 2 * writing < len(steps)

    def test_many_columns_per_step(self, monkeypatch):
        steps = self._dense_steps(monkeypatch, 2001)
        assert max(width for s in steps for _, width in s) > 20

    def test_one_column_beside_several_in_one_step(self, monkeypatch):
        # a one-column row goes apart from the padded wider rows; padding
        # it would take matmul's matrix-matrix path and change its bits
        steps = self._dense_steps(monkeypatch, 51)
        assert any(len(s) == 2 and s[0][1] == 1 and s[1][1] > 1
                   for s in steps)

    def test_linear_stack(self):
        system = build_mode_system(3, 1)
        starts = [system.random_minus_state(seed=s) for s in range(3)]
        got = integrate_flow(system, None, starts, 2.0 / system.mu)
        assert_same_runs(got, [lone_run(system, None, x0, 2.0 / system.mu)[0]
                               for x0 in starts])

    def test_a_failing_row_fails_the_stack(self):
        system = build_mode_system(2, 1)
        n = system.dim
        t = np.zeros((n, n, n))
        for i in range(n):
            t[i, i, i] = 50.0
        blowup = QuadraticMap(tensor=t, lipschitz_bound=system.mu / 100,
                              ball_radius=10.0)
        calm = random_quadratic(system, 0.1 * system.mu, seed=0)
        with np.errstate(all="ignore"), pytest.raises(IntegratorError):
            integrate_flow(system, [calm, blowup],
                           [system.random_minus_state(0, 0.01),
                            FlowState(np.ones(n))], T=5.0)

    def test_one_map_per_start(self):
        system = build_mode_system(2, 1)
        Q = random_quadratic(system, 0.1 * system.mu, seed=0)
        with pytest.raises(InvalidOperand, match="2 start states"):
            integrate_flow(system, [Q], [system.random_minus_state(s)
                                         for s in (0, 1)], T=1.0)
        with pytest.raises(InvalidOperand, match="0 start states"):
            integrate_flow(system, [], [], T=1.0)
        with pytest.raises(InvalidOperand, match="1 start states"):
            integrate_flow(system, [Q], system.random_minus_state(0), T=1.0)
        with pytest.raises(InvalidOperand, match="2 start states"):
            integrate_flow(system, Q, [system.random_minus_state(s)
                                       for s in (0, 1)], T=1.0)

    def test_list_of_numbers_is_one_start_state(self):
        system = build_mode_system(2, 1)
        Q = random_quadratic(system, 0.1 * system.mu, seed=0)
        x0 = system.random_minus_state(seed=1, norm=0.01).x
        got = integrate_flow(system, Q, x0.tolist(), T=0.2, samples=11)
        assert isinstance(got, Trajectory)
        assert_same_runs([got], [integrate_flow(system, Q, x0, T=0.2,
                                                samples=11)])

    @pytest.mark.parametrize("N", [3, 4])
    def test_stack_of_one_matches_lone_run_at_large_dims(self, N):
        # dims 96 and 160: above dim 90 einsum's reductions run over more
        # than one 8192-float buffer, and the stacked quadratic einsum and
        # matvec must still give each row the bits of Q(x) and of the
        # blockwise matvec
        system = build_mode_system(2, N)
        n = system.dim
        t = np.random.default_rng(N).standard_normal((n, n, n)) / n
        Q = QuadraticMap(0.5 * (t + t.transpose(0, 2, 1)),
                         lipschitz_bound=0.1 * system.mu, ball_radius=1.0)
        x = system.random_minus_state(seed=N, norm=0.01).x
        assert np.array_equal(
            np.einsum("bijk,bj,bk->bi", Q.tensor[None], x[None], x[None])[0]
            .view(np.int64), Q(x).view(np.int64))
        blockwise = np.einsum("kij,kj->ki", system._stacked,
                              x.reshape(-1, system.block_size)).reshape(-1)
        assert np.array_equal(system.matvec(x[None])[0].view(np.int64),
                              blockwise.view(np.int64))
        got = integrate_flow(system, Q, FlowState(x), T=0.05, samples=6)
        want, _ = lone_run(system, Q, FlowState(x), 0.05, samples=6)
        assert_same_runs([got], [want])

    def test_calls_go_through_the_module(self, monkeypatch):
        # perfbench attributes time to flow.random_quadratic and
        # flow.integrate_flow by wrapping the module attributes
        calls = Counter()
        for name in ("random_quadratic", "integrate_flow"):
            def counted(*args, _fn=getattr(flow, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(flow, name, counted)
        decay_trials(d=2, N=1, trials=4)
        assert calls == {"random_quadratic": 1, "integrate_flow": 1}
        decay_trials(d=3, N=1, trials=2)
        assert calls == {"random_quadratic": 3, "integrate_flow": 3}


class TestGapCheck:
    @staticmethod
    def _traj(plus, minus, decaying=True):
        n = len(plus)
        return Trajectory(times=np.linspace(0, 1, n),
                          states=np.zeros((n, 2)), norms=np.ones(n),
                          plus_norms=np.asarray(plus, dtype=float),
                          minus_norms=np.asarray(minus, dtype=float),
                          decaying=decaying, escaped=False,
                          fitted_rate=1.0 if decaying else None,
                          ball_radius=1.0)

    def test_monotonicity_violation_flagged(self):
        chk = monotone_gap_check(self._traj([0, 1, 0], [1, 1, 1]))
        assert not chk.monotone and not chk.ok

    def test_dominance_violation_flagged(self):
        chk = monotone_gap_check(self._traj([2, 2, 2], [1, 1, 1]))
        assert chk.monotone and chk.dominance is False and not chk.ok

    def test_non_decaying_has_no_dominance_verdict(self):
        chk = monotone_gap_check(self._traj([2, 3, 4], [1, 1, 1],
                                            decaying=False))
        assert chk.monotone and chk.dominance is None and chk.ok

    def test_linear_trajectory_passes(self):
        sys_ = build_mode_system(2, 1)
        traj = integrate_flow(sys_, None, minus_eigenstate(sys_, 0),
                              5.0 / sys_.mu)
        chk = monotone_gap_check(traj)
        assert chk.monotone and chk.dominance and chk.ok


class TestFailurePaths:
    def setup_method(self):
        self.sys = build_mode_system(2, 1)

    def test_escape_reported(self):
        Q = random_quadratic(self.sys, k=self.sys.mu / 10,
                             ball_radius=0.05, seed=9)
        x0 = random_plus_state(self.sys, seed=2, norm=0.045)
        traj = integrate_flow(self.sys, Q, x0, T=2.0 / self.sys.mu)
        assert traj.escaped and not traj.decaying
        assert traj.fitted_rate is None

    def test_blowup_raises(self):
        n = self.sys.dim
        t = np.zeros((n, n, n))
        for i in range(n):
            t[i, i, i] = 50.0
        Q = QuadraticMap(tensor=t, lipschitz_bound=self.sys.mu / 100,
                         ball_radius=10.0)
        with pytest.raises(IntegratorError):
            integrate_flow(self.sys, Q, FlowState(np.ones(n)), T=5.0)


class TestIntegratorOracle:
    """The Dormand-Prince integrator against scipy's RK45, bit for bit."""

    @staticmethod
    def _solve_ivp(system, Q, x0, T, samples=201):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        if Q is None:
            fun = lambda t, x: system.matvec(x)
        else:
            fun = lambda t, x: system.matvec(x) + Q(x)
        return solve_ivp(fun, (0.0, T), x0.x, method="RK45",
                         t_eval=np.linspace(0.0, T, samples),
                         rtol=INTEGRATOR_RTOL, atol=INTEGRATOR_ATOL)

    def _assert_same(self, system, Q, x0, T, samples=201):
        sol = self._solve_ivp(system, Q, x0, T, samples)
        traj = integrate_flow(system, Q, x0, T, samples=samples)
        assert sol.success
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)
        assert traj.nfev == sol.nfev

    @pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (2, 5), (3, 0),
                                        (3, 2)])
    def test_decay_trial_runs(self, d, seed):
        system = build_mode_system(d, 1)
        Q = random_quadratic(system, 0.1 * system.mu, seed=seed)
        x0 = system.random_minus_state(seed=10_000 + seed, norm=0.01)
        self._assert_same(system, Q, x0, 2.0 / system.mu)

    def test_rejected_steps(self):
        # a large growing start makes the controller reject steps and
        # then cap the next growth factor at 1
        system = build_mode_system(2, 1)
        Q = random_quadratic(system, 0.4 * system.mu, seed=1)
        x0 = random_plus_state(system, seed=2, norm=1.0)
        self._assert_same(system, Q, x0, 0.3, samples=17)

    def test_linear_d4(self):
        system = build_mode_system(4, 1)
        self._assert_same(system, None,
                          system.random_minus_state(seed=3), 5.0 / system.mu)

    def test_blowup_fails_alike(self):
        system = build_mode_system(2, 1)
        n = system.dim
        t = np.zeros((n, n, n))
        for i in range(n):
            t[i, i, i] = 50.0
        Q = QuadraticMap(tensor=t, lipschitz_bound=system.mu / 100,
                         ball_radius=10.0)
        x0 = FlowState(np.ones(n))
        with np.errstate(all="ignore"):
            sol = self._solve_ivp(system, Q, x0, 5.0)
            with pytest.raises(IntegratorError) as err:
                integrate_flow(system, Q, x0, T=5.0)
        assert not sol.success
        assert str(err.value) == sol.message
