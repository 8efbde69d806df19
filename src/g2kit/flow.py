"""Fourier-mode model of the cylinder decay flow.

The linearized operator on a flat torus cross-section T^d pairs exact
p-forms against coexact (p-1)-forms mode by mode.  On a lattice mode
m != 0 the exterior derivative acts on constant-coefficient forms as
wedging with 2*pi*m, so each mode contributes a finite symmetric block

    L_m = 2*pi*|m| * [[0, M], [M^T, 0]],

where M is the wedge map by the unit vector m/|m| compressed to its
coimage and image by a singular value decomposition.  Wedging with a
unit vector is a partial isometry, so the eigenvalues of L_m are
+-2*pi*|m|, each with multiplicity equal to the wedge rank, and the
spectral gap mu of the assembled operator is 2*pi at every cutoff.

Storage follows the block structure, one stack per object: the weights
2*pi*|m|, the couplings M (blocks, r, r), the operator's 2r x 2r blocks,
and the splitting into growing (B+) and decaying (B-) eigenspaces as two
stacks of per-block orthonormal bases, each of shape (blocks, 2r, r).
The build is stacked as well: one wedge pattern per (d, p) fills the
wedge matrices of every mode at once, one batched SVD compresses them to
the couplings, and one batched SVD of the couplings gives the bases.
The spectrum is one batched SVD of the couplings, and projections,
random states and matvec act block by block with einsum, so no
dim x dim/2 matrix is ever formed.

The flow dx/dt = Lx + Q(x) is integrated by an explicit Dormand-Prince
5(4) pair (Dormand & Prince 1980) with step-size control and Shampine's
quartic dense output (Shampine 1986), written out in numpy in
_dormand_prince.  It runs the same numpy operations in the same order as
SciPy's solve_ivp(method="RK45", t_eval=...), which the tests keep as a
bit-for-bit oracle; SciPy is not needed at run time.  Each accepted
step writes its dense output as columns of one preallocated
(dim, samples) buffer, and the states are that buffer's transpose, the
layout SciPy's sol.y.T has.  The layout is part of the arithmetic: numpy
sums the rows of the transposed buffer column by column, a contiguous
row pairwise, so the trajectory norms, and the fitted rates made from
them, keep their bits only in this layout.  integrate_flow takes the
norms over row blocks of about NORM_BLOCK_FLOATS floats, never a lone
row, so a trajectory costs its states array plus one block's
temporaries.

random_quadratic draws a dense Gaussian tensor and calibrates its
Lipschitz bound by an alternating power iteration whose six restarts
step together, one einsum over a (restarts, dim) stack per update.
A draw costs order dim^3, so decay_trials bounds dim^3 x trials by
MAX_TRIAL_WORK before it builds or draws anything.

Degree convention: p = min(3, d).  In the ambient seven-dimensional
picture the pairing couples 3-forms to 2-forms; on a 2-torus that
bidegree collapses, and lowering the degree there keeps every spectral
statement intact.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter

from ._lazy import lazy_module
from .errors import CutoffTooLarge, IntegratorError, InvalidOperand

np = lazy_module("numpy")

MAX_DIMENSION = 100_000
# float64 entries of the dense quadratic tensor (128 MB), so dim <= 256
MAX_QUADRATIC_COEFFICIENTS = 2 ** 24
# dim^3 x trials for decay_trials.  A trial costs about 1.0-1.6 us per
# dim^3 for the draw (the batched power iteration of
# _tensor_operator_norm, dims 48-160) and up to as much again for the
# integration, on a 2-core x86-64 VM with one BLAS thread, so a run
# inside this budget ends within about 30 s.
MAX_TRIAL_WORK = 2 ** 23

INTEGRATOR_RTOL = 1e-9
INTEGRATOR_ATOL = 1e-12
# floats of a trajectory's states per row block of integrate_flow's norms
# (512 KiB); each block's temporaries are a few times this.  Every state
# array up to dim 326 at 201 samples, the decay trials included, is one
# block.
NORM_BLOCK_FLOATS = 2 ** 16


def _wedge_pattern(d, p):
    """The wedge map xi -> v ^ xi from (p-1)-forms to p-forms as entries.

    Returns int arrays (row, column, coordinate, sign): the matrix holds
    sign * v[coordinate] at (row, column), and no position repeats.  Bases
    are lexicographically ordered index combinations.
    """
    row_index = {c: i for i, c in
                 enumerate(itertools.combinations(range(d), p))}
    entries = []
    for j, idx in enumerate(itertools.combinations(range(d), p - 1)):
        for i in range(d):
            if i in idx:
                continue
            merged = tuple(sorted(idx + (i,)))
            entries.append((row_index[merged], j, i, (-1) ** merged.index(i)))
    return np.array(entries).T


class ModeSystem:
    """Truncated mode model of the linear operator with its splitting.

    Entry k of each stack belongs to modes[k], with squared length
    norm_sq[k] and weight 2*pi*|m|: _coupling holds the compressed wedge
    map M (r x r, numerically the identity), _stacked the block
    weight * [[0, M], [M^T, 0]], and _plus and _minus orthonormal columns
    spanning its growing and decaying eigenspaces.
    """

    __slots__ = ("d", "N", "p", "modes", "norm_sq", "dim", "mu", "_weights",
                 "_coupling", "_stacked", "_plus", "_minus")

    def __init__(self, d, N, p, modes, norm_sq, dim, mu, weights, coupling,
                 stacked, plus, minus):
        for name, value in zip(self.__slots__, (
                d, N, p, modes, norm_sq, dim, mu, weights, coupling, stacked,
                plus, minus)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ModeSystem is immutable")

    @property
    def block_size(self):
        return self._stacked.shape[1]

    def matvec(self, x):
        b = self.block_size
        y = np.einsum("kij,kj->ki", self._stacked,
                      np.asarray(x).reshape(-1, b))
        return y.reshape(-1)

    def spectrum(self):
        """All eigenvalues, sorted ascending: +-weight times the singular
        values of each coupling."""
        s = self._weights[:, None] * np.linalg.svd(self._coupling,
                                                   compute_uv=False)
        return np.sort(np.concatenate([s.ravel(), -s.ravel()]))

    def spectrum_table(self):
        """Exact eigenvalue bookkeeping: {|m|^2: multiplicity of +2pi*sqrt(k)}.

        Negative eigenvalues carry the same multiplicities by the pairing
        symmetry of the blocks.
        """
        r = self._coupling.shape[1]
        table = Counter(self.norm_sq)
        return {k: r * table[k] for k in sorted(table)}

    def dense_operator(self):
        """The full operator as one dense symmetric matrix."""
        if self.dim > 5000:
            raise CutoffTooLarge(
                f"dense operator would be {self.dim} x {self.dim}")
        out = np.zeros((self.dim, self.dim))
        b = self.block_size
        for k, block in enumerate(self._stacked):
            out[k * b:(k + 1) * b, k * b:(k + 1) * b] = block
        return out

    def _project(self, basis, x):
        """Blockwise projection of x, or of each row of a 2-D x."""
        x = np.asarray(x, dtype=float)
        xb = x.reshape(*x.shape[:-1], -1, self.block_size)
        c = np.einsum("kir,...ki->...kr", basis, xb)
        return np.einsum("kir,...kr->...ki", basis, c).reshape(x.shape)

    def project_plus(self, x):
        return self._project(self._plus, x)

    def project_minus(self, x):
        return self._project(self._minus, x)

    def random_minus_state(self, seed, norm=1.0):
        """A state in the decaying subspace B- with the requested norm."""
        blocks, _, r = self._minus.shape
        c = np.random.default_rng(seed).standard_normal(blocks * r)
        x = np.einsum("kir,kr->ki", self._minus,
                      c.reshape(blocks, r)).reshape(-1)
        return FlowState(norm * x / np.linalg.norm(x))


class FlowState:
    """Coefficient vector over the mode basis at a time."""

    __slots__ = ("x", "t")

    def __init__(self, x, t=0.0):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise InvalidOperand("state must be a finite vector")
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("FlowState is immutable")

    @property
    def norm(self):
        return float(np.linalg.norm(self.x))

    def split(self, system):
        plus = system.project_plus(self.x)
        return FlowState(plus, self.t), FlowState(self.x - plus, self.t)


def _whole_number(value, name, least):
    """value as an int when it is an integer >= least."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise InvalidOperand(
            f"{name} must be an integer >= {least}, got {value!r}")
    return n


def _system_size(d, N):
    """Check (d, N) against the domain and the dimension budget.

    Returns (p, rank, dim): the form degree, the wedge rank per mode and
    the dimension of the mode system that build_mode_system assembles.
    """
    if not isinstance(d, int) or not 2 <= d <= 6:
        raise InvalidOperand(f"cross-section dimension must be 2..6, got {d}")
    if not isinstance(N, int) or N < 1:
        raise InvalidOperand(f"cutoff must be a positive integer, got {N}")
    p = min(3, d)
    n_modes = (2 * N + 1) ** d - 1
    rank = math.comb(d - 1, p - 1)
    if n_modes * 2 * rank > MAX_DIMENSION:
        raise CutoffTooLarge(
            f"{n_modes} modes x block size {2 * rank} exceeds "
            f"the {MAX_DIMENSION}-coefficient budget")
    return p, rank, n_modes * 2 * rank


def build_mode_system(d, N):
    """Assemble the truncated operator over modes 0 < |m|_inf <= N."""
    p, r, dim = _system_size(d, N)
    modes = [m for m in itertools.product(range(-N, N + 1), repeat=d) if any(m)]
    norm_sq = tuple(sum(c * c for c in m) for m in modes)
    norms = np.sqrt(np.array(norm_sq, dtype=float))
    row, col, coord, sign = _wedge_pattern(d, p)
    W = np.zeros((len(modes), math.comb(d, p), math.comb(d, p - 1)))
    # += into zeros stores 0.0 + sign * v: +0.0 where m has a zero
    # component, which a plain assignment would leave as -0.0
    W[:, row, col] += sign * (np.array(modes) / norms[:, None])[:, coord]
    U, s, Vt = np.linalg.svd(W)
    if np.any(np.sum(s > 0.5, axis=1) != r) or np.any(s[:, r - 1] < 1e-12):
        raise InvalidOperand(
            "wedge map rank mismatch; operator not injective on the "
            "retained subspace")
    coupling = U[:, :, :r].swapaxes(1, 2) @ W @ Vt[:, :r].swapaxes(1, 2)
    del W, U, Vt   # the largest stacks, freed before the outputs are made
    weights = 2 * math.pi * norms
    stacked = np.zeros((len(modes), 2 * r, 2 * r))
    stacked[:, :r, r:] = weights[:, None, None] * coupling
    stacked[:, r:, :r] = weights[:, None, None] * coupling.swapaxes(1, 2)
    # eigenvectors of [[0, M], [M^T, 0]] from the SVD of M
    P, _, Qt = np.linalg.svd(coupling)
    plus = np.concatenate(
        [P / math.sqrt(2), Qt.swapaxes(1, 2) / math.sqrt(2)], axis=1)
    minus = np.concatenate(
        [P / math.sqrt(2), -Qt.swapaxes(1, 2) / math.sqrt(2)], axis=1)
    return ModeSystem(
        d=d, N=N, p=p, modes=tuple(modes), norm_sq=norm_sq, dim=dim,
        mu=2 * math.pi * math.sqrt(min(norm_sq)), weights=weights,
        coupling=coupling, stacked=stacked, plus=plus, minus=minus)


class QuadraticMap:
    """Homogeneous quadratic vector field with a recorded Lipschitz bound.

    tensor[i, j, k] is symmetric in (j, k); lipschitz_bound is the
    measured Lipschitz constant of the map on the ball of ball_radius.
    """

    __slots__ = ("tensor", "lipschitz_bound", "ball_radius")

    def __init__(self, tensor, lipschitz_bound, ball_radius):
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "lipschitz_bound", lipschitz_bound)
        object.__setattr__(self, "ball_radius", ball_radius)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticMap is immutable")

    def __call__(self, x):
        return np.einsum("ijk,j,k->i", self.tensor, x, x)


def _unit_rows(x):
    """Rows of x scaled to unit length.

    The squared lengths come from matmul's vector-vector dot, the same
    dot product np.linalg.norm takes on one vector, so each row is
    scaled exactly as its own norm would scale it.
    """
    norms = np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0]
    return x / np.maximum(norms, 1e-300)


def _tensor_operator_norm(tensor, rng, restarts=6, iters=40):
    """max over unit u of the spectral norm of tensor[:, :, u].

    Alternating power iteration with random restarts; the maximizer is a
    critical point of the trilinear form w^T T(u) v.  The restarts step
    together as rows of (restarts, n) stacks, one einsum per update; each
    row takes the arithmetic of a lone restart, so the result does not
    depend on the batching.
    """
    start = rng.standard_normal((restarts, 3, tensor.shape[0]))
    u, w, v = (_unit_rows(start[:, i]) for i in range(3))
    for _ in range(iters):
        w = _unit_rows(np.einsum("ijk,rj,rk->ri", tensor, v, u))
        v = _unit_rows(np.einsum("ijk,ri,rk->rj", tensor, w, u))
        u = _unit_rows(np.einsum("ijk,ri,rj->rk", tensor, w, v))
    values = np.einsum("ijk,ri,rj,rk->r", tensor, w, v, u)
    return max(0.0, *map(float, values))


def random_quadratic(system, k, ball_radius=1.0, seed=0):
    """Random symmetric quadratic map with Lipschitz bound k on the ball.

    The raw Gaussian tensor is rescaled so that the measured supremum of
    the Jacobian norm over the ball of ball_radius equals k.
    """
    if not k > 0 or not ball_radius > 0:
        raise InvalidOperand("Lipschitz bound and radius must be positive")
    n = system.dim
    if n ** 3 > MAX_QUADRATIC_COEFFICIENTS:
        raise CutoffTooLarge(
            f"quadratic tensor would have {n}^3 coefficients, above the "
            f"{MAX_QUADRATIC_COEFFICIENTS}-coefficient budget")
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n, n))
    t = 0.5 * (t + t.transpose(0, 2, 1))
    # Lipschitz constant on the ball: sup over |x| <= rho of |DQ(x)|,
    # and DQ(x) = 2 T(., ., x) is linear in x
    c = 2.0 * ball_radius * _tensor_operator_norm(t, rng)
    return QuadraticMap(tensor=(k / c) * t, lipschitz_bound=float(k),
                        ball_radius=float(ball_radius))


class Trajectory:
    """Sampled solution of dx/dt = Lx + Q(x) with norm bookkeeping.

    fitted_rate is None unless the run decays.  nfev counts
    right-hand-side evaluations; hand-built trajectories leave it at 0.
    """

    __slots__ = ("times", "states", "norms", "plus_norms", "minus_norms",
                 "decaying", "escaped", "fitted_rate", "ball_radius", "nfev")

    def __init__(self, times, states, norms, plus_norms, minus_norms,
                 decaying, escaped, fitted_rate, ball_radius, nfev=0):
        for name, value in zip(self.__slots__, (
                times, states, norms, plus_norms, minus_norms, decaying,
                escaped, fitted_rate, ball_radius, nfev)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")


def _fit_rate(times, norms):
    half = len(times) // 2
    t = times[half:]
    y = np.log(np.maximum(norms[half:], 1e-300))
    slope = np.polyfit(t, y, 1)[0]
    return float(-slope)


# Dormand-Prince 5(4) tableau (Dormand & Prince 1980) and the quartic
# dense-output matrix for Shampine's optimal c_6 (Shampine 1986).  The
# flow is autonomous, so the stage times c_i are not needed.
_DP_A = (
    (0, 0, 0, 0, 0),
    (1/5, 0, 0, 0, 0),
    (3/40, 9/40, 0, 0, 0),
    (44/45, -56/15, 32/9, 0, 0),
    (19372/6561, -25360/2187, 64448/6561, -212/729, 0),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
_DP_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_DP_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_DP_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dormand_prince(fun, y0, t_eval):
    """Integrate dy/dt = fun(y) from y0 at t = 0 and sample at t_eval.

    t_eval rises from 0 to its last entry, the end of the interval.
    Explicit Dormand-Prince 5(4) at INTEGRATOR_RTOL and INTEGRATOR_ATOL
    with local extrapolation, the Hairer-Norsett-Wanner initial step and
    step-size controller, and the quartic dense output on each accepted
    step.  Every numpy operation runs in the order of SciPy's RK45 under
    solve_ivp(t_eval=...), so the samples match it bit for bit (the tests
    hold it to that).  Returns (states, nfev) with states of shape
    (len(t_eval), len(y0)): the transpose of one (len(y0), len(t_eval))
    buffer that each step fills with its dense output columns.  The
    transposed view keeps the memory order SciPy's samples have, and the
    order in which np.linalg.norm(states, axis=1) sums, so the norms keep
    their bits.  Raises IntegratorError when the step size falls below
    the spacing of floats at t.
    """
    A, B, E, P = (np.array(m) for m in (_DP_A, _DP_B, _DP_E, _DP_P))
    rtol, atol = INTEGRATOR_RTOL, INTEGRATOR_ATOL
    t_bound = float(t_eval[-1])
    y = y0
    f = fun(y)
    nfev = 1

    # initial step
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = fun(y + h0 * f)
    nfev += 1
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound)

    K = np.empty((len(A) + 1, y.size))
    out = np.empty((y.size, len(t_eval)))
    t = 0.0
    i = 0
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
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = fun(y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(y_new)
            K[-1] = f_new
            nfev += len(A)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        i_new = np.searchsorted(t_eval, t, side="right")
        step_ts = t_eval[i:i_new]
        if step_ts.size > 0:
            dense = K.T.dot(P)
            h = t - t_old
            x = (step_ts - t_old) / h
            p = np.cumprod(np.tile(x, (P.shape[1], 1)), axis=0)
            out[:, i:i_new] = h * np.dot(dense, p) + y_old[:, None]
            i = i_new
    return out.T, nfev


def _row_blocks(rows, cols):
    """Slices of consecutive rows, about NORM_BLOCK_FLOATS floats each.

    No slice holds a single row: numpy sums a lone row pairwise but a
    block of rows of the transposed states column by column, and the two
    round differently.  A one-row tail joins the block before it.
    """
    step = max(2, NORM_BLOCK_FLOATS // cols)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows])]


def integrate_flow(system, Q, x0, T, samples=201):
    """Integrate dx/dt = Lx + Q(x) from a FlowState over [0, T].

    Q may be None for the linear flow.  Trajectories that leave the
    quadratic map's calibration ball are reported as non-decaying and
    get no fitted rate.  The state is sampled at `samples` equally
    spaced times.
    """
    if Q is not None and Q.lipschitz_bound >= system.mu / 2:
        raise InvalidOperand(
            "quadratic Lipschitz bound must stay below mu/2")
    if not (math.isfinite(T) and T > 0):
        raise InvalidOperand(f"horizon T must be finite and > 0, got {T}")
    samples = _whole_number(samples, "samples", 2)
    if not isinstance(x0, FlowState):
        x0 = FlowState(np.asarray(x0, dtype=float))
    if x0.x.size != system.dim:
        raise InvalidOperand(f"start state has {x0.x.size} coordinates, "
                             f"the system has dim {system.dim}")
    if Q is None:
        fun = system.matvec
    else:
        fun = lambda x: system.matvec(x) + Q(x)
    times = np.linspace(0.0, float(T), samples)
    states, nfev = _dormand_prince(fun, x0.x, times)
    norms, plus, minus = (np.empty(samples) for _ in range(3))
    for rows in _row_blocks(samples, system.dim):
        block = states[rows]
        norms[rows] = np.linalg.norm(block, axis=1)
        plus[rows] = np.linalg.norm(system.project_plus(block), axis=1)
        minus[rows] = np.linalg.norm(system.project_minus(block), axis=1)
    radius = Q.ball_radius if Q is not None else math.inf
    escaped = bool(np.any(norms > radius))
    # a trajectory that has turned around (norm rising off its minimum)
    # is on its way out of the ball and counts as non-decaying
    turned = norms[-1] > 1.05 * float(np.min(norms))
    decaying = (not escaped) and (not turned) and norms[-1] < norms[0]
    rate = _fit_rate(times, norms) if decaying else None
    return Trajectory(times=times, states=states, norms=norms,
                      plus_norms=plus, minus_norms=minus, decaying=decaying,
                      escaped=escaped, fitted_rate=rate, ball_radius=radius,
                      nfev=nfev)


class GapCheck:
    """monotone and dominance verdicts of monotone_gap_check; dominance is
    None for a non-decaying trajectory."""

    __slots__ = ("monotone", "dominance")

    def __init__(self, monotone, dominance):
        object.__setattr__(self, "monotone", monotone)
        object.__setattr__(self, "dominance", dominance)

    def __setattr__(self, name, value):
        raise AttributeError("GapCheck is immutable")

    @property
    def ok(self):
        return self.monotone and self.dominance is not False


def monotone_gap_check(traj, tol=1e-7):
    """Check growth of |x+| - |x-| and, on decaying runs, |x+| <= |x-|.

    Works purely on the trajectory's sampled norms, so hand-built
    trajectories can serve as negative controls.  Returns a GapCheck;
    dominance is None for non-decaying trajectories.
    """
    gap = traj.plus_norms - traj.minus_norms
    slack = tol * max(1.0, float(np.max(np.abs(gap))))
    monotone = bool(np.all(np.diff(gap) >= -slack))
    dominance = None
    if traj.decaying:
        scale = max(1.0, float(np.max(traj.minus_norms)))
        dominance = bool(np.all(traj.plus_norms
                                <= traj.minus_norms + tol * scale))
    return GapCheck(monotone=monotone, dominance=dominance)


def decay_trials(d=2, N=1, k_frac=0.1, trials=20, seed=0,
                 ball_radius=1.0, start_norm=0.01, horizon=None):
    """Seeded ensemble of quadratic perturbation runs.

    Each trial draws a fresh quadratic map with Lipschitz bound
    k = k_frac * mu and a random small start in B-, integrates over
    the horizon (default 2/mu), and records the fitted rate and the
    gap diagnostics.  Returns (system, list of (trajectory, GapCheck)).

    A generic start is not on the stable manifold: the quadratic
    coupling feeds the growing subspace at order k*|x0|^2, which takes
    over after roughly log(1/(k*|x0|))/(2*mu).  Where this was checked,
    d = 2 with N <= 3 and d = 3 with N = 1, the default horizon and start
    norm keep the whole window inside the decaying regime, so the
    ensemble exercises the rate bound rather than the escape branch.
    Larger cutoffs bring growing modes with rates far above mu, and the
    window need not stay decaying: d = 2, N = 4 gave no decaying trial
    in two.

    Sizes with dim^3 x trials above MAX_TRIAL_WORK raise CutoffTooLarge
    before anything is built or drawn.
    """
    trials = _whole_number(trials, "trials", 1)
    dim = _system_size(d, N)[2]
    if dim ** 3 * trials > MAX_TRIAL_WORK:
        raise CutoffTooLarge(
            f"{trials} trials at dim {dim} need dim^3 x trials = "
            f"{dim ** 3 * trials}, above the {MAX_TRIAL_WORK} work budget")
    system = build_mode_system(d, N)
    k = k_frac * system.mu
    T = 2.0 / system.mu if horizon is None else horizon
    out = []
    for i in range(trials):
        Q = random_quadratic(system, k, ball_radius, seed=seed + i)
        x0 = system.random_minus_state(seed=seed + 10_000 + i,
                                       norm=start_norm)
        traj = integrate_flow(system, Q, x0, T=T)
        out.append((traj, monotone_gap_check(traj)))
    return system, out
