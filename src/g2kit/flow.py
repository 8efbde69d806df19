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
_dormand_prince.  It advances a (rows, dim) stack of runs in lockstep,
each row with its own t, step size, accept/reject state and nfev; a
lone run is a stack of one.  Per row it runs the same numpy operations
in the same order as SciPy's solve_ivp(method="RK45", t_eval=...), which
the tests keep as a bit-for-bit oracle; SciPy is not needed at run
time.  The batched operations (matvec over a stack, the stacked
quadratic einsum, matmul of the tableau rows against the stages, row
norms from matmul) give each row the bits of its lone call; the
step-size factors stay per-row scalars, since numpy's array power
rounds differently from the scalar one.  Each step evaluates the dense
output of all rows that reach new samples at once: their sample columns,
padded to the widest row, go through one stacked matmul, and only the
valid columns are written into one preallocated (rows, dim, samples)
buffer.  A row that writes a single column is evaluated apart, since
matmul, like np.dot on that row alone, takes its matrix-vector path
there, which rounds differently from the matrix-matrix one.  A run's
states are its slab's transpose, the layout SciPy's sol.y.T has.  The
layout is part of the arithmetic: numpy sums the rows of the transposed
buffer column by column, a contiguous row pairwise, so the trajectory
norms, and the fitted rates made from them, keep their bits only in
this layout.  integrate_flow takes the norms over row blocks of about
NORM_BLOCK_FLOATS floats, never a lone row, so a trajectory costs its
states array plus one block's temporaries.

random_quadratic draws dense Gaussian tensors and calibrates their
Lipschitz bounds by an alternating power iteration with six restarts.  A
float screen runs every restart in matmul to rank them, and only each
tensor's own restarts within SCREEN_MARGIN of its best run again in the
einsum arithmetic of record, which sets the norm's bits: one to four of
six for the 20 trials of flow-suite, 36 einsum rows where the stack's
largest count would run 80.  The tensors that keep the same number of
restarts step together, one einsum over a (tensors, restarts, dim) stack
per update.  Where that group is the whole stack, as a lone tensor
always is, each einsum reads the stack as it was drawn; otherwise it
reads a copy of the group's tensors.  A draw costs order dim^3, so
decay_trials bounds dim^3 x trials by MAX_TRIAL_WORK before it builds or
draws anything.  It stacks its trials up to STACK_TENSOR_FLOATS floats
of tensor: at dim 16 a trial's cost is per-call overhead, which the
trials of a stack share, and the 20 trials of flow-suite form one stack.

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

from ._frozen import Frozen
from ._lazy import lazy_module
from .errors import CutoffTooLarge, IntegratorError, InvalidOperand

np = lazy_module("numpy")

MAX_DIMENSION = 100_000
# float64 entries of the dense quadratic tensor (128 MB), so dim <= 256
MAX_QUADRATIC_COEFFICIENTS = 2 ** 24
# dim^3 x trials for decay_trials.  A trial costs about 0.2 us per dim^3
# for the draw (the screened power iteration of _tensor_operator_norms)
# at dims 48-160, 0.4 us for a process's first draw, plus 0.3-0.6 us per
# dim^3 for the integration, on a 2-core x86-64 VM with one BLAS thread,
# so a run inside this budget ends well within 30 s: the largest,
# --d 2 --N 3 --trials 9 and --d 2 --N 4 --trials 2, took 6.5-8.3 s.
MAX_TRIAL_WORK = 2 ** 23
# floats of quadratic tensor per stack of decay trials (1 MiB): the
# trials of a stack are drawn, calibrated and integrated together.  At
# dim 16 a stack holds 32 trials, so the default 20 run as one stack, and
# a trial of dim 48 or more runs alone.  One stack of 20 ran a run --all
# pass 12-13% faster than stacks of 8, 8 and 4 and raised its peak RSS by
# 0.5 MB (in-process, 20 passes); under tracemalloc the 20 trials peak at
# 1.9 MiB, 3.1 times their 640 KiB of tensors.  The calibration's copies
# of its groups of equal restart count add up to at most one stack.
STACK_TENSOR_FLOATS = 2 ** 17
# norm of each decay trial's random start in B-
START_NORM = 0.01

INTEGRATOR_RTOL = 1e-9
INTEGRATOR_ATOL = 1e-12
# floats of a trajectory's states per row block of integrate_flow's norms
# (512 KiB); each block's temporaries are a few times this.  Every state
# array up to dim 326 at 201 samples, the decay trials included, is one
# block.
NORM_BLOCK_FLOATS = 2 ** 16
# relative margin below a tensor's best screened restart within which
# _tensor_operator_norms runs a restart in einsum; a restart's screened
# and einsum values were seen to differ by at most 1.6e-13 relative
SCREEN_MARGIN = 1e-6


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


class ModeSystem(Frozen):
    """Truncated mode model of the linear operator with its splitting.

    Entry k of each stack belongs to modes[k], with squared length
    norm_sq[k] and weight 2*pi*|m|: _coupling holds the compressed wedge
    map M (r x r, numerically the identity), _stacked the block
    weight * [[0, M], [M^T, 0]], and _plus and _minus orthonormal columns
    spanning its growing and decaying eigenspaces.
    """

    __slots__ = ("d", "N", "p", "modes", "norm_sq", "dim", "mu", "_weights",
                 "_coupling", "_stacked", "_plus", "_minus")

    @property
    def block_size(self):
        return self._stacked.shape[1]

    def matvec(self, x):
        """L x for a vector x, or for each row of a (rows, dim) stack."""
        x = np.asarray(x)
        xb = x.reshape(*x.shape[:-1], -1, self.block_size)
        y = np.einsum("kij,...kj->...ki", self._stacked, xb)
        return y.reshape(x.shape)

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


class FlowState(Frozen):
    """Coefficient vector over the mode basis at a time."""

    __slots__ = ("x", "t")

    def __init__(self, x, t=0.0):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise InvalidOperand("state must be a finite vector")
        super().__init__(arr, t)


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
    return ModeSystem(d, N, p, tuple(modes), norm_sq, dim,
                      2 * math.pi * math.sqrt(min(norm_sq)), weights, coupling,
                      stacked, plus, minus)


class QuadraticMap(Frozen):
    """Homogeneous quadratic vector field with a recorded Lipschitz bound.

    tensor[i, j, k] is symmetric in (j, k); lipschitz_bound is the
    measured Lipschitz constant of the map on the ball of ball_radius.
    """

    __slots__ = ("tensor", "lipschitz_bound", "ball_radius")

    def __call__(self, x):
        return np.einsum("ijk,j,k->i", self.tensor, x, x)


def _row_norms(x):
    """Lengths of x along its last axis.

    The squared lengths come from matmul's vector-vector dot, the same
    dot product np.linalg.norm takes on one vector, so each length has
    the bits np.linalg.norm gives that row alone.
    """
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0, 0]


def _unit_rows(x):
    """x scaled to unit length along its last axis."""
    return x / np.maximum(_row_norms(x), 1e-300)[..., None]


def _screen_restarts(tensors, u, v, iters):
    """Float values of the alternating power iteration from the unit
    starts u, v, rows of (trials, restarts, n) stacks, run in matmul.

    Each update takes the arithmetic of BLAS, not that of the einsum of
    _tensor_operator_norms, so the values serve for ranking only.
    """
    b, r, n = u.shape
    flat = tensors.reshape(b, n, n * n)
    for _ in range(iters):
        vu = (v[..., :, None] * u[..., None, :]).reshape(b, r, n * n)
        w = _unit_rows(np.matmul(vu, flat.transpose(0, 2, 1)))
        m = np.matmul(w, flat).reshape(b, r, n, n)
        v = _unit_rows(np.matmul(m, u[..., None])[..., 0])
        u = _unit_rows(np.matmul(v[..., None, :], m)[..., 0, :])
    return np.matmul(v[..., None, :], np.matmul(m, u[..., None]))[..., 0, 0]


def _tensor_operator_norms(tensors, rngs, restarts=6, iters=40):
    """For each tensor of a (trials, n, n, n) stack, the max over unit u
    of the spectral norm of tensor[:, :, u].

    Alternating power iteration with random restarts, drawn from the
    trial's own rng; the maximizer is a critical point of the trilinear
    form w^T T(u) v.  The restarts step together as rows of (tensors,
    restarts, n) stacks, one einsum per update, and each row takes the
    arithmetic of a lone restart on a lone tensor, so the norms do not
    depend on the batching.

    Most restarts end below the best one, so a float screen ranks them
    first: the same iteration from the same starts, in matmul, with
    tensor[i] contracted by w into M = sum_i w_i tensor[i], then v = M u
    and u = M^T v, 2 n^3 of BLAS per restart and iteration against the
    einsum's 3 n^3.  Only each tensor's own restarts that rank within
    SCREEN_MARGIN of its top run in einsum.  The tensors that keep the
    same count R run as one (tensors, R, n) stack: the stack passed in
    when every tensor keeps R, else a copy of that group's tensors, so
    the copies together hold at most one stack.  A restart's ranked and
    einsum values differ by rounding alone (below 1e-12 relative), far
    inside the margin, so the best einsum restart is always among those
    run, and the norms keep the bits of the all-restart einsum.
    """
    n = tensors.shape[1]
    start = np.stack([rng.standard_normal((restarts, 3, n)) for rng in rngs])
    # w's start is drawn but not read: the first update overwrites it
    u, v = (_unit_rows(start[:, :, i]) for i in (0, 2))
    ranked = _screen_restarts(tensors, u, v, iters)
    top = ranked.max(axis=1, keepdims=True)
    counts = (ranked >= top - SCREEN_MARGIN * np.abs(top)).sum(1)
    order = np.argsort(-ranked, axis=1, kind="stable")
    norms = [0.0] * len(tensors)
    # not np.unique, which imports numpy.ma (0.8 MB of peak RSS)
    for keep in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == keep)
        group = tensors if len(idx) == len(tensors) else tensors[idx]
        picked = order[idx, :keep, None]
        gu, gv = (np.take_along_axis(x[idx], picked, axis=1) for x in (u, v))
        for _ in range(iters):
            w = _unit_rows(np.einsum("bijk,brj,brk->bri", group, gv, gu))
            gv = _unit_rows(np.einsum("bijk,bri,brk->brj", group, w, gu))
            gu = _unit_rows(np.einsum("bijk,bri,brj->brk", group, w, gv))
        values = np.einsum("bijk,bri,brj,brk->br", group, w, gv, gu)
        for i, row in zip(idx, values):
            norms[i] = max(0.0, *map(float, row))
    return norms


def random_quadratic(system, k, ball_radius=1.0, seed=0):
    """Random symmetric quadratic map with Lipschitz bound k on the ball.

    The raw Gaussian tensor is rescaled so that the measured supremum of
    the Jacobian norm over the ball of ball_radius equals k.  seed may
    also be a non-empty list of seeds: then one map is drawn per seed,
    the draws are calibrated together as one stack, and the list of maps
    is returned, each bit for bit the map its seed alone gives.  The
    stack counts against MAX_QUADRATIC_COEFFICIENTS as a whole.
    """
    if not k > 0 or not ball_radius > 0:
        raise InvalidOperand("Lipschitz bound and radius must be positive")
    seeds = seed if isinstance(seed, list) else [seed]
    n = system.dim
    if not seeds:
        raise InvalidOperand("the list of seeds is empty")
    if len(seeds) * n ** 3 > MAX_QUADRATIC_COEFFICIENTS:
        raise CutoffTooLarge(
            f"{len(seeds)} quadratic tensors of {n}^3 coefficients exceed "
            f"the {MAX_QUADRATIC_COEFFICIENTS}-coefficient budget")
    rngs = [np.random.default_rng(s) for s in seeds]
    tensors = np.empty((len(seeds), n, n, n))
    for t, rng in zip(tensors, rngs):
        draw = rng.standard_normal((n, n, n))
        np.add(draw, draw.transpose(0, 2, 1), out=t)
    del draw
    tensors *= 0.5
    # Lipschitz constant on the ball: sup over |x| <= rho of |DQ(x)|,
    # and DQ(x) = 2 T(., ., x) is linear in x
    maps = [QuadraticMap(tensor=(k / (2.0 * ball_radius * norm)) * t,
                         lipschitz_bound=float(k),
                         ball_radius=float(ball_radius))
            for t, norm in zip(tensors, _tensor_operator_norms(tensors, rngs))]
    return maps if isinstance(seed, list) else maps[0]


class Trajectory(Frozen):
    """Sampled solution of dx/dt = Lx + Q(x) with norm bookkeeping.

    fitted_rate is None unless the run decays.  nfev counts
    right-hand-side evaluations; hand-built trajectories leave it at 0.
    """

    __slots__ = ("times", "states", "norms", "plus_norms", "minus_norms",
                 "decaying", "escaped", "fitted_rate", "ball_radius", "nfev")

    def __init__(self, times, states, norms, plus_norms, minus_norms,
                 decaying, escaped, fitted_rate, ball_radius, nfev=0):
        super().__init__(times, states, norms, plus_norms, minus_norms,
                         decaying, escaped, fitted_rate, ball_radius, nfev)


def _fit_rate(times, norms):
    """The decay rate of a log-linear fit over the second half of the
    samples, or over both when there are only two."""
    half = min(len(times) // 2, len(times) - 2)
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


def _rms_rows(x):
    return _row_norms(x) / x.shape[-1] ** 0.5


def _dormand_prince(fun, y, t_eval):
    """Integrate dy/dt = fun(y) from each row of y at t = 0 and sample
    every row at t_eval.

    fun maps a (rows, dim) stack to the derivatives of its rows.  t_eval
    rises from 0 to its last entry, the end of the interval.  Explicit
    Dormand-Prince 5(4) at INTEGRATOR_RTOL and INTEGRATOR_ATOL with local
    extrapolation, the Hairer-Norsett-Wanner initial step and step-size
    controller, and the quartic dense output on each accepted step.  The
    rows advance in lockstep: each pass of the loop tries one step on
    every unfinished row, and each row keeps its own t, step size,
    accept/reject state, nfev and dense output, so a finished row rides
    along with h = 0 and no row's arithmetic sees another's.  Per row,
    every numpy operation runs in the order of SciPy's RK45 under
    solve_ivp(t_eval=...), so the samples match it bit for bit (the tests
    hold it to that); the step-size factors stay per-row scalar powers.
    Returns (out, nfev): out of shape (rows, dim, len(t_eval)), filled
    with each accepted step's dense output columns, all rows of a step
    in one stacked evaluation, and nfev a list.
    out[r].T are row r's states, in the memory order SciPy's samples
    have and in which np.linalg.norm(states, axis=1) sums, so the norms
    keep their bits.  Raises IntegratorError when a step size
    falls below the spacing of floats at its row's t.
    """
    A, B, E, P = (np.array(m) for m in (_DP_A, _DP_B, _DP_E, _DP_P))
    rtol, atol = INTEGRATOR_RTOL, INTEGRATOR_ATOL
    rows, dim = y.shape
    t_bound = float(t_eval[-1])
    f = fun(y)

    # initial steps; the powers stay scalar, as numpy's array power
    # rounds differently
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms_rows(y / scale), _rms_rows(f / scale)
    h0 = np.minimum([1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                     for a, b in zip(d0, d1)], t_bound)
    d2 = _rms_rows((fun(y + h0[:, None] * f) - f) / scale) / h0
    h1 = [max(1e-6, h * 1e-3) if b <= 1e-15 and c <= 1e-15
          else (0.01 / max(b, c)) ** (1 / 5) for h, b, c in zip(h0, d1, d2)]
    h_abs = np.minimum(np.minimum(100 * h0, h1), t_bound)

    nfev = np.full(rows, 2)
    K = np.empty((rows, len(A) + 1, dim))
    out = np.empty((rows, dim, len(t_eval)))
    t = np.zeros(rows)
    sample = np.zeros(rows, dtype=int)
    retry = np.zeros(rows, dtype=bool)   # the row's last try was rejected
    live = t < t_bound
    while live.any():
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(retry, h_abs, np.maximum(h_abs, min_step))
        if np.any(live & (h_abs < min_step)):
            raise IntegratorError(
                "Required step size is less than spacing between numbers.")
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t   # 0 on a finished row, which sits at t_bound
        h_abs = np.abs(h)
        K[:, 0] = f
        for s in range(1, len(A)):
            K[:, s] = fun(y + np.matmul(A[s, :s], K[:, :s]) * h[:, None])
        y_new = y + h[:, None] * np.matmul(B, K[:, :-1])
        f_new = K[:, -1] = fun(y_new)
        nfev[live] += len(A)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norms = _rms_rows(np.matmul(E, K) * h[:, None] / scale)
        accepted = live & (error_norms < 1)
        # per row, SciPy's factor: at most 1 after a rejection, 10 after
        # an accepted step, and at least 0.2
        h_abs *= [min(1 if again else _MAX_FACTOR, max(
            _MIN_FACTOR, _SAFETY * e ** _ERROR_EXPONENT if e else math.inf))
            for e, again in zip(error_norms, retry)]
        retry = ~accepted
        ends = np.searchsorted(t_eval, t_new, side="right")
        writes = np.flatnonzero(accepted & (ends > sample))
        count = ends[writes] - sample[writes]
        # the dense output of the rows that reach new samples, each row's
        # columns padded to the widest row.  A row that writes one column
        # goes apart: matmul takes its matrix-vector path there, as np.dot
        # does on the row alone, and a padded row would not.
        for rows in (writes[count == 1], writes[count > 1]):
            if not rows.size:
                continue
            first, stop = sample[rows, None], ends[rows, None]
            cols = first + np.arange(np.max(stop - first))
            valid = cols < stop
            x = ((t_eval[np.where(valid, cols, first)] - t[rows, None])
                 / h[rows, None])
            p = np.cumprod(np.broadcast_to(
                x[:, None], (rows.size, P.shape[1], x.shape[1])), axis=1)
            dense = np.matmul(K[rows].swapaxes(1, 2), P)
            values = (h[rows, None, None] * np.matmul(dense, p)
                      + y[rows, :, None])
            i, j = np.nonzero(valid)
            out[rows[i], :, cols[i, j]] = values[i, :, j]
        sample[writes] = ends[writes]
        t = np.where(accepted, t_new, t)
        y = np.where(accepted[:, None], y_new, y)
        f = np.where(accepted[:, None], f_new, f)
        live = t < t_bound
    return out, nfev.tolist()


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
    spaced times.  x0 may also be a non-empty list of start states, with
    Q None or a list of as many maps: then run r starts from x0[r] under
    Q[r], the runs advance as one stack, and the list of their
    trajectories is returned, each bit for bit the trajectory of its run
    alone.  A list of numbers is one start state.
    """
    stack = isinstance(x0, list) and not (x0 and np.isscalar(x0[0]))
    starts = x0 if stack else [x0]
    maps = Q if isinstance(Q, list) else [Q] * len(starts)
    if (not starts or len(maps) != len(starts)
            or Q is not None and isinstance(Q, list) != stack):
        raise InvalidOperand(
            f"Q must be None, one map for one start state or a list of one "
            f"map per start state; got {len(starts)} start states")
    if any(q is not None and q.lipschitz_bound >= system.mu / 2
           for q in maps):
        raise InvalidOperand(
            "quadratic Lipschitz bound must stay below mu/2")
    if not (math.isfinite(T) and T > 0):
        raise InvalidOperand(f"horizon T must be finite and > 0, got {T}")
    samples = _whole_number(samples, "samples", 2)
    starts = [s if isinstance(s, FlowState) else FlowState(s) for s in starts]
    for s in starts:
        if s.x.size != system.dim:
            raise InvalidOperand(f"start state has {s.x.size} coordinates, "
                                 f"the system has dim {system.dim}")
    if Q is None:
        fun = system.matvec
    else:
        tensors = (np.stack([q.tensor for q in maps]) if len(maps) > 1
                   else maps[0].tensor[None])
        fun = lambda y: system.matvec(y) + np.einsum(
            "bijk,bj,bk->bi", tensors, y, y)
    times = np.linspace(0.0, float(T), samples)
    out, nfev = _dormand_prince(fun, np.array([s.x for s in starts]), times)
    runs = [_trajectory(system, q, times, block.T, n)
            for q, block, n in zip(maps, out, nfev)]
    return runs if stack else runs[0]


def _trajectory(system, Q, times, states, nfev):
    """The Trajectory of one run's sampled states, with its norms."""
    norms, plus, minus = (np.empty(len(times)) for _ in range(3))
    for rows in _row_blocks(len(times), system.dim):
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


class GapCheck(Frozen):
    """monotone and dominance verdicts of monotone_gap_check; dominance is
    None for a non-decaying trajectory."""

    __slots__ = ("monotone", "dominance")

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


def decay_trials(d=2, N=1, k_frac=0.1, trials=20, seed=0):
    """Seeded ensemble of quadratic perturbation runs.

    Each trial draws a fresh quadratic map with Lipschitz bound
    k = k_frac * mu on the unit ball and a start in B- of norm
    START_NORM, integrates over the horizon 2/mu, and records the fitted
    rate and the gap diagnostics.  Returns (system, list of (trajectory,
    GapCheck)).  Trial i draws its map from seed + i and its start from
    seed + 10000 + i; stacks of up to STACK_TENSOR_FLOATS // dim^3 trials
    share one random_quadratic and one integrate_flow call.

    A generic start is not on the stable manifold: the quadratic
    coupling feeds the growing subspace at order k*|x0|^2, which takes
    over after roughly log(1/(k*|x0|))/(2*mu).  Where this was checked,
    d = 2 with N <= 3 and d = 3 with N = 1, that horizon and start norm
    keep the whole window inside the decaying regime, so the ensemble
    exercises the rate bound rather than the escape branch.  Larger
    cutoffs bring growing modes with rates far above mu, and the window
    need not stay decaying: d = 2, N = 4 gave no decaying trial in two.

    Sizes with dim^3 x trials above MAX_TRIAL_WORK raise CutoffTooLarge,
    and a k_frac outside (0, 1/2) (mu is 2*pi at every size, and k must
    stay below mu/2) raises InvalidOperand, before anything is built or
    drawn.
    """
    trials = _whole_number(trials, "trials", 1)
    try:
        in_range = 0 < k_frac < 0.5  # false for NaN
    except TypeError:
        in_range = False
    if not in_range:
        raise InvalidOperand(
            f"k_frac must be finite and in (0, 0.5), got {k_frac!r}")
    dim = _system_size(d, N)[2]
    if dim ** 3 * trials > MAX_TRIAL_WORK:
        raise CutoffTooLarge(
            f"{trials} trials at dim {dim} need dim^3 x trials = "
            f"{dim ** 3 * trials}, above the {MAX_TRIAL_WORK} work budget")
    system = build_mode_system(d, N)
    k = k_frac * system.mu
    T = 2.0 / system.mu
    size = max(1, STACK_TENSOR_FLOATS // dim ** 3)
    out = []
    for first in range(0, trials, size):
        batch = range(first, min(first + size, trials))
        maps = random_quadratic(system, k, seed=[seed + i for i in batch])
        starts = [system.random_minus_state(seed=seed + 10_000 + i,
                                            norm=START_NORM) for i in batch]
        out += [(traj, monotone_gap_check(traj))
                for traj in integrate_flow(system, maps, starts, T=T)]
    return system, out
