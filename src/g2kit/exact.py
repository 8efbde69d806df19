"""Exact arithmetic helpers: rationals, integer matrices, Smith normal form.

Everything here works over `int` / `fractions.Fraction` and is deterministic.
Matrices are tuples of tuples (rows); vectors are tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import SingularMap

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def frac(value) -> Fraction:
    """Parse ints, floats-free strings like '1/2' or '-3', and Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exact."""
    if n < 0 or k <= 0:
        raise ValueError("iroot needs n >= 0, k > 0")
    if n in (0, 1):
        return n
    x = 1 << (-(-n.bit_length() // k))  # upper bound: 2^ceil(bits/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def nth_root_fraction(q: Fraction, k: int) -> tuple[Fraction, bool]:
    """k-th root of a positive rational.

    Returns (root, exact). When q is a perfect k-th power the root is exact;
    otherwise it is the root rounded down to a multiple of 1/(10^50 d), for
    d the denominator of q, still returned as a Fraction.
    """
    if q <= 0:
        raise ValueError("nth_root_fraction needs q > 0")
    num, den = q.numerator, q.denominator
    rn, rd = iroot(num, k), iroot(den, k)
    if rn ** k == num and rd ** k == den:
        return Fraction(rn, rd), True
    scale = 10 ** 50
    # (num/den)^(1/k) = (num * den^(k-1))^(1/k) / den
    approx = iroot(num * den ** (k - 1) * scale ** k, k)
    return Fraction(approx, den * scale), False


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """Matrix product for int or Fraction entries.

    Row i of the product is the combination sum_t a[i][t] * b[t] of the rows
    of b, skipping zero coefficients, so a monomial a costs one row scaling
    per row.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b, strict=True):
            if not x:
                continue
            if acc is None:
                acc = [x * y for y in brow]
            else:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append((0,) * width if acc is None else tuple(acc))
    return tuple(out)


def mat_vec(a, v):
    """Matrix-vector product; a row whose length differs from v's raises
    ValueError, as mat_mul does on a shape mismatch."""
    out = []
    for row in a:
        if len(row) != len(v):
            raise ValueError(f"row of length {len(row)} against a vector "
                             f"of length {len(v)}")
        out.append(sum(map(mul, row, v)))
    return tuple(out)


def det(rows) -> Fraction:
    """Exact determinant of a square matrix of int or Fraction entries.

    Each row is scaled to integers by the lcm of its denominators, and the
    integer matrix is reduced by Bareiss's fraction-free elimination: after
    step k every entry is a (k+1)x(k+1) minor, so each division by the
    previous pivot is exact and the last pivot is the determinant.
    """
    m, scale = [], 1
    for row in rows:
        vals = [x if isinstance(x, (int, Fraction)) else Fraction(x)
                for x in row]
        d = lcm(*(x.denominator for x in vals))
        m.append([x.numerator * (d // x.denominator) for x in vals])
        scale *= d
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for r in m[k + 1:]:
            f = r[k]
            for j in range(k + 1, n):
                r[j] = (r[j] * p - f * top[j]) // prev
        prev = p
    return Fraction(sign * m[n - 1][n - 1], scale)


def rref(rows) -> Matrix:
    """Reduced row echelon form with zero rows dropped (canonical span basis)."""
    if not rows:
        return ()
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r])


def rank(rows) -> int:
    return len(rref(rows))


def inverse(rows) -> Matrix:
    """Exact inverse of a square matrix: the right half of rref([A | I])."""
    n = len(rows)
    ident = identity_matrix(n)
    red = rref([tuple(row) + e for row, e in zip(rows, ident)])
    if any(row[:n] != e for row, e in zip(red, ident)):
        raise SingularMap("matrix is singular")
    return tuple(row[n:] for row in red)


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form over the integers.

    Returns (U, D, V) with U @ A @ V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... (nonnegative), then zeros.
    """
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row[dst] += c*row[src]
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # find a pivot
        pos = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pos = (i, j)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(min(nr, nc) - 1):
            a_, b_ = m[i][i], m[i + 1][i + 1]
            if a_ != 0 and b_ % a_ != 0:
                # bring b into range with a via standard SNF trick
                add_col(i + 1, i, 1)
                # re-reduce the 2x2 corner
                while m[i + 1][i] != 0:
                    if abs(m[i + 1][i]) <= abs(m[i][i]):
                        q = m[i][i] // m[i + 1][i]
                        add_row(i + 1, i, -q)
                    swap_rows(i, i + 1)
                while m[i][i + 1] != 0:
                    q = m[i][i + 1] // m[i][i]
                    add_col(i, i + 1, -q)
                if m[i][i] < 0:
                    negate_row(i)
                if m[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    return (tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in m),
            tuple(tuple(r) for r in v))
