"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of row lists of GaussianRational.  Everything
here is textbook Gaussian elimination; dimensions in this library stay
small (at most a few hundred), so no cleverness is warranted.  Systems
with integer coefficients (the parameter layer's) are solved in Python
ints by int_solve, which hands its answer over in core's integer format.
"""

from __future__ import annotations

from math import gcd, prod

from .core import GaussianRational, ONE, ZERO, lowest

Matrix = list  # list[list[GaussianRational]]


def copy_matrix(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = ONE / a[r][c]
        a[r] = [inv * x for x in a[r]]
        nonzero = [(j, y) for j, y in enumerate(a[r]) if y]
        for i in range(rows):
            if i != r and a[i][c]:
                f, row = a[i][c], a[i]
                for j, y in nonzero:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    """No command calls this; the benchmark's per-layer tracer counts it
    by name (perfbench/layers.py)."""
    return len(rref(m)[1])


def int_solve(rows: list, cols: int) -> tuple[tuple, dict] | None:
    """Solve the augmented integer rows [m_0 .. m_{cols-1}, rhs]; None if
    inconsistent.

    Gauss-Jordan in ints: a row with a nonzero f under the pivot p
    becomes (p * row - f * pivot_row) / gcd(p, f), divided by its content.
    Returns (x, kernel) read off the unique reduced row echelon form: x
    with free coordinates 0, and kernel mapping each free column, in
    increasing order, to its standard kernel vector.  Each vector is
    (den, [numerators]), a rational vector in core's integer format.
    """
    a = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    for c in range(cols + 1):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if c == cols:  # a row 0 = rhs != 0
            return None
        a[r], a[p] = a[p], a[r]
        if a[r][c] < 0:  # positive pivots: each entry of the answer is over its pivot
            a[r] = [-x for x in a[r]]
        prow = a[r]
        pv = prow[c]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(a):
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(pv, f)
            s, f = pv // g, f // g
            if s != 1:
                row = [s * x for x in row]
            for j, y in nonzero:
                row[j] -= f * y
            g = gcd(*row)
            a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)

    # every pivot row scaled to one common multiple m of the pivots, the
    # product of their distinct values, so each vector of the answer is
    # over m; lowest makes it canonical
    m = prod({a[r][c] for r, c in enumerate(pivots)})
    a = [[m // row[c] * y for y in row] for row, c in zip(a, pivots)]

    def vector(v: list) -> tuple:
        den, (v,) = lowest(m, (v,))
        return den, list(v)

    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = a[r][cols]
    kernel = {}
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = m
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        kernel[f] = vector(v)
    return vector(x), kernel


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [row + [ONE if j == i else ZERO for j in range(n)] for i, row in enumerate(m)]
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in a]


def det(m: Matrix) -> GaussianRational:
    """No command calls this; the benchmark's per-layer tracer spans it
    by name (perfbench/layers.py)."""
    a = copy_matrix(m)
    n = len(a)
    result = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result = result * a[c][c]
        inv = ONE / a[c][c]
        nonzero = [(j, y) for j, y in enumerate(a[c]) if y]
        for i in range(c + 1, n):
            if a[i][c]:
                f, row = a[i][c] * inv, a[i]
                for j, y in nonzero:
                    row[j] = row[j] - f * y
    return result
