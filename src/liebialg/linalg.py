"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of row lists of GaussianRational.  Everything
here is textbook Gaussian elimination; dimensions in this library stay
small (at most a few hundred), so no cleverness is warranted.  Systems
with integer coefficients (the parameter layer's) are solved in Python
ints by int_solve, without a fraction until the answer.
"""

from __future__ import annotations

from math import gcd

from .core import GaussianRational, ONE, ZERO, rational

Matrix = list  # list[list[GaussianRational]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def copy_matrix(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def mat_vec(a: Matrix, v: list) -> list:
    out = [ZERO] * len(a)
    for i, row in enumerate(a):
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out[i] = acc
    return out


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


def int_solve(rows: list, cols: int) -> tuple[list, dict] | None:
    """Solve the augmented integer rows [m_0 .. m_{cols-1}, rhs]; None if
    inconsistent.

    Gauss-Jordan in ints: a row with a nonzero f under the pivot p
    becomes (p * row - f * pivot_row) / gcd(p, f), divided by its content.
    Returns (x, kernel) read off the unique reduced row echelon form: x
    with free coordinates 0, and kernel mapping each free column, in
    increasing order, to its standard kernel vector.
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
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = rational(a[r][cols], a[r][c])
    kernel = {}
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            if a[r][f]:
                v[c] = rational(-a[r][f], a[r][c])
        kernel[f] = v
    return x, kernel


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
