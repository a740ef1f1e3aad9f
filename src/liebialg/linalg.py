"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of row lists of GaussianRational.  Everything
here is textbook Gaussian elimination; dimensions in this library stay
small (at most a few hundred), so no cleverness is warranted.
"""

from __future__ import annotations

from .core import GaussianRational, ONE, ZERO

Matrix = list  # list[list[GaussianRational]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def copy_matrix(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if not v:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + v * bk[j]
    return out


def mat_vec(a: Matrix, v: list) -> list:
    out = [ZERO] * len(a)
    for i, row in enumerate(a):
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out[i] = acc
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


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
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[list]:
    """Basis of the right kernel."""
    if not m:
        return []
    a, pivots = rref(m)
    return _kernel(a, pivots, len(m[0]))


def _kernel(a: Matrix, pivots: list[int], cols: int) -> list[list]:
    """Kernel basis of the first cols columns of a reduced matrix."""
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


def solve(m: Matrix, rhs: list) -> tuple[list, list[list]] | None:
    """One exact solution of m x = rhs and a basis of the kernel of m,
    from one elimination; None if inconsistent."""
    cols = len(m[0]) if m else 0
    a, pivots = rref([row + [b] for row, b in zip(m, rhs)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = a[r][cols]
    return x, _kernel(a, pivots, cols)


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [row + unit for row, unit in zip(m, identity(n))]
    a, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in a]


def det(m: Matrix) -> GaussianRational:
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
