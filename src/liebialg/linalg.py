"""Exact linear algebra: one fraction-free elimination in ints, and
dense Gaussian elimination over the Gaussian rationals.

Every system a command solves goes through echelon: the Killing Gram
of a root system, the table loop's systems and every rank and span of a
Manin double.  It takes sparse int vectors {column: entry} and runs
Gauss-Jordan without fractions (Bareiss, Math. Comp. 22, 1968), one
update per nonzero.  int_solve reads an integer system's solution off
its echelon rows and hands it over in core's integer format.  The dense
rref, inverse, det and rank take lists of row lists of GaussianRational.
No command calls them: the tests use them as dense references, and the
benchmark's per-layer tracer binds them by name (perfbench/layers.py).
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
    return len(rref(m)[1])


def _clear(v: dict, row: dict, c: int) -> dict:
    """p v - f row over gcd(p, f), divided by its content, for the
    entries p of row and f of v at column c: v with column c cleared.
    v is copied, and the copy updated in place."""
    p, f = row[c], v[c]
    g = gcd(p, f)
    s, f = p // g, f // g
    out = {j: s * x for j, x in v.items()} if s != 1 else dict(v)
    for j, y in row.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        for j, x in out.items():
            out[j] = x // g
    return out


def residual(v: dict, rows: dict) -> dict:
    """The sparse int vector v {column: entry} reduced against the
    echelon rows: zero (empty) iff v lies in their span.  Each row
    vanishes on the other pivot columns, so clearing one pivot column of
    v only scales the others, and one pass over the pivot columns in the
    support of v suffices."""
    v = {j: x for j, x in v.items() if x}
    for c in [c for c in v if c in rows]:
        v = _clear(v, rows[c], c)
    return v


def echelon(vectors) -> dict:
    """Fraction-free Gauss-Jordan elimination of sparse int vectors:
    {pivot column: row}.  Each new row's smallest column is its pivot,
    and that column is cleared from the earlier rows, so every row
    starts at its pivot and vanishes on the other pivots: the reduced
    row echelon form of the span, up to one scale per row, whatever the
    order of the vectors.  Its length is the rank."""
    rows: dict[int, dict] = {}
    for v in vectors:
        v = residual(v, rows)
        if not v:
            continue
        c = min(v)
        for k, row in rows.items():
            if row.get(c):
                rows[k] = _clear(row, v, c)
        rows[c] = v
    return rows


def int_solve(rows: list, cols: int) -> tuple[tuple, dict] | None:
    """Solve the augmented integer rows [m_0 .. m_{cols-1}, rhs]; None if
    inconsistent.

    Returns (x, kernel) read off the echelon rows of the system: x with
    free coordinates 0, and kernel mapping each free column, in
    increasing order, to its standard kernel vector.  Each vector is
    (den, [numerators]), a rational vector in core's integer format.
    """
    ech = echelon(dict(enumerate(row)) for row in rows)  # residual drops the zeros
    if cols in ech:  # a row 0 = rhs != 0
        return None
    # every vector of the answer over m, the product of the distinct
    # pivot sizes; lowest makes it canonical
    m = prod({abs(row[c]) for c, row in ech.items()})
    x = [0] * cols
    kernel = {f: [0] * cols for f in range(cols) if f not in ech}
    for c, row in ech.items():
        s = m // row[c]
        for j, y in row.items():
            if j == cols:
                x[c] = s * y
            elif j != c:
                kernel[j][c] = -s * y
    for f, v in kernel.items():
        v[f] = m

    def vector(v: list) -> tuple:
        den, (v,) = lowest(m, (v,))
        return den, list(v)

    return vector(x), {f: vector(v) for f, v in kernel.items()}


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [row + [ONE if j == i else ZERO for j in range(n)] for i, row in enumerate(m)]
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
