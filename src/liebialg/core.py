"""Exact scalar arithmetic, order-2 tensors and a sparse CYBE evaluator.

Scalars are Gaussian rationals a + b*i with a, b arbitrary-precision
rationals, so every identity checked in this library is a literal
equality; there are no tolerances anywhere.

Order-2 tensors are dense arrays of Gaussian rationals over a
finite-dimensional algebra whose multiplication is given by a sparse
structure-constant table; the order-3 CYBE of such a tensor is kept as
a dict of its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Mapping, Sequence, Union

Rationalish = Union[int, Fraction]


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


class GaussianRational:
    """An element of Q(i), kept in lowest terms by Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def is_imaginary(self) -> bool:
        return not self.re

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def to_json(self) -> list[str]:
        return [str(self.re), str(self.im)]

    @staticmethod
    def from_json(pair: Sequence[str]) -> "GaussianRational":
        return GaussianRational(Fraction(pair[0]), Fraction(pair[1]))

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse 'a/b', 'a/b*i' style literals ('i', '-i', '2i', '1/2i')."""
        text = text.strip().replace(" ", "").replace("*", "")
        if text.endswith("i"):
            body = text[:-1]
            if body in ("", "+"):
                return GaussianRational(0, 1)
            if body == "-":
                return GaussianRational(0, -1)
            return GaussianRational(0, Fraction(body))
        return GaussianRational(Fraction(text))


def _coerce(value) -> GaussianRational:
    if type(value) is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class StructureTable:
    """Sparse multiplication table of a finite-dimensional algebra.

    table maps an ordered basis pair (i, j) to a tuple of (k, coeff)
    terms meaning [e_i, e_j] = sum coeff * e_k.  Pairs with zero bracket
    are absent.
    """

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], tuple]):
        self.dim = dim
        self.table = dict(table)

    def bracket_basis(self, i: int, j: int) -> tuple:
        return self.table.get((i, j), ())

    def bracket(self, u: Sequence[GaussianRational], v: Sequence[GaussianRational]):
        """Bracket of two coordinate vectors."""
        out = [ZERO] * self.dim
        v_nonzero = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in v_nonzero:
                for k, c in self.table.get((i, j), ()):
                    out[k] = out[k] + a * b * c
        return out

    def ad(self, u: Sequence[GaussianRational]) -> list[list[GaussianRational]]:
        """Matrix of x -> [u, x] in basis coordinates."""
        n = self.dim
        mat = [[ZERO] * n for _ in range(n)]
        for i, a in enumerate(u):
            if not a:
                continue
            for j in range(n):
                for k, c in self.table.get((i, j), ()):
                    mat[k][j] = mat[k][j] + a * c
        return mat


class Tensor2:
    """Dense order-2 tensor over the ambient basis; immutable by convention."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: list[GaussianRational] | None = None):
        self.dim = dim
        if entries is None:
            entries = [ZERO] * (dim * dim)
        if len(entries) != dim * dim:
            raise ValueError("entries length must equal dim**2")
        self.entries = entries

    @staticmethod
    def from_items(dim: int, items) -> "Tensor2":
        ent = [ZERO] * (dim * dim)
        for (i, j), v in items:
            ent[i * dim + j] = ent[i * dim + j] + v
        return Tensor2(dim, ent)

    def get(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.dim + j]

    def items(self) -> Iterator[tuple[tuple[int, int], GaussianRational]]:
        d = self.dim
        for idx, v in enumerate(self.entries):
            if v:
                yield divmod(idx, d), v

    def transpose(self) -> "Tensor2":
        d = self.dim
        return Tensor2(d, [self.entries[j * d + i] for i in range(d) for j in range(d)])

    def __add__(self, other: "Tensor2") -> "Tensor2":
        _same_dim(self, other)
        return Tensor2(self.dim, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        _same_dim(self, other)
        return Tensor2(self.dim, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.dim, [-a for a in self.entries])

    def scale(self, c) -> "Tensor2":
        c = _coerce(c)
        return Tensor2(self.dim, [c * a for a in self.entries])

    def conjugate(self) -> "Tensor2":
        return Tensor2(self.dim, [a.conj() for a in self.entries])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_antisymmetric(self) -> bool:
        d = self.dim
        return all(
            self.entries[i * d + j] == -self.entries[j * d + i]
            for i in range(d)
            for j in range(i, d)
        )

    def is_symmetric(self) -> bool:
        d = self.dim
        return all(
            self.entries[i * d + j] == self.entries[j * d + i]
            for i in range(d)
            for j in range(i + 1, d)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Tensor2)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.entries)))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[i, j, *v.to_json()] for (i, j), v in self.items()],
        }

    @staticmethod
    def from_json(doc: dict) -> "Tensor2":
        d = doc["dim"]
        t = [ZERO] * (d * d)
        for i, j, re, im in doc["entries"]:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"tensor entry ({i}, {j}) out of range")
            t[i * d + j] = GaussianRational(Fraction(re), Fraction(im))
        return Tensor2(d, t)


def _same_dim(a, b):
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")


def wedge(x: Tensor2) -> Tensor2:
    """x - x^{21}; realizes a wedge b = a (x) b - b (x) a."""
    return x - x.transpose()


def _cybe_sparse(r: Tensor2, structure: StructureTable) -> dict:
    if r.dim != structure.dim:
        raise ValueError("dimension mismatch between tensor and structure table")
    items = list(r.items())
    table = structure.table
    acc: dict[tuple[int, int, int], GaussianRational] = {}
    for (a, b), va in items:
        for (c, d), vc in items:
            v = va * vc
            for k, coef in table.get((a, c), ()):  # [r12, r13]
                key = (k, b, d)
                acc[key] = acc.get(key, ZERO) + v * coef
            for k, coef in table.get((b, c), ()):  # [r12, r23]
                key = (a, k, d)
                acc[key] = acc.get(key, ZERO) + v * coef
            for k, coef in table.get((b, d), ()):  # [r13, r23]
                key = (a, c, k)
                acc[key] = acc.get(key, ZERO) + v * coef
    return acc


def cybe(r: Tensor2, structure: StructureTable) -> dict:
    """[r12, r13] + [r12, r23] + [r13, r23] as {(i, j, k): nonzero entry}."""
    return {k: v for k, v in _cybe_sparse(r, structure).items() if v}


def cybe_is_zero(r: Tensor2, structure: StructureTable) -> bool:
    """Check CYB(r) = 0 on the sparse accumulator."""
    return not any(_cybe_sparse(r, structure).values())


def apply_semilinear_pair(sigma, x: Tensor2) -> Tensor2:
    """(sigma (x) sigma)(x) for a semilinear map given by its linear matrix.

    Accepts either an object with a .matrix attribute (an Involution) or
    a raw square matrix as list of rows.
    """
    m = getattr(sigma, "matrix", sigma)
    d = x.dim
    if len(m) != d:
        raise ValueError("dimension mismatch between map and tensor")
    out: dict[tuple[int, int], GaussianRational] = {}
    cols: dict[int, list[tuple[int, GaussianRational]]] = {}

    def col(j):
        c = cols.get(j)
        if c is None:
            c = [(i, m[i][j]) for i in range(d) if m[i][j]]
            cols[j] = c
        return c

    for (a, b), v in x.items():
        vc = v.conj()
        for i, mi in col(a):
            w = vc * mi
            for j, mj in col(b):
                key = (i, j)
                out[key] = out.get(key, ZERO) + w * mj
    return Tensor2.from_items(d, out.items())
