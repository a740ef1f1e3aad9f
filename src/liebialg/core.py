"""Exact scalar arithmetic, order-2 tensors and a sparse CYBE evaluator.

Scalars are Gaussian rationals (a + b*i) / d held as three
arbitrary-precision ints in the normal form d > 0, gcd(a, b, d) = 1, so
every identity checked in this library is a literal equality of ints;
there are no tolerances anywhere.  Each + - * / costs one gcd (none over
denominator 1).  No float ever becomes a scalar: the constructor takes
ints and Fractions only, and JSON scalars must be rational strings.

Rational literals are read in ints when they have the form that
to_json writes, -?[0-9]+(/[0-9]+)? with a nonzero denominator; any
other literal (whitespace, '+', '_', a decimal point, an exponent,
non-ASCII digits, a zero denominator) goes to fractions.Fraction, which
gives it the value, or raises the ValueError or ZeroDivisionError, that
Fraction(text) does.  fractions is imported only on that path, so a
run that reads and writes canonical literals never loads it.

Order-2 tensors over a finite-dimensional algebra, whose multiplication
is given by a sparse structure-constant table, are dicts of their
nonzero Gaussian-rational entries.  The order-3 CYBE of such a tensor
is summed in ints: the tensor over the lcm of its entry denominators,
the (real) table over the lcm of its coefficients', so each term is a
Gaussian-integer pair and the sum has one common denominator.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping, Sequence
from math import gcd, isqrt, lcm


def rational_sqrt(p: int, q: int) -> GaussianRational | None:
    """Exact square root of p / q (q > 0) as a real scalar, or None if
    p / q is negative or not the square of a rational."""
    if p < 0:
        return None
    g = gcd(p, q)
    p, q = p // g, q // g
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return _gr(rp, 0, rq)
    return None


def rational(p: int, q: int) -> GaussianRational:
    """The real scalar p / q of two ints, q != 0: one gcd and a sign fix."""
    if not q:
        raise ZeroDivisionError("division by zero in Q(i)")
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return _gr(p // g, 0, q // g) if g != 1 else _gr(p, 0, q)


class GaussianRational:
    """An element (a + b*i) / d of Q(i) in three ints, d > 0 and
    gcd(a, b, d) = 1, so equal scalars have equal fields.

    Parts are ints or Fractions; anything else, a float above all, is a
    TypeError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        self.a, self.b, self.d = _join(*_ratio(re), *_ratio(im))

    def real_part(self) -> "GaussianRational":
        """Re z as a (real) GaussianRational."""
        if not self.b:
            return self
        g = gcd(self.a, self.d)
        return _gr(self.a // g, 0, self.d // g)

    def imag_part(self) -> "GaussianRational":
        """Im z as a (real) GaussianRational."""
        g = gcd(self.b, self.d)
        return _gr(self.b // g, 0, self.d // g)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            a, b = self.a + other.a, self.b + other.b
            if d == 1:
                return _gr(a, b, 1)
        else:
            a, b, d = self.a * e + other.a * d, self.b * e + other.b * d, d * e
        g = gcd(a, b, d)
        return _gr(a // g, b // g, d // g) if g != 1 else _gr(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            a, b = self.a - other.a, self.b - other.b
            if d == 1:
                return _gr(a, b, 1)
        else:
            a, b, d = self.a * e - other.a * d, self.b * e - other.b * d, d * e
        g = gcd(a, b, d)
        return _gr(a // g, b // g, d // g) if g != 1 else _gr(a, b, d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2, d = self.a, self.b, other.a, other.b, self.d * other.d
        if not b1 and not b2:  # real times real
            a = a1 * a2
            if d == 1:
                return _gr(a, 0, 1)
            g = gcd(a, d)
            return _gr(a // g, 0, d // g) if g != 1 else _gr(a, 0, d)
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        if d == 1:
            return _gr(a, b, 1)
        g = gcd(a, b, d)
        return _gr(a // g, b // g, d // g) if g != 1 else _gr(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a2, b2 = other.a, other.b
        if not a2 and not b2:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        a1, b1, d2 = self.a, self.b, other.d
        a = (a1 * a2 + b1 * b2) * d2
        b = (b1 * a2 - a1 * b2) * d2
        d = self.d * (a2 * a2 + b2 * b2)
        if d == 1:
            return _gr(a, b, 1)
        g = gcd(a, b, d)
        return _gr(a // g, b // g, d // g)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conj(self) -> "GaussianRational":
        return _gr(self.a, -self.b, self.d) if self.b else self

    def is_real(self) -> bool:
        return not self.b

    def is_imaginary(self) -> bool:
        return not self.a

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        re, im = _fraction_repr(self.a, self.d), _fraction_repr(self.b, self.d)
        return f"GaussianRational({re}, {im})"

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_str(a, d)
        imag = "i" if b == d else "-i" if b == -d else f"{_ratio_str(b, d)}i"
        if not a:
            return imag
        return f"{_ratio_str(a, d)}{'+' if b > 0 else ''}{imag}"

    def to_json(self) -> list[str]:
        return [_ratio_str(self.a, self.d), _ratio_str(self.b, self.d)]

    @staticmethod
    def from_json(pair: Sequence[str]) -> "GaussianRational":
        """Read to_json output: two rational strings, never JSON numbers."""
        re, im = pair
        if type(re) is not str or type(im) is not str:
            raise TypeError(f"scalar {list(pair)!r} must be a pair of strings")
        return _gr(*_join(*_read(re), *_read(im)))

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
            p, q = _read(body)
            return _gr(0, p, q)
        p, q = _read(text)
        return _gr(p, 0, q)


_new = object.__new__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i) / d from fields already in normal form."""
    z = _new(GaussianRational)
    z.a, z.b, z.d = a, b, d
    return z


def _join(p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
    """The fields (a, b, d) of p/q + (r/s) i, both parts in lowest terms."""
    if q == s:
        return p, r, q
    d = q * s // gcd(q, s)  # lowest terms on each side, so gcd(a, b, lcm) = 1
    return p * (d // q), r * (d // s), d


def _is_fraction(x) -> bool:
    """Whether x is a fractions.Fraction; none can exist before that
    module is imported, so its absence from sys.modules answers no."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction part."""
    if isinstance(x, int):
        return int(x), 1
    if _is_fraction(x):
        return x.numerator, x.denominator
    raise TypeError(f"a Gaussian rational part must be an int or Fraction, not {type(x).__name__}")


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _read(text: str) -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms of a rational literal,
    as Fraction(text) reads it; see the module docstring."""
    num, slash, den = text.partition("/")
    if _digits(num[1:] if num[:1] == "-" else num) and (
        not slash or (_digits(den) and den.strip("0"))
    ):
        p, q = int(num), int(den) if slash else 1
        g = gcd(p, q)
        return p // g, q // g
    from fractions import Fraction

    x = Fraction(text)
    return x.numerator, x.denominator


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _fraction_repr(n: int, d: int) -> str:
    """repr(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return f"Fraction({n // g}, {d // g})"


def _coerce(value) -> GaussianRational:
    if type(value) is GaussianRational:
        return value
    if isinstance(value, int):
        return _gr(int(value), 0, 1)
    if _is_fraction(value):
        return _gr(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = _gr(1, 0, 2)


class StructureTable:
    """Sparse multiplication table of a finite-dimensional algebra.

    table maps an ordered basis pair (i, j) to a tuple of (k, coeff)
    terms meaning [e_i, e_j] = sum coeff * e_k.  Pairs with zero bracket
    are absent.
    """

    __slots__ = ("dim", "table", "_ints")

    def __init__(self, dim: int, table: Mapping[tuple[int, int], tuple]):
        self.dim = dim
        self.table = dict(table)
        self._ints = None

    def int_view(self) -> tuple[int, dict]:
        """(E, the table with every coefficient times E) for the lcm E of
        the coefficient denominators, built on first call.  Every table
        of this library is real, so the coefficients become ints."""
        if self._ints is None:
            e = lcm(*(c.d for terms in self.table.values() for _, c in terms))
            ints = {}
            for key, terms in self.table.items():
                assert not any(c.b for _, c in terms), "structure constants must be real"
                ints[key] = tuple((k, c.a * (e // c.d)) for k, c in terms)
            self._ints = e, ints
        return self._ints

    def bracket_basis(self, i: int, j: int) -> tuple:
        return self.table.get((i, j), ())

    def bracket_terms(self, u: list, v: list) -> list:
        """The terms (k, x) of [u, v], for u and v given as lists of their
        nonzero (index, coefficient); an index k may repeat."""
        table = self.table
        return [
            (k, x * y * c) for a, x in u for b, y in v for k, c in table.get((a, b), ())
        ]


class Tensor2:
    """Order-2 tensor over the ambient basis, as a dict {(i, j): entry} of
    its nonzero entries; immutable by convention.

    No zero is ever stored, so equality is dict equality and every
    operation costs O(nonzeros)."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict | None = None):
        self.dim = dim
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    @staticmethod
    def from_items(dim: int, items) -> "Tensor2":
        ent: dict[tuple[int, int], GaussianRational] = {}
        for k, v in items:
            ent[k] = ent[k] + v if k in ent else v
        return Tensor2(dim, ent)

    def get(self, i: int, j: int) -> GaussianRational:
        return self.entries.get((i, j), ZERO)

    def items(self) -> Iterator[tuple[tuple[int, int], GaussianRational]]:
        """The nonzero entries in row-major order."""
        return iter(sorted(self.entries.items()))

    def int_entries(self) -> tuple[int, list]:
        """(D, [(i, j, re, im)]): the nonzero entries in row-major order
        times the lcm D of their denominators, as Gaussian-integer pairs."""
        d = lcm(*(v.d for v in self.entries.values()))
        return d, [(i, j, v.a * (d // v.d), v.b * (d // v.d)) for (i, j), v in self.items()]

    def transpose(self) -> "Tensor2":
        return Tensor2(self.dim, {(j, i): v for (i, j), v in self.entries.items()})

    def __add__(self, other: "Tensor2") -> "Tensor2":
        _same_dim(self, other)
        return Tensor2.from_items(self.dim, [*self.entries.items(), *other.entries.items()])

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + -other

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.dim, {k: -v for k, v in self.entries.items()})

    def scale(self, c) -> "Tensor2":
        c = _coerce(c)
        return Tensor2(self.dim, {k: c * v for k, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def is_antisymmetric(self) -> bool:
        e = self.entries
        return all(-v == e.get((j, i), ZERO) for (i, j), v in e.items())

    def __eq__(self, other):
        return (
            isinstance(other, Tensor2)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[i, j, *v.to_json()] for (i, j), v in self.items()],
        }

    @staticmethod
    def from_json(doc: dict) -> "Tensor2":
        """Read to_json output; explicit zero entries are dropped."""
        d = doc["dim"]
        ent = {}
        for i, j, re, im in doc["entries"]:
            if type(i) is not int or type(j) is not int:  # bool, float, str
                raise ValueError(f"tensor entry index ({i!r}, {j!r}) is not an int pair")
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"tensor entry ({i}, {j}) out of range")
            if (i, j) in ent:
                raise ValueError(f"tensor entry ({i}, {j}) repeated")
            ent[(i, j)] = GaussianRational.from_json((re, im))
        return Tensor2(d, ent)


def _same_dim(a, b):
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")


def _cybe_sparse(r: Tensor2, structure: StructureTable) -> tuple[dict, dict, int]:
    """CYB(r) in ints: (re, im, den) with CYB(r)[key] = (re[key] +
    im.get(key, 0) i) / den.  r is scaled by the lcm D of its entry
    denominators and the table by its E, so den = D^2 E; re holds every
    key the sum touches, in first-touch order, im only those that an
    imaginary product reached."""
    if r.dim != structure.dim:
        raise ValueError("dimension mismatch between tensor and structure table")
    dr, items = r.int_entries()
    e, table = structure.int_view()
    acc: dict[tuple[int, int, int], int] = {}
    acc_im: dict[tuple[int, int, int], int] = {}
    for a, b, p, q in items:
        for c, d, s, u in items:
            re, im = p * s - q * u, p * u + q * s
            for k, coef in table.get((a, c), ()):  # [r12, r13]
                key = (k, b, d)
                acc[key] = acc.get(key, 0) + re * coef
                if im:
                    acc_im[key] = acc_im.get(key, 0) + im * coef
            for k, coef in table.get((b, c), ()):  # [r12, r23]
                key = (a, k, d)
                acc[key] = acc.get(key, 0) + re * coef
                if im:
                    acc_im[key] = acc_im.get(key, 0) + im * coef
            for k, coef in table.get((b, d), ()):  # [r13, r23]
                key = (a, c, k)
                acc[key] = acc.get(key, 0) + re * coef
                if im:
                    acc_im[key] = acc_im.get(key, 0) + im * coef
    return acc, acc_im, dr * dr * e


def cybe(r: Tensor2, structure: StructureTable) -> dict:
    """[r12, r13] + [r12, r23] + [r13, r23] as {(i, j, k): nonzero entry}."""
    acc, acc_im, den = _cybe_sparse(r, structure)
    out = {}
    for key, a in acc.items():
        b = acc_im.get(key, 0)
        if a or b:
            g = gcd(a, b, den)
            out[key] = _gr(a // g, b // g, den // g)
    return out


def cybe_is_zero(r: Tensor2, structure: StructureTable) -> bool:
    """Check CYB(r) = 0 on the integer accumulator."""
    acc, acc_im, _ = _cybe_sparse(r, structure)
    return not any(acc.values()) and not any(acc_im.values())


def apply_semilinear_pair(sigma, x: Tensor2) -> Tensor2:
    """(sigma (x) sigma)(x) for a semilinear map sigma (an Involution),
    read off the sparse columns of its linear part.

    No command calls it (rmatrix.sigma_fixes checks sigma-fixity in ints
    on one-entry columns); it stays because the per-layer tracer of
    perfbench/layers.py spans it by name.  Tests use it as the reference
    for sigma_fixes."""
    cols = sigma.columns
    if len(cols) != x.dim:
        raise ValueError("dimension mismatch between map and tensor")
    out: dict[tuple[int, int], GaussianRational] = {}
    for (a, b), v in x.entries.items():
        vc = v.conj()
        for i, mi in cols[a]:
            w = vc * mi
            for j, mj in cols[b]:
                key = (i, j)
                out[key] = out[key] + w * mj if key in out else w * mj
    return Tensor2(x.dim, out)
