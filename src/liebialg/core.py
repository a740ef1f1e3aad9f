"""Exact scalar arithmetic, the integer format, order-2 tensors and a
sparse CYBE evaluator.

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

There is one integer format, and this module owns it: Gaussian-integer
numerators (re, im) over one denominator, the lcm of the reduced
denominators, canonical when the denominator and the numerators have no
common factor.  lowest makes numerators canonical, and over_lcm converts
fractions given by their integer fields (re, im, d) to it, a scalar's or
the table loop's, so no scalar is built to reach it; no other module
computes an lcm.  Tensor2 holds its entries in it, StructureTable its
bracket coefficients, involution's Involution the scalars of its
columns, and parameter's ContinuousParameter each lambda and each
direction, and none of them keeps a scalar copy, so the table loop (the
parameter solve, the reality cut, build_r0) and the checks (the CYBE,
sigma-fixity, the Cartan involution's traces, the parameter constraints,
the Manin axioms) read ints without converting.  gaussian, entry_str and
entry_json read one entry back, where a command writes it or a scalar
routine needs it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain
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
        return entry_str(self.a, self.b, self.d)

    def to_json(self) -> list[str]:
        return entry_json(self.a, self.b, self.d)

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


def gaussian(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i) / d for any ints with d > 0."""
    g = gcd(a, b, d)
    return _gr(a // g, b // g, d // g) if g != 1 else _gr(a, b, d)


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


def entry_str(a: int, b: int, d: int) -> str:
    """The str of the scalar (a + b*i) / d, d > 0, without building it."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    if not b:
        return _ratio_str(a, d)
    imag = "i" if b == d else "-i" if b == -d else f"{_ratio_str(b, d)}i"
    if not a:
        return imag
    return f"{_ratio_str(a, d)}{'+' if b > 0 else ''}{imag}"


def entry_json(a: int, b: int, d: int) -> list[str]:
    """The to_json of the scalar (a + b*i) / d, d > 0, without building it."""
    return [_ratio_str(a, d), _ratio_str(b, d)]


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


def lowest(den: int, groups):
    """(den, groups) over their common factor, the canonical form of a
    denominator den > 0 and its numerators, given in groups of ints (the
    (re, im) pairs of a Tensor2, the re and im rows of a
    ContinuousParameter, the one row of a real vector).  groups comes back
    as given when there is no common factor, else as a list of tuples."""
    g = gcd(den, *chain.from_iterable(groups))
    if g == 1:
        return den, groups
    div = g.__rfloordiv__  # x // g
    return den // g, [tuple(map(div, group)) for group in groups]


def over_lcm(fields) -> tuple[int, list]:
    """(D, [(re, im), ...]): the fractions (re + im i) / d, given by their
    integer fields (re, im, d), d > 0, in any terms, times their common
    denominator D, as Gaussian-integer pairs in order; zeros stay in place
    as (0, 0).  D and the pairs have no common factor, so D is the lcm of
    the reduced denominators.  A scalar x enters as (x.a, x.b, x.d)."""
    fields = list(fields)
    ds = {d for _, _, d in fields}
    den = lcm(*ds)
    scale = {d: den // d for d in ds}
    return lowest(den, [(a * scale[d], b * scale[d]) for a, b, d in fields])


class StructureTable:
    """Sparse multiplication table of a finite-dimensional algebra, in the
    integer format: table maps an ordered basis pair (i, j) to a tuple of
    (k, c) terms meaning [e_i, e_j] = sum (c / den) e_k, for ints c that
    have no common factor with den.  Pairs with zero bracket are absent.

    The constructor takes each coefficient (re + im i) / d by its integer
    fields, as terms (k, re, im, d), and puts them over one over_lcm.
    Every table of this library is real, so the coefficients become ints.
    """

    __slots__ = ("dim", "den", "table")

    def __init__(self, dim: int, fields: Mapping[tuple[int, int], tuple]):
        den, z = over_lcm(term[1:] for terms in fields.values() for term in terms)
        assert not any(b for _, b in z), "structure constants must be real"
        it = (a for a, _ in z)
        self.dim, self.den = dim, den
        self.table = {key: tuple((k, next(it)) for k, *_ in terms) for key, terms in fields.items()}


class Tensor2:
    """Order-2 tensor over the ambient basis in the integer format: entry
    (i, j) is (re + im i) / den for num[(i, j)] = (re, im), and only the
    nonzero entries are stored; immutable by convention.

    den and the numerators have no common factor, so den is the lcm of
    the reduced entry denominators and equal tensors have equal fields.
    Every operation runs in ints over the nonzeros; scalars are built
    only where an entry is read (get, items, to_json)."""

    __slots__ = ("dim", "den", "num")

    def __init__(self, dim: int, entries: Mapping | None = None):
        entries = entries or {}  # {(i, j): scalar}; zeros are dropped
        den, z = over_lcm((x.a, x.b, x.d) for x in entries.values())
        shared: dict = {}  # one pair per distinct entry: r0 repeats +-t/2 on every root pair
        self.dim, self.den = dim, den
        self.num = {k: shared.setdefault(p, p) for k, p in zip(entries, z) if p != (0, 0)}

    @staticmethod
    def from_ints(dim: int, den: int, num: dict) -> "Tensor2":
        """The tensor of the nonzero Gaussian-integer numerators num over
        den > 0, made canonical by lowest."""
        values = list(num.values())
        den, z = lowest(den, values)
        t = _new(Tensor2)
        t.dim, t.den, t.num = dim, den, num if z is values else dict(zip(num, z))
        return t

    @staticmethod
    def from_items(dim: int, items) -> "Tensor2":
        ent: dict[tuple[int, int], GaussianRational] = {}
        for k, v in items:
            ent[k] = ent[k] + v if k in ent else v
        return Tensor2(dim, ent)

    def get(self, i: int, j: int) -> GaussianRational:
        p = self.num.get((i, j))
        return ZERO if p is None else gaussian(*p, self.den)

    def items(self) -> Iterator[tuple[tuple[int, int], GaussianRational]]:
        """The nonzero entries in row-major order."""
        den = self.den
        return ((k, gaussian(a, b, den)) for k, (a, b) in sorted(self.num.items()))

    def transpose(self) -> "Tensor2":
        return Tensor2.from_ints(self.dim, self.den, {(j, i): p for (i, j), p in self.num.items()})

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d, e, m = self.den, other.den, lcm(self.den, other.den)
        s, u = m // d, m // e
        num = {k: (a * s, b * s) for k, (a, b) in self.num.items()}
        for k, (a, b) in other.num.items():
            p, q = num.get(k, (0, 0))
            num[k] = (p + a * u, q + b * u)
        return Tensor2.from_ints(self.dim, m, {k: p for k, p in num.items() if p != (0, 0)})

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + -other

    def __neg__(self) -> "Tensor2":
        return Tensor2.from_ints(self.dim, self.den, {k: (-a, -b) for k, (a, b) in self.num.items()})

    def scale(self, c) -> "Tensor2":
        c = _coerce(c)
        x, y = c.a, c.b
        num = {k: (a * x - b * y, a * y + b * x) for k, (a, b) in self.num.items()} if x or y else {}
        return Tensor2.from_ints(self.dim, self.den * c.d, num)

    def is_zero(self) -> bool:
        return not self.num

    def is_antisymmetric(self) -> bool:
        num = self.num
        return all(num.get((j, i)) == (-a, -b) for (i, j), (a, b) in num.items())

    def __eq__(self, other):
        fields = (self.dim, self.den, self.num)
        return isinstance(other, Tensor2) and fields == (other.dim, other.den, other.num)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    def to_json(self) -> dict:
        den, num = self.den, sorted(self.num.items())
        entries = [[i, j, _ratio_str(a, den), _ratio_str(b, den)] for (i, j), (a, b) in num]
        return {"dim": self.dim, "entries": entries}

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


def cybe_sums(r: Tensor2, structure: StructureTable) -> tuple[dict, dict, int]:
    """CYB(r) in ints: (re, im, den) with CYB(r)[key] = (re[key] +
    im.get(key, 0) i) / den.  r is read over its den D and the table over
    its E, so den = D^2 E; re holds every key the sum touches, in
    first-touch order of the row-major entries, im only those that an
    imaginary product reached."""
    if r.dim != structure.dim:
        raise ValueError("dimension mismatch between tensor and structure table")
    items = [(i, j, p, q) for (i, j), (p, q) in sorted(r.num.items())]
    e, table = structure.den, structure.table
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
    return acc, acc_im, r.den * r.den * e


def cybe_is_zero(r: Tensor2, structure: StructureTable) -> bool:
    """Check CYB(r) = 0 on the integer accumulator."""
    acc, acc_im, _ = cybe_sums(r, structure)
    return not any(acc.values()) and not any(acc_im.values())


def apply_semilinear_pair(sigma, x: Tensor2) -> Tensor2:
    """(sigma (x) sigma)(x) for a semilinear map sigma (an Involution):
    the entry v at (a, b) goes to conj(v) m_a m_b at (sigma a, sigma b).

    No command calls it (rmatrix.sigma_fixes checks sigma-fixity in
    ints); it stays because the per-layer tracer of perfbench/layers.py
    spans it by name.  Tests use it as the reference for sigma_fixes."""
    images, den, scalars = sigma.images, sigma.den, sigma.scalars
    if len(images) != x.dim:
        raise ValueError("dimension mismatch between map and tensor")
    out: dict[tuple[int, int], GaussianRational] = {}
    for (a, b), v in x.items():
        key = (images[a], images[b])
        w = v.conj() * gaussian(*scalars[a], den) * gaussian(*scalars[b], den)
        out[key] = out[key] + w if key in out else w
    return Tensor2(x.dim, out)
