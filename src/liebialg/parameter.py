"""Continuous parameters: the affine space of solutions of

    (T(a) (x) 1) lam + (1 (x) a) lam = 0   for a in Gamma1,
    lam + lam^{21} = Omega_0,

and the reality rule that cuts it down to one real form.

lam is a rank x rank matrix over the Cartan basis h_i, held in core's
integer format (ContinuousParameter); its antisymmetric part carries the
coefficients lam[a][b] appearing in wedge coordinates (lam - lam^{21} =
sum lam_ab h_a wedge h_b).

The reality rule is (sigma (x) sigma)(r0) = r0 for the real form's
canonical involution sigma, which is semilinear and sends h_a to eps
h_{mu a} and x_gamma into the line of x_{eps mu gamma}: eps = +1 for
varsigma(mu), -1 for omega(mu, J).  On the paired slots (x_{-gamma},
x_gamma), which carry t / 2, the rule asks conj(t) = eps t; on the
Cartan block t a, a the antisymmetric part of lam, it then asks a_ij =
eps conj(a_{mu i, mu j}); on the precedence terms it asks a mu-stable
triple for varsigma, a mu-antistable one for omega.  At mu = 1 every
triple is stable, and an antistable tau maps Gamma1 onto Gamma2 =
Gamma1, so no chain leaves Gamma1 and a nilpotent tau is empty:
omega(1, J) admits only the empty triple.

The system has integer coefficients once scaled, so it is solved and
checked in Python ints, and its solution space is rational; the reality
cut splits into real and imaginary parts accordingly.  lam, the base
point and the directions stay in ints from the solve to the checks, and
are written from the ints; only build's direction coefficients arrive as
scalars, and point reads their fields.
"""

from __future__ import annotations

from math import comb
from operator import add, mul

from . import linalg
from .bdtriple import BDTriple
from .core import GaussianRational, entry_fields, entry_json, lowest, over_lcm
from .involution import Involution
from .rootsystem import RootSystem


class NoBialgebraDatum(ValueError):
    """The requested (involution, triple) combination admits no parameter."""


class ContinuousParameter:
    """A rank x rank matrix over the Cartan basis in core's integer
    format: entry (i, j) is (re[k] + im[k] i) / den at k = rank * i + j.
    den and the numerators have no common factor, so equal matrices have
    equal fields.  lam is one, and so is each direction of a parameter
    space when it is read; immutable by convention."""

    __slots__ = ("rank", "den", "re", "im")

    def __init__(self, rank: int, den: int, re, im):
        self.rank = rank
        self.den, (self.re, self.im) = lowest(den, (tuple(re), tuple(im)))

    @staticmethod
    def from_json(rows: list) -> "ContinuousParameter":
        """Read to_json output, rank rows of [re, im] pairs, into ints."""
        den, z = over_lcm(entry_fields(x) for row in rows for x in row)
        return ContinuousParameter(len(rows), den, [a for a, _ in z], [b for _, b in z])

    def __eq__(self, other):
        if type(other) is not ContinuousParameter:
            return NotImplemented
        return (self.den, self.re, self.im) == (other.den, other.re, other.im)

    def __hash__(self):
        return hash((self.den, self.re, self.im))

    def to_json(self) -> list:
        n, den, re, im = self.rank, self.den, self.re, self.im
        return [
            [entry_json(re[k], im[k], den) for k in range(n * i, n * i + n)] for i in range(n)
        ]


class ParameterSpace:
    """Affine solution space: base point plus a span of directions.

    Directions are rank x rank antisymmetric matrices, each held as its
    coordinates over the pairs i < j in a ContinuousParameter's fields,
    (den, re, im), as lowest leaves them; `directions` makes them matrices
    where a command writes them or combines them with a user's
    coefficients.  Before apply_reality the span is over the complex
    scalars; afterwards the coefficients range over the reals and
    reality_kind records which case was imposed.
    """

    __slots__ = ("rank", "base_point", "coordinates", "reality_kind", "__weakref__")

    def __init__(
        self, rank: int, base_point: ContinuousParameter, coordinates: list,
        reality_kind: str | None = None,
    ):
        self.rank, self.base_point = rank, base_point
        self.coordinates, self.reality_kind = coordinates, reality_kind

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    @property
    def directions(self) -> list:
        """The directions as antisymmetric ContinuousParameter matrices."""
        return [_antisym(self.rank, *c) for c in self.coordinates]

    def point(self, coefficients) -> ContinuousParameter:
        """base_point + sum c_m D_m over the directions D_m."""
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coefficients]
        return _point(self.base_point, [(c.a, c.b, c.d) for c in cs], self.directions)

    def to_json(self) -> dict:
        return {
            "base_point": self.base_point.to_json(),
            "directions": [d.to_json() for d in self.directions],
            "reality_kind": self.reality_kind,
        }


def _antisym(n: int, den: int, cre, cim) -> ContinuousParameter:
    """The antisymmetric n x n matrix with the coordinates (cre + cim i) /
    den over the pairs i < j."""
    re, im = [0] * (n * n), [0] * (n * n)
    for (i, j), a, b in zip(_pair_index(n), cre, cim):
        re[n * i + j], re[n * j + i], im[n * i + j], im[n * j + i] = a, -a, b, -b
    return ContinuousParameter(n, den, re, im)


def _combine(terms: list) -> tuple[int, tuple, tuple]:
    """sum c v over the terms (c, (den, re, im)): each c a scalar by its
    fields (re, im, d), each v Gaussian-integer numerators over den.
    over_lcm puts every c / den over one denominator, so the sum is one
    pass of integer products."""
    den, scales = over_lcm((a, b, d * v[0]) for (a, b, d), v in terms)
    size = len(terms[0][1][1])
    re, im = [0] * size, [0] * size
    for (x, y), (_, (_, vre, vim)) in zip(scales, terms):
        if x or y:
            for k, p, q in zip(range(size), vre, vim):
                if p or q:
                    re[k] += x * p - y * q
                    im[k] += x * q + y * p
    den, (re, im) = lowest(den, (tuple(re), tuple(im)))
    return den, re, im


def _point(base: ContinuousParameter, coefficients: list, directions: list) -> ContinuousParameter:
    """base + sum c_m D_m, each c_m by its fields (re, im, d)."""
    terms = [((1, 0, 1), (base.den, base.re, base.im))]
    terms += [(c, (d.den, d.re, d.im)) for c, d in zip(coefficients, directions)]
    return ContinuousParameter(base.rank, *_combine(terms))


def _pair_index(rank: int):
    return [(i, j) for i in range(rank) for j in range(i + 1, rank)]


def satisfies_constraints(rs: RootSystem, bd: BDTriple, lam: ContinuousParameter) -> bool:
    """lam + lam^T = Omega_0 and lam^T g_{T(a)} + lam g_a = 0 for a in
    Gamma1, as literal equalities of ints: lam's numerators over its den,
    the g_a as the integer simple-root columns (the second system is
    homogeneous, so their common denominator drops out)."""
    n = rs.rank
    den, re, im = lam.den, lam.re, lam.im
    omega0 = rs.cartan_dual_gram
    for i in range(n):
        for j in range(i, n):
            if re[n * i + j] + re[n * j + i] != den * omega0[i][j] or im[n * i + j] + im[n * j + i]:
                return False
    cols = rs.gram
    for z in (re, im) if any(im) else (re,):
        rows, columns = [z[n * k : n * k + n] for k in range(n)], [z[k::n] for k in range(n)]
        for a in bd.gamma1:
            ga, gt = cols[a], cols[bd.mapping[a]]
            for row, column in zip(rows, columns):
                if sum(map(mul, column, gt)) + sum(map(mul, row, ga)):
                    return False
    return True


def solve_parameters(rs: RootSystem, bd: BDTriple) -> ParameterSpace:
    """Complex affine solution space over the antisymmetric unknowns.

    The symmetric part is forced to Omega_0 / 2; the remaining system in
    the antisymmetric part A reads A^T g_{T(a)} + A g_a = rhs_a, solved
    in ints with each row scaled by twice the denominator of the
    simple-root columns.  The directions span the 2-forms on the
    annihilator of the g_a - g_{T(a)} (Belavin-Drinfeld), so there are
    C(k, 2) of them, k = rank - |Gamma1|; each is kept as the kernel
    vector int_solve gives, its coordinates over the pairs i < j.
    """
    n = rs.rank
    pairs = _pair_index(n)
    cols = rs.gram
    omega0 = rs.cartan_dual_gram
    pos = {p: c for c, p in enumerate(pairs)}
    rows = []
    for a in bd.gamma1:
        ga, gt = cols[a], cols[bd.mapping[a]]
        for k in range(n):
            # coefficient of A_ij in (A^T gt + A ga)_k, A antisymmetric:
            # 2 (gt_i - ga_i) at A_ik and 2 (ga_j - gt_j) at A_kj; the right
            # side is -(Omega_0 / 2)(gt + ga), Omega_0 symmetric
            row = [0] * (len(pairs) + 1)
            for i in range(k):
                row[pos[i, k]] = 2 * (gt[i] - ga[i])
            for j in range(k + 1, n):
                row[pos[k, j]] = 2 * (ga[j] - gt[j])
            row[-1] = -sum(map(mul, omega0[k], map(add, gt, ga)))
            rows.append(row)
    affine = linalg.int_solve(rows, len(pairs))
    assert affine is not None, "parameter system inconsistent for a valid triple"
    (den, sol), kernel = affine
    assert len(kernel) == comb(n - len(bd.gamma1), 2)

    # lam = A + Omega_0 / 2, A antisymmetric with sol / den above the
    # diagonal: numerators over 2 den
    a = [0] * (n * n)
    for (i, j), x in zip(pairs, sol):
        a[n * i + j], a[n * j + i] = x, -x
    w = (x for row in omega0 for x in row)
    base = ContinuousParameter(n, 2 * den, [2 * x + den * y for x, y in zip(a, w)], [0] * (n * n))
    zero = (0,) * len(pairs)
    space = ParameterSpace(n, base, [(d, tuple(v), zero) for d, v in kernel.values()])
    assert satisfies_constraints(rs, bd, space.base_point)
    return space


def _reality_kind(sigma: Involution) -> str:
    """The name a cut parameter space records for sigma's rule: by eps,
    and by whether mu is trivial."""
    if sigma.mu.is_identity():
        return "real" if sigma.kind == "varsigma" else "imaginary"
    return "conjugate-mu" if sigma.kind == "varsigma" else "anti-conjugate-mu"


def lambda_reality_ok(lam: ContinuousParameter, sigma: Involution) -> bool:
    """a_ij = eps conj(a_{mu i, mu j}) for the antisymmetric part a of
    lam, on lam's numerators: 2 den a_ij = (re_ij - re_ji) + (im_ij -
    im_ji) i.  Checked over the pairs i < j: at (j, i) the rule is the
    negation of the one at (i, j), and on the diagonal both sides are 0."""
    n, re, im, mu = lam.rank, lam.re, lam.im, sigma.mu.permutation
    eps = 1 if sigma.kind == "varsigma" else -1
    for i in range(n):
        mi = n * mu[i]
        for j in range(i + 1, n):
            k, l, p, q = n * i + j, n * j + i, mi + mu[j], n * mu[j] + mu[i]
            if re[k] - re[l] != eps * (re[p] - re[q]) or im[k] - im[l] != eps * (im[q] - im[p]):
                return False
    return True


def t_reality_ok(t: GaussianRational, sigma: Involution) -> bool:
    """conj(t) = eps t."""
    return t.is_real() if sigma.kind == "varsigma" else t.is_imaginary()


def stability_ok(bd: BDTriple, sigma: Involution) -> bool:
    """Whether sigma maps the triple's precedence terms to its own: for
    varsigma the triple is mu-stable, mu(Gamma1) = Gamma1, mu(Gamma2) =
    Gamma2 and tau mu = mu tau; for omega it is mu-antistable, mu(Gamma1)
    = Gamma2, mu(Gamma2) = Gamma1 and tau^-1 mu = mu tau on Gamma1."""
    mu, tau = sigma.mu, bd.mapping
    g1, g2 = set(bd.gamma1), set(bd.gamma2)
    m1, m2 = {mu(i) for i in g1}, {mu(i) for i in g2}
    if sigma.kind == "varsigma":
        return m1 == g1 and m2 == g2 and all(tau[mu(i)] == mu(tau[i]) for i in g1)
    return m1 == g2 and m2 == g1 and all(tau[mu(tau[i])] == mu(i) for i in g1)


def apply_reality(ps: ParameterSpace, sigma: Involution, bd: BDTriple) -> ParameterSpace:
    """Cut the complex space of solve_parameters down to sigma's reality
    rule, a_ij = eps conj(a_{mu i, mu j}).

    The real unknowns are (re c_m, im c_m) for the direction coefficients
    of A = A_base + sum c_m D_m, interleaved in that order.  A_base and
    the D_m are rational, so the rule splits into one system on the real
    parts, with the base point on its right side, and a homogeneous one
    on the imaginary parts.  For varsigma(1) the rule asks only that A be
    real: the cut keeps the base point and the directions, with no solve.

    The reduced row echelon form of the interleaved system is the two
    forms side by side, so its particular solution and kernel basis, in
    increasing interleaved column order, are read off the two.  Raises
    NoBialgebraDatum when the triple fails sigma's stability requirement,
    or the real-part system is inconsistent.
    """
    kind = _reality_kind(sigma)
    if not stability_ok(bd, sigma):
        raise NoBialgebraDatum(
            f"triple {bd.to_json()} is not compatible with reality kind {kind!r}"
        )
    if kind == "real":
        return ParameterSpace(ps.rank, ps.base_point, ps.coordinates, kind)
    mu, eps = sigma.mu, 1 if sigma.kind == "varsigma" else -1
    n = ps.rank
    ndir = ps.dimension
    pairs = _pair_index(n)
    pos = {p: k for k, p in enumerate(pairs)}
    dirs = ps.coordinates
    base = ps.base_point
    b2 = 2 * base.den

    def anti(i, j):  # the antisymmetric part of the base point, times b2
        return base.re[n * i + j] - base.re[n * j + i]

    def coord(v, i, j):  # entry (i, j) of an antisymmetric matrix of coordinates v
        return v[pos[i, j]] if i < j else -v[pos[j, i]]

    # the rows as fields (numerator, 0, denominator), one field per entry
    re_rows, im_rows = [], []
    for (i, j) in pairs:
        mi, mj = mu(i), mu(j)
        re_rows.append(
            [(v[pos[i, j]] - eps * coord(v, mi, mj), 0, d) for d, v, _ in dirs]
            + [(eps * anti(mi, mj) - anti(i, j), 0, b2)]
        )
        im_rows.append([(v[pos[i, j]] + eps * coord(v, mi, mj), 0, d) for d, v, _ in dirs] + [(0, 0, 1)])
    # the rows are real and rational, and scaling an equation changes no
    # solution: both systems in ints over one common denominator
    _, z = over_lcm(f for row in re_rows + im_rows for f in row)
    w = ndir + 1
    rows = [[a for a, _ in z[k : k + w]] for k in range(0, len(z), w)]
    re_part = linalg.int_solve(rows[: len(re_rows)], ndir)
    if re_part is None:
        raise NoBialgebraDatum("reality constraints are inconsistent")
    (x_den, x), re_kernel = re_part
    _, im_kernel = linalg.int_solve(rows[len(re_rows) :], ndir)

    # each kernel vector as the fields of its coefficients, i times the
    # imaginary ones
    kernel = sorted(
        [(2 * f, [(c, 0, d) for c in v]) for f, (d, v) in re_kernel.items()]
        + [(2 * f + 1, [(0, c, d) for c in v]) for f, (d, v) in im_kernel.items()],
        key=lambda fv: fv[0],
    )
    if any(x):  # the base point moves by sum x_m D_m, summed in coordinates
        shift = _combine([((c, 0, x_den), v) for c, v in zip(x, dirs)])
        base = _point(base, [(1, 0, 1)], [_antisym(n, *shift)])
    return ParameterSpace(
        rank=n,
        base_point=base,
        coordinates=[_combine(list(zip(v, dirs))) for _, v in kernel],
        reality_kind=kind,
    )
