"""Continuous parameters: the affine space of solutions of

    (T(a) (x) 1) lam + (1 (x) a) lam = 0   for a in Gamma1,
    lam + lam^{21} = Omega_0,

and the reality constraints that cut it down to the real-form cases.

lam is stored as a rank x rank matrix over the Cartan basis h_i; its
antisymmetric part carries the coefficients lam[a][b] appearing in
wedge coordinates (lam - lam^{21} = sum lam_ab h_a wedge h_b).

The system has integer coefficients once scaled, so it is solved and
checked in Python ints, and its solution space is rational; the reality
cuts split into real and imaginary parts accordingly.
"""

from __future__ import annotations

from math import comb, lcm

from . import linalg
from .bdtriple import BDTriple, DiagramAutomorphism, stability
from .core import GaussianRational, HALF, I, ONE, ZERO
from .rootsystem import RootSystem


class NoBialgebraDatum(ValueError):
    """The requested (involution, triple) combination admits no parameter."""


_KIND_BY_SIGMA = {
    "varsigma": "real",
    "varsigma_mu": "conjugate-mu",
    "omega": "imaginary",
    "omega_J": "imaginary",
    "omega_mu_J": "anti-conjugate-mu",
}


class ContinuousParameter:
    """A single solution lam, as a rank x rank matrix over the Cartan basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: list):
        self.matrix = matrix

    def antisymmetric_part(self) -> list:
        n = len(self.matrix)
        return [
            [HALF * (self.matrix[i][j] - self.matrix[j][i]) for j in range(n)]
            for i in range(n)
        ]

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.matrix]


class ParameterSpace:
    """Affine solution space: base point plus a span of directions.

    Directions are rank x rank antisymmetric matrices.  Before
    apply_reality the span is over the complex scalars; afterwards the
    coefficients range over the reals and reality_kind records which
    case was imposed.
    """

    __slots__ = ("rank", "base_point", "directions", "reality_kind")

    def __init__(
        self, rank: int, base_point: ContinuousParameter, directions: list,
        reality_kind: str | None = None,
    ):
        self.rank, self.base_point = rank, base_point
        self.directions, self.reality_kind = directions, reality_kind

    @property
    def dimension(self) -> int:
        return len(self.directions)

    def point(self, coefficients) -> ContinuousParameter:
        return ContinuousParameter(self._combine(coefficients, self.base_point.matrix))

    def _combine(self, coefficients, start: list) -> list:
        """start + sum c_m D_m over the directions D_m, as a new matrix."""
        m = [row[:] for row in start]
        for c, d in zip(coefficients, self.directions):
            c = c if isinstance(c, GaussianRational) else GaussianRational(c)
            for i in range(self.rank):
                for j in range(self.rank):
                    if d[i][j]:
                        m[i][j] = m[i][j] + c * d[i][j]
        return m

    def to_json(self) -> dict:
        return {
            "base_point": self.base_point.to_json(),
            "directions": [
                [[x.to_json() for x in row] for row in d] for d in self.directions
            ],
            "reality_kind": self.reality_kind,
        }


def _pair_index(rank: int):
    return [(i, j) for i in range(rank) for j in range(i + 1, rank)]


def _antisym_from_coords(rank: int, coords):
    m = linalg.zeros(rank, rank)
    for (i, j), c in zip(_pair_index(rank), coords):
        m[i][j] = c
        m[j][i] = -c
    return m


def _integer_parts(matrix: list) -> tuple[int, list, list]:
    """(den, re, im): the matrix is (re + i im) / den with int re, im."""
    den = lcm(*(x.d for row in matrix for x in row))
    re = [[x.a * (den // x.d) for x in row] for row in matrix]
    im = [[x.b * (den // x.d) for x in row] for row in matrix]
    return den, re, im


def satisfies_constraints(rs: RootSystem, bd: BDTriple, lam: ContinuousParameter) -> bool:
    """lam + lam^T = Omega_0 and lam^T g_{T(a)} + lam g_a = 0 for a in
    Gamma1, as literal equalities of ints: lam over one denominator, the
    g_a as the integer simple-root columns (the second system is
    homogeneous, so their common denominator drops out)."""
    n = rs.rank
    den, re, im = _integer_parts(lam.matrix)
    omega0 = rs.cartan_dual_gram
    for i in range(n):
        for j in range(i, n):
            if re[i][j] + re[j][i] != den * omega0[i][j] or im[i][j] + im[j][i]:
                return False
    cols = rs.simple_root_columns
    parts = (re, im) if any(any(row) for row in im) else (re,)
    for a in bd.gamma1:
        ga, gt = cols[a], cols[bd.mapping[a]]
        for m in parts:
            for k in range(n):
                if sum(m[j][k] * gt[j] + m[k][j] * ga[j] for j in range(n)):
                    return False
    return True


def solve_parameters(rs: RootSystem, bd: BDTriple) -> ParameterSpace:
    """Complex affine solution space over the antisymmetric unknowns.

    The symmetric part is forced to Omega_0 / 2; the remaining system in
    the antisymmetric part A reads A^T g_{T(a)} + A g_a = rhs_a, solved
    in ints with each row scaled by twice the denominator of the
    simple-root columns.  The directions span the 2-forms on the
    annihilator of the g_a - g_{T(a)} (Belavin-Drinfeld), so there are
    C(k, 2) of them, k = rank - |Gamma1|.
    """
    n = rs.rank
    pairs = _pair_index(n)
    cols = rs.simple_root_columns
    omega0 = rs.cartan_dual_gram
    rows = []
    for a in bd.gamma1:
        ga, gt = cols[a], cols[bd.mapping[a]]
        for k in range(n):
            # coefficient of A_ij in (A^T gt + A ga)_k, A antisymmetric;
            # the right side is -(Omega_0 / 2)(gt + ga), Omega_0 symmetric
            row = [
                2 * (gt[i] - ga[i]) if j == k else 2 * (ga[j] - gt[j]) if i == k else 0
                for (i, j) in pairs
            ]
            row.append(-sum(omega0[k][m] * (gt[m] + ga[m]) for m in range(n)))
            rows.append(row)
    affine = linalg.int_solve(rows, len(pairs))
    assert affine is not None, "parameter system inconsistent for a valid triple"
    sol, kernel = affine
    assert len(kernel) == comb(n - len(bd.gamma1), 2)

    base_matrix = _antisym_from_coords(n, sol)
    for i in range(n):
        for j in range(n):
            base_matrix[i][j] = base_matrix[i][j] + HALF * omega0[i][j]
    space = ParameterSpace(
        rank=n,
        base_point=ContinuousParameter(base_matrix),
        directions=[_antisym_from_coords(n, v) for v in kernel.values()],
    )
    assert satisfies_constraints(rs, bd, space.base_point)
    return space


def reality_kind_for(sigma_label: str) -> str:
    return _KIND_BY_SIGMA[sigma_label]


def lambda_reality_ok(
    lam: ContinuousParameter, kind: str, mu: DiagramAutomorphism
) -> bool:
    """The coefficient condition of the given reality kind at one point."""
    a = lam.antisymmetric_part()
    n = len(a)
    if kind == "real":
        return all(x.is_real() for row in a for x in row)
    if kind == "imaginary":
        return all(x.is_imaginary() for row in a for x in row)
    sign = ONE if kind == "conjugate-mu" else -ONE
    return all(
        a[i][j] == sign * a[mu(i)][mu(j)].conj() for i in range(n) for j in range(n)
    )


def t_reality_ok(t: GaussianRational, kind: str) -> bool:
    if kind in ("real", "conjugate-mu"):
        return t.is_real()
    return t.is_imaginary()


def stability_ok(
    bd: BDTriple, kind: str, mu: DiagramAutomorphism, st: str | None = None
) -> bool:
    """Whether the triple's stability under mu allows the reality kind;
    st is stability(bd, mu) when the caller has it already."""
    st = stability(bd, mu) if st is None else st
    if kind in ("real", "conjugate-mu"):
        return st in ("stable", "both")
    if kind == "imaginary":
        return bd.is_empty()
    return st in ("antistable", "both")


def apply_reality(
    ps: ParameterSpace,
    sigma_label: str,
    mu: DiagramAutomorphism,
    bd: BDTriple,
) -> ParameterSpace:
    """Cut the complex space of solve_parameters down to the stated
    reality case.

    The real unknowns are (re c_m, im c_m) for the direction coefficients
    of A = A_base + sum c_m D_m, interleaved in that order.  A_base and
    the D_m are rational, so each condition splits into one system on the
    real parts and one on the imaginary parts:

    - real (A real): the imaginary parts vanish and the real parts are
      free, so the cut keeps the base point and the directions;
    - imaginary (A imaginary): A_base + sum re c_m D_m = 0 is the one
      solve, the imaginary parts are free;
    - (anti-)conjugate-mu (a_ij = sign conj a_{mu i, mu j}): one system
      on the real parts, with the base point on its right side, and a
      homogeneous one on the imaginary parts.

    The reduced row echelon form of the interleaved system is the two
    forms side by side, so its particular solution and kernel basis, in
    increasing interleaved column order, are read off the two.  Raises
    NoBialgebraDatum when the triple fails the stability requirement of
    the case, or the real-part system is inconsistent.
    """
    kind = reality_kind_for(sigma_label)
    if not stability_ok(bd, kind, mu):
        raise NoBialgebraDatum(
            f"triple {bd.to_json()} is not compatible with reality kind {kind!r}"
        )
    if kind == "real":
        return ParameterSpace(ps.rank, ps.base_point, ps.directions, kind)
    n = ps.rank
    ndir = len(ps.directions)
    pairs = _pair_index(n)
    base_anti = ps.base_point.antisymmetric_part()
    dirs = ps.directions
    sign = ONE if kind == "conjugate-mu" else -ONE
    re_rows, im_rows = [], []
    for (i, j) in pairs:
        if kind == "imaginary":
            re_rows.append([d[i][j] for d in dirs] + [-base_anti[i][j]])
            continue
        mi, mj = mu(i), mu(j)
        re_rows.append(
            [d[i][j] - sign * d[mi][mj] for d in dirs]
            + [sign * base_anti[mi][mj] - base_anti[i][j]]
        )
        im_rows.append([d[i][j] + sign * d[mi][mj] for d in dirs] + [ZERO])
    # the rows are real and rational: in ints over one common denominator
    re_part = linalg.int_solve(_integer_parts(re_rows)[1], ndir)
    if re_part is None:
        raise NoBialgebraDatum("reality constraints are inconsistent")
    re_sol, re_kernel = re_part
    _, im_kernel = linalg.int_solve(_integer_parts(im_rows)[1], ndir)

    kernel = sorted(
        [(2 * f, v) for f, v in re_kernel.items()]
        + [(2 * f + 1, [I * x for x in v]) for f, v in im_kernel.items()],
        key=lambda fv: fv[0],
    )
    return ParameterSpace(
        rank=n,
        base_point=ps.point(re_sol),
        directions=[ps._combine(v, linalg.zeros(n, n)) for _, v in kernel],
        reality_kind=kind,
    )
