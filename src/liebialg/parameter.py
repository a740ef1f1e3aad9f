"""Continuous parameters: the affine space of solutions of

    (T(a) (x) 1) lam + (1 (x) a) lam = 0   for a in Gamma1,
    lam + lam^{21} = Omega_0,

and the reality constraints that cut it down to the real-form cases.

lam is stored as a rank x rank matrix over the Cartan basis h_i; its
antisymmetric part carries the coefficients lam[a][b] appearing in
wedge coordinates (lam - lam^{21} = sum lam_ab h_a wedge h_b).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .bdtriple import BDTriple, DiagramAutomorphism, stability
from .core import GaussianRational, I, ONE, Tensor2, ZERO
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
        half = GaussianRational(Fraction(1, 2))
        return [
            [half * (self.matrix[i][j] - self.matrix[j][i]) for j in range(n)]
            for i in range(n)
        ]

    def embed(self, rs: RootSystem) -> Tensor2:
        rows = enumerate(self.matrix)
        return Tensor2(rs.dim, {(i, j): v for i, row in rows for j, v in enumerate(row)})

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


def constraint_residual(rs: RootSystem, bd: BDTriple, lam: ContinuousParameter):
    """Exact residuals of the defining linear system at lam."""
    n = rs.rank
    sym = [
        [lam.matrix[i][j] + lam.matrix[j][i] - rs.cartan_dual_gram[i][j] for j in range(n)]
        for i in range(n)
    ]
    residuals = [sym]
    lam_t = linalg.transpose(lam.matrix)
    for a in bd.gamma1:
        ga = rs.root_values(rs.simple_roots[a])
        gt = rs.root_values(rs.simple_roots[bd.mapping[a]])
        lt_gt = linalg.mat_vec(lam_t, gt)
        residuals.append([x + y for x, y in zip(lt_gt, linalg.mat_vec(lam.matrix, ga))])
    return residuals


def satisfies_constraints(rs: RootSystem, bd: BDTriple, lam: ContinuousParameter) -> bool:
    sym, *per_root = constraint_residual(rs, bd, lam)
    return not any(x for row in sym + per_root for x in row)


def solve_parameters(rs: RootSystem, bd: BDTriple) -> ParameterSpace:
    """Complex affine solution space over the antisymmetric unknowns.

    The symmetric part is forced to Omega_0 / 2; the remaining system in
    the antisymmetric part A reads A^T g_{T(a)} + A g_a = rhs_a.
    """
    n = rs.rank
    pairs = _pair_index(n)
    half = GaussianRational(Fraction(1, 2))
    omega_half = [[half * x for x in row] for row in rs.cartan_dual_gram]
    omega_half_t = linalg.transpose(omega_half)

    rows = []
    rhs = []
    for a in bd.gamma1:
        ga = rs.root_values(rs.simple_roots[a])
        gt = rs.root_values(rs.simple_roots[bd.mapping[a]])
        base = [
            x + y
            for x, y in zip(
                linalg.mat_vec(omega_half_t, gt),
                linalg.mat_vec(omega_half, ga),
            )
        ]
        for k in range(n):
            row = []
            for (i, j) in pairs:
                # coefficient of A_ij in (A^T gt + A ga)_k, A antisymmetric
                coeff = ZERO
                if j == k:
                    coeff = coeff + gt[i]
                if i == k:
                    coeff = coeff - gt[j]
                if i == k:
                    coeff = coeff + ga[j]
                if j == k:
                    coeff = coeff - ga[i]
                row.append(coeff)
            rows.append(row)
            rhs.append(-base[k])

    if rows:
        affine = linalg.solve(rows, rhs)
        assert affine is not None, "parameter system inconsistent for a valid triple"
        sol, kernel = affine
    else:
        sol, kernel = [ZERO] * len(pairs), linalg.identity(len(pairs))

    base_matrix = _antisym_from_coords(n, sol)
    for i in range(n):
        for j in range(n):
            base_matrix[i][j] = base_matrix[i][j] + omega_half[i][j]
    space = ParameterSpace(
        rank=n,
        base_point=ContinuousParameter(base_matrix),
        directions=[_antisym_from_coords(n, v) for v in kernel],
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


def stability_ok(bd: BDTriple, kind: str, mu: DiagramAutomorphism) -> bool:
    st = stability(bd, mu)
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
    """Cut the complex space down to the stated reality case.

    Unknowns become the real and imaginary parts of the direction
    coefficients; the base point is adjusted inside the affine space.
    Raises NoBialgebraDatum when the triple fails the stability
    requirement of the case.
    """
    kind = reality_kind_for(sigma_label)
    if not stability_ok(bd, kind, mu):
        raise NoBialgebraDatum(
            f"triple {bd.to_json()} is not compatible with reality kind {kind!r}"
        )
    n = ps.rank
    pairs = _pair_index(n)
    npairs = len(pairs)
    ndir = len(ps.directions)

    # Real unknowns: (re c_m, im c_m) for each direction coefficient.
    # Build the reality condition as linear equations over those unknowns
    # applied to A = A_base + sum c_m D_m.
    def condition_rows(a_of):
        """a_of(i, j) gives the (affine) entry as a pair of linear forms
        (real part, imag part): each is [const, coeffs...] over unknowns."""
        rows, rhs = [], []
        for (i, j) in pairs:
            re_form, im_form = a_of(i, j)
            if kind == "real":
                rows.append(im_form[1:])
                rhs.append(-im_form[0])
            elif kind == "imaginary":
                rows.append(re_form[1:])
                rhs.append(-re_form[0])
            else:
                sign = 1 if kind == "conjugate-mu" else -1
                mi, mj = mu(i), mu(j)
                mre, mim = a_of(mi, mj)
                # a_ij = sign * conj(a_{mu i, mu j})
                re_row = [x - sign * y for x, y in zip(re_form, mre)]
                im_row = [x + sign * y for x, y in zip(im_form, mim)]
                rows.append(re_row[1:])
                rhs.append(-re_row[0])
                rows.append(im_row[1:])
                rhs.append(-im_row[0])
        return rows, rhs

    base_anti = ps.base_point.antisymmetric_part()

    def a_of(i, j):
        re_form = [base_anti[i][j].real_part()] + [ZERO] * (2 * ndir)
        im_form = [base_anti[i][j].imag_part()] + [ZERO] * (2 * ndir)
        for m, d in enumerate(ps.directions):
            # (re + i im)(dre + i dim)
            dre, dim = d[i][j].real_part(), d[i][j].imag_part()
            re_form[1 + 2 * m] = dre
            re_form[2 + 2 * m] = -dim
            im_form[1 + 2 * m] = dim
            im_form[2 + 2 * m] = dre
        return re_form, im_form

    rows, rhs = condition_rows(a_of)
    if rows:
        affine = linalg.solve(rows, rhs)
        if affine is None:
            raise NoBialgebraDatum("reality constraints are inconsistent")
    else:
        affine = [ZERO] * (2 * ndir), linalg.identity(2 * ndir)
    sol, kernel = affine

    def realize(coeffs):
        return [coeffs[2 * m].real_part() + I * coeffs[2 * m + 1].real_part() for m in range(ndir)]

    base = ps.point(realize(sol))
    assert all(x.is_real() for v in kernel for x in v)
    directions = [ps._combine(realize(v), linalg.zeros(n, n)) for v in kernel]
    return ParameterSpace(
        rank=n,
        base_point=base,
        directions=directions,
        reality_kind=kind,
    )
