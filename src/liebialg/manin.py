"""Drinfeld doubles as Manin triples, in both classified branches.

Factorizable branch (t real): the double of the real form l is l + l
with the split pairing (x|y) - (u|v), diagonal copy against the image
of mu -> (r_plus mu, r_minus mu).

Imaginary branch (t imaginary): the double is the realification of the
complex algebra with the bilinear form 2 Re( | ); the real form pairs
against r_plus of the real dual.  The inner product ( | ) is throughout
the one induced by r + r^{21}, i.e. kappa / t.
"""

from __future__ import annotations

from math import gcd, lcm

from . import linalg
from .core import GaussianRational, ONE, StructureTable, ZERO
from .involution import RealFormBasis, fixed_point_basis, real_structure_constants
from .rmatrix import BialgebraDatum
from .rootsystem import RootSystem


# ---- the triple container ----------------------------------------------------
#
# verify() runs in ints.  The double's data are real: the pairing is scaled
# by one common denominator, the table through its int view, and each
# subspace vector by its own, since scaling a basis vector changes no span,
# isotropy or closure.  Vectors are dicts {index: nonzero int}.


def _int_vector(v) -> dict:
    """The nonzero coordinates of a real vector over the lcm of their
    denominators."""
    nz = [(i, x) for i, x in enumerate(v) if x]
    d = lcm(*(x.d for _, x in nz))
    assert not any(x.b for _, x in nz), "the double's data must be real"
    return {i: x.a * (d // x.d) for i, x in nz}


def _int_rows(m) -> list:
    """The rows of a real matrix over one common denominator."""
    d = lcm(*(x.d for row in m for x in row if x))
    rows = []
    for row in m:
        assert not any(x.b for x in row), "the double's data must be real"
        rows.append({j: x.a * (d // x.d) for j, x in enumerate(row) if x})
    return rows


def _clear(v: dict, row: dict, c: int) -> dict:
    """p v - f row over gcd(p, f), divided by its content, for the
    entries p of row and f of v at column c: v with column c cleared."""
    p, f = row[c], v[c]
    g = gcd(p, f)
    s, f = p // g, f // g
    out = {j: s * x for j, x in v.items()}
    for j, y in row.items():
        out[j] = out.get(j, 0) - f * y
    out = {j: x for j, x in out.items() if x}
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _residual(v: dict, rows: dict) -> dict:
    """v reduced against the echelon rows: zero (empty) iff v lies in
    their span.  Each row vanishes on the other pivot columns, so
    clearing one pivot column of v only scales the others, and one pass
    over the pivot columns in the support of v suffices."""
    v = {j: x for j, x in v.items() if x}
    for c in [c for c in v if c in rows]:
        v = _clear(v, rows[c], c)
    return v


def _echelon(vectors) -> dict:
    """Fraction-free Gauss-Jordan elimination of a spanning set:
    {pivot column: row}, each row vanishing on the other pivot columns.
    Its length is the rank."""
    rows: dict[int, dict] = {}
    for v in vectors:
        v = _residual(v, rows)
        if not v:
            continue
        c = min(v)
        for k, row in rows.items():
            if row.get(c):
                rows[k] = _clear(row, v, c)
        rows[c] = v
    return rows


def _orthogonal(vectors, p_rows) -> bool:
    """The pairing block of the vectors vanishes; each row u P is built
    once from the sparse rows of P."""
    for u in vectors:
        up: dict[int, int] = {}
        for i, x in u.items():
            for j, y in p_rows[i].items():
                up[j] = up.get(j, 0) + x * y
        for v in vectors:
            if sum(x * v[j] for j, x in up.items() if j in v):
                return False
    return True


class ManinTriple:
    """The double with its pairing (a Gram matrix over the double's basis),
    its bracket and the two Lagrangian subalgebras; case is
    "factorizable" or "imaginary_factorizable"."""

    __slots__ = ("double_dim", "pairing", "structure", "sub1_basis", "sub2_basis", "case")

    def __init__(
        self, double_dim: int, pairing: list, structure: StructureTable,
        sub1_basis: list, sub2_basis: list, case: str,
    ):
        self.double_dim, self.pairing, self.structure = double_dim, pairing, structure
        self.sub1_basis, self.sub2_basis, self.case = sub1_basis, sub2_basis, case

    def verify(self) -> dict:
        """All defining properties, as named exact checks in ints.

        Each check touches only nonzero structure.  Invariance runs over
        the sparse table rows of one generator at a time; each subspace
        is eliminated once, and its rank and its closure under the
        bracket are both read off that one echelon form; the rank of the
        sum is rank(sub1) plus the rank of sub2's residuals against
        sub1's rows, so sub1 is not eliminated again; each isotropy
        block is built once from the sparse rows of the pairing; the
        pairing is nondegenerate when its rows have full rank.
        """
        n = self.double_dim
        p_rows = _int_rows(self.pairing)
        sub1 = [_int_vector(v) for v in self.sub1_basis]
        sub2 = [_int_vector(v) for v in self.sub2_basis]
        rows1, rows2 = _echelon(sub1), _echelon(sub2)
        residuals = [_residual(v, rows1) for v in sub2]
        return {
            "pairing_nondegenerate": len(_echelon(p_rows)) == n,
            "pairing_invariant": self._pairing_invariant(p_rows),
            "sub1_isotropic": _orthogonal(sub1, p_rows),
            "sub2_isotropic": _orthogonal(sub2, p_rows),
            "half_dimension": len(rows1) == n // 2 and len(rows2) == n // 2,
            "transversal": len(rows1) + len(_echelon(residuals)) == n,
            "sub1_closed": self._closed(sub1, rows1),
            "sub2_closed": self._closed(sub2, rows2),
        }

    def _pairing_invariant(self, p_rows) -> bool:
        """ad_a^T P + P ad_a = 0 for every generator a: its (b, c) entry
        ([e_a, e_b] | e_c) + (e_b | [e_a, e_c]) is accumulated from the
        table rows (a, .) and the nonzero entries of P."""
        p_cols: list[dict] = [{} for _ in p_rows]
        for i, row in enumerate(p_rows):
            for j, x in row.items():
                p_cols[j][i] = x
        rows: dict[int, list] = {}
        for (a, b), terms in self.structure.int_view()[1].items():
            rows.setdefault(a, []).append((b, terms))
        for row in rows.values():
            acc: dict[tuple, int] = {}
            for b, terms in row:
                for k, c in terms:
                    for j, x in p_rows[k].items():
                        acc[(b, j)] = acc.get((b, j), 0) + c * x
                    for i, x in p_cols[k].items():
                        acc[(i, b)] = acc.get((i, b), 0) + x * c
            if any(acc.values()):
                return False
        return True

    def _closed(self, vectors, rows) -> bool:
        """Every bracket of two basis vectors, taken over their nonzeros,
        reduces to zero against the subspace's echelon rows."""
        table = self.structure.int_view()[1]
        for i, u in enumerate(vectors):
            for v in vectors[i:]:
                br: dict[int, int] = {}
                for a, x in u.items():
                    for b, y in v.items():
                        for k, c in table.get((a, b), ()):
                            br[k] = br.get(k, 0) + x * y * c
                if _residual(br, rows):
                    return False
        return True


# ---- real-basis plumbing -----------------------------------------------------


def real_killing_gram(rs: RootSystem, basis: RealFormBasis):
    """Killing Gram matrix of the real basis, each entry over the at most
    two nonzeros of either vector."""
    k = rs.killing_gram()
    out = []
    for u in basis.support:
        row = []
        for v in basis.support:
            val = ZERO
            for a, x in u:
                for b, y in v:
                    if k[a][b]:
                        val = val + x * y * k[a][b]
            assert val.is_real(), "Killing form must be real on a real form"
            row.append(val)
        out.append(row)
    return out


# ---- factorizable branch -----------------------------------------------------


def double_factorizable(rs: RootSystem, datum: BialgebraDatum) -> ManinTriple:
    """(l + l, diag l, l^r) for a real quasitriangular datum."""
    if not datum.t or not datum.t.is_real():
        raise ValueError("factorizable double requires t real and nonzero")
    if datum.sigma.kind != "varsigma":
        raise ValueError("factorizable double requires a varsigma-type involution")
    basis = fixed_point_basis(rs, datum.sigma)
    n = basis.count

    rho = basis.tensor_coordinates(datum.r)
    if not all(x.is_real() for row in rho for x in row):
        raise ValueError("factorizable double requires r real on the real form")
    k0 = real_killing_gram(rs, basis)
    inv_t = ONE / datum.t
    form = [[inv_t * x for x in row] for row in k0]

    # double pairing <(x,u)|(y,v)> = (x|y) - (u|v)
    pairing = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            pairing[i][j] = form[i][j]
            pairing[n + i][n + j] = -form[i][j]

    table = {}
    for (i, j), terms in real_structure_constants(rs, basis).items():
        table[(i, j)] = terms
        table[(n + i, n + j)] = tuple((n + k, c) for k, c in terms)
    structure = StructureTable(2 * n, table)

    sub1 = []
    for a in range(n):
        v = [ZERO] * (2 * n)
        v[a] = ONE
        v[n + a] = ONE
        sub1.append(v)

    sub2 = []
    for k in range(n):
        v = [ZERO] * (2 * n)
        for b in range(n):
            v[b] = rho[k][b]  # r_plus = rho^T
            v[n + b] = -rho[b][k]
        sub2.append(v)

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "factorizable")


# ---- imaginary branch --------------------------------------------------------


def realification_structure(rs: RootSystem) -> StructureTable:
    """The complex algebra as a real algebra of twice the dimension.

    Index j is the original basis vector, index n+j its product with i.
    """
    n = rs.dim
    table = {}
    for (a, b), terms in rs.structure.table.items():
        plain, primed = [], []
        for k, c in terms:
            if c.a:
                re = c.real_part()
                plain.append((k, re))
                primed.append((n + k, re))
            if c.b:
                im = c.imag_part()
                plain.append((n + k, im))
                primed.append((k, -im))
        if plain:
            table[(a, b)] = tuple(plain)
            table[(n + a, n + b)] = tuple((k, -c) for k, c in plain)
        if primed:
            table[(a, n + b)] = tuple(primed)
            table[(n + a, b)] = tuple(primed)
    return StructureTable(2 * n, table)


def realify_vector(v) -> list:
    """Coordinates over {b_j, i b_j} of a complex coordinate vector."""
    n = len(v)
    out = [ZERO] * (2 * n)
    for j, x in enumerate(v):
        if x.a:
            out[j] = x.real_part()
        if x.b:
            out[n + j] = x.imag_part()
    return out


def real_part_pairing(rs: RootSystem, t: GaussianRational):
    """Gram matrix of 2 Re(kappa / t) on the realified basis."""
    n = rs.dim
    k = rs.killing_gram()
    inv_t = ONE / t
    two = GaussianRational(2)

    p = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            base = inv_t * k[i][j]
            if not base:
                continue
            re, im = two * base.real_part(), two * base.imag_part()
            p[i][j] = re
            p[i][n + j] = -im  # 2 Re(i base)
            p[n + i][j] = -im
            p[n + i][n + j] = -re
    return p


def double_imaginary(rs: RootSystem, datum: BialgebraDatum) -> ManinTriple:
    """(l realified, l0, r_plus(l0*)) for an imaginary-factorizable datum."""
    if not datum.t.is_imaginary():
        raise ValueError("imaginary double requires t imaginary")
    if datum.sigma.kind != "omega":
        raise ValueError("imaginary double requires an omega-type involution")
    n = rs.dim
    basis = fixed_point_basis(rs, datum.sigma)

    structure = realification_structure(rs)
    pairing = real_part_pairing(rs, datum.t)

    sub1 = [realify_vector(v) for v in basis.vectors]

    # r_plus of the real dual basis, the rows phi_k of W^-1 (functionals on
    # l, real on the real form): r_plus(phi_k)[a] = sum_b phi_k[b] r[b][a]
    images = [[ZERO] * n for _ in range(n)]
    for (b, a), x in datum.r.entries.items():
        for k, w in basis.inverse_columns[b]:
            images[k][a] = images[k][a] + x * w
    sub2 = [realify_vector(v) for v in images]

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "imaginary_factorizable")
