"""Drinfeld doubles as Manin triples, in both classified branches.

Factorizable branch (t real): the double of the real form l is l + l
with the split pairing (x|y) - (u|v), diagonal copy against the image
of mu -> (r_plus mu, r_minus mu).

Imaginary branch (t imaginary): the double is the realification of the
complex algebra with the bilinear form 2 Re( | ); the real form pairs
against r_plus of the real dual.  The inner product ( | ) is throughout
the one induced by r + r^{21}, i.e. kappa / t.

Both builders work on nonzeros only: the real form's vectors, brackets
and tensor coordinates come sparse from RealFormBasis, the Killing form
is read off the Gram and the paired root slots, and the double's
pairing rows and subspace vectors are {index: nonzero} dicts.
"""

from __future__ import annotations

from . import linalg
from .core import GaussianRational, ONE, StructureTable, over_lcm, rational
from .involution import RealFormBasis, fixed_point_basis, real_structure_constants
from .rmatrix import BialgebraDatum
from .rootsystem import RootSystem


# ---- the triple container ----------------------------------------------------
#
# The double's data are sparse and real: the pairing is a list of rows
# {column: nonzero}, and each subspace vector a dict {index: nonzero}.
# verify() reads them, all over one denominator, and the table's ints,
# in ints: scaling changes no rank, span or closure.


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
    """The double with its pairing (the sparse rows of a Gram matrix over
    the double's basis), its bracket and the two Lagrangian subalgebras,
    each spanned by sparse vectors; case is "factorizable" or
    "imaginary_factorizable"."""

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
        data = (self.pairing, self.sub1_basis, self.sub2_basis)
        _, z = over_lcm((x.a, x.b, x.d) for rows in data for row in rows for x in row.values())
        assert not any(b for _, b in z), "the double's data must be real"
        it = (a for a, _ in z)
        p_rows, sub1, sub2 = ([{j: next(it) for j in row} for row in rows] for rows in data)
        rows1, rows2 = linalg.echelon(sub1), linalg.echelon(sub2)
        residuals = [linalg.residual(v, rows1) for v in sub2]
        return {
            "pairing_nondegenerate": len(linalg.echelon(p_rows)) == n,
            "pairing_invariant": self._pairing_invariant(p_rows),
            "sub1_isotropic": _orthogonal(sub1, p_rows),
            "sub2_isotropic": _orthogonal(sub2, p_rows),
            "half_dimension": len(rows1) == n // 2 and len(rows2) == n // 2,
            "transversal": len(rows1) + len(linalg.echelon(residuals)) == n,
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
        for (a, b), terms in self.structure.table.items():
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
        table = self.structure.table
        for i, u in enumerate(vectors):
            for v in vectors[i:]:
                br: dict[int, int] = {}
                for a, x in u.items():
                    for b, y in v.items():
                        for k, c in table.get((a, b), ()):
                            br[k] = br.get(k, 0) + x * y * c
                if linalg.residual(br, rows):
                    return False
        return True


# ---- real-basis plumbing -----------------------------------------------------


def _killing_terms(rs: RootSystem, a: int):
    """The nonzero (b, kappa(e_a, e_b)): the Gram on the Cartan block, and
    kappa(x_g, x_-g) = 1 on the paired root slots."""
    if a < rs.rank:
        return [(b, rational(x, rs.gram_den)) for b, x in enumerate(rs.gram[a]) if x]
    if a < rs.rank + rs.npos:
        return [(a + rs.npos, ONE)]
    return [(a - rs.npos, ONE)]


def real_killing_gram(rs: RootSystem, basis: RealFormBasis) -> list:
    """Sparse rows {j: nonzero kappa(v_i, v_j)} of the Killing Gram matrix
    of the real basis, by increasing j, each row over the at most two
    nonzeros of its vector and the vectors supported where those pair."""
    owners: list[list] = [[] for _ in basis.support]  # ambient index -> (j, x)
    for j, nz in enumerate(basis.support):
        for b, y in nz:
            owners[b].append((j, y))
    rows = []
    for u in basis.support:
        acc: dict[int, GaussianRational] = {}
        for a, x in u:
            for b, k in _killing_terms(rs, a):
                for j, y in owners[b]:
                    acc[j] = acc[j] + x * k * y if j in acc else x * k * y
        assert all(v.is_real() for v in acc.values()), "Killing form must be real on a real form"
        rows.append({j: v for j, v in sorted(acc.items()) if v})
    return rows


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
    if not all(x.is_real() for x in rho.values()):
        raise ValueError("factorizable double requires r real on the real form")
    inv_t = ONE / datum.t

    # double pairing <(x,u)|(y,v)> = (x|y) - (u|v)
    form = [{j: inv_t * x for j, x in row.items()} for row in real_killing_gram(rs, basis)]
    pairing = form + [{n + j: -x for j, x in row.items()} for row in form]

    fields = {}
    for (i, j), terms in real_structure_constants(rs, basis).items():
        fields[(i, j)] = tuple((k, c.a, c.b, c.d) for k, c in terms)
        fields[(n + i, n + j)] = tuple((n + k, c.a, c.b, c.d) for k, c in terms)
    structure = StructureTable(2 * n, fields)

    sub1 = [{a: ONE, n + a: ONE} for a in range(n)]

    # sub2[k] = (r_plus, r_minus) of the k-th dual vector: rho[k][b] at b,
    # -rho[b][k] at n + b
    sub2: list[dict] = [{} for _ in range(n)]
    for (k, b), x in rho.items():
        sub2[k][b] = x
    for (b, k), x in rho.items():
        sub2[k][n + b] = -x

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "factorizable")


# ---- imaginary branch --------------------------------------------------------


def realification_structure(rs: RootSystem) -> StructureTable:
    """The complex algebra as a real algebra of twice the dimension.

    Index j is the original basis vector, index n+j its product with i.
    The structure constants are real, so a term (k, c) of [e_a, e_b] is
    the term (n + k, c) of [e_a, i e_b] and of [i e_a, e_b], and (k, -c)
    of [i e_a, i e_b]: the ints of rs.structure over its den.
    """
    n, den = rs.dim, rs.structure.den
    fields = {}
    for (a, b), terms in rs.structure.table.items():
        primed = tuple((n + k, c, 0, den) for k, c in terms)
        fields[(a, b)] = tuple((k, c, 0, den) for k, c in terms)
        fields[(n + a, n + b)] = tuple((k, -c, 0, den) for k, c in terms)
        fields[(a, n + b)] = primed
        fields[(n + a, b)] = primed
    return StructureTable(2 * n, fields)


def _realify(terms, n: int) -> dict:
    """Coordinates over {b_j, i b_j} of the complex vector with the
    nonzero terms (j, x), by increasing index."""
    re = {j: x.real_part() for j, x in terms if x.a}
    im = {n + j: x.imag_part() for j, x in terms if x.b}
    return re | im


def real_part_pairing(rs: RootSystem, t: GaussianRational) -> list:
    """Sparse rows of the Gram matrix of 2 Re(kappa / t) on the realified
    basis."""
    n = rs.dim
    two_inv_t = GaussianRational(2) / t
    rows: list[dict] = [{} for _ in range(2 * n)]
    for i in range(n):
        for j, k in _killing_terms(rs, i):
            base = two_inv_t * k
            re, im = base.real_part(), base.imag_part()
            if re:
                rows[i][j], rows[n + i][n + j] = re, -re
            if im:  # 2 Re(i base) = -2 Im(base)
                rows[i][n + j], rows[n + i][j] = -im, -im
    return [dict(sorted(row.items())) for row in rows]


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

    sub1 = [_realify(nz, n) for nz in basis.support]

    # r_plus of the real dual basis, the rows phi_k of W^-1 (functionals on
    # l, real on the real form): r_plus(phi_k)[a] = sum_b phi_k[b] r[b][a]
    images: list[dict] = [{} for _ in range(n)]
    for (b, a), x in datum.r.items():
        for k, w in basis.inverse_columns[b]:
            image = images[k]
            image[a] = image[a] + x * w if a in image else x * w
    sub2 = [_realify(sorted(image.items()), n) for image in images]

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "imaginary_factorizable")
