"""Drinfeld doubles as Manin triples, in both classified branches.

Factorizable branch (t real): the double of the real form l is l + l
with the split pairing (x|y) - (u|v), diagonal copy against the image
of mu -> (r_plus mu, r_minus mu).

Imaginary branch (t imaginary): the double is the realification of the
complex algebra with the bilinear form 2 Re( | ); the real form pairs
against r_plus of the real dual.  The inner product ( | ) is throughout
the one induced by r + r^{21}, i.e. kappa / t.

Both builders work on nonzeros only and in core's integer format: the
real form's vectors, brackets and tensor coordinates come sparse from
RealFormBasis as Gaussian-integer numerators, the Killing form is read
off the integer Gram and the paired root slots, and the double's
pairing rows and subspace vectors are {index: nonzero int} dicts, each
up to a scale that ManinTriple.verify does not see.
"""

from __future__ import annotations

from . import linalg
from .core import StructureTable
from .involution import RealFormBasis, fixed_point_basis, real_structure_constants
from .rmatrix import BialgebraDatum
from .rootsystem import RootSystem


# ---- the triple container ----------------------------------------------------
#
# The double's data are sparse and real: the pairing is a list of rows
# {column: nonzero int}, and each subspace vector a dict {index: nonzero
# int}.  verify() reads them and the table's ints as they are.


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
    """The double with its pairing (the sparse int rows of a Gram matrix
    over the double's basis), its bracket and the two Lagrangian
    subalgebras, each spanned by sparse int vectors; case is
    "factorizable" or "imaginary_factorizable".

    Every check of verify is invariant under one nonzero scale of the
    whole pairing and under a nonzero scale of each subspace vector, so
    the pairing may stand for any nonzero multiple of the double's form
    and each vector for any nonzero multiple of itself: the builders
    drop the factors 1/t and 2/t of the form and every denominator."""

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
        p_rows, sub1, sub2 = self.pairing, self.sub1_basis, self.sub2_basis
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
    """The nonzero (b, kappa(e_a, e_b)) times gram_den, in ints: the Gram
    on the Cartan block, and gram_den on the paired root slots, where
    kappa(x_g, x_-g) = 1."""
    if a < rs.rank:
        return [(b, x) for b, x in enumerate(rs.gram[a]) if x]
    if a < rs.rank + rs.npos:
        return [(a + rs.npos, rs.gram_den)]
    return [(a - rs.npos, rs.gram_den)]


def real_killing_gram(rs: RootSystem, basis: RealFormBasis) -> list:
    """Sparse rows {j: kappa(v_i, v_j)} of the Killing Gram matrix of the
    real basis, by increasing j, in ints times basis.den^2 gram_den; each
    row over the at most two nonzeros of its vector and the vectors
    supported where those pair."""
    owners: list[list] = [[] for _ in basis.support]  # ambient index -> (j, (re, im))
    for j, nz in enumerate(basis.support):
        for b, y in nz:
            owners[b].append((j, y))
    rows = []
    for u in basis.support:
        acc: dict[int, tuple] = {}
        for a, (p, q) in u:
            for b, k in _killing_terms(rs, a):
                for j, (r, s) in owners[b]:
                    x, y = acc.get(j, (0, 0))
                    acc[j] = (x + k * (p * r - q * s), y + k * (p * s + q * r))
        assert not any(y for _, y in acc.values()), "Killing form must be real on a real form"
        rows.append({j: x for j, (x, _) in sorted(acc.items()) if x})
    return rows


# ---- factorizable branch -----------------------------------------------------


def double_factorizable(rs: RootSystem, datum: BialgebraDatum) -> ManinTriple:
    """(l + l, diag l, l^r) for a real quasitriangular datum; the pairing
    is built from kappa, t times the induced form."""
    if not datum.t or not datum.t.is_real():
        raise ValueError("factorizable double requires t real and nonzero")
    if datum.sigma.kind != "varsigma":
        raise ValueError("factorizable double requires a varsigma-type involution")
    basis = fixed_point_basis(rs, datum.sigma)
    n = basis.count

    rho = sorted(basis.tensor_coordinates(datum.r).num.items())
    if any(y for _, (_, y) in rho):
        raise ValueError("factorizable double requires r real on the real form")

    # double pairing <(x,u)|(y,v)> = (x|y) - (u|v)
    form = real_killing_gram(rs, basis)
    pairing = form + [{n + j: -x for j, x in row.items()} for row in form]

    real = real_structure_constants(rs, basis)
    table = {}
    for (i, j), terms in real.table.items():
        table[i, j] = terms
        table[n + i, n + j] = tuple((n + k, c) for k, c in terms)
    structure = StructureTable(2 * n, real.den, table)

    sub1 = [{a: 1, n + a: 1} for a in range(n)]

    # sub2[k] = (r_plus, r_minus) of the k-th dual vector: rho[k][b] at b,
    # -rho[b][k] at n + b, the numerators over rho's den
    sub2: list[dict] = [{} for _ in range(n)]
    for (k, b), (x, _) in rho:
        sub2[k][b] = x
    for (b, k), (x, _) in rho:
        sub2[k][n + b] = -x

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "factorizable")


# ---- imaginary branch --------------------------------------------------------


def realification_structure(rs: RootSystem) -> StructureTable:
    """The complex algebra as a real algebra of twice the dimension.

    Index j is the original basis vector, index n+j its product with i.
    The structure constants are real, so a term (k, c) of [e_a, e_b] is
    the term (n + k, c) of [e_a, i e_b] and of [i e_a, e_b], and (k, -c)
    of [i e_a, i e_b]: the ints of rs.structure over its den, shifted.
    """
    n, st = rs.dim, rs.structure
    table = {}
    for (a, b), terms in st.table.items():
        primed = tuple((n + k, c) for k, c in terms)
        table[a, b] = terms
        table[n + a, n + b] = tuple((k, -c) for k, c in terms)
        table[a, n + b] = primed
        table[n + a, b] = primed
    return StructureTable(2 * n, st.den, table)


def _realify(terms, n: int) -> dict:
    """Coordinates over {b_j, i b_j} of the complex vector with the
    nonzero Gaussian-integer terms (j, (re, im)), by increasing index."""
    re = {j: x for j, (x, _) in terms if x}
    im = {n + j: y for j, (_, y) in terms if y}
    return re | im


def real_part_pairing(rs: RootSystem, t) -> list:
    """Sparse rows of the Gram matrix of 2 Re(kappa / t) on the realified
    basis, in ints times the positive scale gram_den (a^2 + b^2) / (2 d)
    for t = (a + b i) / d: there 2 kappa / t is kappa (a - b i)."""
    n, a, b = rs.dim, t.a, t.b
    rows: list[dict] = [{} for _ in range(2 * n)]
    for i in range(n):
        for j, k in _killing_terms(rs, i):
            if a:
                rows[i][j], rows[n + i][n + j] = k * a, -k * a
            if b:  # 2 Re(i z) = -2 Im(z), and Im(kappa (a - b i)) = -k b
                rows[i][n + j] = rows[n + i][j] = k * b
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
    # l, real on the real form): r_plus(phi_k)[a] = sum_b phi_k[b] r[b][a],
    # in ints over r's den times inverse_den
    images: list[dict] = [{} for _ in range(n)]
    for (b, a), (p, q) in datum.r.num.items():
        for k, (c, d) in basis.inverse_columns[b]:
            image = images[k]
            x, y = image.get(a, (0, 0))
            image[a] = (x + p * c - q * d, y + p * d + q * c)
    sub2 = [_realify(sorted(image.items()), n) for image in images]

    return ManinTriple(2 * n, pairing, structure, sub1, sub2, "imaginary_factorizable")
