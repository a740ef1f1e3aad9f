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

from . import linalg
from .core import GaussianRational, ONE, StructureTable, ZERO
from .involution import RealFormBasis, fixed_point_basis, real_structure_constants
from .rmatrix import BialgebraDatum
from .rootsystem import RootSystem


# ---- the triple container ----------------------------------------------------


def _nonzeros(v) -> list:
    return [(i, x) for i, x in enumerate(v) if x]


def _isotropic(vectors, p_rows) -> bool:
    """The pairing block of the vectors vanishes; each row u P is built
    once from the sparse rows of P."""
    n = len(p_rows)
    for u in vectors:
        up = [ZERO] * n
        for i, x in _nonzeros(u):
            for j, y in p_rows[i]:
                up[j] = up[j] + x * y
        up = _nonzeros(up)
        for v in vectors:
            acc = ZERO
            for j, x in up:
                if v[j]:
                    acc = acc + x * v[j]
            if acc:
                return False
    return True


class _Reduced:
    """One elimination of a spanning set: its rank and the sparse pivot
    rows of its reduced row echelon form."""

    def __init__(self, vectors):
        a, pivots = linalg.rref(vectors)
        self.rank = len(pivots)
        self.rows = [(c, _nonzeros(a[r])) for r, c in enumerate(pivots)]

    def residual(self, v) -> list:
        """v minus its expansion over the pivot rows; zero iff v lies in
        the span.  Each pivot row vanishes on the other pivot columns, so
        the coefficient of a row is the entry of v at its pivot."""
        out = list(v)
        for c, row in self.rows:
            f = out[c]
            if f:
                for j, y in row:
                    out[j] = out[j] - f * y
        return out


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
        """All defining properties, as named exact checks.

        Each check touches only nonzero structure.  Invariance runs over
        the sparse table rows of one generator at a time; each subspace
        is eliminated once, and its rank and its closure under the
        bracket are both read off that one reduced form; the rank of the
        sum is rank(sub1) plus the rank of sub2's residuals against
        sub1's pivot rows, so sub1 is not eliminated again; each isotropy
        block is built once from the sparse rows of the pairing.
        """
        n = self.double_dim
        p_rows = [_nonzeros(row) for row in self.pairing]
        p_cols = [_nonzeros(col) for col in zip(*self.pairing)]
        reduced1 = _Reduced(self.sub1_basis)
        reduced2 = _Reduced(self.sub2_basis)
        residuals = [reduced1.residual(v) for v in self.sub2_basis]
        return {
            "pairing_nondegenerate": bool(linalg.det(self.pairing)),
            "pairing_invariant": self._pairing_invariant(p_rows, p_cols),
            "sub1_isotropic": _isotropic(self.sub1_basis, p_rows),
            "sub2_isotropic": _isotropic(self.sub2_basis, p_rows),
            "half_dimension": reduced1.rank == n // 2 and reduced2.rank == n // 2,
            "transversal": reduced1.rank + linalg.rank(residuals) == n,
            "sub1_closed": self._closed(self.sub1_basis, reduced1),
            "sub2_closed": self._closed(self.sub2_basis, reduced2),
        }

    def _pairing_invariant(self, p_rows, p_cols) -> bool:
        """ad_a^T P + P ad_a = 0 for every generator a: its (b, c) entry
        ([e_a, e_b] | e_c) + (e_b | [e_a, e_c]) is accumulated from the
        table rows (a, .) and the nonzero entries of P."""
        rows: dict[int, list] = {}
        for (a, b), terms in self.structure.table.items():
            rows.setdefault(a, []).append((b, terms))
        for row in rows.values():
            acc: dict[tuple, GaussianRational] = {}
            for b, terms in row:
                for k, c in terms:
                    for j, x in p_rows[k]:
                        acc[(b, j)] = acc.get((b, j), ZERO) + c * x
                    for i, x in p_cols[k]:
                        acc[(i, b)] = acc.get((i, b), ZERO) + x * c
            if any(acc.values()):
                return False
        return True

    def _closed(self, vectors, reduced: _Reduced) -> bool:
        """Every bracket of two basis vectors, taken over their nonzeros,
        reduces to zero against the subspace's reduced rows."""
        support = [_nonzeros(v) for v in vectors]
        for i, u in enumerate(support):
            for v in support[i:]:
                br = [ZERO] * self.double_dim
                for k, x in self.structure.bracket_terms(u, v):
                    br[k] = br[k] + x
                if any(reduced.residual(br)):
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
