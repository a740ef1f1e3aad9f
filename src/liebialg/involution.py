"""Sesquilinear involutions of the complex algebra and their real forms.

A semilinear map sigma is stored through the sparse columns of its
linear part M: applying sigma to a coordinate vector v computes
M * conj(v).  Composition of two such maps is the linear map
M1 * conj(M2); sigma is an involution iff M * conj(M) = 1.  A canonical
involution maps each basis vector to a multiple of one basis vector, so
each of its columns holds one entry.

The two canonical families fix the action on Chevalley generators:

    varsigma(mu):   x_a -> x_{mu a},        h_a -> h_{mu a}
    omega(mu, J):   x_a -> (-1)^{J}(x_{-mu a}),  h_a -> -h_{mu a}

and extend through brackets to the whole algebra.

On a root vector, sigma(x_g) = c_g(J) x_{+-mu g}.  The bracket recursion
sets c_a(J) = -1 for a simple root a in J and +1 otherwise, and
c_g = c_xi c_eta n'/n for the extraspecial pair xi + eta = g, where
the ratio n'/n of structure constants does not depend on J.  The
coefficients m_j of g on the simple roots are the sums of those of xi
and eta, so by induction up the heights

    c_g(J) = c_g(empty) * (-1)^(sum over j in J of m_j(g)).

The recursion therefore runs once per (root system, kind, mu), and each
J only flips the signs of the columns of the roots that are odd on J.
"""

from __future__ import annotations

from math import lcm
from weakref import WeakKeyDictionary

from . import linalg
from .bdtriple import DiagramAutomorphism, identity_automorphism
from .core import GaussianRational, I, ONE, ZERO
from .rootsystem import RootSystem


class Involution:
    """Semilinear Lie algebra involution in ambient coordinates.

    columns[j] lists the nonzero (i, M[i][j]) of the linear part M by
    increasing row i; .matrix is the dense view, derived once, for dense
    linear algebra, and int_columns() the one-entry columns in ints.
    kind is "varsigma", "omega" or "general"."""

    __slots__ = ("columns", "kind", "mu", "J", "_matrix", "_ints")

    def __init__(self, columns: list, kind="general", mu=None, J=()):
        self.columns, self._matrix, self._ints = columns, None, None
        self.kind, self.mu, self.J = kind, mu, J

    @property
    def matrix(self) -> list:
        if self._matrix is None:
            self._matrix = linalg.zeros(len(self.columns), len(self.columns))
            for j, col in enumerate(self.columns):
                for i, v in col:
                    self._matrix[i][j] = v
        return self._matrix

    def int_columns(self) -> tuple[list, int, list]:
        """(images, D, scalars): column j is (re + im i) / D at row
        images[j], for scalars[j] = (re, im) and the lcm D of the column
        denominators; built on first call.  Raises ValueError unless each
        column holds one entry, as those of a canonical involution do."""
        if self._ints is None:
            if any(len(col) != 1 for col in self.columns):
                raise ValueError("involution has a column with more than one entry")
            den = lcm(*(v.d for [(_, v)] in self.columns))
            self._ints = (
                [i for [(i, _)] in self.columns],
                den,
                [(v.a * (den // v.d), v.b * (den // v.d)) for [(_, v)] in self.columns],
            )
        return self._ints

    def __call__(self, v):
        out = [ZERO] * len(v)
        vcol = [(j, x) for j, x in enumerate(v) if x]
        for i, x in column_product(self.columns, [vcol], conj=True)[0]:
            out[i] = x
        return out

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.mu is not None:
            doc["mu"] = self.mu.to_json()
        if self.kind == "omega":
            doc["J"] = list(self.J)
        return doc

    def describe(self) -> str:
        if self.kind == "varsigma":
            return "varsigma" if self.mu.is_identity() else "varsigma_mu"
        if self.kind == "omega":
            if set(self.J) == set(self.mu.fixed_points()) and self.mu.is_identity():
                return "omega"
            return "omega_J" if self.mu.is_identity() else "omega_mu_J"
        return "general"


def column_product(a: list, b: list, conj: bool = False) -> list:
    """Sparse columns of A B, or of A conj(B), from those of A and B."""
    out = []
    for col in b:
        acc: dict[int, GaussianRational] = {}
        for k, bk in col:
            if conj:
                bk = bk.conj()
            for i, aik in a[k]:
                acc[i] = acc[i] + aik * bk if i in acc else aik * bk
        out.append([(i, v) for i, v in sorted(acc.items()) if v])
    return out


def _scalars_at_empty_j(rs: RootSystem, mu: DiagramAutomorphism, negate: bool):
    """Scalars c with sigma(x_g) = c_g * x_{mu g} (or x_{-mu g}) for J
    empty, computed from the generator action by bracket recursion up the
    positive roots."""
    c: dict[tuple, GaussianRational] = {alpha: ONE for alpha in rs.simple_roots}
    for gamma in rs.positive_roots[rs.rank:]:
        xi, eta = rs._extraspecial[gamma]
        mxi, meta = mu.apply_root(xi), mu.apply_root(eta)
        if negate:
            mxi, meta = tuple(-x for x in mxi), tuple(-x for x in meta)
        num = rs.normalized_n(mxi, meta)
        den = rs.normalized_n(xi, eta)
        c[gamma] = c[xi] * c[eta] * num / den
    return c


class _Template:
    """The columns of the canonical involution of one (kind, mu) at J
    empty, with the sign-flipped columns each J selects by parity.

    cols holds the Cartan columns and each root column at J empty.  roots
    holds, for each positive root g, the mask of the vertices j with
    m_j(g) odd and the flipped columns of g and -g, as (index, column)
    pairs.  It holds no reference to the root system.  The involutions
    built from it share these column lists, which nothing mutates."""

    __slots__ = ("cols", "roots")

    def __init__(self, rs: RootSystem, kind: str, mu: DiagramAutomorphism):
        idx, negate = rs.root_index, kind == "omega"
        unit = -ONE if negate else ONE
        self.cols = [[(mu(i), unit)] for i in range(rs.rank)] + [None] * (2 * rs.npos)
        self.roots = []
        for gamma, val in _scalars_at_empty_j(rs, mu, negate).items():
            mg = mu.apply_root(gamma)
            image, neg_image = idx(mg), idx(tuple(-x for x in mg))
            if negate:
                image, neg_image = neg_image, image
            pos, neg, inv = idx(gamma), idx(tuple(-x for x in gamma)), ONE / val
            self.cols[pos], self.cols[neg] = [(image, val)], [(neg_image, inv)]
            odd_mask = sum(1 << j for j, m in enumerate(gamma) if m & 1)
            flipped = ((pos, [(image, -val)]), (neg, [(neg_image, -inv)]))
            self.roots.append((odd_mask, flipped))

    def columns(self, J: tuple) -> list:
        """c_g(J) = c_g(empty) * (-1)^(sum over j in J of m_j(g))."""
        cols = self.cols.copy()
        jmask = sum(1 << j for j in J)
        if jmask:
            for odd_mask, flipped in self.roots:
                if (odd_mask & jmask).bit_count() & 1:
                    for k, col in flipped:
                        cols[k] = col
        return cols


# The (kind, mu) -> _Template of each live root system; a weak key, so the
# cache does not keep a root system alive.
_TEMPLATES: WeakKeyDictionary[RootSystem, dict] = WeakKeyDictionary()


def canonical_involution(
    rs: RootSystem,
    kind: str,
    mu: DiagramAutomorphism | None = None,
    J=(),
) -> Involution:
    """The involution acting as stated on generators, extended to all of g."""
    if mu is None:
        mu = identity_automorphism(rs.rank)
    J = tuple(sorted(J))
    fixed = set(mu.fixed_points())
    if not set(J) <= fixed:
        raise ValueError("J must consist of mu-fixed simple roots")
    if kind == "varsigma":
        if J:
            raise ValueError("varsigma takes no subset J")
    elif kind != "omega":
        raise ValueError(f"unknown canonical kind {kind!r}")
    templates = _TEMPLATES.setdefault(rs, {})
    if (kind, mu) not in templates:
        templates[(kind, mu)] = _Template(rs, kind, mu)
    return Involution(templates[(kind, mu)].columns(J), kind, mu, J)


def sigma_root_action(rs: RootSystem, sigma: Involution):
    """Map gamma -> (sigma* gamma, c_gamma) read off the involution's columns.

    Requires sigma to permute the root spaces, which holds whenever sigma
    preserves the Cartan subalgebra.
    """
    action = {}
    for gamma in rs.roots:
        col = sigma.columns[rs.root_index(gamma)]
        if len(col) != 1 or col[0][0] < rs.rank:
            raise ValueError("involution does not permute the root spaces")
        action[gamma] = (rs.index_root(col[0][0]), col[0][1])
    return action


class RealFormBasis:
    """Real basis of the fixed points of a canonical involution.

    The vectors also form a basis of the ambient space over the complex
    scalars, so a vector lies in the real span exactly when its complex
    coordinates over them are real.  vectors are coordinate vectors over
    the complex basis; the first h_vectors of them span h_0; support[j]
    lists the nonzero (i, x) of vector j.  Each vector is supported on one
    index or on a pair that exactly two vectors share, so the basis
    matrix W is block diagonal with 1 x 1 and 2 x 2 blocks, inverted
    block by block: inverse_columns[i] lists the nonzero (k, W^-1[k][i]),
    at most two.
    """

    __slots__ = ("vectors", "h_vectors", "support", "inverse_columns")

    def __init__(self, vectors: list, h_vectors: int):
        self.vectors, self.h_vectors = vectors, h_vectors
        self.support = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
        blocks: dict[tuple, list] = {}
        for j, nz in enumerate(self.support):
            blocks.setdefault(tuple(i for i, _ in nz), []).append(j)
        cols: list = [None] * len(vectors)
        for rows, js in blocks.items():
            if len(rows) == 1:
                (i,), (j,) = rows, js
                cols[i] = [(j, ONE / vectors[j][i])]
                continue
            (i1, i2), (j1, j2) = rows, js
            a, b, c, d = vectors[j1][i1], vectors[j2][i1], vectors[j1][i2], vectors[j2][i2]
            det = a * d - b * c
            cols[i1] = [(j1, d / det), (j2, -c / det)]
            cols[i2] = [(j1, -b / det), (j2, a / det)]
        self.inverse_columns = cols

    @property
    def count(self) -> int:
        return len(self.vectors)

    def tensor_coordinates(self, x) -> list:
        """Coordinates of an order-2 tensor over this basis: W^-1 X W^-T
        for the basis matrix W, summed over the nonzeros of x.  All real
        iff x lies in the real form's tensor square."""
        n, cols = len(self.vectors), self.inverse_columns
        out = [[ZERO] * n for _ in range(n)]
        for (i, j), v in x.entries.items():
            for k, a in cols[i]:
                row, av = out[k], a * v
                for m, b in cols[j]:
                    row[m] = row[m] + av * b
        return out

    def coordinates(self, target) -> list | None:
        """Real coordinates of target, or None if outside the real span."""
        return self.term_coordinates((i, x) for i, x in enumerate(target) if x)

    def term_coordinates(self, terms) -> list | None:
        """Real coordinates of the sum of x e_i over the terms (i, x), or
        None, summed through the sparse columns of W^-1."""
        out = [ZERO] * len(self.vectors)
        for i, x in terms:
            for k, w in self.inverse_columns[i]:
                out[k] = out[k] + w * x
        return out if all(c.is_real() for c in out) else None


def fixed_point_basis(rs: RootSystem, sigma: Involution) -> RealFormBasis:
    """Explicit real basis of g^sigma, Cartan part first.

    The Cartan vectors follow the canonical patterns (h_a for fixed
    simple roots, h_a + h_{mu a} and i(h_a - h_{mu a}) for swapped pairs,
    with an extra i in the omega cases); the root part pairs x_gamma
    with its sigma-image.
    """
    if sigma.kind not in ("varsigma", "omega"):
        raise ValueError("fixed_point_basis requires a canonical involution")
    mu = sigma.mu
    n = rs.rank
    omega_kind = sigma.kind == "omega"
    vectors = []

    def unit(idx, coeff=ONE):
        v = [ZERO] * rs.dim
        v[idx] = coeff
        return v

    def add(*terms):
        v = [ZERO] * rs.dim
        for idx, coeff in terms:
            v[idx] = v[idx] + coeff
        vectors.append(v)

    for i in range(n):
        j = mu(i)
        if j == i:
            vectors.append(unit(i, I if omega_kind else ONE))
        elif j > i:
            if omega_kind:
                add((i, I), (j, I))
                add((i, ONE), (j, -ONE))
            else:
                add((i, ONE), (j, ONE))
                add((i, I), (j, -I))
    h_count = len(vectors)

    action = sigma_root_action(rs, sigma)
    seen = set()
    for gamma in rs.roots:
        if gamma in seen:
            continue
        image, c = action[gamma]
        seen.add(gamma)
        gi = rs.root_index(gamma)
        if image == gamma:
            vectors.append(unit(gi, ONE if c == ONE else I))
            continue
        seen.add(image)
        ii = rs.root_index(image)
        add((gi, ONE), (ii, c))
        add((gi, I), (ii, -I * c))

    basis = RealFormBasis(vectors, h_count)
    for v in basis.vectors:
        assert sigma(v) == v, "constructed vector is not sigma-fixed"
    assert len(basis.vectors) == rs.dim
    return basis


def real_structure_constants(rs: RootSystem, basis: RealFormBasis):
    """Bracket table of the real form in its own basis, with real
    GaussianRational entries; each bracket runs over the at most two
    nonzeros of either basis vector."""
    table = {}
    for i, u in enumerate(basis.support):
        for j, v in enumerate(basis.support):
            coords = basis.term_coordinates(rs.structure.bracket_terms(u, v))
            if coords is None:
                raise AssertionError("real form is not closed under bracket")
            terms = tuple((k, c) for k, c in enumerate(coords) if c)
            if terms:
                table[(i, j)] = terms
    return table
