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

from weakref import WeakKeyDictionary

from .bdtriple import DiagramAutomorphism, identity_automorphism
from .core import GaussianRational, I, ONE, over_lcm
from .rootsystem import RootSystem


class Involution:
    """Semilinear Lie algebra involution in ambient coordinates.

    columns[j] lists the nonzero (i, M[i][j]) of the linear part M by
    increasing row i, and int_columns() the one-entry columns in ints.
    kind is "varsigma", "omega" or "general"."""

    __slots__ = ("columns", "kind", "mu", "J", "_ints")

    def __init__(self, columns: list, kind="general", mu=None, J=()):
        self.columns, self._ints = columns, None
        self.kind, self.mu, self.J = kind, mu, J

    def int_columns(self) -> tuple[list, int, list]:
        """(images, D, scalars): column j is (re + im i) / D at row
        images[j], for (D, scalars) = over_lcm(the column entries); built
        on first call.  Raises ValueError unless each column holds one
        entry, as those of a canonical involution do."""
        if self._ints is None:
            if any(len(col) != 1 for col in self.columns):
                raise ValueError("involution has a column with more than one entry")
            den, scalars = over_lcm((v.a, v.b, v.d) for [(_, v)] in self.columns)
            self._ints = [i for [(i, _)] in self.columns], den, scalars
        return self._ints

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
    coordinates over them are real.  support[j] lists the nonzero (i, x)
    of vector j by increasing index i; the first h_vectors of them span
    h_0.  Each vector is supported on one index or on a pair that exactly
    two vectors share, so the basis matrix W is block diagonal with 1 x 1
    and 2 x 2 blocks, inverted block by block: inverse_columns[i] lists
    the nonzero (k, W^-1[k][i]), at most two.
    """

    __slots__ = ("support", "h_vectors", "inverse_columns")

    def __init__(self, support: list, h_vectors: int):
        self.support, self.h_vectors = support, h_vectors
        blocks: dict[tuple, list] = {}
        for j, nz in enumerate(support):
            blocks.setdefault(tuple(i for i, _ in nz), []).append(j)
        cols: list = [None] * len(support)
        for rows, js in blocks.items():
            if len(rows) == 1:
                (i,), (j,) = rows, js
                cols[i] = [(j, ONE / support[j][0][1])]
                continue
            (i1, i2), (j1, j2) = rows, js
            (_, a), (_, c) = support[j1]
            (_, b), (_, d) = support[j2]
            det = a * d - b * c
            cols[i1] = [(j1, d / det), (j2, -c / det)]
            cols[i2] = [(j1, -b / det), (j2, a / det)]
        self.inverse_columns = cols

    @property
    def count(self) -> int:
        return len(self.support)

    def tensor_coordinates(self, x) -> dict:
        """The nonzero coordinates {(k, m): value} of an order-2 tensor
        over this basis, in index order: W^-1 X W^-T for the basis matrix
        W, summed over the nonzeros of x.  All real iff x lies in the real
        form's tensor square."""
        cols, acc = self.inverse_columns, {}
        for (i, j), v in x.items():
            for k, a in cols[i]:
                av = a * v
                for m, b in cols[j]:
                    key = (k, m)
                    acc[key] = acc[key] + av * b if key in acc else av * b
        return {key: v for key, v in sorted(acc.items()) if v}

    def term_coordinates(self, terms) -> tuple | None:
        """The nonzero real coordinates (k, c) of the sum of x e_i over
        the terms (i, x), by increasing k, summed through the sparse
        columns of W^-1; None if one is not real.  Every coordinate no
        term touches is 0, so only the touched ones are tested."""
        acc: dict[int, GaussianRational] = {}
        for i, x in terms:
            for k, w in self.inverse_columns[i]:
                acc[k] = acc[k] + w * x if k in acc else w * x
        out = tuple((k, c) for k, c in sorted(acc.items()) if c)
        return out if all(c.is_real() for _, c in out) else None


def fixed_point_basis(rs: RootSystem, sigma: Involution) -> RealFormBasis:
    """Explicit real basis of g^sigma, Cartan part first.

    The Cartan vectors follow the canonical patterns (h_a for fixed
    simple roots, h_a + h_{mu a} and i(h_a - h_{mu a}) for swapped pairs,
    with an extra i in the omega cases); the root part pairs x_gamma
    with its sigma-image.  Each vector is built as its nonzeros, by
    increasing index.
    """
    if sigma.kind not in ("varsigma", "omega"):
        raise ValueError("fixed_point_basis requires a canonical involution")
    mu = sigma.mu
    omega_kind = sigma.kind == "omega"
    support = []
    for i in range(rs.rank):
        j = mu(i)
        if j == i:
            support.append([(i, I if omega_kind else ONE)])
        elif j > i:
            if omega_kind:
                support += [[(i, I), (j, I)], [(i, ONE), (j, -ONE)]]
            else:
                support += [[(i, ONE), (j, ONE)], [(i, I), (j, -I)]]
    h_count = len(support)

    action = sigma_root_action(rs, sigma)
    seen = set()
    for gamma in rs.roots:
        if gamma in seen:
            continue
        image, c = action[gamma]
        seen.add(gamma)
        gi = rs.root_index(gamma)
        if image == gamma:
            support.append([(gi, ONE if c == ONE else I)])
            continue
        # sigma* is an involution, so an image met later in rs.roots
        # has the larger index
        seen.add(image)
        ii = rs.root_index(image)
        support += [[(gi, ONE), (ii, c)], [(gi, I), (ii, -I * c)]]

    # sigma(v) = M conj(v), summed over the one-entry columns of M
    for nz in support:
        image: dict[int, GaussianRational] = {}
        for i, x in nz:
            for k, m in sigma.columns[i]:
                image[k] = image[k] + m * x.conj() if k in image else m * x.conj()
        assert sorted(image.items()) == nz, "constructed vector is not sigma-fixed"
    assert len(support) == rs.dim
    return RealFormBasis(support, h_count)


def real_structure_constants(rs: RootSystem, basis: RealFormBasis):
    """Bracket table of the real form in its own basis, with real
    GaussianRational entries; each bracket runs over the at most two
    nonzeros of either basis vector, once per unordered pair, since
    [v_j, v_i] = -[v_i, v_j] and [v_i, v_i] = 0."""
    table = {}
    support = basis.support
    for i, u in enumerate(support):
        for j in range(i + 1, len(support)):
            terms = basis.term_coordinates(rs.structure.bracket_terms(u, support[j]))
            if terms is None:
                raise AssertionError("real form is not closed under bracket")
            if terms:
                table[(i, j)], table[(j, i)] = terms, tuple((k, -c) for k, c in terms)
    return table
