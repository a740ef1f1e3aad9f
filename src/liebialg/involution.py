"""Sesquilinear involutions of the complex algebra and their real forms.

A semilinear map sigma acts on a coordinate vector v as M * conj(v) for
its linear part M.  Composition of two such maps is the linear map
M1 * conj(M2); sigma is an involution iff M * conj(M) = 1.  Every
involution here maps each basis vector to a multiple of one basis
vector, so M has one entry per column, and an Involution holds just
those entries, in core's integer format.

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
J only negates the entries of the roots that are odd on J.  It runs in
ints over positions in the root system's list of roots, on the integer
Chevalley constants, and the scales of the roots convert its result to
the kappa-normalized basis, so building an involution makes no scalar.

The real form g^sigma is held in the same format, its basis vectors
and the columns of their inverse as Gaussian-integer numerators, so
every coordinate over it is an integer sum over fixed denominators and
is real when its imaginary numerator is 0.
"""

from __future__ import annotations

from itertools import chain
from weakref import WeakKeyDictionary

from .bdtriple import DiagramAutomorphism, identity_automorphism
from .core import StructureTable, Tensor2, over_lcm
from .rootsystem import RootSystem


class Involution:
    """Semilinear Lie algebra involution in ambient coordinates: it maps
    e_j to (re + im i) / den times e_{images[j]}, for (re, im) =
    scalars[j], with den and the pairs in core's integer format
    (over_lcm).  kind is "varsigma", "omega" or "general"."""

    __slots__ = ("images", "den", "scalars", "kind", "mu", "J")

    def __init__(self, images: list, den: int, scalars: list, kind="general", mu=None, J=()):
        self.images, self.den, self.scalars = images, den, scalars
        self.kind, self.mu, self.J = kind, mu, J

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


class _Template:
    """The canonical involution of one (kind, mu) at J empty, in the
    integer format, and the entries each J negates.

    The bracket recursion runs in ints over positions in rs.roots, in
    the Chevalley basis X_g = x_g / s(g) of the integer constants N, for
    the scale s of each root: there sigma(X_g) = d_g X_{m g}, where m is
    mu, or -mu for omega, and d_g = d_xi d_eta N(m xi, m eta) / N(xi, eta)
    on the extraspecial pair xi + eta = g, a sign read off rs._n.  Each
    d_g is a pair of ints (p, q), d_g = p / q with q > 0, and c_g =
    d_g / t_g for t_g = s(m g) / s(g), read off the scales of the two
    roots' classes, so building a template makes no scalar; over_lcm
    takes the pairs in these terms, once.

    images and (den, scalars) are the involution's fields at J empty.
    roots holds, for each positive root g, the mask of the vertices j
    with m_j(g) odd and the indices of g and -g; negating their pairs
    keeps the format canonical.  It holds no reference to the root
    system.  The involutions built from it share images, which nothing
    mutates."""

    __slots__ = ("images", "den", "scalars", "roots")

    def __init__(self, rs: RootSystem, kind: str, mu: DiagramAutomorphism):
        n, npos, roots, nmap = rs.rank, rs.npos, rs.roots, rs._n
        # at[k]: the position of m g for the root g at position k
        if mu.is_identity():
            at = list(range(npos))
        else:
            index = rs._index
            at = [index[mu.apply_root(g)] - n for g in rs.positive_roots]
        if kind == "omega":
            at = [k + npos for k in at]
        at += [(k + npos) % (2 * npos) for k in at]
        scales, cls, t = rs._scales, rs._sclass, []
        for k in range(npos):
            a, b = cls[at[k]], cls[k]
            (xp, xq), (yp, yq) = scales[a], scales[b]
            t.append((xp * yq, xq * yp) if a != b else (1, 1))
        # d = c t, and c = 1 on the simple roots, the first n in rs.roots
        d = t[:n] + [None] * (npos - n)
        mask = [1 << r.index(1) for r in roots[:n]] + [0] * (npos - n)
        for g, (k, l) in rs._extraspecial.items():
            # m keeps root strings, so N(m xi, m eta) = +-N(xi, eta)
            (p, q), (p2, q2) = d[k], d[l]
            p *= p2
            if nmap[roots[at[k]], roots[at[l]]] != nmap[roots[k], roots[l]]:
                p = -p
            d[g] = (p, q * q2)
            mask[g] = mask[k] ^ mask[l]
        # c = d / t over a positive int; where v divides q, as q / v * u.
        # This and t = (1, 1) within a class only keep the ints small, and
        # pay: without the one for t, F4 and E7 varsigma take 2.2x and
        # 2.6x as long to build, without this one F4 and E8 omega 1.4x and
        # 1.5x (best of 300, one core of a 2-CPU x86 box, CPython 3.11).
        c = [(p, q // v * u) if q % v == 0 else (p * v, q * u) for (p, q), (u, v) in zip(d, t)]
        self.images = [mu(i) for i in range(n)] + [n + k for k in at]
        unit = (-1, 0, 1) if kind == "omega" else (1, 0, 1)
        self.den, self.scalars = over_lcm(
            chain(
                [unit] * n,
                ((p, 0, q) for p, q in c),
                ((q, 0, p) if p > 0 else (-q, 0, -p) for p, q in c),
            )
        )
        self.roots = [(mask[k], n + k, n + npos + k) for k in range(npos)]

    def scalars_at(self, J: tuple) -> list:
        """c_g(J) = c_g(empty) * (-1)^(sum over j in J of m_j(g))."""
        scalars = list(self.scalars)
        jmask = sum(1 << j for j in J)
        if jmask:
            for odd_mask, pos, neg in self.roots:
                if (odd_mask & jmask).bit_count() & 1:
                    for k in (pos, neg):
                        a, b = scalars[k]
                        scalars[k] = (-a, -b)
        return scalars


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
    t = templates[(kind, mu)]
    return Involution(t.images, t.den, t.scalars_at(J), kind, mu, J)


class RealFormBasis:
    """Real basis of the fixed points of a canonical involution, in
    core's integer format.

    The vectors also form a basis of the ambient space over the complex
    scalars, so a vector lies in the real span exactly when its complex
    coordinates over them are real.  support[j] lists the nonzero
    (i, (re, im)) of vector j by increasing index i, the entry (re + im
    i) / den; the first h_vectors of them span h_0.  Each vector is
    supported on one index or on a pair that exactly two vectors share,
    so the basis matrix W is block diagonal with 1 x 1 and 2 x 2 blocks,
    inverted block by block: inverse_columns[i] lists the nonzero
    (k, (re, im)), at most two, with W^-1[k][i] = (re + im i) /
    inverse_den, all over one over_lcm.
    """

    __slots__ = ("den", "support", "h_vectors", "inverse_den", "inverse_columns")

    def __init__(self, den: int, support: list, h_vectors: int):
        self.den, self.support, self.h_vectors = den, support, h_vectors
        blocks: dict[tuple, list] = {}
        for j, nz in enumerate(support):
            blocks.setdefault(tuple(i for i, _ in nz), []).append(j)
        # W^-1 = adj / det on each block: a block of size k has its det
        # x + y i over den^k and its adjugate over den^(k - 1), so an
        # adjugate entry p + q i gives den (p + q i)(x - y i) / (x^2 + y^2)
        keys, fields = [], []
        for rows, js in blocks.items():
            if len(rows) == 1:
                ((_, (x, y)),) = support[js[0]]
                adj = [((rows[0], js[0]), (1, 0))]
            else:
                (i1, i2), (j1, j2) = rows, js
                (_, (a, a2)), (_, (c, c2)) = support[j1]
                (_, (b, b2)), (_, (d, d2)) = support[j2]
                x, y = a * d - a2 * d2 - b * c + b2 * c2, a * d2 + a2 * d - b * c2 - b2 * c
                adj = [((i1, j1), (d, d2)), ((i1, j2), (-c, -c2)),
                       ((i2, j1), (-b, -b2)), ((i2, j2), (a, a2))]
            norm = x * x + y * y
            for key, (p, q) in adj:
                keys.append(key)
                fields.append((den * (p * x + q * y), den * (q * x - p * y), norm))
        self.inverse_den, z = over_lcm(fields)
        self.inverse_columns = cols = [[] for _ in support]
        for (i, j), p in zip(keys, z):
            cols[i].append((j, p))

    @property
    def count(self) -> int:
        return len(self.support)

    def tensor_coordinates(self, x: Tensor2) -> Tensor2:
        """The order-2 tensor x over this basis, W^-1 X W^-T for the
        basis matrix W, summed in ints over the nonzeros of x: a Tensor2
        of dimension count, all of its entries real iff x lies in the
        real form's tensor square."""
        cols, acc = self.inverse_columns, {}
        for (i, j), (p, q) in x.num.items():
            for k, (a, b) in cols[i]:
                ap, aq = a * p - b * q, a * q + b * p
                for m, (c, d) in cols[j]:
                    re, im = acc.get((k, m), (0, 0))
                    acc[k, m] = (re + ap * c - aq * d, im + ap * d + aq * c)
        num = {key: v for key, v in acc.items() if v != (0, 0)}
        return Tensor2(self.count, x.den * self.inverse_den**2, num)

    def term_coordinates(self, terms) -> tuple | None:
        """The nonzero real coordinates (k, c) of the sum of x e_i over
        the terms (i, (re, im)), x = re + im i, by increasing k, summed
        through the sparse columns of W^-1: ints over the terms' own
        denominator times inverse_den.  None if one is not real.  Every
        coordinate no term touches is 0, so only the touched ones are
        tested."""
        cols, acc, acc_im = self.inverse_columns, {}, {}
        for i, (x, y) in terms:
            for k, (a, b) in cols[i]:
                acc[k] = acc.get(k, 0) + a * x - b * y
                acc_im[k] = acc_im.get(k, 0) + a * y + b * x
        if any(acc_im.values()):
            return None
        return tuple((k, c) for k, c in sorted(acc.items()) if c)


def fixed_point_basis(rs: RootSystem, sigma: Involution) -> RealFormBasis:
    """Explicit real basis of g^sigma, Cartan part first, over sigma's
    den.

    The Cartan vectors follow the canonical patterns (h_a for fixed
    simple roots, h_a + h_{mu a} and i(h_a - h_{mu a}) for swapped pairs,
    with an extra i in the omega cases); the root part pairs x_gamma
    with its sigma-image, c x_{sigma* gamma} for sigma's scalar c =
    scalars[gamma] / den.  Each vector is built as its nonzeros, by
    increasing index.
    """
    if sigma.kind not in ("varsigma", "omega"):
        raise ValueError("fixed_point_basis requires a canonical involution")
    mu = sigma.mu
    images, den, scalars = sigma.images, sigma.den, sigma.scalars
    one, i_, minus_one, minus_i = (den, 0), (0, den), (-den, 0), (0, -den)
    omega_kind = sigma.kind == "omega"
    support = []
    for i in range(rs.rank):
        j = mu(i)
        if j == i:
            support.append([(i, i_ if omega_kind else one)])
        elif j > i:
            if omega_kind:
                support += [[(i, i_), (j, i_)], [(i, one), (j, minus_one)]]
            else:
                support += [[(i, one), (j, one)], [(i, i_), (j, minus_i)]]
    h_count = len(support)

    # sigma* is an involution of the root indices, so an image met later
    # has the larger index, and one met earlier has its pair already
    for gi in range(rs.rank, rs.dim):
        ii, (a, b) = images[gi], scalars[gi]
        if ii == gi:
            support.append([(gi, one if (a, b) == one else i_)])
        elif ii > gi:  # v = x + c x' and i x - i c x'
            support += [[(gi, one), (ii, (a, b))], [(gi, i_), (ii, (b, -a))]]

    # sigma(v) = M conj(v): the entry p / den at i goes to m_i conj(p) /
    # den at images[i], compared times den, m_i's denominator
    for nz in support:
        image = []
        for i, (p, q) in nz:
            a, b = scalars[i]
            image.append((images[i], (a * p + b * q, b * p - a * q)))
        assert sorted(image) == [(i, (den * p, den * q)) for i, (p, q) in nz], (
            "constructed vector is not sigma-fixed"
        )
    assert len(support) == rs.dim
    return RealFormBasis(den, support, h_count)


def real_structure_constants(rs: RootSystem, basis: RealFormBasis) -> StructureTable:
    """Bracket table of the real form in its own basis.  Each bracket
    runs over the at most two nonzeros of either basis vector and the int
    terms of the ambient table, once per unordered pair, since [v_j, v_i]
    = -[v_i, v_j] and [v_i, v_i] = 0.  Its terms are over basis.den^2
    times the ambient den, so every coordinate is an int over that times
    inverse_den, which the table makes canonical."""
    ambient, support = rs.structure.table, basis.support
    den = basis.den**2 * rs.structure.den * basis.inverse_den
    table = {}
    for i, u in enumerate(support):
        for j, v in enumerate(support[i + 1 :], i + 1):
            terms = []
            for a, (p, q) in u:
                for b, (r, s) in v:
                    x, y = p * r - q * s, p * s + q * r
                    terms += [(k, (x * c, y * c)) for k, c in ambient.get((a, b), ())]
            coords = basis.term_coordinates(terms)
            if coords is None:
                raise AssertionError("real form is not closed under bracket")
            if coords:
                table[i, j] = coords
                table[j, i] = tuple((k, -c) for k, c in coords)
    return StructureTable(basis.count, den, table)
