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
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .bdtriple import DiagramAutomorphism, identity_automorphism
from .core import GaussianRational, I, ONE, ZERO
from .rootsystem import RootSystem


class NormalizationObstruction(ValueError):
    """A rescaling target is not solvable inside Q(i).

    Carries the exact constraint that failed, e.g. the rational number
    that would have to be a sum of two rational squares.
    """

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class Involution:
    """Semilinear Lie algebra involution in ambient coordinates.

    columns[j] lists the nonzero (i, M[i][j]) of the linear part M by
    increasing row i.  A dense matrix M is accepted in their place;
    .matrix is the dense view, derived once, for dense linear algebra.
    kind is "varsigma", "omega" or "general"."""

    __slots__ = ("columns", "kind", "mu", "J", "_matrix")

    def __init__(self, matrix=None, kind="general", mu=None, J=(), *, columns=None):
        if columns is None:
            rows = list(enumerate(matrix))
            columns = [[(i, row[j]) for i, row in rows if row[j]] for j in range(len(rows))]
        self.columns, self._matrix = columns, matrix
        self.kind, self.mu, self.J = kind, mu, J

    @property
    def matrix(self) -> list:
        if self._matrix is None:
            self._matrix = linalg.zeros(len(self.columns), len(self.columns))
            for j, col in enumerate(self.columns):
                for i, v in col:
                    self._matrix[i][j] = v
        return self._matrix

    def __call__(self, v):
        out = [ZERO] * len(v)
        vcol = [(j, x) for j, x in enumerate(v) if x]
        for i, x in column_product(self.columns, [vcol], conj=True)[0]:
            out[i] = x
        return out

    def compose_linear(self, other: "Involution") -> list:
        """Columns of the linear part M1 conj(M2) of self o other (the
        conjugations cancel)."""
        return column_product(self.columns, other.columns, conj=True)

    def is_involution(self) -> bool:
        return is_identity_columns(self.compose_linear(self))

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


def is_identity_columns(columns: list) -> bool:
    return all(col == [(j, ONE)] for j, col in enumerate(columns))


def _sigma_scalars(rs: RootSystem, mu: DiagramAutomorphism, chi, negate: bool):
    """Scalars c with sigma(x_g) = c_g * x_{mu g} (or x_{-mu g}), computed
    from the generator action by bracket recursion up the positive roots."""
    c: dict[tuple, GaussianRational] = {}
    for i, alpha in enumerate(rs.simple_roots):
        c[alpha] = GaussianRational(-1 if chi(i) else 1)
    for gamma in rs.positive_roots[rs.rank:]:
        xi, eta = rs._extraspecial[gamma]
        mxi, meta = mu.apply_root(xi), mu.apply_root(eta)
        if negate:
            mxi, meta = tuple(-x for x in mxi), tuple(-x for x in meta)
        num = rs.normalized_n(mxi, meta)
        den = rs.normalized_n(xi, eta)
        c[gamma] = c[xi] * c[eta] * num / den
    return c


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
    n = rs.rank
    idx = rs.root_index
    cols: list = [None] * rs.dim  # each column holds one entry
    if kind == "varsigma":
        if J:
            raise ValueError("varsigma takes no subset J")
        for i in range(n):
            cols[i] = [(mu(i), ONE)]
        c = _sigma_scalars(rs, mu, lambda i: False, negate=False)
        for gamma, val in c.items():
            neg = tuple(-x for x in gamma)
            cols[idx(gamma)] = [(idx(mu.apply_root(gamma)), val)]
            cols[idx(neg)] = [(idx(mu.apply_root(neg)), ONE / val)]
    elif kind == "omega":
        for i in range(n):
            cols[i] = [(mu(i), -ONE)]
        jset = set(J)
        c = _sigma_scalars(rs, mu, lambda i: i in jset, negate=True)
        for gamma, val in c.items():
            mg = mu.apply_root(gamma)
            cols[idx(gamma)] = [(idx(tuple(-x for x in mg)), val)]
            cols[idx(tuple(-x for x in gamma))] = [(idx(mg), ONE / val)]
    else:
        raise ValueError(f"unknown canonical kind {kind!r}")
    return Involution(kind=kind, mu=mu, J=J, columns=cols)


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


def _two_square_decomposition(x: Fraction):
    """Rational a >= b >= 0 with a^2 + b^2 = x, or None."""
    from math import isqrt

    n = x.numerator * x.denominator  # x * q^2 = p*q must be a sum of two squares
    if n == 0:
        return Fraction(0), Fraction(0)
    if n < 0:
        return None
    square = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            square *= k
        k += 1
    a = 0
    while a * a * 2 <= n:
        rest = n - a * a
        r = isqrt(rest)
        if r * r == rest:
            big, small = max(r, a), min(r, a)
            return (
                Fraction(big * square, x.denominator),
                Fraction(small * square, x.denominator),
            )
        a += 1
    return None


def normalize_involution(rs: RootSystem, sigma: Involution):
    """Bring a Cartan-preserving involution to canonical form.

    Returns (rescaling, kind, mu, J) where rescaling maps each simple
    index to the scalar d_i; conjugating sigma by the torus automorphism
    x_gamma -> d^gamma x_gamma yields exactly the canonical involution.
    Raises NormalizationObstruction with the exact unsolvable constraint
    when no Q(i) rescaling exists.
    """
    action = sigma_root_action(rs, sigma)
    images = [action[a][0] for a in rs.simple_roots]
    if all(r in rs._pos_index for r in images):
        kind = "varsigma"
    elif all(tuple(-x for x in r) in rs._pos_index for r in images):
        kind = "omega"
    else:
        raise ValueError("sigma* does not map the simple system to itself or its negative")
    perm = []
    for img in images:
        base = img if kind == "varsigma" else tuple(-x for x in img)
        perm.append(rs.simple_roots.index(base))
    mu = DiagramAutomorphism(tuple(perm))

    c = {i: action[rs.simple_roots[i]][1] for i in range(rs.rank)}
    d: dict[int, GaussianRational] = {}
    J = []
    for i in range(rs.rank):
        if i in d:
            continue
        j = mu(i)
        if kind == "varsigma":
            if j == i:
                # d / conj(d) = c, |c| = 1; d = 1 + c works unless c = -1
                d[i] = I if c[i] == -ONE else ONE + c[i]
            else:
                d[i] = ONE
                d[j] = c[i]
        else:
            if j == i:
                ci = c[i]
                if not ci.is_real():
                    raise NormalizationObstruction(
                        "mu-fixed scalar must be real for an omega-type involution",
                        ci,
                    )
                if ci.re < 0:
                    J.append(i)
                target = abs(Fraction(1) / ci.re)  # need |d|^2 = 1/|c|
                sq = _two_square_decomposition(target)
                if sq is None:
                    raise NormalizationObstruction(
                        f"{target} is not a sum of two rational squares",
                        target,
                    )
                d[i] = GaussianRational(sq[0], sq[1])
            else:
                d[i] = ONE
                d[j] = ONE / c[i]
    return d, kind, mu, tuple(sorted(J))


def rescaling_automorphism(rs: RootSystem, d: dict) -> list:
    """Torus automorphism x_gamma -> (prod d_i^{gamma_i}) x_gamma, id on h."""
    m = linalg.identity(rs.dim)
    for gamma in rs.roots:
        val = ONE
        for i, ci in enumerate(gamma):
            if ci > 0:
                for _ in range(ci):
                    val = val * d[i]
            elif ci < 0:
                for _ in range(-ci):
                    val = val / d[i]
        m[rs.root_index(gamma)][rs.root_index(gamma)] = val
    return m


def conjugate_involution(rs: RootSystem, sigma: Involution, r: list) -> Involution:
    """sigma expressed in the basis rescaled by r: R^-1 M conj(R)."""
    m = linalg.mat_mul(
        linalg.inverse(r), linalg.mat_mul(sigma.matrix, linalg.conjugate(r))
    )
    return Involution(m, "general")


class RealFormBasis:
    """Real basis of the fixed points of a canonical involution.

    The vectors also form a basis of the ambient space over the complex
    scalars, so a vector lies in the real span exactly when its complex
    coordinates over them are real.  vectors are coordinate vectors over
    the complex basis; the first h_vectors of them span h_0.
    """

    __slots__ = ("vectors", "h_vectors", "_inverse")

    def __init__(self, vectors: list, h_vectors: int):
        self.vectors, self.h_vectors, self._inverse = vectors, h_vectors, None

    @property
    def count(self) -> int:
        return len(self.vectors)

    def inverse_matrix(self) -> list:
        if self._inverse is None:
            n = len(self.vectors[0])
            w = [[self.vectors[j][i] for j in range(n)] for i in range(n)]
            self._inverse = linalg.inverse(w)
        return self._inverse

    def tensor_coordinates(self, x) -> list:
        """Coordinates of an order-2 tensor over this basis: W^-1 X W^-T
        for the basis matrix W.  All real iff x lies in the real form's
        tensor square."""
        winv = self.inverse_matrix()
        n = len(winv)
        xmat = [[x.get(i, j) for j in range(n)] for i in range(n)]
        return linalg.mat_mul(winv, linalg.mat_mul(xmat, linalg.transpose(winv)))

    def coordinates(self, target) -> list[Fraction] | None:
        """Real coordinates of target, or None if outside the real span."""
        coords = linalg.mat_vec(self.inverse_matrix(), target)
        if not all(x.is_real() for x in coords):
            return None
        return [x.re for x in coords]


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
    """Bracket table of the real form in its own basis; exact rationals."""
    n = basis.count
    table = {}
    for i in range(n):
        for j in range(n):
            br = rs.structure.bracket(basis.vectors[i], basis.vectors[j])
            coords = basis.coordinates(br)
            if coords is None:
                raise AssertionError("real form is not closed under bracket")
            terms = tuple((k, GaussianRational(c)) for k, c in enumerate(coords) if c)
            if terms:
                table[(i, j)] = terms
    return table
