"""Reference computations the tests compare liebialg against, and the
maps they are built from.

No command runs any of these, so they live with the tests.  The checks
take routes the library does not (the Killing form as a trace of adjoint
maps, the cobracket read off the double, explicit maps between the two
doubles, dense matrices), so agreement with the library is evidence
rather than a tautology.
"""

import csv
import io
import json
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from liebialg import linalg
from liebialg.bdtriple import (
    BDTriple,
    extend_tau_additively,
    precedence_pairs,
    span_subset_roots,
)
from liebialg.core import (
    GaussianRational,
    I,
    ONE,
    StructureTable,
    Tensor2,
    ZERO,
    cybe_sums,
    gaussian,
    over_lcm,
)
from liebialg.involution import Involution, fixed_point_basis
from liebialg.manin import ManinTriple, realification_structure
from liebialg.parameter import ContinuousParameter
from liebialg.rmatrix import ExtractionError


HALF = gaussian(1, 0, 2)


def real_part(x: GaussianRational) -> GaussianRational:
    """Re x as a real scalar."""
    return gaussian(x.a, 0, x.d)


def imag_part(x: GaussianRational) -> GaussianRational:
    """Im x as a real scalar."""
    return gaussian(x.b, 0, x.d)


def entry(x: Tensor2, i: int, j: int) -> GaussianRational:
    """Entry (i, j) of a tensor as a scalar."""
    p = x.num.get((i, j))
    return ZERO if p is None else gaussian(*p, x.den)


def tensor_from_items(dim: int, items) -> Tensor2:
    """The tensor with the (key, scalar) items, repeated keys summed."""
    ent: dict[tuple[int, int], GaussianRational] = {}
    for k, v in items:
        ent[k] = ent[k] + v if k in ent else v
    return Tensor2(dim, ent)


def matrix_of(lam) -> list:
    """A ContinuousParameter's entries as scalars, row by row."""
    n, den = lam.rank, lam.den
    return [[gaussian(lam.re[k], lam.im[k], den) for k in range(n * i, n * i + n)] for i in range(n)]


def zeros(rows: int, cols: int) -> list:
    return [[ZERO] * cols for _ in range(rows)]


def conjugate(a: list) -> list:
    """The entrywise complex conjugate of a matrix."""
    return [[x.conj() for x in row] for row in a]


def monomial_involution(m: list) -> Involution:
    """The Involution with the linear part m, a dense square matrix with
    one nonzero per column."""
    cols = [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))]
    assert all(len(col) == 1 for col in cols), "not a monomial matrix"
    den, scalars = over_lcm((v.a, v.b, v.d) for [(_, v)] in cols)
    return Involution([i for [(i, _)] in cols], den, scalars)


def involution_matrix(sigma) -> list:
    """The dense linear part M of an involution, from its fields."""
    n = len(sigma.images)
    m = [[ZERO] * n for _ in range(n)]
    for j, (i, (a, b)) in enumerate(zip(sigma.images, sigma.scalars)):
        m[i][j] = gaussian(a, b, sigma.den)
    return m


@lru_cache(maxsize=32)
def scalar_table(st: StructureTable) -> dict:
    """The table of st with each coefficient c / den as a scalar, in the
    table's order: {(i, j): ((k, scalar), ...)}, built once per table."""
    den = st.den
    return {key: tuple((k, gaussian(c, 0, den)) for k, c in terms) for key, terms in st.table.items()}


def structure_of(dim: int, table: dict) -> StructureTable:
    """The StructureTable of a table {(i, j): ((k, scalar), ...)} of real
    scalars, as ints over the lcm of their denominators."""
    scalars = [c for terms in table.values() for _, c in terms]
    assert not any(c.b for c in scalars), "structure constants must be real"
    den = lcm(*(c.d for c in scalars))
    ints = {key: tuple((k, c.a * (den // c.d)) for k, c in terms) for key, terms in table.items()}
    return StructureTable(dim, den, ints)


def apply_involution(sigma, v) -> list:
    """sigma(v) = M conj(v) for a dense coordinate vector v."""
    return mat_vec(involution_matrix(sigma), [x.conj() for x in v])


def dense_vector(v: dict, n: int) -> list:
    """The dense coordinate vector of length n with the nonzeros {i: x}."""
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return out


def sparse_vector(v: list) -> dict:
    """{i: x} of the nonzero entries of a dense vector, by increasing i."""
    return {i: x for i, x in enumerate(v) if x}


def basis_vectors(basis) -> list:
    """The dense coordinate vectors of a real-form basis, each read off
    its Gaussian-integer numerators over the basis's den."""
    den = basis.den
    return [dense_vector({i: gaussian(p, q, den) for i, (p, q) in nz}, basis.count)
            for nz in basis.support]


def sigma_root_action(rs, sigma) -> dict:
    """Map gamma -> (sigma* gamma, c_gamma) read off the involution's
    fields, c_gamma as a scalar.

    Requires sigma to permute the root spaces, which holds whenever sigma
    preserves the Cartan subalgebra.
    """
    images, den, scalars = sigma.images, sigma.den, sigma.scalars
    action = {}
    for gamma in rs.roots:
        j = rs.root_index(gamma)
        if images[j] < rs.rank:
            raise ValueError("involution does not permute the root spaces")
        action[gamma] = (rs.index_root(images[j]), gaussian(*scalars[j], den))
    return action


def bracket(st, u, v) -> list:
    """[u, v] of two dense coordinate vectors, summed from the library's
    bracket table over their nonzeros."""
    out = [ZERO] * st.dim
    table = scalar_table(st)
    nu, nv = ([(i, x) for i, x in enumerate(w) if x] for w in (u, v))
    for a, x in nu:
        for b, y in nv:
            for k, c in table.get((a, b), ()):
                out[k] = out[k] + x * y * c
    return out


def ad(st, u) -> list:
    """Matrix of x -> [u, x] in basis coordinates, for a dense vector u."""
    n, table = st.dim, scalar_table(st)
    mat = [[ZERO] * n for _ in range(n)]
    for i, a in enumerate(u):
        if not a:
            continue
        for j in range(n):
            for k, c in table.get((i, j), ()):
                mat[k][j] = mat[k][j] + a * c
    return mat


def cybe(r: Tensor2, structure: StructureTable) -> dict:
    """[r12, r13] + [r12, r23] + [r13, r23] as {(i, j, k): nonzero entry}:
    the library's integer sums (core.cybe_sums), each nonzero key reduced
    to a scalar."""
    acc, acc_im, den = cybe_sums(r, structure)
    out = {}
    for key, a in acc.items():
        b = acc_im.get(key, 0)
        if a or b:
            out[key] = gaussian(a, b, den)
    return out


def casimir_cybe(rs) -> dict:
    """RootSystem.casimir_cybe, (den, {key: int}), as {key: scalar}."""
    den, acc = rs.casimir_cybe
    return {k: GaussianRational(Fraction(v, den)) for k, v in acc.items()}


def reference_cybe(r: Tensor2, st: StructureTable) -> dict:
    """CYB(r) = [r12, r13] + [r12, r23] + [r13, r23] as {(i, j, k): nonzero
    entry}, accumulated term by term in GaussianRational over the sparse
    entries of r: the scalar evaluator core.cybe replaced by its integer
    one, with the same loops, so the two dicts agree in keys, values and
    order."""
    items, table = list(r.items()), scalar_table(st)
    acc: dict[tuple[int, int, int], GaussianRational] = {}
    for (a, b), va in items:
        for (c, d), vc in items:
            v = va * vc
            for k, coef in table.get((a, c), ()):
                acc[(k, b, d)] = acc.get((k, b, d), ZERO) + v * coef
            for k, coef in table.get((b, c), ()):
                acc[(a, k, d)] = acc.get((a, k, d), ZERO) + v * coef
            for k, coef in table.get((b, d), ()):
                acc[(a, c, k)] = acc.get((a, c, k), ZERO) + v * coef
    return {k: v for k, v in acc.items() if v}


# ---- the tensor format ----------------------------------------------------------


class ReferenceTensor:
    """An order-2 tensor as the dict {(i, j): nonzero GaussianRational} of
    its entries, each operation summed entry by entry in scalars: the
    reference for Tensor2's integer format."""

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = {k: v for k, v in entries.items() if v}

    @staticmethod
    def read(x) -> "ReferenceTensor":
        """The entries of a Tensor2 read one slot at a time through entry."""
        n = x.dim
        return ReferenceTensor(n, {(i, j): entry(x, i, j) for i in range(n) for j in range(n)})

    def den(self) -> int:
        """The lcm of the reduced denominators of the entries' parts."""
        parts = [Fraction(p, v.d) for v in self.entries.values() for p in (v.a, v.b)]
        return lcm(*(f.denominator for f in parts))

    def numerators(self) -> dict:
        """{(i, j): (re, im)} with entry (i, j) = (re + im i) / den()."""
        den = self.den()
        out = {}
        for k, v in self.entries.items():
            re, im = Fraction(v.a, v.d) * den, Fraction(v.b, v.d) * den
            assert re.denominator == im.denominator == 1
            out[k] = (int(re), int(im))
        return out

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, ZERO) + v
        return ReferenceTensor(self.dim, out)

    def __neg__(self):
        return ReferenceTensor(self.dim, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        return ReferenceTensor(self.dim, {k: c * v for k, v in self.entries.items()})

    def transpose(self):
        return ReferenceTensor(self.dim, {(j, i): v for (i, j), v in self.entries.items()})

    def is_antisymmetric(self) -> bool:
        e = self.entries
        return all(-v == e.get((j, i), ZERO) for (i, j), v in e.items())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[i, j, *v.to_json()] for (i, j), v in sorted(self.entries.items())],
        }


# ---- dense matrix algebra ----------------------------------------------------


def mat_vec(a: list, v: list) -> list:
    out = [ZERO] * len(a)
    for i, row in enumerate(a):
        acc = ZERO
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out[i] = acc
    return out


def mat_mul(a: list, b: list) -> list:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if not v:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + v * bk[j]
    return out


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def nullspace(m: list) -> list[list]:
    """Basis of the right kernel, one standard vector per free column."""
    if not m:
        return []
    a, pivots = linalg.rref(m)
    basis = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        v = [ZERO] * len(m[0])
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


# ---- the Killing form and real forms ----------------------------------------


def fraction_killing_h(rs) -> list:
    """kappa(h_i, h_j) = (alpha_i | alpha_j) as Fractions: the inverse of
    C = sum over the roots of gamma gamma^T, by Gauss-Jordan over Q, the
    reference for rs.gram / rs.gram_den."""
    return _fraction_gram_inverse(tuple(rs.roots))


@lru_cache(maxsize=None)
def _fraction_gram_inverse(roots: tuple) -> list:
    n = len(roots[0])
    c = [[sum(Fraction(g[i] * g[j]) for g in roots) for j in range(n)] for i in range(n)]
    a = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(c)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def reference_structure_constants(rs) -> tuple[list, dict, dict]:
    """The positive roots, the extraspecial pair of each non-simple one and
    every integer N(mu, nu), by tuple arithmetic on the Cartan matrix with
    Fraction norms from fraction_killing_h: the reference for
    rs.positive_roots, rs._extraspecial and rs._n, in their order."""
    n, cartan = rs.rank, rs.cartan_matrix

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(a):
        return tuple(-x for x in a)

    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found, frontier = set(simple), list(simple)
    while frontier:  # one height at a time, so each string below is complete
        new = []
        for beta in frontier:
            for i, s in enumerate(simple):
                if beta == s:
                    continue
                down, cur = 0, sub(beta, s)
                while cur in found:
                    down, cur = down + 1, sub(cur, s)
                up = add(beta, s)
                if down > sum(beta[k] * cartan[k][i] for k in range(n)) and up not in found:
                    found.add(up)
                    new.append(up)
        frontier = new
    positive = sorted(found, key=lambda r: (sum(r), r))
    roots = set(positive) | {neg(r) for r in positive}
    g = fraction_killing_h(rs)
    norms = {
        r: sum((r[i] * g[i][j] * r[j] for i in range(n) for j in range(n)), Fraction(0))
        for r in roots
    }

    def string_down(mu, nu):
        k, cur = 0, sub(nu, mu)
        while cur in roots:
            k, cur = k + 1, sub(cur, mu)
        return k

    pairs = {gamma: [] for gamma in positive[n:]}
    for k, mu in enumerate(positive):
        for nu in positive[k + 1 :]:
            if add(mu, nu) in pairs:
                pairs[add(mu, nu)].append((mu, nu))
    consts: dict = {}

    def fill(mu, nu, gamma, v):
        for x, y, w in (
            (mu, nu, v),
            (nu, neg(gamma), v * norms[mu] / norms[gamma]),
            (neg(gamma), mu, v * norms[nu] / norms[gamma]),
        ):
            assert w.denominator == 1
            for a, b, c in ((x, y, int(w)), (neg(x), neg(y), -int(w))):
                consts[a, b], consts[b, a] = c, -c

    for gamma, ((alpha, beta), *rest) in pairs.items():
        n_ab = string_down(alpha, beta) + 1
        fill(alpha, beta, gamma, Fraction(n_ab))
        for mu, nu in rest:
            total = Fraction(0)
            if sub(beta, mu) in roots:
                total += consts[beta, neg(mu)] * consts[alpha, neg(nu)] / norms[sub(beta, mu)]
            if sub(alpha, mu) in roots:
                total += consts[neg(mu), alpha] * consts[beta, neg(nu)] / norms[sub(alpha, mu)]
            val = total * norms[gamma] / n_ab
            assert val.denominator == 1 and abs(val) == string_down(mu, nu) + 1
            fill(mu, nu, gamma, val)
    extraspecial = {gamma: ps[0] for gamma, ps in pairs.items()}
    return positive, extraspecial, consts


def killing_gram(rs) -> list:
    """Gram matrix of the Killing form in the ambient basis: the Cartan
    block from fraction_killing_h, (x_g | x_-g) = 1 on root pairs."""
    k = zeros(rs.dim, rs.dim)
    g = fraction_killing_h(rs)
    for i in range(rs.rank):
        for j in range(rs.rank):
            k[i][j] = GaussianRational(g[i][j])
    for ip in range(rs.rank, rs.rank + rs.npos):
        im = ip + rs.npos
        k[ip][im] = k[im][ip] = ONE
    return k


def killing_form(rs, x, y) -> GaussianRational:
    """kappa(x, y) for coordinate vectors, via the block Gram matrix: the
    Cartan block from fraction_killing_h, (x_g | x_-g) = 1 on root pairs."""
    acc = ZERO
    g = fraction_killing_h(rs)
    for i in range(rs.rank):
        if x[i]:
            for j in range(rs.rank):
                if y[j]:
                    acc = acc + x[i] * y[j] * GaussianRational(g[i][j])
    for ip in range(rs.rank, rs.rank + rs.npos):
        im = ip + rs.npos
        acc = acc + x[ip] * y[im] + x[im] * y[ip]
    return acc


def killing_form_adjoint(rs, x, y) -> GaussianRational:
    """kappa via trace of adjoint maps; the independent oracle path."""
    ax = ad(rs.structure, x)
    ay = ad(rs.structure, y)
    acc = ZERO
    for i in range(rs.dim):
        for k in range(rs.dim):
            if ax[i][k] and ay[k][i]:
                acc = acc + ax[i][k] * ay[k][i]
    return acc


def theta_twisted_gram(rs, theta, basis):
    """Gram matrix of B(x, y) = -kappa(x, theta y) on the real basis."""
    vectors = basis_vectors(basis)
    images = [mat_vec(involution_matrix(theta), v) for v in vectors]
    n = basis.count
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            val = -killing_form(rs, vectors[i], images[j])
            assert val.is_real()
            row.append(Fraction(val.a, val.d))
        gram.append(row)
    return gram


def is_positive_definite(m: list[list[Fraction]]) -> bool:
    """Exact test for a symmetric rational matrix, by LDL^T pivots."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def rescaling_automorphism(rs, d: dict) -> list:
    """Torus automorphism x_gamma -> (prod d_i^{gamma_i}) x_gamma, id on h."""
    m = identity(rs.dim)
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


def table_n(rs, mu, nu) -> GaussianRational:
    """N'(mu, nu), the constant of [x_mu, x_nu] = N' x_{mu + nu} in the
    kappa-normalized basis, read off the bracket table; zero when mu + nu
    is not a root."""
    k = rs._index.get(tuple(a + b for a, b in zip(mu, nu)))
    if k is None:
        return ZERO
    terms = scalar_table(rs.structure).get((rs.root_index(mu), rs.root_index(nu)), ())
    return dict(terms).get(k, ZERO)


def _sigma_scalars(rs, mu, chi, negate: bool):
    """Scalars c with sigma(x_g) = c_g * x_{mu g} (or x_{-mu g}), computed
    from the generator action by bracket recursion up the positive roots."""
    c: dict[tuple, GaussianRational] = {}
    for i, alpha in enumerate(rs.simple_roots):
        c[alpha] = GaussianRational(-1 if chi(i) else 1)
    roots = rs.roots
    for g, (k, l) in rs._extraspecial.items():  # positions in rs.roots
        gamma, xi, eta = roots[g], roots[k], roots[l]
        mxi, meta = mu.apply_root(xi), mu.apply_root(eta)
        if negate:
            mxi, meta = tuple(-x for x in mxi), tuple(-x for x in meta)
        c[gamma] = c[xi] * c[eta] * table_n(rs, mxi, meta) / table_n(rs, xi, eta)
    return c


def reference_canonical_involution(rs, kind: str, mu, J: tuple) -> Involution:
    """The canonical involution with its bracket recursion run afresh for
    this J, the signs of the simple roots in J set at the bottom."""
    idx, jset = rs.root_index, set(J)
    negate = kind == "omega"
    images = [mu(i) for i in range(rs.rank)] + [None] * (2 * rs.npos)
    values = [-ONE if negate else ONE] * rs.rank + [None] * (2 * rs.npos)
    c = _sigma_scalars(rs, mu, lambda i: i in jset, negate)
    for gamma, val in c.items():
        mg = mu.apply_root(gamma)
        neg, neg_mg = tuple(-x for x in gamma), tuple(-x for x in mg)
        images[idx(gamma)], values[idx(gamma)] = idx(neg_mg if negate else mg), val
        images[idx(neg)], values[idx(neg)] = idx(mg if negate else neg_mg), ONE / val
    den, scalars = over_lcm((v.a, v.b, v.d) for v in values)
    return Involution(images, den, scalars, kind, mu, J)


def reference_sigma_chain_scalars(bd, sigma, chains) -> dict:
    """Simple-root rescalings in Q(i) making the family sigma-compatible:
    the generator scalars (-1)^{chi_J} made constant along every
    tau-chain, one division per vertex.  The reference for
    rmatrix._sigma_chain_scalars, which finds them as signs."""
    s: dict[tuple, GaussianRational] = {}
    if sigma is None or sigma.kind == "varsigma" or bd.is_empty():
        return s
    mu = sigma.mu
    jset = set(sigma.J)

    def c_of(root):
        return -ONE if root.index(1) in jset else ONE

    simple_chains = [c for c in chains if sum(c[0]) == 1]
    done = set()
    for chain in simple_chains:
        if chain[0] in done:
            continue
        m = len(chain) - 1
        mirror_start = mu.apply_root(chain[m])
        if mirror_start == chain[0]:
            eps = c_of(chain[m // 2]) if m % 2 == 0 else ONE
            for k in range(m + 1):
                j = m - k
                if k < j:
                    s.setdefault(chain[k], ONE)
                    s[chain[j]] = eps / c_of(chain[k])
                elif k == j:
                    s[chain[k]] = ONE
            done.add(chain[0])
        else:
            mirror = next((c for c in simple_chains if c[0] == mirror_start), ())
            if len(mirror) != len(chain):  # mu pairs chains of one length
                raise ValueError("triple is not sigma-compatible")
            for k in range(m + 1):
                s.setdefault(chain[k], ONE)
                s[mirror[k]] = ONE / c_of(chain[m - k])
            done.add(chain[0])
            done.add(mirror_start)
    return s


def reference_family(rs, bd, chains, scalars: dict) -> dict:
    """The root-vector family's scales in Q(i): along each composite
    chain, s(T beta) = s(beta) s(T gamma) s(T delta) N'(T gamma, T delta)
    / (N'(gamma, delta) s(gamma) s(delta)) for beta = gamma + delta, the
    N' read off the bracket table."""
    s = {g: ONE for g in rs.positive_roots}
    s.update(scalars)
    hat1 = set(span_subset_roots(rs, bd.gamma1))
    gamma1_roots = {rs.simple_roots[i] for i in bd.gamma1}
    composite_chains = sorted((c for c in chains if sum(c[0]) > 1), key=lambda c: sum(c[0]))
    for chain in composite_chains:
        for beta, tbeta in zip(chain, chain[1:]):
            gamma = next(
                g for g in gamma1_roots if tuple(a - b for a, b in zip(beta, g)) in hat1
            )
            delta = tuple(a - b for a, b in zip(beta, gamma))
            tg = extend_tau_additively(rs, bd, gamma)
            td = extend_tau_additively(rs, bd, delta)
            s[tbeta] = (
                s[beta] * s[tg] * s[td] * table_n(rs, tg, td)
                / (table_n(rs, gamma, delta) * s[gamma] * s[delta])
            )
    return s


def transported_images(rs, bd, family: dict) -> dict:
    """Chain transport x'_beta -> x'_{T beta} as index/scalar assignments
    over the original basis, the family's signs taken as scalars."""
    out = {}
    hat1 = span_subset_roots(rs, bd.gamma1)
    for beta in hat1:
        tbeta = extend_tau_additively(rs, bd, beta)
        out[beta] = (tbeta, GaussianRational(family[tbeta]) / family[beta])
    return out


def reference_r(rs, bd, lam, t, family: dict) -> Tensor2:
    """r = t (lam + sum over positive gamma of x_{-gamma} (x) x_gamma + sum
    over alpha preceding beta of x'_{-alpha} wedge x'_beta), summed term by
    term from the defining formula, in the root-vector family given, its
    signs taken as scalars."""
    terms = {}

    def add(i, j, v):
        terms[(i, j)] = terms.get((i, j), ZERO) + t * v

    for i, row in enumerate(matrix_of(lam)):
        for j, v in enumerate(row):
            add(i, j, v)
    for g in rs.positive_roots:
        add(rs.root_index(tuple(-x for x in g)), rs.root_index(g), ONE)
    for alpha, beta in precedence_pairs(rs, bd):
        coeff = GaussianRational(family[beta]) / family[alpha]
        ia, ib = rs.root_index(tuple(-x for x in alpha)), rs.root_index(beta)
        add(ia, ib, coeff)
        add(ib, ia, -coeff)
    return Tensor2(rs.dim, terms)


# ---- factorization maps and the doubles --------------------------------------


def factorization_maps(rs, r: Tensor2):
    """(r_plus, r_minus, i_map) as matrices from dual coordinates to g.

    r_plus(mu) = (mu (x) id) r, r_minus(mu) = -(id (x) mu) r, and the
    factorization map is their difference; for r + r21 = t Omega it is t
    times the Killing duality and in particular invertible.
    """
    n = rs.dim
    rmat = [[entry(r, i, j) for j in range(n)] for i in range(n)]
    r_plus = transpose(rmat)
    r_minus = [[-x for x in row] for row in rmat]
    i_map = [
        [r_plus[i][j] - r_minus[i][j] for j in range(n)] for i in range(n)
    ]
    return r_plus, r_minus, i_map


def induced_form(rs, t: GaussianRational):
    """Gram matrix of the inner product induced by r + r21 = t Omega:
    kappa / t on the ambient basis."""
    inv_t = ONE / t
    return [[inv_t * x for x in row] for row in killing_gram(rs)]


def dense_rows(rows: list, n: int) -> list:
    """The dense n x n matrix with the sparse rows {j: x}."""
    return [dense_vector(row, n) for row in rows]


def pair(mt, u, v) -> GaussianRational:
    """The pairing of a Manin triple on two dense coordinate vectors."""
    p = dense_rows(mt.pairing, mt.double_dim)
    acc = ZERO
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b and p[i][j]:
                acc = acc + a * p[i][j] * b
    return acc


def realify_vector(v) -> list:
    """Coordinates over {b_j, i b_j} of a dense complex coordinate vector."""
    n = len(v)
    out = [ZERO] * (2 * n)
    for j, x in enumerate(v):
        if x.a:
            out[j] = real_part(x)
        if x.b:
            out[n + j] = imag_part(x)
    return out


def dense_real_part_pairing(rs, t: GaussianRational) -> list:
    """Gram matrix of 2 Re(kappa / t) on the realified basis."""
    n = rs.dim
    two = GaussianRational(2)
    p = zeros(2 * n, 2 * n)
    for i, row in enumerate(induced_form(rs, t)):
        for j, base in enumerate(row):
            if base:
                re, im = two * real_part(base), two * imag_part(base)
                p[i][j], p[i][n + j] = re, -im  # 2 Re(i base) = -2 Im(base)
                p[n + i][j], p[n + i][n + j] = -im, -re
    return p


def multiplication_by_i(n: int):
    """The operator x -> x' on realified coordinates."""
    m = zeros(2 * n, 2 * n)
    for j in range(n):
        m[n + j][j] = ONE
        m[j][n + j] = -ONE
    return m


def psi_phi(rs, sigma):
    """Mutually inverse maps between l + l and the complexified
    realification, as exact matrices."""
    n = rs.dim
    jmat = multiplication_by_i(n)
    half = GaussianRational(Fraction(1, 2))
    half_i = half * I

    def rho_column(v):
        return realify_vector(v)

    m = involution_matrix(sigma)
    psi = zeros(2 * n, 2 * n)
    for a in range(n):
        e = [ZERO] * n
        e[a] = ONE
        col_x = rho_column(e)
        jx = mat_vec(jmat, col_x)
        for i in range(2 * n):
            psi[i][a] = half * col_x[i] - half_i * jx[i]
        se = [m[i][a] for i in range(n)]
        col_y = rho_column(se)
        jy = mat_vec(jmat, col_y)
        for i in range(2 * n):
            psi[i][n + a] = half * col_y[i] + half_i * jy[i]

    upsilon = zeros(n, 2 * n)
    for j in range(n):
        upsilon[j][j] = ONE
        upsilon[j][n + j] = I
    lower = mat_mul(m, conjugate(upsilon))
    phi = [upsilon[i][:] for i in range(n)] + [lower[i][:] for i in range(n)]
    return psi, phi


def direct_sum_structure(rs) -> StructureTable:
    """l + l as a complex algebra (for checking psi is a morphism)."""
    n = rs.dim
    table = {}
    for (a, b), terms in scalar_table(rs.structure).items():
        table[(a, b)] = terms
        table[(n + a, n + b)] = tuple((n + k, c) for k, c in terms)
    return structure_of(2 * n, table)


# ---- the cobracket, two ways --------------------------------------------------


def cobracket_from_triple(mt) -> list:
    """delta on sub1 via the pairing with sub2: for each basis vector of
    sub1 a matrix D with delta(w_c) = sum D[a][b] w_a (x) w_b."""
    sub1 = [dense_vector(v, mt.double_dim) for v in mt.sub1_basis]
    sub2 = [dense_vector(v, mt.double_dim) for v in mt.sub2_basis]
    q = [[pair(mt, w, z) for z in sub2] for w in sub1]
    qinv = linalg.inverse(q)
    brackets = [[bracket(mt.structure, z, y) for y in sub2] for z in sub2]
    out = []
    for w in sub1:
        m = [[pair(mt, w, br) for br in row] for row in brackets]
        out.append(
            mat_mul(qinv, mat_mul(m, transpose(qinv)))
        )
    return out


def cobracket_from_r0(rs, datum) -> list:
    """delta = ad_x(r0) on the real form, in real-basis coordinates."""
    basis = fixed_point_basis(rs, datum.sigma)
    winv = dense_inverse(basis)
    n = rs.dim
    out = []
    for vec in basis_vectors(basis):
        acc: dict[tuple, GaussianRational] = {}
        # (ad_x (x) 1 + 1 (x) ad_x) applied to r0
        admat = ad(rs.structure, vec)
        for (a, b), v in datum.r0.items():
            for i in range(n):
                if admat[i][a]:
                    acc[(i, b)] = acc.get((i, b), ZERO) + admat[i][a] * v
                if admat[i][b]:
                    acc[(a, i)] = acc.get((a, i), ZERO) + admat[i][b] * v
        out.append(dense_tensor_coordinates(basis, tensor_from_items(n, acc.items()), winv))
    return out


# ---- dense real-basis references ---------------------------------------------
# The real-form coordinates and both doubles as dense matrix algebra: W^-1
# of the basis matrix W by elimination, brackets through ad matrices, the
# Killing form through killing_form.  The library inverts W block by block
# and works on nonzeros only; these are what it must agree with.


def dense_inverse(basis) -> list:
    """W^-1 for the basis matrix W whose columns are the basis vectors."""
    return linalg.inverse(transpose(basis_vectors(basis)))


def dense_coordinates(basis, target, winv=None) -> list | None:
    """Real coordinates of target over the basis, or None if outside the
    real span."""
    coords = mat_vec(winv or dense_inverse(basis), target)
    if not all(x.is_real() for x in coords):
        return None
    return coords


def dense_tensor_coordinates(basis, x, winv=None) -> list:
    """W^-1 X W^-T."""
    winv = winv or dense_inverse(basis)
    n = len(winv)
    xmat = [[entry(x, i, j) for j in range(n)] for i in range(n)]
    return mat_mul(winv, mat_mul(xmat, transpose(winv)))


def dense_real_structure_constants(rs, basis) -> dict:
    """Bracket table of the real form in its own basis."""
    winv = dense_inverse(basis)
    vectors = basis_vectors(basis)
    ads = [ad(rs.structure, u) for u in vectors]
    n = basis.count
    table = {}
    for i in range(n):
        for j in range(n):
            coords = dense_coordinates(basis, mat_vec(ads[i], vectors[j]), winv)
            assert coords is not None, "real form is not closed under bracket"
            terms = tuple((k, c) for k, c in enumerate(coords) if c)
            if terms:
                table[(i, j)] = terms
    return table


def dense_real_killing_gram(rs, basis) -> list:
    vectors = basis_vectors(basis)
    out = []
    for u in vectors:
        row = []
        for v in vectors:
            val = killing_form(rs, u, v)
            assert val.is_real(), "Killing form must be real on a real form"
            row.append(val)
        out.append(row)
    return out


def dense_double_factorizable(rs, datum) -> ManinTriple:
    """(l + l, diag l, l^r) from dense real-basis coordinates."""
    basis = fixed_point_basis(rs, datum.sigma)
    n = basis.count
    rho = dense_tensor_coordinates(basis, datum.r)
    assert all(x.is_real() for row in rho for x in row)
    inv_t = ONE / datum.t
    form = [[inv_t * x for x in row] for row in dense_real_killing_gram(rs, basis)]
    pairing = zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            pairing[i][j] = form[i][j]
            pairing[n + i][n + j] = -form[i][j]
    table = {}
    for (i, j), terms in dense_real_structure_constants(rs, basis).items():
        table[(i, j)] = terms
        table[(n + i, n + j)] = tuple((n + k, c) for k, c in terms)
    sub1 = []
    for a in range(n):
        v = [ZERO] * (2 * n)
        v[a] = ONE
        v[n + a] = ONE
        sub1.append(v)
    r_plus = transpose(rho)
    sub2 = []
    for k in range(n):
        v = [ZERO] * (2 * n)
        for b in range(n):
            v[b] = r_plus[b][k]
            v[n + b] = -rho[b][k]
        sub2.append(v)
    return ManinTriple(
        2 * n, [sparse_vector(row) for row in pairing], structure_of(2 * n, table),
        [sparse_vector(v) for v in sub1], [sparse_vector(v) for v in sub2], "factorizable",
    )


def dense_double_imaginary(rs, datum) -> ManinTriple:
    """(l realified, l0, r_plus(l0*)) with the real dual basis read off
    the dense W^-1."""
    n = rs.dim
    basis = fixed_point_basis(rs, datum.sigma)
    sub1 = [realify_vector(v) for v in basis_vectors(basis)]
    rmat = [[entry(datum.r, i, j) for j in range(n)] for i in range(n)]
    r_plus = transpose(rmat)
    sub2 = [realify_vector(mat_vec(r_plus, phi)) for phi in dense_inverse(basis)]
    return ManinTriple(
        2 * n,
        [sparse_vector(row) for row in dense_real_part_pairing(rs, datum.t)],
        realification_structure(rs),
        [sparse_vector(v) for v in sub1],
        [sparse_vector(v) for v in sub2],
        "imaginary_factorizable",
    )


def primitive(values) -> list:
    """Nonzero real values, ints or scalars, over one positive scale: the
    ints with no common factor that are a positive multiple of them."""
    fields = [(x, 0, 1) if type(x) is int else (x.a, x.b, x.d) for x in values]
    _, z = over_lcm(fields)
    assert not any(b for _, b in z), "values must be real"
    g = gcd(*(a for a, _ in z))
    return [a // g for a, _ in z]


def manin_fields(mt) -> tuple:
    """Every field of a Manin triple, the structure as its dimension and
    table and each sparse row or vector as its items, so that two triples
    compare field by field and in index order.  The pairing is read up
    to one positive scale and each subspace vector up to its own, the
    scales ManinTriple.verify does not see: as the ints of primitive."""
    entries = iter(primitive(x for row in mt.pairing for x in row.values()))
    return (
        mt.double_dim, [[(j, next(entries)) for j in row] for row in mt.pairing],
        mt.structure.dim, mt.structure.den, mt.structure.table,
        [list(zip(v, primitive(v.values()))) for v in mt.sub1_basis],
        [list(zip(v, primitive(v.values()))) for v in mt.sub2_basis], mt.case,
    )


def _flat(a) -> Iterator:
    for x in a:
        if isinstance(x, list):
            yield from _flat(x)
        else:
            yield x if isinstance(x, GaussianRational) else GaussianRational(x)


def positive_multiple(a, b) -> bool:
    """Whether b = c a, entry by entry, for one positive rational c: a
    and b are scalars and ints in nested lists of one shape.  A Manin
    triple fixes its pairing, and so the cobracket it induces, only up to
    such a scale."""
    xs, ys = list(_flat(a)), list(_flat(b))
    k = next((k for k, x in enumerate(xs) if x), None)
    if len(xs) != len(ys) or k is None:
        return False
    c = ys[k] / xs[k]
    return c.is_real() and c.a > 0 and all(c * x == y for x, y in zip(xs, ys))


# ---- general elimination and the parameter layer ------------------------------
# The parameter solve and the reality cut as one Gaussian-rational
# elimination each, over the full interleaved system: what the library's
# integer and split solves must reproduce exactly.


def identity(n: int) -> list:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def solve(m: list, rhs: list) -> tuple[list, list[list]] | None:
    """One exact solution of m x = rhs (free coordinates 0) and the
    standard kernel basis of m, from one elimination of the augmented
    matrix; None if inconsistent."""
    cols = len(m[0]) if m else 0
    a, pivots = linalg.rref([row + [b] for row, b in zip(m, rhs)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = a[r][cols]
    return x, nullspace(m)


def root_values(rs, root) -> list:
    """RootSystem.root_values, [(alpha_i | root)] over gram_den, as scalars."""
    return [gaussian(v, 0, rs.gram_den) for v in rs.root_values(root)]


def constraint_residual(rs, bd, lam):
    """Exact residuals of the defining linear system at lam: lam + lam^T
    - Omega_0, then lam^T g_{T(a)} + lam g_a for each a in Gamma1."""
    n = rs.rank
    m = matrix_of(lam)
    residuals = [[m[i][j] + m[j][i] - rs.cartan_dual_gram[i][j] for j in range(n)] for i in range(n)]
    lam_t = transpose(m)
    for a in bd.gamma1:
        ga = root_values(rs, rs.simple_roots[a])
        gt = root_values(rs, rs.simple_roots[bd.mapping[a]])
        lt_gt = mat_vec(lam_t, gt)
        residuals.append([x + y for x, y in zip(lt_gt, mat_vec(m, ga))])
    return residuals


def _antisym(n: int, coords) -> list:
    m = zeros(n, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), c in zip(pairs, coords):
        m[i][j], m[j][i] = c, -c
    return m


def reference_solve_parameters(rs, bd) -> tuple[list, list]:
    """(base point, directions) of the complex parameter space, by one
    Gaussian-rational elimination of A^T g_{T(a)} + A g_a = -(Omega_0/2)
    (g_{T(a)} + g_a) over the antisymmetric unknowns A_ij, i < j."""
    n = rs.rank
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    half = GaussianRational(Fraction(1, 2))
    omega_half = [[half * x for x in row] for row in rs.cartan_dual_gram]
    rows, rhs = [], []
    for a in bd.gamma1:
        ga = root_values(rs, rs.simple_roots[a])
        gt = root_values(rs, rs.simple_roots[bd.mapping[a]])
        base = [x + y for x, y in zip(mat_vec(omega_half, gt), mat_vec(omega_half, ga))]
        for k in range(n):
            row = []
            for (i, j) in pairs:
                coeff = ZERO
                if j == k:
                    coeff = coeff + gt[i] - ga[i]
                if i == k:
                    coeff = coeff + ga[j] - gt[j]
                row.append(coeff)
            rows.append(row)
            rhs.append(-base[k])
    sol, kernel = solve(rows, rhs) if rows else ([ZERO] * len(pairs), identity(len(pairs)))
    base_point = _antisym(n, sol)
    for i in range(n):
        for j in range(n):
            base_point[i][j] = base_point[i][j] + omega_half[i][j]
    return base_point, [_antisym(n, v) for v in kernel]


def reference_reality_cut(base_point, directions, kind, mu) -> tuple[list, list] | None:
    """(base point, directions) of the cut, or None if inconsistent.

    The unknowns are (re c_m, im c_m), interleaved, for the coefficients
    of A = A_base + sum c_m D_m, and every condition of the kind is one
    row of a single elimination."""
    n, ndir = len(base_point), len(directions)
    half = GaussianRational(Fraction(1, 2))

    def anti(m, i, j):
        return half * (m[i][j] - m[j][i])

    def forms(i, j):
        """Real and imaginary parts of a_ij as [const, unknowns...]."""
        b = anti(base_point, i, j)
        re, im = [real_part(b)], [imag_part(b)]
        for d in directions:
            x = d[i][j]
            re += [real_part(x), -imag_part(x)]
            im += [imag_part(x), real_part(x)]
        return re, im

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            re, im = forms(i, j)
            if kind == "real":
                rows.append(im)
            elif kind == "imaginary":
                rows.append(re)
            else:
                sign = 1 if kind == "conjugate-mu" else -1
                mre, mim = forms(mu(i), mu(j))
                rows.append([x - sign * y for x, y in zip(re, mre)])
                rows.append([x + sign * y for x, y in zip(im, mim)])
    if rows:
        affine = solve([r[1:] for r in rows], [-r[0] for r in rows])
        if affine is None:
            return None
    else:
        affine = [ZERO] * (2 * ndir), identity(2 * ndir)
    sol, kernel = affine

    def combine(v, start):
        m = [row[:] for row in start]
        for k, d in enumerate(directions):
            c = v[2 * k] + I * v[2 * k + 1]
            for i in range(n):
                for j in range(n):
                    m[i][j] = m[i][j] + c * d[i][j]
        return m

    return combine(sol, base_point), [combine(v, zeros(n, n)) for v in kernel]


# ---- recovery in a general frame ------------------------------------------------
# The extraction as it stood before recovery was restricted to the
# standard frame: it recovers any positive system, its simple roots
# delta and lambda in the frame of delta, and tests regularity on the
# dense ad H.  The declared-data rule built on it must agree with
# verify's parameter_constraints.

ReferenceExtraction = namedtuple("ReferenceExtraction", "H t positive_roots delta bd lam")


def reference_extract_data(rs, r0: Tensor2) -> ReferenceExtraction:
    if r0.dim != rs.dim:
        raise ValueError("dimension mismatch")
    if not r0.is_antisymmetric():
        raise ExtractionError("tensor is not antisymmetric")
    if r0.is_zero():
        raise ExtractionError("zero tensor is triangular, not almost factorizable")

    cyb = cybe(r0, rs.structure)
    ref = casimir_cybe(rs)
    key = next(iter(ref))
    ratio = cyb.get(key, ZERO) / ref[key]
    if not ratio:
        raise ExtractionError("tensor is triangular (vanishing modified YBE constant)")
    if cyb != {k: ratio * v for k, v in ref.items()}:
        raise ExtractionError("CYB(r0) is not proportional to [Omega13, Omega23]")
    if not ratio.is_real():
        raise ExtractionError("modified YBE constant squared must be real")

    h_vec = [ZERO] * rs.dim
    table = scalar_table(rs.structure)
    for (a, b), v in r0.items():
        for k, c in table.get((a, b), ()):
            h_vec[k] = h_vec[k] + v * c
    if any(h_vec[rs.rank:]):
        raise ExtractionError("bracket image does not lie in the standard Cartan")
    if len(nullspace(ad(rs.structure, h_vec))) != rs.rank:
        raise ExtractionError("bracket image is not regular")

    sample = None
    for g in rs.positive_roots:
        v = entry(r0, rs.root_index(tuple(-x for x in g)), rs.root_index(g))
        if v:
            sample = v
            break
    if sample is None:
        raise ExtractionError("no paired root-vector entries found")
    t = sample + sample
    if not (t.a > 0 or (not t.a and t.b > 0)):
        t = -t
    if not (t.is_real() or t.is_imaginary()):
        raise ExtractionError("recovered t is neither real nor imaginary")
    if t * t + GaussianRational(4) * ratio:
        raise ExtractionError("entry-level t disagrees with the modified YBE constant")

    half_t = t * HALF
    new_pos = []
    for g in rs.positive_roots:
        v = entry(r0, rs.root_index(tuple(-x for x in g)), rs.root_index(g))
        if v == half_t:
            new_pos.append(g)
        elif v == -half_t:
            new_pos.append(tuple(-x for x in g))
        else:
            raise ExtractionError("paired root slots are not +-t/2")
    expect = [ZERO] * rs.dim
    for g in new_pos:
        for i, c in enumerate(g):
            expect[i] = expect[i] + GaussianRational(c)
    if [x * (-t) for x in expect] != h_vec:
        raise ExtractionError("bracket image inconsistent with recovered positives")

    pos_set = set(new_pos)
    delta = [
        g
        for g in new_pos
        if not any(tuple(a - b for a, b in zip(g, h)) in pos_set for h in new_pos if h != g)
    ]
    delta.sort(key=lambda r: (next(i for i, c in enumerate(r) if c), r))

    pairs = set()
    for a in new_pos:
        ia = rs.root_index(tuple(-x for x in a))
        for b in new_pos:
            if a != b and entry(r0, ia, rs.root_index(b)):
                pairs.add((a, b))

    lefts = {a for a, _ in pairs}
    g1_pos = [i for i, d in enumerate(delta) if d in lefts]

    def chain_len(a):
        return len([1 for (x, _) in pairs if x == a])

    mapping = {}
    for i in g1_pos:
        a = delta[i]
        succ = [b for (x, b) in pairs if x == a]
        target = chain_len(a) - 1
        nxt = [b for b in succ if chain_len(b) == target]
        if len(nxt) != 1 or nxt[0] not in delta:
            raise ExtractionError("precedence pairs do not form tau-chains")
        mapping[i] = delta.index(nxt[0])
    bd = BDTriple.make(tuple(g1_pos), tuple(sorted(mapping.values())), mapping)

    # lambda in the frame of delta
    binv = linalg.inverse([[GaussianRational(x) for x in d] for d in delta])
    hh = [[entry(r0, i, j) for j in range(rs.rank)] for i in range(rs.rank)]
    anti_new = mat_mul(transpose(binv), mat_mul(hh, binv))
    lam_matrix = [[x / t for x in row] for row in anti_new]
    omega0_new = mat_mul(transpose(binv), mat_mul(rs.cartan_dual_gram, binv))
    for i in range(rs.rank):
        for j in range(rs.rank):
            lam_matrix[i][j] = lam_matrix[i][j] + HALF * omega0_new[i][j]
    return ReferenceExtraction(h_vec, t, new_pos, delta, bd, ContinuousParameter.from_rows(lam_matrix))


def reference_carries_declared_data(datum) -> bool:
    """The declared-data rule on the general-frame extraction: recovery
    succeeds, its simple roots are the standard ones, and it gives the
    declared triple, t and lambda."""
    rs = datum.rs
    try:
        ex = reference_extract_data(rs, datum.r0)
    except ValueError:
        return False
    return (
        ex.delta == list(rs.simple_roots)
        and ex.bd == datum.bd
        and ex.t == datum.t
        and ex.lam == datum.lam
    )


# ---- the CLI's output, rendered whole --------------------------------------


def materialized(payload: dict) -> dict:
    """A CLI payload whose rows are streamed, with its rows in a list and
    each model object in them (a ParameterSpace) as its to_json()."""
    rows = payload.get("rows")
    if not isinstance(rows, Iterator):
        return payload
    return dict(payload, rows=[
        {k: v.to_json() if hasattr(v, "to_json") else v for k, v in row.items()} for row in rows
    ])


def render_payload(payload: dict, fmt: str) -> str:
    """A CLI payload, its rows in a list, as the CLI wrote it whole before
    it streamed rows: json.dumps(payload, indent=2, sort_keys=True); csv
    with the sorted union of the row keys as header, its table being
    "rows" or "representatives", or the payload itself when that is
    absent or empty; or indented `key: value` lines.  With the newline
    that ends the output."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        rows = payload.get("rows") or payload.get("representatives") or [payload]
        rows = [
            {k: json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
             for k, v in r.items()}
            for r in rows
        ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted({k for r in rows for k in r}))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:
        text = _pretty(payload)
    return text + "\n"


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_pretty(v, indent) for v in payload) or f"{pad}(none)"
    return f"{pad}{payload}"
