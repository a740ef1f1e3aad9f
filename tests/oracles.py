"""Reference computations the tests compare liebialg against, and the
maps they are built from.

No command runs any of these, so they live with the tests.  The checks
take routes the library does not (the Killing form as a trace of adjoint
maps, the cobracket read off the double, explicit maps between the two
doubles, dense matrices), so agreement with the library is evidence
rather than a tautology.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from liebialg import linalg
from liebialg.bdtriple import (
    BDTriple,
    extend_tau_additively,
    precedence_pairs,
    span_subset_roots,
)
from liebialg.core import GaussianRational, HALF, I, ONE, StructureTable, Tensor2, ZERO, cybe
from liebialg.involution import Involution, fixed_point_basis
from liebialg.manin import (
    ManinTriple,
    real_part_pairing,
    realification_structure,
    realify_vector,
)
from liebialg.parameter import ContinuousParameter
from liebialg.rmatrix import ExtractionError


def conjugate(a: list) -> list:
    """The entrywise complex conjugate of a matrix."""
    return [[x.conj() for x in row] for row in a]


def sparse_columns(m: list) -> list:
    """The sparse columns [(i, m[i][j]) nonzero] of a dense square matrix,
    the form an Involution is built from."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m))]


def bracket(st, u, v) -> list:
    """[u, v] of two dense coordinate vectors, summed from the library's
    bracket terms over their nonzeros."""
    out = [ZERO] * st.dim
    nonzeros = [[(i, x) for i, x in enumerate(w) if x] for w in (u, v)]
    for k, x in st.bracket_terms(*nonzeros):
        out[k] = out[k] + x
    return out


def ad(st, u) -> list:
    """Matrix of x -> [u, x] in basis coordinates, for a dense vector u."""
    n = st.dim
    mat = [[ZERO] * n for _ in range(n)]
    for i, a in enumerate(u):
        if not a:
            continue
        for j in range(n):
            for k, c in st.table.get((i, j), ()):
                mat[k][j] = mat[k][j] + a * c
    return mat


def reference_cybe(r: Tensor2, st: StructureTable) -> dict:
    """CYB(r) = [r12, r13] + [r12, r23] + [r13, r23] as {(i, j, k): nonzero
    entry}, accumulated term by term in GaussianRational over the sparse
    entries of r: the scalar evaluator core.cybe replaced by its integer
    one, with the same loops, so the two dicts agree in keys, values and
    order."""
    items = list(r.items())
    acc: dict[tuple[int, int, int], GaussianRational] = {}
    for (a, b), va in items:
        for (c, d), vc in items:
            v = va * vc
            for k, coef in st.table.get((a, c), ()):
                acc[(k, b, d)] = acc.get((k, b, d), ZERO) + v * coef
            for k, coef in st.table.get((b, c), ()):
                acc[(a, k, d)] = acc.get((a, k, d), ZERO) + v * coef
            for k, coef in st.table.get((b, d), ()):
                acc[(a, c, k)] = acc.get((a, c, k), ZERO) + v * coef
    return {k: v for k, v in acc.items() if v}


# ---- dense matrix algebra ----------------------------------------------------


def mat_mul(a: list, b: list) -> list:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = linalg.zeros(rows, cols)
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
    reference for rs.killing_h."""
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
    images = [linalg.mat_vec(theta.matrix, v) for v in basis.vectors]
    n = basis.count
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            val = -killing_form(rs, basis.vectors[i], images[j])
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


def _sigma_scalars(rs, mu, chi, negate: bool):
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


def reference_canonical_involution(rs, kind: str, mu, J: tuple) -> Involution:
    """The canonical involution with its bracket recursion run afresh for
    this J, the signs of the simple roots in J set at the bottom."""
    idx, jset = rs.root_index, set(J)
    negate = kind == "omega"
    cols: list = [None] * rs.dim
    for i in range(rs.rank):
        cols[i] = [(mu(i), -ONE if negate else ONE)]
    c = _sigma_scalars(rs, mu, lambda i: i in jset, negate)
    for gamma, val in c.items():
        mg = mu.apply_root(gamma)
        neg, neg_mg = tuple(-x for x in gamma), tuple(-x for x in mg)
        cols[idx(gamma)] = [(idx(neg_mg if negate else mg), val)]
        cols[idx(neg)] = [(idx(mg if negate else neg_mg), ONE / val)]
    return Involution(cols, kind, mu, J)


def transported_images(rs, bd, family: dict) -> dict:
    """Chain transport x'_beta -> x'_{T beta} as index/scalar assignments
    over the original basis."""
    out = {}
    hat1 = span_subset_roots(rs, bd.gamma1)
    for beta in hat1:
        tbeta = extend_tau_additively(rs, bd, beta)
        out[beta] = (tbeta, family[tbeta] / family[beta])
    return out


def reference_r(rs, bd, lam, t, family: dict) -> Tensor2:
    """r = t (lam + sum over positive gamma of x_{-gamma} (x) x_gamma + sum
    over alpha preceding beta of x'_{-alpha} wedge x'_beta), summed term by
    term from the defining formula, in the root-vector family given."""
    terms = {}

    def add(i, j, v):
        terms[(i, j)] = terms.get((i, j), ZERO) + t * v

    for i, row in enumerate(lam.matrix):
        for j, v in enumerate(row):
            add(i, j, v)
    for g in rs.positive_roots:
        add(rs.root_index(tuple(-x for x in g)), rs.root_index(g), ONE)
    for alpha, beta in precedence_pairs(rs, bd):
        coeff = family[beta] / family[alpha]
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
    rmat = [[r.get(i, j) for j in range(n)] for i in range(n)]
    r_plus = transpose(rmat)
    r_minus = [[-x for x in row] for row in rmat]
    i_map = [
        [r_plus[i][j] - r_minus[i][j] for j in range(n)] for i in range(n)
    ]
    return r_plus, r_minus, i_map


def induced_form(rs, t: GaussianRational):
    """Gram matrix of the inner product induced by r + r21 = t Omega:
    kappa / t on the ambient basis."""
    k = rs.killing_gram()
    inv_t = ONE / t
    return [[inv_t * x for x in row] for row in k]


def pair(mt, u, v) -> GaussianRational:
    """The pairing of a Manin triple on two coordinate vectors."""
    p = mt.pairing
    acc = ZERO
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b and p[i][j]:
                acc = acc + a * p[i][j] * b
    return acc


def multiplication_by_i(n: int):
    """The operator x -> x' on realified coordinates."""
    m = linalg.zeros(2 * n, 2 * n)
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

    psi = linalg.zeros(2 * n, 2 * n)
    for a in range(n):
        e = [ZERO] * n
        e[a] = ONE
        col_x = rho_column(e)
        jx = linalg.mat_vec(jmat, col_x)
        for i in range(2 * n):
            psi[i][a] = half * col_x[i] - half_i * jx[i]
        se = [sigma.matrix[i][a] for i in range(n)]
        col_y = rho_column(se)
        jy = linalg.mat_vec(jmat, col_y)
        for i in range(2 * n):
            psi[i][n + a] = half * col_y[i] + half_i * jy[i]

    upsilon = linalg.zeros(n, 2 * n)
    for j in range(n):
        upsilon[j][j] = ONE
        upsilon[j][n + j] = I
    lower = mat_mul(sigma.matrix, conjugate(upsilon))
    phi = [upsilon[i][:] for i in range(n)] + [lower[i][:] for i in range(n)]
    return psi, phi


def direct_sum_structure(rs) -> StructureTable:
    """l + l as a complex algebra (for checking psi is a morphism)."""
    n = rs.dim
    table = {}
    for (a, b), terms in rs.structure.table.items():
        table[(a, b)] = terms
        table[(n + a, n + b)] = tuple((n + k, c) for k, c in terms)
    return StructureTable(2 * n, table)


# ---- the cobracket, two ways --------------------------------------------------


def cobracket_from_triple(mt) -> list:
    """delta on sub1 via the pairing with sub2: for each basis vector of
    sub1 a matrix D with delta(w_c) = sum D[a][b] w_a (x) w_b."""
    q = [
        [pair(mt, w, z) for z in mt.sub2_basis] for w in mt.sub1_basis
    ]
    qinv = linalg.inverse(q)
    brackets = [
        [bracket(mt.structure, z, y) for y in mt.sub2_basis] for z in mt.sub2_basis
    ]
    out = []
    for w in mt.sub1_basis:
        m = [[pair(mt, w, br) for br in row] for row in brackets]
        out.append(
            mat_mul(qinv, mat_mul(m, transpose(qinv)))
        )
    return out


def cobracket_from_r0(rs, datum) -> list:
    """delta = ad_x(r0) on the real form, in real-basis coordinates."""
    basis = fixed_point_basis(rs, datum.sigma)
    n = rs.dim
    out = []
    for vec in basis.vectors:
        acc: dict[tuple, GaussianRational] = {}
        # (ad_x (x) 1 + 1 (x) ad_x) applied to r0
        admat = ad(rs.structure, vec)
        for (a, b), v in datum.r0.items():
            for i in range(n):
                if admat[i][a]:
                    acc[(i, b)] = acc.get((i, b), ZERO) + admat[i][a] * v
                if admat[i][b]:
                    acc[(a, i)] = acc.get((a, i), ZERO) + admat[i][b] * v
        out.append(basis.tensor_coordinates(Tensor2.from_items(n, acc.items())))
    return out


# ---- dense real-basis references ---------------------------------------------
# The real-form coordinates and both doubles as dense matrix algebra: W^-1
# of the basis matrix W by elimination, brackets through ad matrices, the
# Killing form through killing_form.  The library inverts W block by block
# and works on nonzeros only; these are what it must agree with.


def dense_inverse(basis) -> list:
    """W^-1 for the basis matrix W whose columns are the basis vectors."""
    return linalg.inverse(transpose(basis.vectors))


def dense_coordinates(basis, target, winv=None) -> list | None:
    """Real coordinates of target over the basis, or None if outside the
    real span."""
    coords = linalg.mat_vec(winv or dense_inverse(basis), target)
    if not all(x.is_real() for x in coords):
        return None
    return coords


def dense_tensor_coordinates(basis, x, winv=None) -> list:
    """W^-1 X W^-T."""
    winv = winv or dense_inverse(basis)
    n = len(winv)
    xmat = [[x.get(i, j) for j in range(n)] for i in range(n)]
    return mat_mul(winv, mat_mul(xmat, transpose(winv)))


def dense_real_structure_constants(rs, basis) -> dict:
    """Bracket table of the real form in its own basis."""
    winv = dense_inverse(basis)
    ads = [ad(rs.structure, u) for u in basis.vectors]
    n = basis.count
    table = {}
    for i in range(n):
        for j in range(n):
            coords = dense_coordinates(basis, linalg.mat_vec(ads[i], basis.vectors[j]), winv)
            assert coords is not None, "real form is not closed under bracket"
            terms = tuple((k, c) for k, c in enumerate(coords) if c)
            if terms:
                table[(i, j)] = terms
    return table


def dense_real_killing_gram(rs, basis) -> list:
    out = []
    for u in basis.vectors:
        row = []
        for v in basis.vectors:
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
    pairing = linalg.zeros(2 * n, 2 * n)
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
        2 * n, pairing, StructureTable(2 * n, table), sub1, sub2, "factorizable"
    )


def dense_double_imaginary(rs, datum) -> ManinTriple:
    """(l realified, l0, r_plus(l0*)) with the real dual basis read off
    the dense W^-1."""
    n = rs.dim
    basis = fixed_point_basis(rs, datum.sigma)
    sub1 = [realify_vector(v) for v in basis.vectors]
    rmat = [[datum.r.get(i, j) for j in range(n)] for i in range(n)]
    r_plus = transpose(rmat)
    sub2 = [realify_vector(linalg.mat_vec(r_plus, phi)) for phi in dense_inverse(basis)]
    return ManinTriple(
        2 * n,
        real_part_pairing(rs, datum.t),
        realification_structure(rs),
        sub1,
        sub2,
        "imaginary_factorizable",
    )


def manin_fields(mt) -> tuple:
    """Every field of a Manin triple, the structure as its dimension and
    table, for comparing two triples field by field."""
    return (
        mt.double_dim, mt.pairing, mt.structure.dim, mt.structure.table,
        mt.sub1_basis, mt.sub2_basis, mt.case,
    )


# ---- general elimination and the parameter layer ------------------------------
# The parameter solve and the reality cut as one Gaussian-rational
# elimination each, over the full interleaved system: what the library's
# integer and split solves must reproduce exactly.


def identity(n: int) -> list:
    m = linalg.zeros(n, n)
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


def constraint_residual(rs, bd, lam):
    """Exact residuals of the defining linear system at lam: lam + lam^T
    - Omega_0, then lam^T g_{T(a)} + lam g_a for each a in Gamma1."""
    n = rs.rank
    m = lam.matrix
    residuals = [[m[i][j] + m[j][i] - rs.cartan_dual_gram[i][j] for j in range(n)] for i in range(n)]
    lam_t = transpose(m)
    for a in bd.gamma1:
        ga = rs.root_values(rs.simple_roots[a])
        gt = rs.root_values(rs.simple_roots[bd.mapping[a]])
        lt_gt = linalg.mat_vec(lam_t, gt)
        residuals.append([x + y for x, y in zip(lt_gt, linalg.mat_vec(m, ga))])
    return residuals


def _antisym(n: int, coords) -> list:
    m = linalg.zeros(n, n)
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
        ga = rs.root_values(rs.simple_roots[a])
        gt = rs.root_values(rs.simple_roots[bd.mapping[a]])
        base = [x + y for x, y in zip(linalg.mat_vec(omega_half, gt), linalg.mat_vec(omega_half, ga))]
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
        re, im = [b.real_part()], [b.imag_part()]
        for d in directions:
            x = d[i][j]
            re += [x.real_part(), -x.imag_part()]
            im += [x.imag_part(), x.real_part()]
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

    return combine(sol, base_point), [combine(v, linalg.zeros(n, n)) for v in kernel]


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
    ref = rs.casimir_cybe
    key = next(iter(ref))
    ratio = cyb.get(key, ZERO) / ref[key]
    if not ratio:
        raise ExtractionError("tensor is triangular (vanishing modified YBE constant)")
    if cyb != {k: ratio * v for k, v in ref.items()}:
        raise ExtractionError("CYB(r0) is not proportional to [Omega13, Omega23]")
    if not ratio.is_real():
        raise ExtractionError("modified YBE constant squared must be real")

    h_vec = [ZERO] * rs.dim
    for (a, b), v in r0.items():
        for k, c in rs.structure.bracket_basis(a, b):
            h_vec[k] = h_vec[k] + v * c
    if any(h_vec[rs.rank:]):
        raise ExtractionError("bracket image does not lie in the standard Cartan")
    if len(nullspace(ad(rs.structure, h_vec))) != rs.rank:
        raise ExtractionError("bracket image is not regular")

    sample = None
    for g in rs.positive_roots:
        v = r0.get(rs.root_index(tuple(-x for x in g)), rs.root_index(g))
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
        v = r0.get(rs.root_index(tuple(-x for x in g)), rs.root_index(g))
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
            if a != b and r0.get(ia, rs.root_index(b)):
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
    hh = [[r0.get(i, j) for j in range(rs.rank)] for i in range(rs.rank)]
    anti_new = mat_mul(transpose(binv), mat_mul(hh, binv))
    lam_matrix = [[x / t for x in row] for row in anti_new]
    omega0_new = mat_mul(transpose(binv), mat_mul(rs.cartan_dual_gram, binv))
    for i in range(rs.rank):
        for j in range(rs.rank):
            lam_matrix[i][j] = lam_matrix[i][j] + HALF * omega0_new[i][j]
    return ReferenceExtraction(h_vec, t, new_pos, delta, bd, ContinuousParameter(lam_matrix))


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
        and ex.lam.matrix == datum.lam.matrix
    )
