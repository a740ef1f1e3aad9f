"""Reference computations the tests compare liebialg against, and the
maps they are built from.

No command runs any of these, so they live with the tests.  The checks
take routes the library does not (the Killing form as a trace of adjoint
maps, the cobracket read off the double, explicit maps between the two
doubles, dense matrices), so agreement with the library is evidence
rather than a tautology.
"""

from fractions import Fraction

from liebialg import linalg
from liebialg.bdtriple import extend_tau_additively, span_subset_roots
from liebialg.core import GaussianRational, I, ONE, StructureTable, Tensor2, ZERO
from liebialg.involution import fixed_point_basis
from liebialg.manin import realify_vector


def conjugate(a: list) -> list:
    """The entrywise complex conjugate of a matrix."""
    return [[x.conj() for x in row] for row in a]


# ---- the Killing form and real forms ----------------------------------------


def killing_form_adjoint(rs, x, y) -> GaussianRational:
    """kappa via trace of adjoint maps; the independent oracle path."""
    ax = rs.structure.ad(x)
    ay = rs.structure.ad(y)
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
            val = -rs.killing_form(basis.vectors[i], images[j])
            assert val.is_real()
            row.append(val.re)
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


def transported_images(rs, bd, family: dict) -> dict:
    """Chain transport x'_beta -> x'_{T beta} as index/scalar assignments
    over the original basis."""
    out = {}
    hat1 = span_subset_roots(rs, bd.gamma1)
    for beta in hat1:
        tbeta = extend_tau_additively(rs, bd, beta)
        out[beta] = (tbeta, family[tbeta] / family[beta])
    return out


# ---- factorization maps and the doubles --------------------------------------


def factorization_maps(rs, r: Tensor2):
    """(r_plus, r_minus, i_map) as matrices from dual coordinates to g.

    r_plus(mu) = (mu (x) id) r, r_minus(mu) = -(id (x) mu) r, and the
    factorization map is their difference; for r + r21 = t Omega it is t
    times the Killing duality and in particular invertible.
    """
    n = rs.dim
    rmat = [[r.get(i, j) for j in range(n)] for i in range(n)]
    r_plus = linalg.transpose(rmat)
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
    lower = linalg.mat_mul(sigma.matrix, conjugate(upsilon))
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
        [mt.structure.bracket(z, y) for y in mt.sub2_basis] for z in mt.sub2_basis
    ]
    out = []
    for w in mt.sub1_basis:
        m = [[pair(mt, w, br) for br in row] for row in brackets]
        out.append(
            linalg.mat_mul(qinv, linalg.mat_mul(m, linalg.transpose(qinv)))
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
        admat = rs.structure.ad(vec)
        for (a, b), v in datum.r0.items():
            for i in range(n):
                if admat[i][a]:
                    acc[(i, b)] = acc.get((i, b), ZERO) + admat[i][a] * v
                if admat[i][b]:
                    acc[(a, i)] = acc.get((a, i), ZERO) + admat[i][b] * v
        out.append(basis.tensor_coordinates(Tensor2.from_items(n, acc.items())))
    return out
