import pytest

from liebialg import linalg
from liebialg.bdtriple import BDTriple, enumerate_bd_triples
from liebialg.core import GaussianRational, I, ONE, ZERO
from liebialg.involution import canonical_involution, fixed_point_basis
from liebialg.manin import (
    ManinTriple,
    double_factorizable,
    double_imaginary,
    real_part_pairing,
    realification_structure,
)
from liebialg.parameter import apply_reality, solve_parameters
from liebialg.rmatrix import make_datum
from liebialg.rootsystem import build_root_system
from oracles import (
    apply_involution,
    basis_vectors,
    bracket,
    cobracket_from_r0,
    cobracket_from_triple,
    dense_rows,
    dense_vector,
    direct_sum_structure,
    factorization_maps,
    identity,
    induced_form,
    killing_gram,
    mat_mul,
    mat_vec,
    multiplication_by_i,
    positive_multiple,
    psi_phi,
    real_part,
    realify_vector,
    scalar_table,
    structure_of,
)


def _dense(mt, vectors):
    return [dense_vector(v, mt.double_dim) for v in vectors]


def _sl2_datum_real():
    rs = build_root_system("A", 1)
    sig = canonical_involution(rs, "varsigma")
    ps = solve_parameters(rs, BDTriple.empty())
    return rs, make_datum(rs, sig, BDTriple.empty(), ps.base_point, ONE)


def _su2_datum():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    ps = solve_parameters(rs, BDTriple.empty())
    return rs, make_datum(rs, om, BDTriple.empty(), ps.base_point, I)


def test_factorization_map_is_t_killing_duality():
    rs, datum = _sl2_datum_real()
    r_plus, r_minus, i_map = factorization_maps(rs, datum.r)
    killing = killing_gram(rs)
    expect = linalg.inverse(killing)  # t = 1
    assert i_map == expect
    assert linalg.det(i_map)


def test_factorization_identity_pairing():
    # (I(mu) | I(tau)) = <tau, I(mu)> for the induced form
    rs, datum = _sl2_datum_real()
    _, _, i_map = factorization_maps(rs, datum.r)
    form = induced_form(rs, datum.t)
    n = rs.dim
    for k in range(n):
        mu = [ONE if j == k else ZERO for j in range(n)]
        imu = mat_vec(i_map, mu)
        for l in range(n):
            tau = [ONE if j == l else ZERO for j in range(n)]
            itau = mat_vec(i_map, tau)
            lhs = ZERO
            for x in range(n):
                for y in range(n):
                    if form[x][y]:
                        lhs = lhs + imu[x] * form[x][y] * itau[y]
            rhs = imu[l]  # <tau, I(mu)>
            assert lhs == rhs


def test_r_plus_minus_are_lie_maps():
    # r+- intertwine the dual bracket induced by the double; concretely
    # their difference with the cobracket pairing vanishes:
    # [r+(mu), r+(tau)] = r+ of the bracket on l* defined by the datum.
    # The well-known statement checked here: images under (r+, r-) form
    # a subalgebra, verified basiswise for sl2 and sl3.
    for series, rank in [("A", 1), ("A", 2)]:
        rs = build_root_system(series, rank)
        sig = canonical_involution(rs, "varsigma")
        ps = solve_parameters(rs, BDTriple.empty())
        datum = make_datum(rs, sig, BDTriple.empty(), ps.base_point, ONE)
        mt = double_factorizable(rs, datum)
        assert mt.verify()["sub2_closed"]


def test_double_factorizable_sl2():
    rs, datum = _sl2_datum_real()
    mt = double_factorizable(rs, datum)
    assert mt.double_dim == 6
    checks = mt.verify()
    assert all(checks.values()), checks


def test_double_factorizable_sl3_nontrivial_triple():
    rs = build_root_system("A", 2)
    sig = canonical_involution(rs, "varsigma")
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    datum = make_datum(rs, sig, bd, ps.base_point, ONE)
    mt = double_factorizable(rs, datum)
    assert mt.double_dim == 16
    assert all(mt.verify().values())


def test_double_factorizable_diag_isotropic_by_construction():
    rs, datum = _sl2_datum_real()
    mt = double_factorizable(rs, datum)
    n = mt.double_dim
    p = dense_rows(mt.pairing, n)
    sub1 = _dense(mt, mt.sub1_basis)
    for u in sub1:
        for v in sub1:
            acc = ZERO
            for i in range(n):
                for j in range(n):
                    if u[i] and v[j] and p[i][j]:
                        acc = acc + u[i] * p[i][j] * v[j]
            assert acc == ZERO


def test_double_factorizable_requires_real_t():
    rs, datum = _su2_datum()
    with pytest.raises(ValueError):
        double_factorizable(rs, datum)


def test_realification_bracket_rules():
    rs = build_root_system("A", 1)
    st = realification_structure(rs)
    n = rs.dim
    jmat = multiplication_by_i(n)
    import random

    rng = random.Random(5)
    for _ in range(6):
        x = [GaussianRational(rng.randint(-2, 2)) for _ in range(2 * n)]
        y = [GaussianRational(rng.randint(-2, 2)) for _ in range(2 * n)]
        xp = mat_vec(jmat, x)
        yp = mat_vec(jmat, y)
        xy = bracket(st, x, y)
        # [x', y'] = -[x, y]
        assert bracket(st, xp, yp) == [-v for v in xy]
        # [x, y'] = [x', y] = [x, y]'
        assert bracket(st, x, yp) == mat_vec(jmat, xy)
        assert bracket(st, xp, y) == mat_vec(jmat, xy)
        # x'' = -x
        assert mat_vec(jmat, xp) == [-v for v in x]


def test_sigma_anticommutes_with_multiplication_by_i():
    # sigma(x') = -sigma(x)' on realified coordinates
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    n = rs.dim
    jmat = multiplication_by_i(n)
    for a in range(n):
        v = [ZERO] * n
        v[a] = ONE
        sx = realify_vector(apply_involution(om, v))
        xprime = mat_vec(jmat, realify_vector(v))
        # realified sigma of x': sigma(i x) = -i sigma(x)
        sxprime = realify_vector(apply_involution(om, [I * c for c in v]))
        assert sxprime == [-c for c in mat_vec(jmat, sx)]


def test_real_part_identity():
    # 2 Re(u|v) = (u|v) - (sigma u | sigma v) for the induced form, t = i
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    t = I
    form = induced_form(rs, t)
    n = rs.dim

    def pair(u, v):
        acc = ZERO
        for x in range(n):
            for y in range(n):
                if form[x][y] and u[x] and v[y]:
                    acc = acc + u[x] * form[x][y] * v[y]
        return acc

    import random

    rng = random.Random(9)
    for _ in range(8):
        u = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        v = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        lhs = GaussianRational(2) * real_part(pair(u, v))
        rhs = pair(u, v) - pair(apply_involution(om, u), apply_involution(om, v))
        assert lhs == rhs


def test_double_imaginary_su2():
    rs, datum = _su2_datum()
    mt = double_imaginary(rs, datum)
    assert mt.double_dim == 6
    checks = mt.verify()
    assert all(checks.values()), checks
    # sub2 is spanned by the Cartan line and one complex root line:
    # a solvable (Borel-type) subalgebra of real dimension 3
    assert linalg.rank(_dense(mt, mt.sub2_basis)) == 3


def test_double_imaginary_su3():
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    space = apply_reality(solve_parameters(rs, BDTriple.empty()), om, BDTriple.empty())
    datum = make_datum(rs, om, BDTriple.empty(), space.point([ONE]), I)
    mt = double_imaginary(rs, datum)
    assert mt.double_dim == 16
    assert all(mt.verify().values())


def test_double_imaginary_requires_imaginary_t():
    rs, datum = _sl2_datum_real()
    with pytest.raises(ValueError):
        double_imaginary(rs, datum)


def test_killing_values_on_compact_form_are_imaginary_under_induced_form():
    # ( | )(l0 x l0) lies in iR when t is imaginary
    rs, datum = _su2_datum()
    basis = fixed_point_basis(rs, datum.sigma)
    form = induced_form(rs, datum.t)
    n = rs.dim
    vectors = basis_vectors(basis)
    for u in vectors:
        for v in vectors:
            acc = ZERO
            for x in range(n):
                for y in range(n):
                    if form[x][y] and u[x] and v[y]:
                        acc = acc + u[x] * form[x][y] * v[y]
            assert acc.is_imaginary()


def test_psi_phi_mutually_inverse():
    for series, rank, J in [("A", 1, (0,)), ("A", 2, (0, 1))]:
        rs = build_root_system(series, rank)
        om = canonical_involution(rs, "omega", None, J)
        psi, phi = psi_phi(rs, om)
        n2 = 2 * rs.dim
        assert mat_mul(phi, psi) == identity(n2)
        assert mat_mul(psi, phi) == identity(n2)


def test_psi_collapses_on_real_points():
    # Psi(x, x) = x for x fixed by sigma
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    psi, _ = psi_phi(rs, om)
    basis = fixed_point_basis(rs, om)
    n = rs.dim
    for v in basis_vectors(basis):
        arg = [ZERO] * (2 * n)
        for i, x in enumerate(v):
            arg[i] = x
            arg[n + i] = arg[n + i] + x
        image = mat_vec(psi, arg)
        assert image == realify_vector(v)


def test_psi_is_complex_algebra_morphism():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    psi, _ = psi_phi(rs, om)
    ds = direct_sum_structure(rs)
    cr = realification_structure(rs)
    n2 = 2 * rs.dim
    for a in range(n2):
        ea = [ONE if k == a else ZERO for k in range(n2)]
        for b in range(n2):
            eb = [ONE if k == b else ZERO for k in range(n2)]
            lhs = mat_vec(psi, bracket(ds, ea, eb))
            rhs = bracket(cr, mat_vec(psi, ea), mat_vec(psi, eb))
            assert lhs == rhs


def test_psi_claim_diagonal():
    # Psi(diag l) = l0 + i l0
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    psi, _ = psi_phi(rs, om)
    basis = fixed_point_basis(rs, om)
    l0 = [realify_vector(v) for v in basis_vectors(basis)]
    n = rs.dim
    images = []
    for a in range(n):
        arg = [ZERO] * (2 * n)
        arg[a] = ONE
        arg[n + a] = ONE
        images.append(mat_vec(psi, arg))
    assert linalg.rank([list(v) for v in l0 + images]) == n


def test_psi_claim_image_of_lr():
    rs, datum = _su2_datum()
    om = datum.sigma
    psi, _ = psi_phi(rs, om)
    mt = double_imaginary(rs, datum)
    r_plus, r_minus, _ = factorization_maps(rs, datum.r)
    n = rs.dim
    images = []
    for k in range(n):
        mu = [ONE if j == k else ZERO for j in range(n)]
        arg = mat_vec(r_plus, mu) + mat_vec(r_minus, mu)
        images.append(mat_vec(psi, arg))
    sub2 = _dense(mt, mt.sub2_basis)
    assert linalg.rank(sub2 + images) == linalg.rank(sub2)


def test_psi_claim_image_expansion():
    # Psi(r+(mu), r-(mu)) = r+(alpha) + i r+(beta) for mu = alpha + i beta
    rs, datum = _su2_datum()
    om = datum.sigma
    psi, _ = psi_phi(rs, om)
    basis = fixed_point_basis(rs, om)
    vectors = basis_vectors(basis)
    duals = linalg.inverse(
        [[vectors[j][i] for j in range(rs.dim)] for i in range(rs.dim)]
    )
    r_plus, r_minus, _ = factorization_maps(rs, datum.r)
    n = rs.dim
    for a in range(n):
        alpha = duals[a]
        for b in range(n):
            beta = duals[b]
            mu = [x + I * y for x, y in zip(alpha, beta)]
            arg = mat_vec(r_plus, mu) + mat_vec(r_minus, mu)
            lhs = mat_vec(psi, arg)
            ra = realify_vector(mat_vec(r_plus, alpha))
            rb = realify_vector(mat_vec(r_plus, beta))
            rhs = [x + I * y for x, y in zip(ra, rb)]
            assert lhs == rhs


def test_phi_transports_pairing():
    # <Phi(u+iv) | Phi(w+iz)> = complexified 2Re form
    rs, datum = _su2_datum()
    psi, phi = psi_phi(rs, datum.sigma)
    n = rs.dim
    form = induced_form(rs, datum.t)
    p = dense_rows(real_part_pairing(rs, datum.t), 2 * n)
    phi1 = [phi[i] for i in range(n)]
    phi2 = [phi[n + i] for i in range(n)]
    # real_part_pairing is 2 Re(kappa / t) up to a positive scale
    pulled = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for bi in range(2 * n):
        for bj in range(2 * n):
            acc = ZERO
            for x in range(n):
                for y in range(n):
                    if form[x][y]:
                        acc = (
                            acc
                            + phi1[x][bi] * form[x][y] * phi1[y][bj]
                            - phi2[x][bi] * form[x][y] * phi2[y][bj]
                        )
            pulled[bi][bj] = acc
    assert positive_multiple(pulled, p)


def test_cobracket_agreement_both_branches():
    # a double's pairing is the induced form up to a positive scale, and
    # the cobracket read off it is scaled by the inverse
    # factorizable:
    for series, rank in [("A", 1), ("A", 2)]:
        rs = build_root_system(series, rank)
        sig = canonical_involution(rs, "varsigma")
        for bd in enumerate_bd_triples(rs):
            ps = solve_parameters(rs, bd)
            datum = make_datum(rs, sig, bd, ps.base_point, ONE)
            mt = double_factorizable(rs, datum)
            via_triple = cobracket_from_triple(mt)
            via_r0 = cobracket_from_r0(rs, datum)
            assert positive_multiple(via_r0, via_triple)
    # imaginary:
    for series, rank, J in [("A", 1, (0,)), ("A", 2, (0, 1))]:
        rs = build_root_system(series, rank)
        om = canonical_involution(rs, "omega", None, J)
        ps = solve_parameters(rs, BDTriple.empty())
        datum = make_datum(rs, om, BDTriple.empty(), ps.base_point, I)
        mt = double_imaginary(rs, datum)
        via_triple = cobracket_from_triple(mt)
        via_r0 = cobracket_from_r0(rs, datum)
        assert positive_multiple(via_r0, via_triple)


def test_manin_su2_double():
    rs, datum = _su2_datum()
    mt = double_imaginary(rs, datum)
    assert mt.case == "imaginary_factorizable"
    assert mt.double_dim == 6
    assert all(mt.verify().values())


# ---- test-local references for ManinTriple.verify -------------------------
#
# The dense loops verify() used before it went sparse: every (a, b, c) with
# dense brackets and pairings, and one rank per pair for closure, on dense
# views of the triple's sparse pairing and vectors.  They share no code
# with the checks they test beyond the structure table itself.


def _pair_dense(p, u, v):
    acc = ZERO
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b and p[i][j]:
                acc = acc + a * p[i][j] * b
    return acc


def _invariant_bruteforce(mt):
    n = mt.double_dim
    p = dense_rows(mt.pairing, n)
    basis = identity(n)
    for a in range(n):
        for b in range(n):
            ab = bracket(mt.structure, basis[a], basis[b])
            for c in range(n):
                ac = bracket(mt.structure, basis[a], basis[c])
                if _pair_dense(p, ab, basis[c]) + _pair_dense(p, basis[b], ac):
                    return False
    return True


def _closed_per_pair_rank(mt, vectors):
    mat = _dense(mt, vectors)
    base_rank = linalg.rank(mat)
    for i, u in enumerate(mat):
        for v in mat[i:]:
            if linalg.rank(mat + [bracket(mt.structure, u, v)]) != base_rank:
                return False
    return True


def _isotropic_dense(mt, vectors):
    p, vectors = dense_rows(mt.pairing, mt.double_dim), _dense(mt, vectors)
    return all(not _pair_dense(p, u, v) for u in vectors for v in vectors)


def _reference_checks(mt):
    n = mt.double_dim
    sub1, sub2 = _dense(mt, mt.sub1_basis), _dense(mt, mt.sub2_basis)
    return {
        "pairing_nondegenerate": bool(linalg.det(dense_rows(mt.pairing, n))),
        "pairing_invariant": _invariant_bruteforce(mt),
        "sub1_isotropic": _isotropic_dense(mt, mt.sub1_basis),
        "sub2_isotropic": _isotropic_dense(mt, mt.sub2_basis),
        "half_dimension": linalg.rank(sub1) == n // 2 and linalg.rank(sub2) == n // 2,
        "transversal": linalg.rank(sub1 + sub2) == n,
        "sub1_closed": _closed_per_pair_rank(mt, mt.sub1_basis),
        "sub2_closed": _closed_per_pair_rank(mt, mt.sub2_basis),
    }


def _oracle_double(case):
    if case == "A1 varsigma":
        return double_factorizable(*_sl2_datum_real())
    if case == "A2 varsigma tau":
        rs = build_root_system("A", 2)
        bd = BDTriple.make((0,), (1,), {0: 1})
        datum = make_datum(
            rs, canonical_involution(rs, "varsigma"), bd,
            solve_parameters(rs, bd).base_point, GaussianRational(2),
        )
        return double_factorizable(rs, datum)
    if case == "G2 varsigma":
        rs = build_root_system("G", 2)
        datum = make_datum(
            rs, canonical_involution(rs, "varsigma"), BDTriple.empty(),
            solve_parameters(rs, BDTriple.empty()).base_point, ONE,
        )
        return double_factorizable(rs, datum)
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    space = apply_reality(solve_parameters(rs, BDTriple.empty()), om, BDTriple.empty())
    datum = make_datum(rs, om, BDTriple.empty(), space.point([ONE]), I)
    return double_imaginary(rs, datum)


ORACLE_CASES = ["A1 varsigma", "A2 varsigma tau", "G2 varsigma", "A2 omega"]


@pytest.fixture(scope="module", params=ORACLE_CASES)
def oracle_double(request):
    return _oracle_double(request.param)


def _unit(i):
    return {i: 1}


def _first_pairing_entry(mt):
    """(i, j), i <= j, of the first nonzero pairing entry, off the
    diagonal when there is one."""
    entries = [
        (i, j)
        for i, row in enumerate(mt.pairing)
        for j in sorted(row)
        if j >= i
    ]
    return next((e for e in entries if e[0] != e[1]), entries[0])


def test_verify_matches_dense_references(oracle_double):
    mt = oracle_double
    checks = mt.verify()
    reference = _reference_checks(mt)
    assert all(reference.values()), reference
    assert {k: checks[k] for k in reference} == reference


def test_invariance_rejects_scaled_pairing_pair(oracle_double):
    i, j = _first_pairing_entry(oracle_double)
    pairing = [dict(row) for row in oracle_double.pairing]
    pairing[i][j] = 2 * pairing[i][j]
    if i != j:
        pairing[j][i] = 2 * pairing[j][i]
    o = oracle_double
    mt = ManinTriple(o.double_dim, pairing, o.structure, o.sub1_basis, o.sub2_basis, o.case)
    assert _invariant_bruteforce(mt) is False
    assert mt.verify()["pairing_invariant"] is False


def test_invariance_rejects_scaled_structure_constant(oracle_double):
    table = dict(scalar_table(oracle_double.structure))
    a, b = next((a, b) for (a, b) in sorted(table) if a < b)
    (k, c), *rest = table[(a, b)]
    table[(a, b)] = ((k, GaussianRational(2) * c), *rest)
    # keep the table antisymmetric: scale the same term of [e_b, e_a]
    table[(b, a)] = tuple(
        (k2, GaussianRational(2) * c2 if k2 == k else c2) for k2, c2 in table[(b, a)]
    )
    o = oracle_double
    structure = structure_of(o.double_dim, table)
    mt = ManinTriple(o.double_dim, o.pairing, structure, o.sub1_basis, o.sub2_basis, o.case)
    assert _invariant_bruteforce(mt) is False
    assert mt.verify()["pairing_invariant"] is False


def test_closure_rejects_subspace_whose_bracket_leaves_it(oracle_double):
    a, b = next(
        (a, b)
        for (a, b), terms in sorted(oracle_double.structure.table.items())
        if any(k not in (a, b) for k, _ in terms)
    )
    vectors = [_unit(a), _unit(b)]
    o = oracle_double
    mt = ManinTriple(o.double_dim, o.pairing, o.structure, vectors, o.sub2_basis, o.case)
    assert _closed_per_pair_rank(mt, vectors) is False
    checks = mt.verify()
    assert checks["sub1_closed"] is False
    assert checks["sub2_closed"] is True


def test_isotropy_rejects_non_isotropic_pair(oracle_double):
    i, j = _first_pairing_entry(oracle_double)
    vectors = [_unit(i), _unit(j)]
    o = oracle_double
    mt = ManinTriple(o.double_dim, o.pairing, o.structure, o.sub1_basis, vectors, o.case)
    assert _isotropic_dense(mt, vectors) is False
    checks = mt.verify()
    assert checks["sub2_isotropic"] is False
    assert checks["sub1_isotropic"] is True


def test_rank_checks_reject_repeated_subspace(oracle_double):
    # sub2 := sub1: each half still has rank n/2, but they are not
    # transversal; dropping a sub1 vector for a copy of another breaks
    # the half dimension
    o = oracle_double
    mt = ManinTriple(o.double_dim, o.pairing, o.structure, o.sub1_basis, o.sub1_basis, o.case)
    checks = mt.verify()
    assert checks["half_dimension"] is True
    assert checks["transversal"] is False
    sub1 = oracle_double.sub1_basis
    repeated = [sub1[0]] + sub1[:-1]
    mt = ManinTriple(o.double_dim, o.pairing, o.structure, repeated, o.sub2_basis, o.case)
    checks = mt.verify()
    assert checks["half_dimension"] is False
    assert checks["transversal"] is False


def _with_sub2(o, sub2):
    return ManinTriple(o.double_dim, o.pairing, o.structure, o.sub1_basis, sub2, o.case)


def test_scaling_a_sub2_vector_by_a_third_changes_no_check(oracle_double):
    """verify() reads each vector up to its own scale, so a basis vector
    and its multiple by 3, of which it is a third, span, pair and
    bracket alike."""
    o = oracle_double
    checks = o.verify()
    for m in (0, len(o.sub2_basis) - 1):
        sub2 = list(o.sub2_basis)
        sub2[m] = {k: 3 * x for k, x in sub2[m].items()}
        scaled = _with_sub2(o, sub2).verify()
        assert list(scaled.items()) == list(checks.items())


def test_adding_a_seventh_of_a_unit_vector_fails_what_the_dense_reference_fails(oracle_double):
    o = oracle_double
    n = o.double_dim
    failed = set()
    for k in sorted({0, n // 2, n - 1}):
        # a seventh of e_k added to sub2[0], which is read up to scale: 7
        # sub2[0] + e_k
        sub2 = list(o.sub2_basis)
        sub2[0] = {j: 7 * x for j, x in sub2[0].items()}
        sub2[0][k] = sub2[0].get(k, 0) + 1
        mt = _with_sub2(o, sub2)
        checks, reference = mt.verify(), _reference_checks(mt)
        assert checks == reference
        failed |= {key for key, ok in reference.items() if not ok}
    assert failed  # the edits break the double


def test_zeroing_a_pairing_row_and_column_makes_it_degenerate(oracle_double):
    o = oracle_double
    for m in (0, o.double_dim - 1):
        pairing = [{j: x for j, x in row.items() if m not in (i, j)}
                   for i, row in enumerate(o.pairing)]
        mt = ManinTriple(o.double_dim, pairing, o.structure, o.sub1_basis, o.sub2_basis, o.case)
        assert not linalg.det(dense_rows(pairing, o.double_dim))
        assert mt.verify()["pairing_nondegenerate"] is False


# ---- rank checks against three separate eliminations ----------------------


def _criterion_7_doubles():
    """The doubles of acceptance criterion 7: sl2 and sl3 over every
    triple, A3 with a two-vertex triple, B2 and G2 with the empty one,
    and the imaginary doubles of su(2), su(3), su(4), so(5), compact g2."""
    out = []
    pairs = [(build_root_system("A", r), bd) for r in (1, 2)
             for bd in enumerate_bd_triples(build_root_system("A", r))]
    pairs += [
        (build_root_system("A", 3), BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})),
        (build_root_system("B", 2), BDTriple.empty()),
        (build_root_system("G", 2), BDTriple.empty()),
    ]
    for rs, bd in pairs:
        sig = canonical_involution(rs, "varsigma")
        datum = make_datum(rs, sig, bd, solve_parameters(rs, bd).base_point, ONE)
        out.append(double_factorizable(rs, datum))
    for series, rank, J in [("A", 1, (0,)), ("A", 2, (0, 1)), ("A", 3, (0, 1, 2)),
                            ("B", 2, (0, 1)), ("G", 2, (0, 1))]:
        rs = build_root_system(series, rank)
        om = canonical_involution(rs, "omega", None, J)
        space = apply_reality(solve_parameters(rs, BDTriple.empty()), om, BDTriple.empty())
        datum = make_datum(rs, om, BDTriple.empty(), space.point([ONE] * space.dimension), I)
        out.append(double_imaginary(rs, datum))
    return out


def _three_elimination_ranks(mt) -> dict:
    """half_dimension and transversal from rank(sub1), rank(sub2) and
    rank(sub1 + sub2), each its own elimination."""
    n = mt.double_dim
    sub1, sub2 = _dense(mt, mt.sub1_basis), _dense(mt, mt.sub2_basis)
    return {
        "half_dimension": linalg.rank(sub1) == n // 2 and linalg.rank(sub2) == n // 2,
        "transversal": linalg.rank(sub1 + sub2) == n,
    }


def test_rank_checks_match_three_eliminations():
    """verify() reads the rank of sub1 + sub2 off sub1's reduced rows and
    sub2's residuals against them.  On every criterion-7 double it keeps
    the eight keys, in order, all true; on a copy whose sub2 meets sub1
    (one sub2 vector swapped for a sub1 vector) transversality fails.
    Both agree with the three-elimination reference."""
    keys = [
        "pairing_nondegenerate", "pairing_invariant", "sub1_isotropic", "sub2_isotropic",
        "half_dimension", "transversal", "sub1_closed", "sub2_closed",
    ]
    doubles = _criterion_7_doubles()
    assert len(doubles) == 12
    for mt in doubles:
        checks = mt.verify()
        assert list(checks) == keys and all(checks.values())
        assert {k: checks[k] for k in ("half_dimension", "transversal")} == _three_elimination_ranks(mt)
        meets = ManinTriple(
            mt.double_dim, mt.pairing, mt.structure, mt.sub1_basis,
            [mt.sub1_basis[0]] + mt.sub2_basis[1:], mt.case,
        )
        checks = meets.verify()
        reference = _three_elimination_ranks(meets)
        assert reference == {"half_dimension": True, "transversal": False}
        assert {k: checks[k] for k in reference} == reference
