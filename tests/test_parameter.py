from fractions import Fraction

import pytest

from liebialg import linalg
from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    identity_automorphism,
)
from liebialg.core import GaussianRational, I, ONE, ZERO
from liebialg.parameter import (
    NoBialgebraDatum,
    apply_reality,
    constraint_residual,
    lambda_reality_ok,
    satisfies_constraints,
    solve_parameters,
)
from liebialg.rootsystem import build_root_system


def test_a1_empty_triple():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    assert ps.dimension == 0
    assert ps.base_point.matrix == [[GaussianRational(1)]]  # Omega_0 / 2


def test_a2_empty_triple_dimension():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    assert ps.dimension == 1  # dim of the antisymmetric square at rank 2


def test_a2_nontrivial_triple_unique_solution():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    assert ps.dimension == 0
    anti = ps.base_point.antisymmetric_part()
    assert anti[0][1] == ONE and anti[1][0] == -ONE


def _bruteforce_nullity(rs, bd):
    """Independent elimination over a raw basis of the antisymmetric
    square, written directly from the defining equations."""
    n = rs.rank
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = rs.killing_h

    def root_eval(root):
        return [
            sum(Fraction(g[k][m]) * root[m] for m in range(n)) for k in range(n)
        ]

    rows = []
    for a in bd.gamma1:
        ga = root_eval(rs.simple_roots[a])
        gt = root_eval(rs.simple_roots[bd.mapping[a]])
        for k in range(n):
            row = []
            for (i, j) in pairs:
                coeff = Fraction(0)
                if j == k:
                    coeff += gt[i] - ga[i]
                if i == k:
                    coeff += ga[j] - gt[j]
                row.append(coeff)
            rows.append(row)
    if not rows:
        return len(pairs)
    grows = [[GaussianRational(x) for x in row] for row in rows]
    return len(pairs) - linalg.rank(grows)


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_direction_dimension_matches_bruteforce(series, rank):
    rs = build_root_system(series, rank)
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        assert ps.dimension == _bruteforce_nullity(rs, bd), bd


def test_every_point_satisfies_constraints():
    rs = build_root_system("A", 3)
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        probes = [
            [ZERO] * ps.dimension,
            [ONE] * ps.dimension,
            [I] * ps.dimension,
            [GaussianRational(2, -1)] * ps.dimension,
        ]
        for pr in probes:
            lam = ps.point(pr)
            assert satisfies_constraints(rs, bd, lam)
            m = lam.matrix
            omega0 = rs.cartan_dual_gram
            for i in range(rs.rank):
                for j in range(rs.rank):
                    assert m[i][j] + m[j][i] == GaussianRational(omega0[i][j])


def test_lambda_coefficient_convention():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    lam = ps.point([GaussianRational(5)])
    a = lam.antisymmetric_part()
    assert a[0][1] == -a[1][0]


def test_reality_real_case():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "varsigma", identity_automorphism(2), BDTriple.empty())
    assert rps.reality_kind == "real"
    assert rps.dimension == 1
    for d in rps.directions:
        assert all(x.is_real() for row in d for x in row)


def test_reality_imaginary_case():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "omega", identity_automorphism(2), BDTriple.empty())
    assert rps.reality_kind == "imaginary"
    assert rps.dimension == 1
    anti = rps.point([ONE]).antisymmetric_part()
    assert anti[0][1].is_imaginary()


def test_reality_conjugate_mu_case():
    # with the flip, lambda_12 = conj(lambda_21) forces lambda_12 imaginary
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "varsigma_mu", flip, BDTriple.empty())
    assert rps.dimension == 1
    anti = rps.point([ONE]).antisymmetric_part()
    assert anti[0][1].is_imaginary() and anti[0][1]
    assert lambda_reality_ok(rps.point([ONE]), "conjugate-mu", flip)


def test_reality_anti_conjugate_mu_case():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "omega_mu_J", flip, BDTriple.empty())
    assert rps.dimension == 1
    anti = rps.point([ONE]).antisymmetric_part()
    # anti-conjugate condition forces the coefficient real here
    assert anti[0][1].is_real() and anti[0][1]


def test_omega_rejects_nonempty_triple():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    with pytest.raises(NoBialgebraDatum):
        apply_reality(ps, "omega", identity_automorphism(2), bd)
    with pytest.raises(NoBialgebraDatum):
        apply_reality(ps, "omega_J", identity_automorphism(2), bd)


def test_varsigma_mu_rejects_unstable_triple():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    bd = BDTriple.make((1,), (0,), {1: 0})  # neither stable nor antistable
    ps = solve_parameters(rs, bd)
    with pytest.raises(NoBialgebraDatum):
        apply_reality(ps, "varsigma_mu", flip, bd)
    with pytest.raises(NoBialgebraDatum):
        apply_reality(ps, "omega_mu_J", flip, bd)


def test_reality_points_still_solve_constraints():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    for bd in enumerate_bd_triples(rs):
        for label, mu in [
            ("varsigma", identity_automorphism(3)),
            ("varsigma_mu", flip),
            ("omega_mu_J", flip),
        ]:
            try:
                rps = apply_reality(solve_parameters(rs, bd), label, mu, bd)
            except NoBialgebraDatum:
                continue
            for pr in ([ZERO] * rps.dimension, [ONE] * rps.dimension):
                lam = rps.point(pr)
                assert satisfies_constraints(rs, bd, lam)
                kind = rps.reality_kind
                assert lambda_reality_ok(lam, kind, mu)


def test_parameter_space_json():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    doc = ps.to_json()
    assert doc["reality_kind"] is None
    assert len(doc["directions"]) == 1


def _old_point(ps, coefficients) -> list:
    """The base point plus sum c_m D_m, entry by entry."""
    m = [row[:] for row in ps.base_point.matrix]
    for c, d in zip(coefficients, ps.directions):
        for i in range(ps.rank):
            for j in range(ps.rank):
                if d[i][j]:
                    m[i][j] = m[i][j] + c * d[i][j]
    return m


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_reality_cut_matches_the_point_difference_construction(monkeypatch, series, rank):
    """apply_reality builds each direction as sum c_m D_m.  The reference
    builds it as the point at the realized kernel vector minus the base
    point, from the same elimination, for every (triple, kind, mu)."""
    rs = build_root_system(series, rank)
    n = rs.rank
    solves, solve = [], linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda m, rhs: solves.append(solve(m, rhs)) or solves[-1])
    checked = 0
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        ndir = ps.dimension
        for label in ("varsigma", "varsigma_mu", "omega", "omega_mu_J"):  # one per kind
            for mu in diagram_automorphisms(rs):
                solves.clear()
                try:
                    cut = apply_reality(ps, label, mu, bd)
                except NoBialgebraDatum:
                    continue
                # no reality equations: every real coefficient is free
                free = ([ZERO] * 2 * ndir, linalg.identity(2 * ndir))
                sol, kernel = solves[0] if solves else free

                def realize(v):
                    return [v[2 * m].real_part() + I * v[2 * m + 1].real_part()
                            for m in range(ndir)]

                assert cut.base_point.matrix == _old_point(ps, realize(sol))
                expected = []
                for v in kernel:
                    pt = _old_point(ps, realize(v))
                    base = ps.base_point.matrix
                    expected.append([[pt[i][j] - base[i][j] for j in range(n)] for i in range(n)])
                assert cut.directions == expected
                checked += 1
    assert checked == {"A": 28, "B": 8, "D": 94, "G": 4}[series]


def test_constraint_residual_values_off_the_solution_space():
    """Residuals at a point off the space, against the defining equations
    written out: lam + lam^T - Omega_0 and lam^T g_{T(a)} + lam g_a."""
    rs = build_root_system("A", 3)
    n = rs.rank
    for bd in enumerate_bd_triples(rs):
        lam = solve_parameters(rs, bd).point([ONE] * 3)
        lam.matrix[0][1] = lam.matrix[0][1] + GaussianRational(1, 2)
        lam.matrix[2][0] = lam.matrix[2][0] - I
        m, omega0 = lam.matrix, rs.cartan_dual_gram
        expected = [[m[i][j] + m[j][i] - omega0[i][j] for j in range(n)] for i in range(n)]
        for a in bd.gamma1:
            ga = rs.root_values(rs.simple_roots[a])
            gt = rs.root_values(rs.simple_roots[bd.mapping[a]])
            expected.append([
                sum((m[j][k] * gt[j] + m[k][j] * ga[j] for j in range(n)), ZERO)
                for k in range(n)
            ])
        sym, *per_root = constraint_residual(rs, bd, lam)
        assert sym + per_root == expected
