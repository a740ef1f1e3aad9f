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
    ContinuousParameter,
    NoBialgebraDatum,
    apply_reality,
    lambda_reality_ok,
    satisfies_constraints,
    solve_parameters,
    stability_ok,
)
from liebialg.rootsystem import build_root_system
from oracles import (
    HALF,
    constraint_residual,
    matrix_of,
    fraction_killing_h,
    reference_reality_cut,
    reference_solve_parameters,
)


def _antisymmetric_part(lam) -> list:
    """(lam - lam^T) / 2 as a matrix of scalars."""
    m = matrix_of(lam)
    n = len(m)
    return [[HALF * (m[i][j] - m[j][i]) for j in range(n)] for i in range(n)]


def test_a1_empty_triple():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    assert ps.dimension == 0
    assert matrix_of(ps.base_point) == [[GaussianRational(1)]]  # Omega_0 / 2


def test_a2_empty_triple_dimension():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    assert ps.dimension == 1  # dim of the antisymmetric square at rank 2


def test_a2_nontrivial_triple_unique_solution():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    assert ps.dimension == 0
    anti = _antisymmetric_part(ps.base_point)
    assert anti[0][1] == ONE and anti[1][0] == -ONE


def _bruteforce_nullity(rs, bd):
    """Independent elimination over a raw basis of the antisymmetric
    square, written directly from the defining equations."""
    n = rs.rank
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = fraction_killing_h(rs)

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
            m = matrix_of(lam)
            omega0 = rs.cartan_dual_gram
            for i in range(rs.rank):
                for j in range(rs.rank):
                    assert m[i][j] + m[j][i] == GaussianRational(omega0[i][j])


def test_lambda_coefficient_convention():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    lam = ps.point([GaussianRational(5)])
    a = _antisymmetric_part(lam)
    assert a[0][1] == -a[1][0]


def test_reality_real_case():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "varsigma", identity_automorphism(2), BDTriple.empty())
    assert rps.reality_kind == "real"
    assert rps.dimension == 1
    for d in rps.directions:
        assert all(x.is_real() for row in matrix_of(d) for x in row)


def test_reality_imaginary_case():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "omega", identity_automorphism(2), BDTriple.empty())
    assert rps.reality_kind == "imaginary"
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
    assert anti[0][1].is_imaginary()


def test_reality_conjugate_mu_case():
    # with the flip, lambda_12 = conj(lambda_21) forces lambda_12 imaginary
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "varsigma_mu", flip, BDTriple.empty())
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
    assert anti[0][1].is_imaginary() and anti[0][1]
    assert lambda_reality_ok(rps.point([ONE]), "conjugate-mu", flip)


def test_reality_anti_conjugate_mu_case():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, "omega_mu_J", flip, BDTriple.empty())
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
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


ORACLE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6),
]
CUT_KEYS = {"A1": 4, "A2": 14, "A3": 28, "A4": 88, "B2": 4, "B3": 8, "B4": 20,
            "C3": 8, "D4": 94, "D5": 232, "G2": 4, "F4": 16, "E6": 880}


def _fields(base, directions) -> tuple:
    """The reference's matrices of scalars in the integer format, which
    compares field by field."""
    return ContinuousParameter.from_rows(base), [ContinuousParameter.from_rows(d) for d in directions]


@pytest.mark.parametrize("series,rank", ORACLE_TYPES)
def test_solve_and_cut_match_the_general_elimination(series, rank):
    """The integer solve and the split reality cut against one
    Gaussian-rational elimination each (tests/oracles.py), for every
    triple and every (kind, mu)."""
    rs = build_root_system(series, rank)
    kinds = {"varsigma": "real", "varsigma_mu": "conjugate-mu",
             "omega": "imaginary", "omega_mu_J": "anti-conjugate-mu"}
    checked = 0
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        base, directions = reference_solve_parameters(rs, bd)
        assert (ps.base_point, ps.directions) == _fields(base, directions), bd
        for label, kind in kinds.items():
            for mu in diagram_automorphisms(rs):
                if not stability_ok(bd, kind, mu):
                    continue
                expected = reference_reality_cut(base, directions, kind, mu)
                try:
                    cut = apply_reality(ps, label, mu, bd)
                except NoBialgebraDatum:
                    assert expected is None, (bd, label, mu)
                    continue
                assert (cut.base_point, cut.directions) == _fields(*expected), (bd, label, mu)
                checked += 1
    assert checked == CUT_KEYS[f"{series}{rank}"]


def test_constraint_check_agrees_with_the_residuals():
    """satisfies_constraints, in ints, against the residuals of the
    defining equations written out over the Gaussian rationals, at
    points on the space and off it in the real and the imaginary part."""
    rs = build_root_system("A", 3)
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        for coeffs in ([ONE] * ps.dimension, [GaussianRational(2, -1)] * ps.dimension):
            on = ps.point(coeffs)
            for shift in (ZERO, GaussianRational(1, 2), I, GaussianRational(Fraction(1, 3), 1)):
                m = matrix_of(ps.point(coeffs))
                m[0][1] = m[0][1] + shift
                m[2][0] = m[2][0] - shift * shift
                lam = ContinuousParameter.from_rows(m)
                residual = constraint_residual(rs, bd, lam)
                zero = not any(x for row in residual for x in row)
                assert satisfies_constraints(rs, bd, lam) == zero
                assert zero == (not shift)
            assert satisfies_constraints(rs, bd, on)
