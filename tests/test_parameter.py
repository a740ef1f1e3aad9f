import random
from fractions import Fraction

import pytest

from liebialg import linalg
from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
)
from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, ONE, ZERO
from liebialg.involution import canonical_involution
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
    lambda_from_rows,
    reference_reality_cut,
    reference_solve_parameters,
    reference_stability,
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
    rps = apply_reality(ps, canonical_involution(rs, "varsigma"), BDTriple.empty())
    assert rps.reality_kind == "real"
    assert rps.dimension == 1
    for d in rps.directions:
        assert all(x.is_real() for row in matrix_of(d) for x in row)


def test_reality_imaginary_case():
    rs = build_root_system("A", 2)
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, canonical_involution(rs, "omega", None, (0, 1)), BDTriple.empty())
    assert rps.reality_kind == "imaginary"
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
    assert anti[0][1].is_imaginary()


def test_reality_conjugate_mu_case():
    # with the flip, lambda_12 = conj(lambda_21) forces lambda_12 imaginary
    rs = build_root_system("A", 2)
    sigma = canonical_involution(rs, "varsigma", DiagramAutomorphism((1, 0)))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, sigma, BDTriple.empty())
    assert rps.reality_kind == "conjugate-mu"
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
    assert anti[0][1].is_imaginary() and anti[0][1]
    assert lambda_reality_ok(rps.point([ONE]), sigma)


def test_reality_anti_conjugate_mu_case():
    rs = build_root_system("A", 2)
    sigma = canonical_involution(rs, "omega", DiagramAutomorphism((1, 0)))
    ps = solve_parameters(rs, BDTriple.empty())
    rps = apply_reality(ps, sigma, BDTriple.empty())
    assert rps.reality_kind == "anti-conjugate-mu"
    assert rps.dimension == 1
    anti = _antisymmetric_part(rps.point([ONE]))
    # anti-conjugate condition forces the coefficient real here
    assert anti[0][1].is_real() and anti[0][1]


def test_omega_rejects_nonempty_triple():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    for j in [(0, 1), (0,)]:  # compact, and inner with one painted vertex
        with pytest.raises(NoBialgebraDatum, match="reality kind 'imaginary'"):
            apply_reality(ps, canonical_involution(rs, "omega", None, j), bd)


def test_varsigma_mu_rejects_unstable_triple():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    bd = BDTriple.make((1,), (0,), {1: 0})  # neither stable nor antistable
    ps = solve_parameters(rs, bd)
    with pytest.raises(NoBialgebraDatum, match="reality kind 'conjugate-mu'"):
        apply_reality(ps, canonical_involution(rs, "varsigma", flip), bd)
    with pytest.raises(NoBialgebraDatum, match="reality kind 'anti-conjugate-mu'"):
        apply_reality(ps, canonical_involution(rs, "omega", flip), bd)


def test_reality_points_still_solve_constraints():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    sigmas = [
        canonical_involution(rs, "varsigma"),
        canonical_involution(rs, "varsigma", flip),
        canonical_involution(rs, "omega", flip),
    ]
    for bd in enumerate_bd_triples(rs):
        for sigma in sigmas:
            try:
                rps = apply_reality(solve_parameters(rs, bd), sigma, bd)
            except NoBialgebraDatum:
                continue
            for pr in ([ZERO] * rps.dimension, [ONE] * rps.dimension):
                lam = rps.point(pr)
                assert satisfies_constraints(rs, bd, lam)
                assert lambda_reality_ok(lam, sigma)


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
CUT_KEYS = {"A1": 2, "A2": 8, "A3": 16, "A4": 52, "B2": 2, "B3": 4, "B4": 10,
            "C3": 4, "D4": 56, "D5": 120, "G2": 2, "F4": 8, "E6": 460}
STABILITY_TYPES = ORACLE_TYPES[:4] + [("A", 5)] + ORACLE_TYPES[4:9] + [("C", 4)] + ORACLE_TYPES[9:]


def _reference_kind(sigma) -> str:
    """The name the references below give sigma's reality case."""
    if sigma.mu.is_identity():
        return "real" if sigma.kind == "varsigma" else "imaginary"
    return "conjugate-mu" if sigma.kind == "varsigma" else "anti-conjugate-mu"


def _fields(base, directions) -> tuple:
    """The reference's matrices of scalars in the integer format, which
    compares field by field."""
    return lambda_from_rows(base), [lambda_from_rows(d) for d in directions]


@pytest.mark.parametrize("series,rank", ORACLE_TYPES)
def test_solve_and_cut_match_the_general_elimination(series, rank):
    """The integer solve and the split reality cut against one
    Gaussian-rational elimination each (tests/oracles.py), for every
    triple and every varsigma(mu) and omega(mu), mu = 1 included; J
    leaves the cut alone."""
    rs = build_root_system(series, rank)
    sigmas = [
        canonical_involution(rs, kind, mu)
        for mu in diagram_automorphisms(rs) for kind in ("varsigma", "omega")
    ]
    checked = 0
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        base, directions = reference_solve_parameters(rs, bd)
        assert (ps.base_point, ps.directions) == _fields(base, directions), bd
        for sigma in sigmas:
            if not stability_ok(bd, sigma):
                with pytest.raises(NoBialgebraDatum):
                    apply_reality(ps, sigma, bd)
                continue
            expected = reference_reality_cut(base, directions, _reference_kind(sigma), sigma.mu)
            try:
                cut = apply_reality(ps, sigma, bd)
            except NoBialgebraDatum:
                assert expected is None, (bd, sigma.to_json())
                continue
            assert cut.reality_kind == _reference_kind(sigma)
            assert (cut.base_point, cut.directions) == _fields(*expected), (bd, sigma.to_json())
            checked += 1
    assert checked == CUT_KEYS[f"{series}{rank}"]


@pytest.mark.parametrize("series,rank", STABILITY_TYPES)
def test_stability_at_trivial_mu(series, rank):
    """varsigma(1) allows every triple; omega(1, J) allows only the empty
    one, since a nilpotent tau cannot map Gamma1 onto Gamma2 = Gamma1."""
    rs = build_root_system(series, rank)
    split = canonical_involution(rs, "varsigma")
    omegas = [canonical_involution(rs, "omega", None, j) for j in [(), tuple(range(rank))]]
    for bd in enumerate_bd_triples(rs):
        assert stability_ok(bd, split) is True
        for omega in omegas:
            assert stability_ok(bd, omega) is bd.is_empty()


# (triple, sigma) pairs over _sigma_variants(all), and how many of them
# stability allows
STABILITY_PAIRS = {
    "A1": (3, 3), "A2": (21, 11), "A3": (108, 28), "A4": (627, 67), "A5": (4140, 206),
    "B2": (5, 5), "B3": (27, 11), "B4": (153, 25), "C3": (27, 11), "C4": (153, 25),
    "D4": (800, 134), "D5": (4242, 214), "G2": (5, 5), "F4": (119, 23), "E6": (28490, 646),
}


@pytest.mark.parametrize("series,rank", STABILITY_TYPES)
def test_stability_ok_matches_the_four_valued_reference(series, rank):
    """stability_ok tests only the relation sigma's kind asks for; the
    reference computes both and names the pair, which varsigma allows
    when 'stable' or 'both' and omega when 'antistable' or 'both'."""
    rs = build_root_system(series, rank)
    sigmas = _sigma_variants(rs, "all")
    pairs = allowed = 0
    for bd in enumerate_bd_triples(rs):
        for sigma in sigmas:
            want = ("stable" if sigma.kind == "varsigma" else "antistable", "both")
            ok = stability_ok(bd, sigma)
            assert ok is (reference_stability(bd, sigma.mu) in want), (bd, sigma.describe())
            pairs, allowed = pairs + 1, allowed + ok
    assert (pairs, allowed) == STABILITY_PAIRS[f"{series}{rank}"]


def _four_formula_lambda_rule(lam, kind, mu) -> bool:
    """The lambda condition as one formula per reality kind, over all
    n^2 cells of lam's numerators."""
    n, re, im = lam.rank, lam.re, lam.im
    cells = [(n * i + j, n * j + i) for i in range(n) for j in range(n)]
    if kind == "real":
        return all(im[k] == im[l] for k, l in cells)
    if kind == "imaginary":
        return all(re[k] == re[l] for k, l in cells)
    sign = 1 if kind == "conjugate-mu" else -1
    images = [(n * mu(i) + mu(j), n * mu(j) + mu(i)) for i in range(n) for j in range(n)]
    return all(
        re[k] - re[l] == sign * (re[p] - re[q]) and im[k] - im[l] == sign * (im[q] - im[p])
        for (k, l), (p, q) in zip(cells, images)
    )


@pytest.mark.parametrize("series,rank", [("A", 3), ("D", 4), ("D", 5), ("E", 6)])
def test_lambda_rule_matches_the_four_formulas(series, rank):
    """lambda_reality_ok(lam, sigma) against _four_formula_lambda_rule for
    every involution of the table: positives at points of the cuts of
    sampled triples at seeded real coefficients, and negatives at seeded
    complex lambdas."""
    rs = build_root_system(series, rank)
    rng = random.Random(f"lambda-rule {series}{rank}")
    n, triples = rank, enumerate_bd_triples(rs)
    positives = {}  # (kind, mu) -> points of its cuts
    negatives = 0
    for sigma in _sigma_variants(rs, "all"):
        kind, key = _reference_kind(sigma), (sigma.kind, sigma.mu)
        if key not in positives:
            positives[key] = []
            allowed = [bd for bd in triples if stability_ok(bd, sigma)]
            for bd in rng.sample(allowed, min(6, len(allowed))):
                try:
                    cut = apply_reality(solve_parameters(rs, bd), sigma, bd)
                except NoBialgebraDatum:
                    continue
                coeffs = [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                          for _ in range(cut.dimension)]
                positives[key].append(cut.point(coeffs))
        assert positives[key]
        for lam in positives[key]:
            assert _four_formula_lambda_rule(lam, kind, sigma.mu)
            assert lambda_reality_ok(lam, sigma), (sigma.to_json(), lam.to_json())
        for _ in range(4):
            re, im = ([rng.randint(-2, 2) for _ in range(n * n)] for _ in "ri")
            lam = ContinuousParameter(n, rng.randint(1, 3), re, im)
            want = _four_formula_lambda_rule(lam, kind, sigma.mu)
            assert lambda_reality_ok(lam, sigma) is want, (sigma.to_json(), lam.to_json())
            negatives += not want
    assert negatives


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
                lam = lambda_from_rows(m)
                residual = constraint_residual(rs, bd, lam)
                zero = not any(x for row in residual for x in row)
                assert satisfies_constraints(rs, bd, lam) == zero
                assert zero == (not shift)
            assert satisfies_constraints(rs, bd, on)
