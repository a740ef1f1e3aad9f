import random
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
)
from liebialg.core import (
    GaussianRational,
    I,
    ONE,
    Tensor2,
    ZERO,
    apply_semilinear_pair,
    cybe_is_zero,
)
from liebialg.involution import canonical_involution, fixed_point_basis
from liebialg.parameter import (
    NoBialgebraDatum,
    apply_reality,
    lambda_reality_ok,
    reality_kind_for,
    solve_parameters,
    stability_ok,
    t_reality_ok,
)
from liebialg.rmatrix import (
    BialgebraDatum,
    ExtractionError,
    build_r,
    build_r0,
    classify,
    default_t,
    extend_T,
    extract_data,
    iter_data,
    make_datum,
    sigma_fixes,
    verify_datum,
)
from liebialg.cli import _sigma_variants
from liebialg.rootsystem import build_root_system
from oracles import transported_images


def test_extend_t_empty_triple():
    rs = build_root_system("A", 2)
    fam = extend_T(rs, BDTriple.empty())
    assert all(v == ONE for v in fam.values())
    assert transported_images(rs, BDTriple.empty(), fam) == {}


def test_extend_t_a2_simple_map():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    fam = extend_T(rs, bd)
    images = transported_images(rs, bd, fam)
    assert images == {(1, 0): ((0, 1), ONE)}


def test_extend_t_a3_composite_sign_oracle():
    # transport of the composite root vector must match direct bracket
    # propagation through the generators
    rs = build_root_system("A", 3)
    bd = BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})
    fam = extend_T(rs, bd)
    a1, a2 = (1, 0, 0), (0, 1, 0)
    a12, a23 = (1, 1, 0), (0, 1, 1)
    images = transported_images(rs, bd, fam)
    target, scale = images[a12]
    assert target == a23
    oracle = rs.normalized_n(a2, (0, 0, 1)) / rs.normalized_n(a1, a2)
    assert scale == oracle
    # kappa-normalization survives: pairing of rescaled vectors stays 1
    for g, s in fam.items():
        assert s  # nonzero rescale, the inverse is applied to -g


def test_build_r_sl2_and_identities():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r = build_r(rs, BDTriple.empty(), ps.base_point, ONE)
    # r = Omega_0/2 + x_{-a} (x) x_a
    assert r.get(0, 0) == ONE
    assert r.get(rs.root_index((-1,)), rs.root_index((1,))) == ONE
    assert cybe_is_zero(r, rs.structure)
    assert (r + r.transpose()) == rs.casimir


def test_build_r_rejects_zero_t():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    with pytest.raises(ValueError):
        build_r(rs, BDTriple.empty(), ps.base_point, ZERO)


def test_build_r_rejects_bad_lambda():
    from liebialg.parameter import ContinuousParameter

    rs = build_root_system("A", 2)
    bad = ContinuousParameter(
        [[GaussianRational(1), ZERO], [ZERO, GaussianRational(1)]]
    )
    with pytest.raises(ValueError):
        build_r(rs, BDTriple.empty(), bad, ONE)


def test_r_plus_r21_is_t_omega_across_t():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    for t in [ONE, GaussianRational(3), I, GaussianRational(0, 5)]:
        r = build_r(rs, bd, ps.base_point, t)
        assert (r + r.transpose()) == rs.casimir.scale(t)


def test_r0_is_r_minus_half_t_omega():
    rng = random.Random(11)
    half = GaussianRational(Fraction(1, 2))
    for series, rank in [("A", 2), ("B", 2), ("A", 3)]:
        rs = build_root_system(series, rank)
        triples = enumerate_bd_triples(rs)
        for _ in range(4):
            bd = rng.choice(triples)
            ps = solve_parameters(rs, bd)
            pr = [
                GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(ps.dimension)
            ]
            t = rng.choice([ONE, GaussianRational(2), I])
            lam = ps.point(pr)
            fam = extend_T(rs, bd)
            r = build_r(rs, bd, lam, t, fam)
            r0 = build_r0(rs, bd, lam, t, fam)
            assert r0.is_antisymmetric()
            assert r0 == r - rs.casimir.scale(t * half)


def test_sl2_r0_shape():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE)
    half = GaussianRational(Fraction(1, 2))
    im, ip = rs.root_index((-1,)), rs.root_index((1,))
    assert r0.get(im, ip) == half and r0.get(ip, im) == -half
    assert r0.get(0, 0) == ZERO


def test_compact_datum_fixed_by_sigma_pair():
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    ps = apply_reality(
        solve_parameters(rs, BDTriple.empty()), "omega", om.mu, BDTriple.empty()
    )
    lam = ps.point([ONE])  # imaginary wedge coefficient
    datum = make_datum(rs, om, BDTriple.empty(), lam, I)
    assert sigma_fixes(datum)
    assert all(verify_datum(datum).values())


def test_make_datum_rejects_wrong_t_line():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    ps = solve_parameters(rs, BDTriple.empty())
    with pytest.raises(NoBialgebraDatum):
        make_datum(rs, om, BDTriple.empty(), ps.base_point, ONE)  # t real, needs imaginary


def test_lemma_equivalence_exhaustive_a2():
    """sigma-pair fixity of r0 holds exactly when the reality predicate
    does, across every (sigma, triple, probe, t) combination."""
    rs = build_root_system("A", 2)
    sigmas = []
    for mu in diagram_automorphisms(rs):
        sigmas.append(canonical_involution(rs, "varsigma", mu))
        for k in range(len(mu.fixed_points()) + 1):
            for j in combinations(mu.fixed_points(), k):
                sigmas.append(canonical_involution(rs, "omega", mu, j))
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        probes = [[ZERO] * ps.dimension]
        for m in range(ps.dimension):
            probes.append([ONE if k == m else ZERO for k in range(ps.dimension)])
            probes.append([I if k == m else ZERO for k in range(ps.dimension)])
        for sigma in sigmas:
            label = sigma.describe()
            kind = reality_kind_for(label)
            stable = stability_ok(bd, kind, sigma.mu)
            fam = extend_T(rs, bd, sigma) if stable else extend_T(rs, bd)
            for pr in probes:
                lam = ps.point(pr)
                for t in [ONE, I]:
                    predicate = (
                        stable
                        and t_reality_ok(t, kind)
                        and lambda_reality_ok(lam, kind, sigma.mu)
                    )
                    r0 = build_r0(rs, bd, lam, t, fam)
                    fixed = apply_semilinear_pair(sigma, r0) == r0
                    assert predicate == fixed, (label, bd, pr, str(t))


def test_r0_lies_in_real_form():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    sigma = canonical_involution(rs, "varsigma", flip)
    space = apply_reality(
        solve_parameters(rs, BDTriple.empty()), "varsigma_mu", flip, BDTriple.empty()
    )
    datum = make_datum(rs, sigma, BDTriple.empty(), space.point([ONE]), ONE)
    coords = fixed_point_basis(rs, sigma).tensor_coordinates(datum.r0)
    assert all(x.is_real() for row in coords for x in row)


def test_extract_roundtrip_sl2():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE)
    ex = extract_data(rs, None, r0)
    assert ex.bd == BDTriple.empty()
    assert ex.t == ONE
    assert ex.lam.matrix == ps.base_point.matrix
    # H = -t * sum of h_alpha over positives
    assert ex.H == [-ONE, ZERO, ZERO]


def test_extract_rejects_triangular():
    rs = build_root_system("A", 1)
    with pytest.raises(ExtractionError):
        extract_data(rs, None, Tensor2(rs.dim))


def test_extract_rejects_non_antisymmetric():
    rs = build_root_system("A", 1)
    with pytest.raises(ExtractionError):
        extract_data(rs, None, rs.casimir)


def test_extract_rejects_non_proportional_cyb():
    # an antisymmetric tensor that is not a solution of the modified YBE
    rs = build_root_system("A", 2)
    junk = Tensor2.from_items(
        rs.dim,
        [
            ((0, rs.root_index((1, 0))), ONE),
            ((rs.root_index((1, 0)), 0), -ONE),
        ],
    )
    with pytest.raises(ExtractionError):
        extract_data(rs, None, junk)


def test_extract_checks_sigma_fixity_when_given():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE)  # real t: not omega-fixed
    with pytest.raises(ExtractionError):
        extract_data(rs, om, r0)
    fixed = build_r0(rs, BDTriple.empty(), ps.base_point, I)
    ex = extract_data(rs, om, fixed)
    assert ex.t == I


def test_extract_randomized_roundtrips():
    rng = random.Random(23)
    for series, rank in [("A", 2), ("B", 2), ("A", 3), ("C", 3)]:
        rs = build_root_system(series, rank)
        triples = enumerate_bd_triples(rs)
        for _ in range(5):
            bd = rng.choice(triples)
            ps = solve_parameters(rs, bd)
            pr = [
                GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(ps.dimension)
            ]
            t = rng.choice(
                [ONE, GaussianRational(2), I, GaussianRational(0, 3)]
            )
            lam = ps.point(pr)
            r0 = build_r0(rs, bd, lam, t)
            ex = extract_data(rs, None, r0)
            assert ex.t == t
            assert ex.bd == bd
            assert ex.delta == list(rs.simple_roots)
            assert ex.lam.matrix == lam.matrix


def test_extract_permuted_copy():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    bd = BDTriple.make((0,), (1,), {0: 1})
    ps = solve_parameters(rs, bd)
    r0 = build_r0(rs, bd, ps.base_point, ONE)
    perm = list(range(rs.dim))
    for i in range(rs.rank):
        perm[i] = flip(i)
    for g in rs.roots:
        perm[rs.root_index(g)] = rs.root_index(flip.apply_root(g))
    permuted = Tensor2.from_items(
        rs.dim, [((perm[a], perm[b]), v) for (a, b), v in r0.items()]
    )
    ex = extract_data(rs, None, permuted)
    assert ex.bd == BDTriple.make((1,), (0,), {1: 0})
    # both data land in the same class
    sig = canonical_involution(rs, "varsigma")
    d1 = make_datum(rs, sig, bd, ps.base_point, ONE)
    ps2 = solve_parameters(rs, ex.bd)
    d2 = make_datum(rs, sig, ex.bd, ex.lam, ex.t)
    assert len(classify([d1, d2])) == 1


def test_classify_merges_mirror_pair_only():
    rs = build_root_system("A", 2)
    sig = canonical_involution(rs, "varsigma")
    data = []
    for bd in enumerate_bd_triples(rs):
        ps = solve_parameters(rs, bd)
        data.append(make_datum(rs, sig, bd, ps.base_point, ONE))
    kept = classify(data)
    assert len(data) == 3 and len(kept) == 2


def test_classify_never_merges_rows():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ps = solve_parameters(rs, BDTriple.empty())
    d1 = make_datum(
        rs, canonical_involution(rs, "varsigma"), BDTriple.empty(), ps.base_point, ONE
    )
    space = apply_reality(ps, "varsigma_mu", flip, BDTriple.empty())
    d2 = make_datum(
        rs,
        canonical_involution(rs, "varsigma", flip),
        BDTriple.empty(),
        space.base_point,
        ONE,
    )
    assert len(classify([d1, d2])) == 2


def test_classify_lambda_sensitivity():
    # data with lambda and its flip-conjugate merge; unrelated lambdas do not
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    space = apply_reality(
        solve_parameters(rs, BDTriple.empty()), "omega", om.mu, BDTriple.empty()
    )
    lam_plus = space.point([ONE])
    lam_minus = space.point([-ONE])
    d1 = make_datum(rs, om, BDTriple.empty(), lam_plus, I)
    d2 = make_datum(rs, om, BDTriple.empty(), lam_minus, I)
    # the flip sends h1 wedge h2 to h2 wedge h1 = -(h1 wedge h2)
    assert len(classify([d1, d2])) == 1
    d3 = make_datum(rs, om, BDTriple.empty(), space.point([GaussianRational(2)]), I)
    assert len(classify([d1, d3])) == 2


def test_cybe_spot_check_rank_four():
    # one nontrivial triple on D4 exercises the chain transport at rank 4
    rs = build_root_system("D", 4)
    triples = [bd for bd in enumerate_bd_triples(rs) if not bd.is_empty()]
    bd = triples[0]
    ps = solve_parameters(rs, bd)
    lam = ps.point([I] * ps.dimension)
    r = build_r(rs, bd, lam, ONE)
    assert cybe_is_zero(r, rs.structure)
    assert (r + r.transpose()) == rs.casimir


def test_precedence_pairs_have_vanishing_bracket():
    # alpha < beta share a chain level, so [x_{-alpha}, x_beta] = 0
    from liebialg.bdtriple import precedence_pairs

    for series, rank in [("A", 3), ("B", 3)]:
        rs = build_root_system(series, rank)
        for bd in enumerate_bd_triples(rs):
            for alpha, beta in precedence_pairs(rs, bd):
                diff = tuple(b - a for a, b in zip(alpha, beta))
                assert diff not in rs.roots
                ia = rs.root_index(tuple(-x for x in alpha))
                ib = rs.root_index(beta)
                assert rs.structure.bracket_basis(ia, ib) == ()


def test_verify_datum_flags_wrong_t():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    ps = solve_parameters(rs, BDTriple.empty())
    fam = extend_T(rs, BDTriple.empty())
    r = build_r(rs, BDTriple.empty(), ps.base_point, ONE, fam)
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE, fam)
    datum = BialgebraDatum(rs, om, "omega", BDTriple.empty(), ps.base_point, ONE, r0, r)
    checks = verify_datum(datum)
    assert not checks["t_reality"]
    assert not checks["sigma_fixes_r0"]
    assert checks["cybe"]


@pytest.mark.parametrize(
    "series,rank,data,tensors",
    [("A", 3, 28, 16), ("B", 3, 11, 4), ("C", 3, 11, 4), ("D", 4, 134, 60),
     ("F", 4, 23, 8), ("G", 2, 5, 2)],
)
def test_iter_data_matches_a_fresh_make_datum(series, rank, data, tensors):
    """iter_data shares stability, the lambda condition and the tensors
    among involutions; each datum must still equal the one make_datum
    builds alone from the same sigma, triple, base point and t."""
    rs = build_root_system(series, rank)
    seen = []
    for sigma, space, datum in iter_data(rs, _sigma_variants(rs, "all")):
        fresh = make_datum(rs, sigma, datum.bd, space.base_point, default_t(datum.sigma_label))
        assert datum.sigma is sigma and datum.sigma_label == fresh.sigma_label
        assert datum.r == fresh.r and datum.r0 == fresh.r0
        assert datum.lam.matrix == fresh.lam.matrix and datum.t == fresh.t
        seen.append(datum)
    assert len(seen) == data
    assert len({id(d.r) for d in seen}) == tensors  # built once per sharing key
