import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg import cli, core, parameter, rmatrix
from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    tau_chains,
)
from liebialg.core import (
    GaussianRational,
    I,
    ONE,
    Tensor2,
    ZERO,
    apply_semilinear_pair,
    cybe_is_zero,
    cybe_sums,
)
from liebialg.involution import canonical_involution, fixed_point_basis
from liebialg.parameter import (
    NoBialgebraDatum,
    apply_reality,
    lambda_reality_ok,
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
    conjugate_datum_key,
    default_t,
    extend_T,
    _carries_declared_data,
    extract_data,
    iter_data,
    make_datum,
    sigma_fixes,
    verify_datum,
)
from liebialg.cli import _sigma_variants
from liebialg.rootsystem import build_root_system
import oracles
from oracles import (
    HALF,
    ad,
    entry,
    lambda_from_rows,
    reference_carries_declared_data,
    root_values,
    tensor_from_items,
    tensor_items,
    transported_images,
)


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
    oracle = oracles.table_n(rs, a2, (0, 0, 1)) / oracles.table_n(rs, a1, a2)
    assert scale == oracle
    # kappa-normalization survives: pairing of rescaled vectors stays 1
    for g, s in fam.items():
        assert s  # nonzero rescale, the inverse is applied to -g


SIGN_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5),
    ("D", 4), ("D", 5), ("D", 6), ("G", 2), ("F", 4), ("E", 6),
]


@pytest.mark.parametrize("series, rank", SIGN_TYPES)
def test_extend_t_signs_match_the_q_i_reference(series, rank):
    """extend_T's family is a map to the ints +-1, equal value for value
    to the Q(i) family of oracles.reference_family, whose N' are read
    off the bracket table: for every triple, with no sigma and with each
    involution of _sigma_variants(all) whose stability allows the
    triple.  Where it does not, the two fail alike or agree."""
    rs = build_root_system(series, rank)
    sigmas = [None, *_sigma_variants(rs, "all")]
    checked = 0
    for bd in enumerate_bd_triples(rs):
        chains = tau_chains(rs, bd)
        families = {}  # the reference family per set of sigma scalars
        for sigma in sigmas:
            stable = sigma is None or stability_ok(bd, sigma)
            try:
                scalars = oracles.reference_sigma_chain_scalars(bd, sigma, chains)
            except (ValueError, IndexError) as exc:
                assert not stable
                with pytest.raises(type(exc)):
                    extend_T(rs, bd, sigma)
                continue
            key = frozenset(scalars.items())
            if key not in families:
                families[key] = oracles.reference_family(rs, bd, chains, scalars)
            ref = families[key]
            fam = extend_T(rs, bd, sigma)
            assert fam.keys() == ref.keys()
            for g, v in fam.items():
                assert type(v) is int and v in (1, -1)
                assert GaussianRational(v) == ref[g], (bd, sigma and sigma.describe(), g)
            checked += stable
    assert checked


@pytest.mark.parametrize("series, rank, unequal", [("A", 5, 8), ("E", 6, 40)])
def test_extend_t_rejects_mu_pairing_chains_of_unequal_length(series, rank, unequal):
    """Under omega(mu, empty) with mu nontrivial, a triple where mu sends
    the end of a simple tau-chain to the start of a chain of another
    length is not sigma-compatible: extend_T raises the ValueError it
    raises when mu sends it to no chain start, on each of the 8 such A5
    triples and the 40 of E6, whichever of the two chains it meets
    first."""
    rs = build_root_system(series, rank)
    (mu,) = [m for m in diagram_automorphisms(rs) if not m.is_identity()]
    sigma = canonical_involution(rs, "omega", mu, ())
    found = 0
    for bd in enumerate_bd_triples(rs):
        chains = [c for c in tau_chains(rs, bd) if sum(c[0]) == 1]
        length = {c[0]: len(c) for c in chains}
        if any(len(c) != length.get(mu.apply_root(c[-1]), len(c)) for c in chains):
            found += 1
            with pytest.raises(ValueError, match="triple is not sigma-compatible"):
                extend_T(rs, bd, sigma)
    assert found == unequal


def test_build_r_sl2_and_identities():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r = build_r(rs, BDTriple.empty(), ps.base_point, ONE)
    # r = Omega_0/2 + x_{-a} (x) x_a
    assert entry(r, 0, 0) == ONE
    assert entry(r, rs.root_index((-1,)), rs.root_index((1,))) == ONE
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
    bad = lambda_from_rows(
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
            r = oracles.reference_r(rs, bd, lam, t, fam)  # from the formula, not from r0
            r0 = build_r0(rs, bd, lam, t, fam)
            assert r0.is_antisymmetric()
            assert r0 == r + rs.casimir.scale(t * half).scale(-1)
            assert build_r(rs, bd, lam, t, fam) == r


def test_sl2_r0_shape():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE)
    half = GaussianRational(Fraction(1, 2))
    im, ip = rs.root_index((-1,)), rs.root_index((1,))
    assert entry(r0, im, ip) == half and entry(r0, ip, im) == -half
    assert entry(r0, 0, 0) == ZERO


def test_compact_datum_fixed_by_sigma_pair():
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    ps = apply_reality(solve_parameters(rs, BDTriple.empty()), om, BDTriple.empty())
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
            stable = stability_ok(bd, sigma)
            fam = extend_T(rs, bd, sigma) if stable else extend_T(rs, bd)
            for pr in probes:
                lam = ps.point(pr)
                for t in [ONE, I]:
                    predicate = (
                        stable
                        and t_reality_ok(t, sigma)
                        and lambda_reality_ok(lam, sigma)
                    )
                    r0 = build_r0(rs, bd, lam, t, fam)
                    fixed = apply_semilinear_pair(sigma, r0) == r0
                    assert predicate == fixed, (label, bd, pr, str(t))


def test_r0_lies_in_real_form():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    sigma = canonical_involution(rs, "varsigma", flip)
    space = apply_reality(solve_parameters(rs, BDTriple.empty()), sigma, BDTriple.empty())
    datum = make_datum(rs, sigma, BDTriple.empty(), space.point([ONE]), ONE)
    coords = fixed_point_basis(rs, sigma).tensor_coordinates(datum.r0)
    assert coords.num and not any(y for _, y in coords.num.values())


def test_extract_roundtrip_sl2():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE)
    t, bd, lam = extract_data(rs, r0)
    assert bd == BDTriple.empty()
    assert t == ONE
    assert lam == ps.base_point


def test_extract_rejects_triangular():
    rs = build_root_system("A", 1)
    with pytest.raises(ExtractionError, match="triangular"):
        extract_data(rs, Tensor2(rs.dim, 1, {}))
    # the Jordanian h_1 wedge x_a1 of A2 solves the CYBE itself
    rs = build_root_system("A", 2)
    a = rs.root_index((1, 0))
    jordanian = tensor_from_items(rs.dim, [((0, a), ONE), ((a, 0), -ONE)])
    with pytest.raises(ExtractionError, match="triangular"):
        extract_data(rs, jordanian)


def test_extract_rejects_non_antisymmetric():
    rs = build_root_system("A", 1)
    with pytest.raises(ExtractionError, match="not antisymmetric"):
        extract_data(rs, rs.casimir)


def test_extract_rejects_non_proportional_cyb():
    # x_a1 wedge x_a2 is antisymmetric and CYB != 0, but CYB vanishes at
    # the first key of CYB(Omega): not a solution of the modified YBE,
    # and not triangular either
    rs = build_root_system("A", 2)
    a, b = rs.root_index((1, 0)), rs.root_index((0, 1))
    wedge = tensor_from_items(rs.dim, [((a, b), ONE), ((b, a), -ONE)])
    with pytest.raises(ExtractionError, match="not proportional"):
        extract_data(rs, wedge)


def test_extract_recovers_imaginary_t():
    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, I)
    t, _, _ = extract_data(rs, r0)
    assert t == I


def test_extract_rejects_the_opposite_positive_system():
    # -r0 carries the opposite positive system, whose simple roots are
    # the negatives of the standard ones
    rs = build_root_system("A", 2)
    r0 = build_r0(rs, BDTriple.empty(), solve_parameters(rs, BDTriple.empty()).base_point, ONE)
    with pytest.raises(ExtractionError, match="not the standard ones"):
        extract_data(rs, r0.scale(-ONE))


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4), ("F", 4)])
def test_ad_of_a_cartan_element_is_diagonal_with_root_values(series, rank):
    # why extraction reads regularity as "no positive root vanishes on H"
    rs = build_root_system(series, rank)
    rng = random.Random(rank)
    for _ in range(3):
        h = [GaussianRational(rng.randint(-3, 3)) for _ in range(rs.rank)]
        m = ad(rs.structure, h + [ZERO] * (rs.dim - rs.rank))
        diagonal = [ZERO] * rs.rank + [
            sum((x * y for x, y in zip(h, root_values(rs, g))), ZERO) for g in rs.roots
        ]
        assert m == [
            [diagonal[i] if i == j else ZERO for j in range(rs.dim)] for i in range(rs.dim)
        ]


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
            got_t, got_bd, got_lam = extract_data(rs, r0)
            assert got_t == t
            assert got_bd == bd
            assert got_lam == lam


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
    permuted = tensor_from_items(
        rs.dim, [((perm[a], perm[b]), v) for (a, b), v in tensor_items(r0)]
    )
    t, got_bd, lam = extract_data(rs, permuted)
    assert got_bd == BDTriple.make((1,), (0,), {1: 0})
    # both data land in the same class
    sig = canonical_involution(rs, "varsigma")
    d1 = make_datum(rs, sig, bd, ps.base_point, ONE)
    d2 = make_datum(rs, sig, got_bd, lam, t)
    assert len(classify([d1, d2])) == 1


EQUIVALENCE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
]


def _mutants(rs, r0, rng):
    """r0 and tensors near it: -r0, 2 r0, r0^T, r0 with one paired root
    slot flipped, and r0 plus a random antisymmetric bump."""
    yield r0
    yield r0.scale(-ONE)
    yield r0.scale(GaussianRational(2))
    yield r0.transpose()
    g = rng.choice(rs.positive_roots)
    i, j = rs.root_index(tuple(-x for x in g)), rs.root_index(g)
    v = entry(r0, i, j)
    yield r0 + tensor_from_items(rs.dim, [((i, j), -2 * v), ((j, i), 2 * v)])
    i, j = rng.sample(range(rs.dim), 2)
    c = GaussianRational(rng.randint(-2, 2) or 1, rng.randint(-1, 1))
    yield r0 + tensor_from_items(rs.dim, [((i, j), c), ((j, i), -c)])


@pytest.mark.parametrize("series, rank", EQUIVALENCE_TYPES)
def test_declared_data_check_matches_the_general_frame_rule(series, rank, monkeypatch):
    """parameter_constraints reads r0 in the standard frame only; it
    decides as the general-frame extraction does when it also asks for
    the standard simple roots."""
    rs = build_root_system(series, rank)
    # both sides start from the same integer sums of CYB(r0), most of
    # their cost
    sums_of: dict = {}

    def shared_sums(r0, structure):
        key = (r0.dim, r0.den, frozenset(r0.num.items()))  # r0 by value
        if key not in sums_of:
            sums_of[key] = cybe_sums(r0, structure)
        return sums_of[key]

    monkeypatch.setattr(rmatrix, "cybe_sums", shared_sums)
    monkeypatch.setattr(oracles, "cybe_sums", shared_sums)
    rng = random.Random(f"{series}{rank}")
    decided = {True: 0, False: 0}
    seen = set()  # the decision reads only r0 and the declared data
    for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        for r0 in _mutants(rs, datum.r0, rng):
            key = (datum.bd, datum.t, str(datum.lam.to_json()), frozenset(tensor_items(r0)))
            if key in seen:
                continue
            seen.add(key)
            mutant = BialgebraDatum(rs, datum.sigma, datum.bd, datum.lam, datum.t, r0, datum.r)
            got = _carries_declared_data(mutant)
            assert got == reference_carries_declared_data(mutant), (datum.bd, r0)
            decided[got] += 1
    assert decided[True] and decided[False]


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
    quasi_split = canonical_involution(rs, "varsigma", flip)
    space = apply_reality(ps, quasi_split, BDTriple.empty())
    d2 = make_datum(rs, quasi_split, BDTriple.empty(), space.base_point, ONE)
    assert len(classify([d1, d2])) == 2


def test_classify_lambda_sensitivity():
    # data with lambda and its flip-conjugate merge; unrelated lambdas do not
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    space = apply_reality(solve_parameters(rs, BDTriple.empty()), om, BDTriple.empty())
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
                assert (ia, ib) not in rs.structure.table


def test_verify_datum_flags_wrong_t():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    ps = solve_parameters(rs, BDTriple.empty())
    fam = extend_T(rs, BDTriple.empty())
    r = build_r(rs, BDTriple.empty(), ps.base_point, ONE, fam)
    r0 = build_r0(rs, BDTriple.empty(), ps.base_point, ONE, fam)
    datum = BialgebraDatum(rs, om, BDTriple.empty(), ps.base_point, ONE, r0, r)
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
    """iter_data shares the lambda condition and r0 among involutions;
    each datum must still equal the one make_datum builds alone from the
    same sigma, triple, base point and t."""
    rs = build_root_system(series, rank)
    seen = []
    for sigma, space, datum in iter_data(rs, _sigma_variants(rs, "all")):
        fresh = make_datum(rs, sigma, datum.bd, space.base_point, default_t(sigma))
        assert datum.sigma is sigma and datum.sigma_label == fresh.sigma_label
        assert datum.r == fresh.r and datum.r0 == fresh.r0
        assert datum.lam == fresh.lam and datum.t == fresh.t
        seen.append(datum)
    assert len(seen) == data
    assert len({id(d.r0) for d in seen}) == tensors  # built once per sharing key


R0_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("series, rank", R0_TYPES)
def test_direct_r0_matches_the_defining_formula(series, rank):
    """r0, built in one pass, equals r - t Omega / 2 for r summed from its
    defining formula (oracles.reference_r), and r, derived from r0, equals
    that r: on every datum the table loop yields, and on the same data
    made at t = 2 (real rows) or t = 3/2 i (imaginary rows)."""
    rs = build_root_system(series, rank)
    seen = 0
    for sigma, space, datum in iter_data(rs, _sigma_variants(rs, "all")):
        other_t = GaussianRational(2) if datum.t.is_real() else GaussianRational(0, Fraction(3, 2))
        fam = extend_T(rs, datum.bd, sigma)
        for made in (datum, make_datum(rs, sigma, datum.bd, space.base_point, other_t)):
            ref = oracles.reference_r(rs, made.bd, made.lam, made.t, fam)
            assert made.r0 == ref + rs.casimir.scale(made.t * HALF).scale(-1)
            assert made.r == ref
            assert build_r(rs, made.bd, made.lam, made.t, fam) == ref
        seen += 1
    assert seen


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--type", "A", "--rank", "3"],
     ["enumerate", "--type", "B", "--rank", "3", "--format", "csv"],
     ["classify", "--type", "A", "--rank", "3"],
     ["classify", "--type", "G", "--rank", "2"]],
)
def test_table_commands_never_build_r(monkeypatch, capsys, argv):
    def forbidden(*args):
        raise AssertionError("r was built")

    monkeypatch.setattr(rmatrix, "_plus_half_t_omega", forbidden)
    monkeypatch.setattr(rmatrix, "build_r", forbidden)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_materialize_derives_r(monkeypatch, capsys):
    # the positive control of the guard above: --materialize writes r
    derived = []
    derive = rmatrix._plus_half_t_omega
    monkeypatch.setattr(
        rmatrix, "_plus_half_t_omega", lambda *args: derived.append(1) or derive(*args)
    )
    assert cli.main(["enumerate", "--type", "A", "--rank", "2", "--materialize"]) == 0
    capsys.readouterr()
    assert derived


# the table loop's parameter solve, reality cut, tensor build and checks,
# which read and write the integer format only
INTEGER_ONLY = (
    "build_r0", "sigma_fixes", "satisfies_constraints", "lambda_reality_ok",
    "solve_parameters", "apply_reality",
)


@pytest.mark.parametrize("command", ["classify", "enumerate"])
@pytest.mark.parametrize("series, rank", [("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)])
def test_classify_builds_no_scalar_in_the_loop(monkeypatch, capsys, command, series, rank):
    """Once the root system is built, classify and enumerate make no
    GaussianRational, by the constructor or by arithmetic: not inside
    the solve, the cut, build_r0 or the checks, and not outside them
    (t, the root-vector family); classify builds no direction matrix at
    all (enumerate prints them); and iter_data evaluates stability at
    most once per (triple, sigma's kind, mu), not once per (involution,
    triple).
    D4, D5 and E6 cover the mu kinds."""
    rs = build_root_system(series, rank)
    depth, made = [0], {True: 0, False: 0}  # constructions inside / outside
    new, init = core._new, core.GaussianRational.__init__

    def counting_new(cls):
        if cls is core.GaussianRational:
            made[depth[0] > 0] += 1
        return new(cls)

    def counting_init(self, *args):
        made[depth[0] > 0] += 1
        init(self, *args)

    monkeypatch.setattr(core, "_new", counting_new)
    monkeypatch.setattr(core.GaussianRational, "__init__", counting_init)
    entered = {}
    for name in INTEGER_ONLY:
        fn = getattr(rmatrix, name)

        def guarded(*args, _fn=fn, _name=name, **kwargs):
            entered[_name] = entered.get(_name, 0) + 1
            depth[0] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in (rmatrix, parameter):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, guarded)
    stability_ok, evaluated = rmatrix.stability_ok, []

    def counting_stability_ok(*args):
        evaluated.append(sys._getframe(1).f_code.co_name)
        return stability_ok(*args)

    monkeypatch.setattr(rmatrix, "stability_ok", counting_stability_ok)

    def no_directions(space):
        raise AssertionError("a direction matrix was built")

    if command == "classify":
        monkeypatch.setattr(parameter.ParameterSpace, "directions", property(no_directions))

    assert cli.main([command, "--type", series, "--rank", str(rank)]) == 0
    assert capsys.readouterr().out
    assert made == {True: 0, False: 0}
    # positive controls: every guarded function ran, and the hooks count
    # a scalar made here, by _new ("1/2") and by the constructor ("i"),
    # outside the guarded functions and at the depth of one
    assert set(entered) == set(INTEGER_ONLY)
    GaussianRational.parse("1/2"), GaussianRational.parse("i")
    depth[0] += 1
    GaussianRational.parse("1/2"), GaussianRational.parse("i")
    depth[0] -= 1
    assert made == {True: 2, False: 2}
    keys = {(s.kind, s.mu) for s in _sigma_variants(rs, "all")}
    assert 0 < evaluated.count("iter_data") <= len(enumerate_bd_triples(rs)) * len(keys)


def _sigma_mutants(sigma, r0: Tensor2) -> list:
    """r0 with one entry plus 1/7, one entry times i, and one entry moved
    to an empty slot, each at an entry whose index pair sigma (x) sigma
    moves; none if sigma moves no pair of r0 (as the split varsigma, which
    fixes every real tensor)."""
    images = sigma.images
    e = dict(tensor_items(r0))
    moved = [(a, b) for a, b in sorted(e) if (images[a], images[b]) != (a, b)]
    if not moved:
        return []
    key = moved[0]
    plus, times_i, move = dict(e), dict(e), dict(e)
    plus[key] = e[key] + GaussianRational(Fraction(1, 7))
    times_i[key] = e[key] * I
    slot = next((i, j) for i in range(r0.dim) for j in range(r0.dim) if (i, j) not in e)
    move[slot] = move.pop(key)
    return [tensor_from_items(r0.dim, x.items()) for x in (plus, times_i, move)]


@pytest.mark.parametrize("series, rank", R0_TYPES[:5] + [("C", 3)] + R0_TYPES[5:])
def test_sigma_fixes_matches_apply_semilinear_pair(series, rank):
    """The integer kernel against (sigma (x) sigma)(r0) = r0 computed on
    GaussianRationals, for every involution of the type against every r0
    the table loop builds, and on mutants of each fixed r0."""
    rs = build_root_system(series, rank)
    sigmas = _sigma_variants(rs, "all")
    data = {id(d.r0): d for _, _, d in iter_data(rs, sigmas)}.values()
    verdicts, mutants = {True: 0, False: 0}, 0
    for datum in data:
        for sigma in sigmas:
            def fixes(r0):
                return sigma_fixes(
                    BialgebraDatum(rs, sigma, datum.bd, datum.lam, datum.t, r0)
                )

            want = apply_semilinear_pair(sigma, datum.r0) == datum.r0
            assert fixes(datum.r0) == want
            verdicts[want] += 1
            if want:
                for r0 in _sigma_mutants(sigma, datum.r0):
                    assert apply_semilinear_pair(sigma, r0) != r0
                    assert not fixes(r0)
                    mutants += 1
    assert verdicts[True] and verdicts[False] and mutants


def _tuple_datum_key(datum, psi):
    """conjugate_datum_key with lambda held as a tuple of rows of entry
    strings, the entries read through oracles.matrix_of."""
    perm = psi.permutation
    mu = datum.sigma.mu
    mu2 = tuple(perm[mu(perm.index(k))] for k in range(len(perm)))
    j2 = tuple(sorted(perm[j] for j in datum.sigma.J))
    g1 = tuple(sorted(perm[i] for i in datum.bd.gamma1))
    g2 = tuple(sorted(perm[i] for i in datum.bd.gamma2))
    tau2 = tuple(sorted((perm[i], perm[j]) for i, j in datum.bd.tau))
    n = len(perm)
    inv = [perm.index(i) for i in range(n)]
    m = oracles.matrix_of(datum.lam)
    lam2 = tuple(tuple(str(m[inv[i]][inv[j]]) for j in range(n)) for i in range(n))
    return (datum.sigma_label, mu2, j2, g1, g2, tau2, lam2, str(datum.t))


@pytest.mark.parametrize("series, rank", [("A", 4), ("D", 4), ("E", 6)])
def test_datum_key_orders_as_the_tuple_key(series, rank):
    """lambda joined into one string orders and compares the keys of every
    datum, under every diagram automorphism, as the tuple of rows did."""
    rs = build_root_system(series, rank)
    autos = diagram_automorphisms(rs)
    new, old = [], []
    for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        for psi in autos:
            new.append(conjugate_datum_key(datum, psi))
            old.append(_tuple_datum_key(datum, psi))
    order = sorted(range(len(new)), key=new.__getitem__)
    assert order == sorted(range(len(old)), key=old.__getitem__)
    pairs = list(zip(order, order[1:]))
    assert [new[i] == new[j] for i, j in pairs] == [old[i] == old[j] for i, j in pairs]
    assert any(new[i] == new[j] for i, j in pairs) and len(autos) > 1
