"""Acceptance suite: one criterion per test, one printed line each.

Every check is an exact equality over the Gaussian rationals; there are
no tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from liebialg import linalg
from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    is_nilpotent,
)
from liebialg.core import (
    GaussianRational,
    I,
    ONE,
    ZERO,
    apply_semilinear_pair,
    cybe_is_zero,
)
from liebialg.involution import canonical_involution, fixed_point_basis
from liebialg.manin import double_factorizable, double_imaginary
from liebialg.parameter import (
    apply_reality,
    lambda_reality_ok,
    reality_kind_for,
    solve_parameters,
    stability_ok,
    t_reality_ok,
)
from liebialg.realform import cartan_involution, expected_character, identify
from liebialg.rmatrix import (
    build_r,
    build_r0,
    classify,
    conjugate_datum_key,
    extend_T,
    extract_data,
    iter_data,
    make_datum,
)
from liebialg.rootsystem import build_root_system
from oracles import (
    ad,
    basis_vectors,
    cobracket_from_r0,
    cobracket_from_triple,
    dense_double_factorizable,
    dense_double_imaginary,
    dense_rows,
    dense_vector,
    factorization_maps,
    identity,
    induced_form,
    is_positive_definite,
    manin_fields,
    mat_mul,
    mat_vec,
    nullspace,
    psi_phi,
    realify_vector,
    reference_extract_data,
    scalar_table,
    theta_twisted_gram,
    transpose,
)

RANK4_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
]

RANK3_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]

CLASSICAL = {
    ("A", 1): (2, 3), ("A", 2): (6, 8), ("A", 3): (12, 15), ("A", 4): (20, 24),
    ("B", 2): (8, 10), ("B", 3): (18, 21), ("B", 4): (32, 36),
    ("C", 3): (18, 21), ("C", 4): (32, 36),
    ("D", 4): (24, 28), ("G", 2): (12, 14), ("F", 4): (48, 52),
}


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _jacobi(rs):
    table = scalar_table(rs.structure)
    d = rs.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cf in table.get((b, c), ()):
                        for q, cf2 in table.get((a, m), ()):
                            acc[q] = acc.get(q, ZERO) + cf * cf2
                if any(acc.values()):
                    return False
    return True


def _omega_invariant(rs):
    table = scalar_table(rs.structure)
    for x in range(rs.dim):
        acc = {}
        for (a, b), v in rs.casimir.items():
            for k, c in table.get((x, a), ()):
                acc[(k, b)] = acc.get((k, b), ZERO) + v * c
            for k, c in table.get((x, b), ()):
                acc[(a, k)] = acc.get((a, k), ZERO) + v * c
        if any(acc.values()):
            return False
    return True


def test_criterion_1_root_systems():
    ok = True
    for series, rank in RANK4_TYPES:
        rs = build_root_system(series, rank)
        nroots, dim = CLASSICAL[(series, rank)]
        ok = ok and len(rs.roots) == nroots and rs.dim == dim
        ok = ok and _jacobi(rs) and _omega_invariant(rs)
    report(1, "root counts, dimensions, Jacobi, Casimir invariance", ok)


def _bruteforce_triples(rs):
    n = rs.rank
    simple = rs.simple_roots
    found = {BDTriple.empty()}
    for size in range(1, n + 1):
        for g1 in combinations(range(n), size):
            for g2 in combinations(range(n), size):
                for img in permutations(g2):
                    mapping = dict(zip(g1, img))
                    if all(
                        rs.root_pairing(simple[i], simple[j])
                        == rs.root_pairing(simple[mapping[i]], simple[mapping[j]])
                        for i in g1
                        for j in g1
                    ) and is_nilpotent(g1, g2, mapping):
                        found.add(BDTriple.make(g1, g2, mapping))
    return found


def test_criterion_2_bd_triple_oracle():
    ok = True
    for series, rank in RANK4_TYPES:
        rs = build_root_system(series, rank)
        enumerated = enumerate_bd_triples(rs)
        ok = ok and set(enumerated) == _bruteforce_triples(rs)
        ok = ok and len(set(enumerated)) == len(enumerated)
    rs = build_root_system("A", 2)
    ok = ok and len(enumerate_bd_triples(rs)) == 3
    report(2, "triple enumeration matches the exhaustive oracle (rank <= 4)", ok)


def _probes(dim):
    out = [[ZERO] * dim]
    for m in range(dim):
        out.append([ONE if k == m else ZERO for k in range(dim)])
        out.append([I if k == m else ZERO for k in range(dim)])
    if dim > 1:
        out.append([ONE] * dim)
        out.append([I] * dim)
    return out


def test_criterion_3_cybe():
    ok = True
    for series, rank in RANK3_TYPES:
        rs = build_root_system(series, rank)
        for bd in enumerate_bd_triples(rs):
            ps = solve_parameters(rs, bd)
            fam = extend_T(rs, bd)
            for pr in _probes(ps.dimension):
                lam = ps.point(pr)
                r = build_r(rs, bd, lam, ONE, fam)
                ok = ok and cybe_is_zero(r, rs.structure)
                for t in [GaussianRational(2), I]:
                    rt = build_r(rs, bd, lam, t, fam)
                    ok = ok and (rt + rt.transpose()) == rs.casimir.scale(t)
            if not ok:
                break
    report(3, "CYB(r) = 0 and r + r21 = t Omega on all rank <= 3 data", ok)


def _all_sigmas(rs):
    out = []
    for mu in diagram_automorphisms(rs):
        out.append(canonical_involution(rs, "varsigma", mu))
        for k in range(len(mu.fixed_points()) + 1):
            for j in combinations(mu.fixed_points(), k):
                out.append(canonical_involution(rs, "omega", mu, j))
    return out


def test_criterion_4_reality_equivalence():
    ok = True
    checked = 0
    for series, rank in [("A", 2), ("A", 3), ("B", 2)]:
        rs = build_root_system(series, rank)
        for bd in enumerate_bd_triples(rs):
            ps = solve_parameters(rs, bd)
            probes = _probes(ps.dimension)
            for sigma in _all_sigmas(rs):
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
                        checked += 1
                        ok = ok and predicate == fixed
    report(4, f"reality conditions match sigma-pair fixity ({checked} cases)", ok)


def test_criterion_5_roundtrip():
    rng = random.Random(2024)
    ok = True
    done = 0
    types = RANK3_TYPES
    while done < 50:
        series, rank = types[done % len(types)]
        rs = build_root_system(series, rank)
        triples = enumerate_bd_triples(rs)
        bd = rng.choice(triples)
        ps = solve_parameters(rs, bd)
        pr = [
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(ps.dimension)
        ]
        t = rng.choice([ONE, GaussianRational(2), GaussianRational(Fraction(1, 2)), I, GaussianRational(0, 3)])
        lam = ps.point(pr)
        r0 = build_r0(rs, bd, lam, t)
        got_t, got_bd, got_lam = extract_data(rs, r0)
        ok = ok and got_t == t and got_bd == bd and got_lam == lam
        # the general-frame reference: H = -t * sum of the Killing duals
        # over the positive system, regular by the dense ad H, and the
        # standard simple roots
        ex = reference_extract_data(rs, r0)
        expect_h = [ZERO] * rs.dim
        for g in rs.positive_roots:
            for i, c in enumerate(g):
                expect_h[i] = expect_h[i] + GaussianRational(c)
        expect_h = [x * (-t) for x in expect_h]
        ok = ok and ex.H == expect_h
        ok = ok and len(nullspace(ad(rs.structure, ex.H))) == rs.rank
        ok = ok and ex.delta == list(rs.simple_roots)
        done += 1
    report(5, "recovery round-trips 50 randomized data (rank <= 3)", ok)


def test_criterion_6_identification():
    ok = True
    named = 0
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        for sigma in _all_sigmas(rs):
            if sigma.kind == "omega":
                painted = set(sigma.mu.fixed_points()) - set(sigma.J)
                if len(painted) > 1:
                    continue
            report_obj = identify(rs, sigma)
            ok = ok and report_obj.dim_k + report_obj.dim_p == rs.dim
            ok = ok and report_obj.dc + report_obj.dnc == rs.rank
            ok = ok and report_obj.character == report_obj.dim_p - report_obj.dim_k
            theta = cartan_involution(rs, sigma)
            basis = fixed_point_basis(rs, sigma)
            ok = ok and is_positive_definite(theta_twisted_gram(rs, theta, basis))
            ok = ok and report_obj.name != "unnormalized"
            expected = expected_character(report_obj.name, rs.dim, rs.rank)
            ok = ok and expected is not None and expected == report_obj.character
            named += 1
            if sigma.kind == "varsigma" and sigma.mu.is_identity():
                ok = ok and (report_obj.dc, report_obj.dnc) == (0, rs.rank)
                ok = ok and report_obj.character == rs.rank
            if sigma.kind == "omega" and not (
                set(sigma.mu.fixed_points()) - set(sigma.J)
            ):
                if sigma.mu.is_identity():
                    ok = ok and report_obj.character == -rs.dim
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    ok = ok and identify(rs, canonical_involution(rs, "varsigma", flip)).name == "su(1,2)"
    ok = (
        ok
        and identify(
            rs, canonical_involution(rs, "varsigma", flip)
        ).character
        == 0
    )
    report(6, f"named identification consistent on {named} involutions", ok)


def test_criterion_7_manin_triples():
    ok = True
    # factorizable branch: sl2 and sl3 data, trivial and nontrivial
    # triples; A3 with a two-vertex triple, B2 and G2 with the empty one
    factorizable = []
    for series, rank in [("A", 1), ("A", 2)]:
        rs = build_root_system(series, rank)
        factorizable += [(rs, bd) for bd in enumerate_bd_triples(rs)]
    factorizable += [
        (build_root_system("A", 3), BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})),
        (build_root_system("B", 2), BDTriple.empty()),
        (build_root_system("G", 2), BDTriple.empty()),
    ]
    for rs, bd in factorizable:
        sig = canonical_involution(rs, "varsigma")
        ps = solve_parameters(rs, bd)
        datum = make_datum(rs, sig, bd, ps.base_point, ONE)
        mt = double_factorizable(rs, datum)
        ok = ok and manin_fields(mt) == manin_fields(dense_double_factorizable(rs, datum))
        ok = ok and all(mt.verify().values())
        via_triple = cobracket_from_triple(mt)
        via_r0 = cobracket_from_r0(rs, datum)
        ok = ok and via_triple == via_r0
    # imaginary branch: su(2), su(3), su(4), so(5) and compact g2
    for series, rank, J in [
        ("A", 1, (0,)), ("A", 2, (0, 1)), ("A", 3, (0, 1, 2)),
        ("B", 2, (0, 1)), ("G", 2, (0, 1)),
    ]:
        rs = build_root_system(series, rank)
        om = canonical_involution(rs, "omega", None, J)
        space = apply_reality(
            solve_parameters(rs, BDTriple.empty()), "omega", om.mu, BDTriple.empty()
        )
        lam = space.point([ONE] * space.dimension)
        datum = make_datum(rs, om, BDTriple.empty(), lam, I)
        mt = double_imaginary(rs, datum)
        ok = ok and manin_fields(mt) == manin_fields(dense_double_imaginary(rs, datum))
        ok = ok and all(mt.verify().values())
        via_triple = cobracket_from_triple(mt)
        via_r0 = cobracket_from_r0(rs, datum)
        ok = ok and via_triple == via_r0
        # psi/phi inverse pair and the subspace claims
        psi, phi = psi_phi(rs, om)
        n2 = 2 * rs.dim
        ok = ok and mat_mul(phi, psi) == identity(n2)
        ok = ok and mat_mul(psi, phi) == identity(n2)
        basis = fixed_point_basis(rs, om)
        l0 = [realify_vector(v) for v in basis_vectors(basis)]
        images = []
        n = rs.dim
        for a in range(n):
            arg = [ZERO] * n2
            arg[a] = ONE
            arg[n + a] = ONE
            images.append(mat_vec(psi, arg))
        ok = ok and linalg.rank([list(v) for v in l0 + images]) == n
        r_plus, r_minus, _ = factorization_maps(rs, datum.r)
        images2 = []
        for k in range(n):
            mu = [ONE if j == k else ZERO for j in range(n)]
            arg = mat_vec(r_plus, mu) + mat_vec(r_minus, mu)
            images2.append(mat_vec(psi, arg))
        sub2 = [dense_vector(v, n2) for v in mt.sub2_basis]
        ok = ok and linalg.rank(sub2 + images2) == linalg.rank(sub2)
        # pairing transport (claim iii)
        form = induced_form(rs, datum.t)
        target = dense_rows(mt.pairing, n2)
        phi1 = [phi[i] for i in range(n)]
        phi2 = [phi[n + i] for i in range(n)]
        # phi1^T form phi1 - phi2^T form phi2, entry by entry
        pulled1 = mat_mul(transpose(phi1), mat_mul(form, phi1))
        pulled2 = mat_mul(transpose(phi2), mat_mul(form, phi2))
        ok = ok and all(
            pulled1[bi][bj] - pulled2[bi][bj] == target[bi][bj]
            for bi in range(n2)
            for bj in range(n2)
        )
    report(7, "Manin triples verified in both branches with psi/phi", ok)


def _enumerated_data(rs):
    return [datum for _, _, datum in iter_data(rs, _all_sigmas(rs))]


def test_criterion_8_classification_dedup():
    ok = True
    for series, rank in [("A", 2), ("A", 3)]:
        rs = build_root_system(series, rank)
        data = _enumerated_data(rs)
        kept = classify(data)
        autos = diagram_automorphisms(rs)
        ident = autos[0]
        # brute-force conjugation oracle: pairwise orbit partition
        keys = [conjugate_datum_key(d, ident) for d in data]
        orbits = []
        for i, d in enumerate(data):
            placed = False
            for orbit in orbits:
                j = orbit[0]
                if any(
                    conjugate_datum_key(d, psi) == keys[j] for psi in autos
                ):
                    orbit.append(i)
                    placed = True
                    break
            if not placed:
                orbits.append([i])
        ok = ok and len(orbits) == len(kept)
        # merged pairs are exactly flip-conjugate ones
        for orbit in orbits:
            for i in orbit[1:]:
                ok = ok and any(
                    conjugate_datum_key(data[i], psi) == keys[orbit[0]]
                    for psi in autos
                    if not psi.is_identity()
                ) or keys[i] == keys[orbit[0]]
    report(8, "classification merges exactly the diagram-conjugate pairs", ok)


def test_criterion_9_determinism(capsys):
    from liebialg.cli import main

    outputs = []
    for _ in range(2):
        code = main(
            ["enumerate", "--type", "A", "--rank", "2", "--what", "bialgebras"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    with capsys.disabled():
        report(9, "byte-identical enumeration output across runs", ok)
