from fractions import Fraction
from itertools import combinations, permutations

import pytest

from liebialg.bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    extend_tau_additively,
    identity_automorphism,
    is_nilpotent,
    precedence_pairs,
    span_subset_roots,
    stability,
    tau_chains,
)
from liebialg.rootsystem import build_root_system


def brute_force_triples(rs):
    """Exhaustive oracle: all subset pairs x all bijections, filtered by
    the inner-product and nilpotency predicates."""
    n = rs.rank
    simple = rs.simple_roots
    found = {BDTriple.empty()}

    def pairing(a, b):
        return Fraction(rs.root_pairing(a, b), rs.gram_den)

    for size in range(1, n + 1):
        for g1 in combinations(range(n), size):
            for g2 in combinations(range(n), size):
                for img in permutations(g2):
                    mapping = dict(zip(g1, img))
                    ok = all(
                        pairing(simple[i], simple[j])
                        == pairing(simple[mapping[i]], simple[mapping[j]])
                        for i in g1
                        for j in g1
                    )
                    if ok and is_nilpotent(g1, g2, mapping):
                        found.add(BDTriple.make(g1, g2, mapping))
    return found


def test_a1_single_triple():
    rs = build_root_system("A", 1)
    assert enumerate_bd_triples(rs) == [BDTriple.empty()]


def test_a2_exactly_three():
    rs = build_root_system("A", 2)
    triples = enumerate_bd_triples(rs)
    assert triples == [
        BDTriple.empty(),
        BDTriple.make((0,), (1,), {0: 1}),
        BDTriple.make((1,), (0,), {1: 0}),
    ]


@pytest.mark.parametrize(
    "series,rank",
    [("A", 3), ("B", 2), ("B", 3), ("G", 2), ("C", 3), ("D", 4), ("F", 4), ("E", 6)],
)
def test_enumeration_matches_bruteforce(series, rank):
    rs = build_root_system(series, rank)
    assert set(enumerate_bd_triples(rs)) == brute_force_triples(rs)


def test_enumeration_is_canonically_ordered():
    rs = build_root_system("A", 3)
    triples = enumerate_bd_triples(rs)
    keys = [t.sort_key() for t in triples]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_triple_validation():
    with pytest.raises(ValueError):
        BDTriple((1, 0), (0, 1), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        BDTriple((0,), (1,), ((0, 0),))


def test_nilpotency_rejects_cycles():
    assert not is_nilpotent((0,), (0,), {0: 0})
    assert not is_nilpotent((0, 1), (0, 1), {0: 1, 1: 0})
    assert is_nilpotent((0,), (1,), {0: 1})


def test_precedence_empty_triple():
    rs = build_root_system("A", 2)
    assert precedence_pairs(rs, BDTriple.empty()) == set()


def test_precedence_a2():
    rs = build_root_system("A", 2)
    bd = BDTriple.make((0,), (1,), {0: 1})
    assert precedence_pairs(rs, bd) == {((1, 0), (0, 1))}


def test_precedence_a3_shift():
    rs = build_root_system("A", 3)
    bd = BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})
    pairs = precedence_pairs(rs, bd)
    a1, a2, a3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    a12, a23 = (1, 1, 0), (0, 1, 1)
    assert pairs == {(a1, a2), (a1, a3), (a2, a3), (a12, a23)}


def test_span_subset_roots():
    rs = build_root_system("A", 3)
    # height-then-lex order, inherited from the positive root list
    assert list(span_subset_roots(rs, (0, 1))) == [(0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert list(span_subset_roots(rs, ())) == []


def test_tau_chains_partition():
    rs = build_root_system("A", 3)
    bd = BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})
    chains = tau_chains(rs, bd)
    starts = sorted(c[0] for c in chains)
    assert starts == [(1, 0, 0), (1, 1, 0)]
    simple_chain = next(c for c in chains if c[0] == (1, 0, 0))
    assert simple_chain == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_stability_identity_mu():
    mu = identity_automorphism(2)
    assert stability(BDTriple.empty(), mu) == "both"
    bd = BDTriple.make((0,), (1,), {0: 1})
    assert stability(bd, mu) == "stable"


def test_stability_antistable_a3():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    bd = BDTriple.make((0,), (2,), {0: 2})
    assert stability(bd, flip) == "antistable"
    shift = BDTriple.make((0, 1), (1, 2), {0: 1, 1: 2})
    assert stability(shift, flip) == "antistable"
    assert stability(BDTriple.empty(), flip) == "both"


def test_stability_neither():
    flip = DiagramAutomorphism((1, 0))
    bd = BDTriple.make((0,), (1,), {0: 1})
    # flip(Gamma1) = {1} != Gamma1, and antistability fails the tau check?
    # mu(G1) = G2 and T^-1 mu = mu T on a singleton: antistable in fact
    assert stability(bd, flip) == "antistable"
    rs = build_root_system("A", 3)
    mid = BDTriple.make((1,), (0,), {1: 0})
    assert stability(mid, DiagramAutomorphism((2, 1, 0))) == "neither"


def test_diagram_automorphism_groups():
    for series, rank, count in [
        ("A", 1, 1),
        ("A", 2, 2),
        ("A", 4, 2),
        ("B", 3, 1),
        ("C", 3, 1),
        ("D", 5, 2),
        ("E", 6, 2),
        ("E", 7, 1),
        ("F", 4, 1),
        ("G", 2, 1),
    ]:
        rs = build_root_system(series, rank)
        assert len(diagram_automorphisms(rs)) == count, (series, rank)


def test_d4_has_three_flips_and_no_triality():
    rs = build_root_system("D", 4)
    autos = diagram_automorphisms(rs)
    assert len(autos) == 4
    assert all(a(a(i)) == i for a in autos for i in range(rs.rank))


def test_automorphisms_preserve_cartan_matrix():
    rs = build_root_system("E", 6)
    a = rs.cartan_matrix
    for mu in diagram_automorphisms(rs):
        p = mu.permutation
        for i in range(6):
            for j in range(6):
                assert a[p[i]][p[j]] == a[i][j]


def test_precedence_is_strict_partial_order():
    rs = build_root_system("A", 3)
    for bd in enumerate_bd_triples(rs):
        pairs = precedence_pairs(rs, bd)
        assert all(a != b for a, b in pairs)
        for a, b in pairs:
            assert (b, a) not in pairs
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs  # transitivity via chain powers


def _walked_precedence(rs, bd):
    """(alpha, T^k alpha) for k >= 1, walked from each alpha in Gamma1-hat
    until the orbit leaves it."""
    hat1 = set(span_subset_roots(rs, bd.gamma1))
    pairs = set()
    for alpha in hat1:
        cur = alpha
        while cur in hat1:
            cur = extend_tau_additively(rs, bd, cur)
            pairs.add((alpha, cur))
    return pairs


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("C", 4),
     ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)],
)
def test_precedence_pairs_are_the_walked_orbits(series, rank):
    rs = build_root_system(series, rank)
    for bd in enumerate_bd_triples(rs):
        assert precedence_pairs(rs, bd) == _walked_precedence(rs, bd)


def test_bdtriple_json_roundtrip():
    bd = BDTriple.make((0, 2), (1, 3), {0: 1, 2: 3})
    assert BDTriple.from_json(bd.to_json()) == bd
