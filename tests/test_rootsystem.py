import gc
import weakref
from fractions import Fraction
from math import gcd

import pytest

from liebialg import core
from liebialg.core import GaussianRational, ONE, ZERO
from liebialg.rootsystem import _BITS, RootSystem, SimpleType, build_root_system
from oracles import (
    bracket,
    casimir_cybe,
    cybe,
    entry,
    fraction_killing_h,
    killing_form,
    killing_form_adjoint,
    killing_gram,
    reference_cybe,
    reference_structure_constants,
    root_values,
    scalar_table,
)
from test_core import _cybe_bruteforce


def _unit(rs, idx):
    v = [ZERO] * rs.dim
    v[idx] = ONE
    return v


def _coroot(rs, alpha):
    """h_alpha = [x_alpha, x_{-alpha}], read off the structure table."""
    neg = tuple(-x for x in alpha)
    return bracket(rs.structure, _unit(rs, rs.root_index(alpha)), _unit(rs, rs.root_index(neg)))


CLASSICAL_COUNTS = {
    ("A", 1): (2, 3),
    ("A", 2): (6, 8),
    ("A", 3): (12, 15),
    ("A", 4): (20, 24),
    ("B", 2): (8, 10),
    ("B", 3): (18, 21),
    ("B", 4): (32, 36),
    ("C", 3): (18, 21),
    ("C", 4): (32, 36),
    ("D", 4): (24, 28),
    ("D", 5): (40, 45),
    ("G", 2): (12, 14),
    ("F", 4): (48, 52),
    ("E", 6): (72, 78),
    ("E", 7): (126, 133),
    ("E", 8): (240, 248),
}

# dual Coxeter numbers: the highest root has Killing norm 1/h_dual
DUAL_COXETER = {
    ("A", 1): 2,
    ("A", 4): 5,
    ("B", 3): 5,
    ("B", 4): 7,
    ("C", 3): 4,
    ("C", 4): 5,
    ("D", 4): 6,
    ("D", 5): 8,
    ("G", 2): 4,
    ("F", 4): 9,
    ("E", 6): 12,
    ("E", 7): 18,
    ("E", 8): 30,
}


@pytest.mark.parametrize("series,rank", sorted(CLASSICAL_COUNTS))
def test_root_counts_and_dimension(series, rank):
    rs = build_root_system(series, rank)
    nroots, dim = CLASSICAL_COUNTS[(series, rank)]
    assert len(rs.roots) == nroots
    assert rs.dim == dim


def test_rank_bounds():
    with pytest.raises(ValueError):
        SimpleType("B", 1)
    with pytest.raises(ValueError):
        SimpleType("C", 2)
    with pytest.raises(ValueError):
        SimpleType("D", 3)
    with pytest.raises(ValueError):
        SimpleType("E", 5)
    with pytest.raises(ValueError):
        SimpleType("F", 3)
    with pytest.raises(ValueError):
        SimpleType("G", 3)
    with pytest.raises(ValueError):
        SimpleType("H", 2)


def test_cartan_matrices():
    assert build_root_system("A", 1).cartan_matrix == [[2]]
    assert build_root_system("A", 2).cartan_matrix == [[2, -1], [-1, 2]]
    assert build_root_system("B", 2).cartan_matrix == [[2, -2], [-1, 2]]
    assert build_root_system("G", 2).cartan_matrix == [[2, -1], [-3, 2]]


def jacobi_holds(rs: RootSystem) -> bool:
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


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)])
def test_jacobi_identity(series, rank):
    assert jacobi_holds(build_root_system(series, rank))


def test_killing_form_matches_adjoint_trace_oracle():
    for series, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(series, rank)
        gram = killing_gram(rs)
        for i in range(rs.dim):
            for j in range(rs.dim):
                vi, vj = _unit(rs, i), _unit(rs, j)
                assert killing_form(rs, vi, vj) == killing_form_adjoint(rs, vi, vj)
                assert gram[i][j] == killing_form_adjoint(rs, vi, vj)


def test_sl2_killing_values():
    rs = build_root_system("A", 1)
    assert (rs.gram, rs.gram_den) == ([[1]], 2)
    assert fraction_killing_h(rs) == [[Fraction(1, 2)]]
    h = _unit(rs, 0)
    assert killing_form(rs, h, h) == GaussianRational(Fraction(1, 2))
    # Omega_0 = 2 h (x) h, the Cartan block of Omega
    assert entry(rs.casimir, 0, 0) == GaussianRational(2) == rs.cartan_dual_gram[0][0]


def test_root_vector_pairing_normalized():
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = build_root_system(series, rank)
        for g in rs.positive_roots:
            xp = _unit(rs, rs.root_index(g))
            xm = _unit(rs, rs.root_index(tuple(-c for c in g)))
            assert killing_form(rs, xp, xm) == ONE


def test_root_vectors_weight_orthogonal():
    rs = build_root_system("A", 2)
    for a in rs.roots:
        for b in rs.roots:
            if tuple(x + y for x, y in zip(a, b)) != (0, 0):
                va = _unit(rs, rs.root_index(a))
                vb = _unit(rs, rs.root_index(b))
                assert killing_form(rs, va, vb) == ZERO


def test_simple_bracket_gives_killing_dual():
    # [x_a, x_{-a}] = h_a for every simple root
    for series, rank in [("A", 2), ("B", 3), ("G", 2)]:
        rs = build_root_system(series, rank)
        for i, alpha in enumerate(rs.simple_roots):
            xp = _unit(rs, rs.root_index(alpha))
            xm = _unit(rs, rs.root_index(tuple(-c for c in alpha)))
            br = bracket(rs.structure, xp, xm)
            expect = [ZERO] * rs.dim
            expect[i] = ONE
            assert br == expect


def test_casimir_symmetric_and_invariant():
    for series, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(series, rank)
        om = rs.casimir
        assert om == om.transpose()
        assert (om + om.transpose()) == om.scale(2)
        table = scalar_table(rs.structure)
        for x in range(rs.dim):
            acc = {}
            for (a, b), v in om.items():
                for k, c in table.get((x, a), ()):
                    acc[(k, b)] = acc.get((k, b), ZERO) + v * c
                for k, c in table.get((x, b), ()):
                    acc[(a, k)] = acc.get((a, k), ZERO) + v * c
            assert not any(acc.values())


def test_casimir_h_is_cartan_block():
    # the Cartan block of Omega is Omega_0 = cartan_dual_gram, and no
    # entry of Omega pairs a Cartan vector with a root vector
    for series, rank in [("A", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert entry(rs.casimir, i, j) == rs.cartan_dual_gram[i][j]
        for (a, b), _ in rs.casimir.items():
            assert (a < rs.rank) == (b < rs.rank)


def test_structure_constants_integral_before_rescaling():
    for series, rank in [("A", 3), ("B", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(series, rank)
        for a in rs.roots:
            for b in rs.roots:
                total = tuple(x + y for x, y in zip(a, b))
                if total in rs.roots:
                    n = rs._n[a, b]
                    assert n.denominator == 1 and n != 0


def test_g2_string_lengths():
    # G2 has |N| up to 3 for the long string constants
    rs = build_root_system("G", 2)
    values = set()
    for a in rs.roots:
        for b in rs.roots:
            total = tuple(x + y for x, y in zip(a, b))
            if total in rs.roots:
                values.add(abs(rs._n[a, b]))
    assert Fraction(3) in values


def test_coroot_vector_linearity():
    rs = build_root_system("A", 2)
    a1, a2 = rs.simple_roots
    both = tuple(x + y for x, y in zip(a1, a2))
    h1 = _coroot(rs, a1)
    h2 = _coroot(rs, a2)
    h12 = _coroot(rs, both)
    assert h12 == [x + y for x, y in zip(h1, h2)]
    hneg = _coroot(rs, tuple(-x for x in a1))
    assert hneg == [-x for x in h1]


def test_sl2_coroot_evaluation():
    rs = build_root_system("A", 1)
    alpha = rs.simple_roots[0]
    h = _coroot(rs, alpha)
    # alpha(h_alpha) = (h_alpha | h_alpha) = 1/2
    assert killing_form(rs, h, h) == GaussianRational(Fraction(1, 2))


def test_height_then_lex_ordering():
    rs = build_root_system("A", 3)
    heights = [sum(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    for h in set(heights):
        group = [r for r in rs.positive_roots if sum(r) == h]
        assert group == sorted(group)


def test_json_serialization():
    rs = build_root_system("A", 2)
    doc = rs.to_json()
    assert doc["type"] == "A2"
    assert doc["cartan_matrix"] == [[2, -1], [-1, 2]]
    assert len(doc["roots"]) == 6
    assert all(len(t) == 4 for t in doc["structure_constants"])


@pytest.mark.parametrize("series,rank", sorted(DUAL_COXETER))
def test_killing_gram_gives_cartan_matrix(series, rank):
    rs = build_root_system(series, rank)
    simple = rs.simple_roots
    for i in range(rank):
        for j in range(rank):
            ij = Fraction(rs.root_pairing(simple[i], simple[j]), rs.gram_den)
            jj = Fraction(rs.root_pairing(simple[j], simple[j]), rs.gram_den)
            assert 2 * ij / jj == rs.cartan_matrix[i][j]


@pytest.mark.parametrize("series,rank", sorted(DUAL_COXETER))
def test_highest_root_norm_is_inverse_dual_coxeter(series, rank):
    rs = build_root_system(series, rank)
    highest = rs.positive_roots[-1]
    norm = Fraction(rs.root_pairing(highest, highest), rs.gram_den)
    assert norm == Fraction(1, DUAL_COXETER[(series, rank)])


@pytest.mark.parametrize("series,rank", sorted(DUAL_COXETER))
def test_gram_is_the_fraction_inverse(series, rank):
    # gram / gram_den in lowest terms: gram_den is the least denominator
    rs = build_root_system(series, rank)
    g = fraction_killing_h(rs)
    assert rs.gram_den > 0 and gcd(rs.gram_den, *(x for row in rs.gram for x in row)) == 1
    for i in range(rank):
        for j in range(rank):
            assert type(rs.gram[i][j]) is int
            assert Fraction(rs.gram[i][j], rs.gram_den) == g[i][j]


# every type up to rank 8
ALL_TYPES = [
    *(("A", n) for n in range(1, 9)), *(("B", n) for n in range(2, 9)),
    *(("C", n) for n in range(3, 9)), *(("D", n) for n in range(4, 9)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_gram_inverts_the_cartan_dual_gram(series, rank):
    # C gram = gram_den 1, a literal equality of ints
    rs = build_root_system(series, rank)
    c, g = rs.cartan_dual_gram, rs.gram
    product = [[sum(c[i][k] * g[k][j] for k in range(rank)) for j in range(rank)] for i in range(rank)]
    assert product == [[rs.gram_den if i == j else 0 for j in range(rank)] for i in range(rank)]


def _fraction_pairing(rs, alpha, beta):
    """(alpha | beta) summed term by term over the Fraction Gram."""
    g = fraction_killing_h(rs)
    return sum(
        (Fraction(alpha[i]) * g[i][j] * beta[j] for i in range(rs.rank) for j in range(rs.rank)),
        Fraction(0),
    )


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)],
)
def test_integer_pairing_matches_fraction_sum(series, rank):
    rs = build_root_system(series, rank)
    for a in rs.roots:
        for b in rs.roots:
            pairing = rs.root_pairing(a, b)
            assert type(pairing) is int
            assert Fraction(pairing, rs.gram_den) == _fraction_pairing(rs, a, b)


@pytest.mark.parametrize(
    "series,rank", [("A", 1), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]
)
def test_root_values_match_fraction_sum(series, rank):
    rs = build_root_system(series, rank)
    for a in rs.roots:
        expect = [GaussianRational(_fraction_pairing(rs, s, a)) for s in rs.simple_roots]
        assert root_values(rs, a) == expect


@pytest.mark.parametrize("series,rank", sorted(DUAL_COXETER))
def test_root_index_and_index_root_are_inverse(series, rank):
    rs = build_root_system(series, rank)
    for k, r in enumerate(rs.positive_roots):
        neg = tuple(-x for x in r)
        assert rs.root_index(r) == rs.rank + k
        assert rs.root_index(neg) == rs.rank + rs.npos + k
    for idx in range(rs.rank, rs.dim):
        assert rs.root_index(rs.index_root(idx)) == idx
    assert sorted(rs.root_index(r) for r in rs.roots) == list(range(rs.rank, rs.dim))
    for r in rs.roots:
        assert rs.index_root(rs.root_index(r)) == r


def test_root_system_is_released_when_unreferenced():
    rs = RootSystem(SimpleType("G", 2))
    assert rs._n[tuple(rs.simple_roots)]  # the Chevalley constants are built
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


def test_casimir_cybe_is_computed_once():
    rs = RootSystem(SimpleType("A", 2))
    first = rs.casimir_cybe
    assert casimir_cybe(rs) == cybe(rs.casimir, rs.structure)
    assert first[1]  # the Casimir is not a solution of the CYBE
    assert rs.casimir_cybe is first


@pytest.mark.parametrize("series,rank", sorted(CLASSICAL_COUNTS))
def test_integer_pair_search_matches_tuple_reference(series, rank):
    rs = RootSystem(SimpleType(series, rank))
    positive, extraspecial, consts = reference_structure_constants(rs)
    assert rs.positive_roots == positive
    roots = rs.roots  # _extraspecial holds positions in rs.roots
    pairs = {roots[g]: (roots[k], roots[l]) for g, (k, l) in rs._extraspecial.items()}
    assert pairs == extraspecial
    assert list(pairs.items()) == list(extraspecial.items())
    assert rs._n == consts
    assert list(rs._n.items()) == list(consts.items())
    # the lazy table keeps the order of the eager one: root brackets in
    # the order of _n, then those with h_i and the [x_g, x_-g]
    keys = [(rs.root_index(a), rs.root_index(b)) for a, b in consts]
    order = list(rs.structure.table)
    assert order[: len(keys)] == keys
    assert all(min(k) < rs.rank or abs(k[0] - k[1]) == rs.npos for k in order[len(keys) :])
    # roots are coded _BITS bits per coordinate: a sum or difference of two
    # roots must stay inside the signed range of one field
    top = max(max(r) for r in rs.positive_roots)
    assert top < 128 and 2 * top < 1 << (_BITS - 1)


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
     ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7)],
)
def test_casimir_cybe_equals_the_three_bracket_cybe(series, rank):
    """The one-bracket integer sum equals the three-bracket integer
    kernel and the GaussianRational accumulator."""
    rs = RootSystem(SimpleType(series, rank))
    got = casimir_cybe(rs)
    assert got == cybe(rs.casimir, rs.structure)
    assert got == reference_cybe(rs.casimir, rs.structure)
    # real: one int per nonzero key over one int denominator
    den, acc = rs.casimir_cybe
    assert type(den) is int and den > 0 and all(type(v) is int and v for v in acc.values())
    if (series, rank) in (("A", 2), ("G", 2)):
        assert got == _cybe_bruteforce(rs.casimir, rs.structure)


def test_structure_table_is_built_on_first_read():
    rs = RootSystem(SimpleType("B", 3))
    assert "structure" not in vars(rs)
    table = rs.structure
    assert vars(rs)["structure"] is table and rs.structure is table


NO_SCALAR_TYPES = [
    ("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
]


@pytest.mark.parametrize("series,rank", NO_SCALAR_TYPES)
def test_root_system_builds_no_scalar(monkeypatch, series, rank):
    """Building a root system, then reading its bracket table, Casimir and
    CYB(Omega), constructs no GaussianRational, by the constructor or by
    arithmetic: root norms, scales and brackets are ints."""
    made = []
    new, init = core._new, core.GaussianRational.__init__

    def counting_new(cls):
        if cls is core.GaussianRational:
            made.append("new")
        return new(cls)

    def counting_init(self, *args):
        made.append("init")
        init(self, *args)

    monkeypatch.setattr(core, "_new", counting_new)
    monkeypatch.setattr(core.GaussianRational, "__init__", counting_init)
    rs = RootSystem(SimpleType(series, rank))  # its own, so nothing is cached
    assert rs.structure.table and rs.casimir.num and rs.casimir_cybe[1]
    assert made == []
    # positive control: the hooks count a scalar made here, either way
    GaussianRational.parse("1/2"), GaussianRational(1)
    assert made == ["new", "init"]
