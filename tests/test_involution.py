import gc
import hashlib
import json
import math
import weakref
from fractions import Fraction

import pytest

from liebialg import bdtriple, core, involution, linalg
from liebialg.bdtriple import DiagramAutomorphism, diagram_automorphisms
from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, ONE, ZERO
from liebialg.involution import canonical_involution, fixed_point_basis, real_structure_constants
from liebialg.rootsystem import RootSystem, SimpleType, build_root_system
from oracles import (
    apply_involution,
    basis_vectors,
    bracket,
    conjugate,
    identity,
    imag_part,
    involution_matrix,
    killing_form,
    mat_mul,
    mat_vec,
    monomial_involution,
    real_part,
    reference_canonical_involution,
    rescaling_automorphism,
    scalar_table,
    sigma_root_action,
)


def _unit(rs, idx):
    v = [ZERO] * rs.dim
    v[idx] = ONE
    return v


def is_algebra_map(rs, sigma):
    st = rs.structure
    for i in range(rs.dim):
        for j in range(rs.dim):
            vi, vj = _unit(rs, i), _unit(rs, j)
            lhs = apply_involution(sigma, bracket(st, vi, vj))
            if lhs != bracket(st, apply_involution(sigma, vi), apply_involution(sigma, vj)):
                return False
    return True


@pytest.mark.parametrize(
    "series,rank,kind,perm,J",
    [
        ("A", 1, "varsigma", None, ()),
        ("A", 1, "omega", None, (0,)),
        ("A", 1, "omega", None, ()),
        ("A", 2, "varsigma", (1, 0), ()),
        ("A", 2, "omega", (1, 0), ()),
        ("B", 2, "omega", None, (1,)),
        ("G", 2, "omega", None, (0, 1)),
        ("A", 3, "omega", (2, 1, 0), (1,)),
    ],
)
def test_canonical_involutions_are_involutive_algebra_maps(series, rank, kind, perm, J):
    rs = build_root_system(series, rank)
    mu = DiagramAutomorphism(perm) if perm else None
    sigma = canonical_involution(rs, kind, mu, J)
    m = involution_matrix(sigma)
    assert mat_mul(m, conjugate(m)) == identity(rs.dim)
    assert is_algebra_map(rs, sigma)


def test_omega_action_on_generators():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    alpha = rs.simple_roots[0]
    xp = _unit(rs, rs.root_index(alpha))
    xm = _unit(rs, rs.root_index((-1,)))
    h = _unit(rs, 0)
    assert apply_involution(om, xp) == [-x for x in xm]
    assert apply_involution(om, xm) == [-x for x in xp]
    assert apply_involution(om, h) == [-x for x in h]


def test_omega_mu_j_negates_cartan():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    om = canonical_involution(rs, "omega", flip, (1,))
    for i in range(3):
        image = apply_involution(om, _unit(rs, i))
        expect = [ZERO] * rs.dim
        expect[flip(i)] = -ONE
        assert image == expect


def test_varsigma_fixed_points_are_chevalley_real_span():
    rs = build_root_system("A", 2)
    vs = canonical_involution(rs, "varsigma")
    assert involution_matrix(vs) == identity(rs.dim)
    basis = fixed_point_basis(rs, vs)
    for v in basis_vectors(basis):
        assert all(x.is_real() for x in v)


def test_compact_fixed_points_a1():
    rs = build_root_system("A", 1)
    om = canonical_involution(rs, "omega", None, (0,))
    basis = fixed_point_basis(rs, om)
    ip = rs.root_index((1,))
    im = rs.root_index((-1,))
    expected = []
    for spec in [{0: I}, {ip: ONE, im: -ONE}, {ip: I, im: I}]:
        v = [ZERO] * rs.dim
        for k, c in spec.items():
            v[k] = c
        expected.append(v)
    assert basis_vectors(basis) == expected
    assert basis.h_vectors == 1


def test_fixed_basis_h0_patterns():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    # split: R h_1 + R h_2
    vs = canonical_involution(rs, "varsigma")
    b = basis_vectors(fixed_point_basis(rs, vs))
    assert b[0][0] == ONE and b[1][1] == ONE
    # compact: i R h
    om = canonical_involution(rs, "omega", None, (0, 1))
    b = basis_vectors(fixed_point_basis(rs, om))
    assert b[0][0] == I and b[1][1] == I
    # omega with flip: i(h_1 + h_2) and h_1 - h_2
    omf = canonical_involution(rs, "omega", flip, ())
    b = basis_vectors(fixed_point_basis(rs, omf))
    assert b[0][:2] == [I, I]
    assert b[1][:2] == [ONE, -ONE]
    # varsigma with flip: h_1 + h_2 and i(h_1 - h_2)
    vsf = canonical_involution(rs, "varsigma", flip)
    b = basis_vectors(fixed_point_basis(rs, vsf))
    assert b[0][:2] == [ONE, ONE]
    assert b[1][:2] == [I, -I]


def test_fixed_basis_counts_and_fixedness():
    for series, rank, kind, perm, J in [
        ("A", 2, "omega", (1, 0), ()),
        ("B", 2, "omega", None, (0,)),
        ("A", 3, "varsigma", (2, 1, 0), ()),
    ]:
        rs = build_root_system(series, rank)
        mu = DiagramAutomorphism(perm) if perm else None
        sigma = canonical_involution(rs, kind, mu, J)
        basis = fixed_point_basis(rs, sigma)
        assert basis.count == rs.dim
        mat = []
        for v in basis_vectors(basis):
            mat.append([real_part(x) for x in v])
            mat[-1] += [imag_part(x) for x in v]
        assert linalg.rank(mat) == rs.dim  # really a basis over R


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_real_structure_constants_close_and_jacobi(series, rank):
    # every canonical involution, su(2) (omega, J = {1} on A1) among them
    rs = build_root_system(series, rank)
    for sigma in _sigma_variants(rs, "all"):
        basis = fixed_point_basis(rs, sigma)
        table = scalar_table(real_structure_constants(rs, basis))
        n = basis.count
        for (i, j), terms in table.items():
            assert all(c.is_real() for _, c in terms)
        # Jacobi in the real coordinates
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cf in table.get((b, c), ()):
                            for q, cf2 in table.get((a, m), ()):
                                acc[q] = acc.get(q, ZERO) + cf * cf2
                    assert not any(acc.values())


def test_killing_conjugation_symmetry():
    # kappa(sigma x, sigma y) = conj(kappa(x, y))
    rs = build_root_system("A", 2)
    for sigma in [
        canonical_involution(rs, "omega", None, (0, 1)),
        canonical_involution(rs, "varsigma", DiagramAutomorphism((1, 0))),
    ]:
        for i in range(rs.dim):
            for j in range(rs.dim):
                x = _unit(rs, i)
                y = [ZERO] * rs.dim
                y[j] = GaussianRational(1, 1)  # complex input exercises conj
                lhs = killing_form(rs, apply_involution(sigma, x), apply_involution(sigma, y))
                assert lhs == killing_form(rs, x, y).conj()


def test_rescaling_is_automorphism():
    rs = build_root_system("A", 2)
    r = rescaling_automorphism(rs, {0: ONE + I, 1: GaussianRational(Fraction(2, 3))})
    st = rs.structure
    for i in range(rs.dim):
        for j in range(rs.dim):
            vi, vj = _unit(rs, i), _unit(rs, j)
            lhs = mat_vec(r, bracket(st, vi, vj))
            rhs = bracket(st, mat_vec(r, vi), mat_vec(r, vj))
            assert lhs == rhs


def test_root_action_rejects_root_vector_sent_into_h():
    rs = build_root_system("A", 2)
    m = involution_matrix(canonical_involution(rs, "varsigma"))
    col = rs.root_index((1, 1))
    for row in m:
        row[col] = ZERO
    m[0][col] = ONE  # x_(1,1) -> h_1
    with pytest.raises(ValueError, match="permute the root spaces"):
        sigma_root_action(rs, monomial_involution(m))


def test_j_must_be_mu_fixed():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    with pytest.raises(ValueError):
        canonical_involution(rs, "omega", flip, (0,))


ORACLE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
    ("G", 2), ("F", 4), ("E", 6),
]


@pytest.mark.parametrize("series,rank", ORACLE_TYPES)
def test_canonical_involutions_match_per_j_recursion(series, rank):
    """Each J only flips signs of the J-empty columns; the reference runs
    the bracket recursion afresh with the signs of J at the bottom."""
    rs = build_root_system(series, rank)
    for sigma in _sigma_variants(rs, "all"):
        ref = reference_canonical_involution(rs, sigma.kind, sigma.mu, sigma.J)
        fields = (sigma.images, sigma.den, sigma.scalars, sigma.kind, sigma.mu, sigma.J)
        assert fields == (ref.images, ref.den, ref.scalars, ref.kind, ref.mu, ref.J), (
            sigma.kind, sigma.mu.permutation, sigma.J
        )


LADDER = [
    *(("A", r) for r in range(1, 7)), *(("B", r) for r in range(2, 7)),
    *(("C", r) for r in range(3, 7)), *(("D", r) for r in range(4, 7)),
    ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
]


@pytest.mark.parametrize("series,rank", LADDER)
def test_integer_fields_are_canonical_on_every_type(series, rank):
    """Literal checks on the integer format of both structures: the
    table's den has no common factor with its ints, and each canonical
    involution's (den, scalars) has none either and is over_lcm of the
    scalars the reference recursion gives for its J."""
    rs = build_root_system(series, rank)
    st = rs.structure
    assert math.gcd(st.den, *(c for terms in st.table.values() for _, c in terms)) == 1
    for sigma in _sigma_variants(rs, "all"):
        assert math.gcd(sigma.den, *(x for pair in sigma.scalars for x in pair)) == 1
        ref = reference_canonical_involution(rs, sigma.kind, sigma.mu, sigma.J)
        assert (sigma.images, sigma.den, sigma.scalars) == (ref.images, ref.den, ref.scalars)


def test_involution_cache_releases_its_root_system():
    rs = RootSystem(SimpleType("D", 4))
    assert len(_sigma_variants(rs, "all")) == 32
    # the templates and the diagram symmetries are cached, both by weak key
    assert rs in involution._TEMPLATES and rs in bdtriple._AUTOMORPHISMS
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("series, rank", [("A", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)])
def test_templates_build_no_scalar(monkeypatch, series, rank):
    """Building the template of every (kind, mu), and every canonical
    involution from it, makes no GaussianRational, by the constructor or
    by arithmetic: the bracket recursion runs in ints.  A3, D4 and E6
    cover a nontrivial mu."""
    rs = RootSystem(SimpleType(series, rank))  # its own, so no template is cached
    autos = diagram_automorphisms(rs)
    made = []
    new, init = core._new, core.GaussianRational.__init__

    def counting_new(cls):
        if cls is core.GaussianRational:
            made.append(cls)
        return new(cls)

    def counting_init(self, *args):
        made.append(type(self))
        init(self, *args)

    monkeypatch.setattr(core, "_new", counting_new)
    monkeypatch.setattr(core.GaussianRational, "__init__", counting_init)
    for kind in ("varsigma", "omega"):
        for mu in autos:
            involution._Template(rs, kind, mu)
    assert _sigma_variants(rs, "all")
    assert made == []
    assert len(involution._TEMPLATES[rs]) == 2 * len(autos)
    assert (len(autos) > 1) == (series in "ADE")


# sha256 prefixes of each _sigma_variants(all) involution's dense matrix,
# taken while involutions were still stored as dense matrices
MATRIX_DIGESTS = {
    ("A", 3): (
        "8d8dd00cdf6c2706",
        "fdb2276d6d9a792f",
        "b39bcf49788eca72",
        "29005c298689cff3",
        "579e08ab1d0bd8be",
        "6f98db80edee3e38",
        "694a5291a4f775ee",
        "b2da5a2a7ff3c7c8",
        "b19e2694ee87c791",
        "318d519cafedb788",
        "32678e5ea4c2191f",
        "e86ecfe04403c843",
    ),
    ("B", 3): (
        "a58757d513f4fcfb",
        "1d4f9056777fd910",
        "edde46f25ee420b9",
        "cf2986335bd95adf",
        "0f1ee15a3f709159",
        "97d887c28e64373a",
        "62341eaaaacfc895",
        "a54e67ee6663a376",
        "ffc386adafecff24",
    ),
    ("C", 3): (
        "a58757d513f4fcfb",
        "947843353a32667f",
        "f7bd3c3cc75b9369",
        "5812785506ee3aa6",
        "0f3b091b7b04a395",
        "8789744bad4d4e64",
        "c89992f0e027b19e",
        "3fcdc22824fd8719",
        "d17cc3b837dcab53",
    ),
    ("D", 4): (
        "44f784b1892da40f",
        "73ff2d2f7ce8198e",
        "51ddc8fb533d0878",
        "631d6d3cc0c11f82",
        "ce4e624986b95e96",
        "49c2f0b904867dab",
        "156e206b1e74124e",
        "2f1174dcda24294e",
        "4c3a2580e4e2b515",
        "ea49100d81ac4f68",
        "bee2486e9fc8149d",
        "698db03a056a2d4c",
        "a7de81ca65d5a191",
        "e4ee8831f58649bf",
        "c961ef60d45350d8",
        "00906c085a9a3fee",
        "f5148cb489eabaca",
        "ab8fd1febaf6b473",
        "5a5d5ee8f6a6b2bf",
        "285405760422827f",
        "4817f7eff53dc707",
        "ff5e7140c5f28fac",
        "da572aed9ea9898c",
        "687326579af752bb",
        "5d3c67d12a2e5bb8",
        "6acb6e7a2f963e69",
        "25e0239f803069a0",
        "9787c98619b868f7",
        "de64ecc1de0645c8",
        "477d9fcd38e23fe7",
        "7e646f876e56aa14",
        "fb89529272e682aa",
    ),
    ("G", 2): (
        "400e3dbf5bb0678a",
        "38ba34e6b30202ab",
        "f3666756cbf13d57",
        "ce3cb976d05a568c",
        "32859899ec25b4b8",
    ),
    ("F", 4): (
        "427b0886bbf93448",
        "47bee5e8023eeef8",
        "a831c0cb125b21ea",
        "bd363d8c6d10315d",
        "c1115c593b52f2b4",
        "a78c9fe0a80867dc",
        "4ebba910c5ddadce",
        "21db40fb3250521e",
        "69d0424f9c768733",
        "49b7a9813386cf18",
        "5357bbcf75607e58",
        "4338fe0b5bcc3639",
        "3bdf5aef1f90203b",
        "696f971c9a32fe03",
        "3cbbf659d832a4ce",
        "0a474b4e4ba59485",
        "2021e1ca4175e96f",
    ),
}


def _matrix_digest(sigma) -> str:
    text = json.dumps([[x.to_json() for x in row] for row in involution_matrix(sigma)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("series,rank", sorted(MATRIX_DIGESTS))
def test_canonical_matrix_digests(series, rank):
    from liebialg.cli import _sigma_variants

    rs = build_root_system(series, rank)
    digests = tuple(_matrix_digest(s) for s in _sigma_variants(rs, "all"))
    assert digests == MATRIX_DIGESTS[(series, rank)]
