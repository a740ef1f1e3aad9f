import gc
import weakref

import pytest

from liebialg import involution, linalg, realform
from liebialg.bdtriple import DiagramAutomorphism, identity_automorphism
from liebialg.cli import _sigma_variants
from liebialg.core import I, ONE, ZERO, GaussianRational
from liebialg.involution import canonical_involution, fixed_point_basis
from liebialg.realform import cartan_involution, identify, theta_action_on_real_basis
from liebialg.rootsystem import RootSystem, SimpleType, build_root_system
from oracles import (
    conjugate,
    identity,
    involution_matrix,
    is_positive_definite,
    mat_mul,
    monomial_involution,
    nullspace,
    rescaling_automorphism,
    sigma_root_action,
    theta_twisted_gram,
)


def test_theta_of_compact_is_identity():
    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    theta = cartan_involution(rs, om)
    assert involution_matrix(theta) == identity(rs.dim)
    report = identify(rs, om)
    assert report.dim_p == 0 and report.dim_k == rs.dim
    assert report.character == -rs.dim


def test_theta_squares_to_identity_and_commutes():
    rs = build_root_system("A", 2)
    flip = DiagramAutomorphism((1, 0))
    for sigma in [
        canonical_involution(rs, "varsigma"),
        canonical_involution(rs, "varsigma", flip),
        canonical_involution(rs, "omega", None, (0,)),
        canonical_involution(rs, "omega", flip, ()),
    ]:
        theta = cartan_involution(rs, sigma)
        t, m = involution_matrix(theta), involution_matrix(sigma)
        assert mat_mul(t, t) == identity(rs.dim)
        # theta sigma = sigma theta as semilinear maps:
        # matrices: T * M == M * conj(T)
        assert mat_mul(t, m) == mat_mul(m, conjugate(t))


def test_split_a1_dimensions():
    rs = build_root_system("A", 1)
    vs = canonical_involution(rs, "varsigma")
    report = identify(rs, vs)
    assert report.name == "sl(2,R)"
    assert (report.dim_k, report.dim_p) == (1, 2)
    assert (report.dc, report.dnc) == (0, 1)
    assert not report.maximally_compact


def test_su12_report():
    rs = build_root_system("A", 2)
    report = identify(rs, canonical_involution(rs, "varsigma", DiagramAutomorphism((1, 0))))
    assert report.name == "su(1,2)"
    assert (report.dim_k, report.dim_p) == (4, 4)
    assert report.character == 0
    assert (report.dc, report.dnc) == (1, 1)


def test_sl3r_report():
    rs = build_root_system("A", 2)
    report = identify(rs, canonical_involution(rs, "omega", DiagramAutomorphism((1, 0)), ()))
    assert report.name == "sl(3,R)"
    assert report.character == 2
    assert report.vogan_painted == ()
    assert report.maximally_compact


def test_compact_su2():
    rs = build_root_system("A", 1)
    report = identify(rs, canonical_involution(rs, "omega", None, (0,)))
    assert report.name == "su(2)"
    assert report.character == -3


@pytest.mark.parametrize(
    "series,rank,J,expected",
    [
        ("A", 2, (1,), "su(1,2)"),
        ("A", 2, (0,), "su(1,2)"),
        ("A", 3, (1, 2), "su(1,3)"),
        ("A", 3, (0, 2), "su(2,2)"),
        ("B", 2, (1,), "so(2,3)"),
        ("B", 2, (0,), "so(1,4)"),
        ("G", 2, (0,), "G"),
        ("G", 2, (1,), "G"),
    ],
)
def test_omega_j_names(series, rank, J, expected):
    rs = build_root_system(series, rank)
    report = identify(rs, canonical_involution(rs, "omega", None, J))
    assert report.name == expected


def test_d4_star_form():
    rs = build_root_system("D", 4)
    # painted at a spinor node (j > n - 2) gives the star form
    J = (0, 1, 2)  # painted = {3}
    report = identify(rs, canonical_involution(rs, "omega", None, J))
    assert report.name == "so*(8)"
    J = (1, 2, 3)  # painted = {0}: so(2, 6)
    report = identify(rs, canonical_involution(rs, "omega", None, J))
    assert report.name == "so(2,6)"


def test_omega_mu_names_a3():
    rs = build_root_system("A", 3)
    flip = DiagramAutomorphism((2, 1, 0))
    assert identify(rs, canonical_involution(rs, "omega", flip, (1,))).name == "sl(2,H)"
    assert identify(rs, canonical_involution(rs, "omega", flip, ())).name == "sl(4,R)"
    assert identify(rs, canonical_involution(rs, "varsigma", flip)).name == "su(2,2)"


def test_varsigma_split_names():
    cases = [
        ("A", 3, "sl(4,R)"),
        ("B", 2, "so(2,3)"),
        ("C", 3, "sp(3,R)"),
        ("D", 4, "so(4,4)"),
        ("G", 2, "G"),
    ]
    for series, rank, name in cases:
        rs = build_root_system(series, rank)
        report = identify(rs, canonical_involution(rs, "varsigma"))
        assert report.name == name
        assert report.dc == 0 and report.dnc == rank
        assert report.character == rank


def test_unnormalized_when_overpainted():
    rs = build_root_system("A", 3)
    report = identify(rs, canonical_involution(rs, "omega", None, (1,)))
    # painted = {0, 2}: two vertices, no table name
    assert report.name == "unnormalized"
    assert report.dim_k + report.dim_p == rs.dim


def test_theta_twisted_form_positive_definite():
    for series, rank, kind, perm, J in [
        ("A", 2, "varsigma", None, ()),
        ("A", 2, "omega", None, (0,)),
        ("B", 2, "omega", None, ()),
        ("A", 3, "omega", (2, 1, 0), (1,)),
        ("G", 2, "varsigma", None, ()),
    ]:
        rs = build_root_system(series, rank)
        mu = DiagramAutomorphism(perm) if perm else None
        sigma = canonical_involution(rs, kind, mu, J)
        theta = cartan_involution(rs, sigma)
        basis = fixed_point_basis(rs, sigma)
        gram = theta_twisted_gram(rs, theta, basis)
        assert is_positive_definite(gram)


def test_compact_roots_are_those_in_j():
    # theta acts as +1 on the root space of a simple root iff it is in J
    rs = build_root_system("B", 2)
    J = (0,)
    sigma = canonical_involution(rs, "omega", None, J)
    theta = cartan_involution(rs, sigma)
    for i, alpha in enumerate(rs.simple_roots):
        idx = rs.root_index(alpha)
        col = [involution_matrix(theta)[k][idx] for k in range(rs.dim)]
        expect = [GaussianRational(0)] * rs.dim
        expect[idx] = GaussianRational(1 if i in J else -1)
        assert col == expect


def test_exceptional_painted_names():
    rs = build_root_system("F", 4)
    # long-end vertex 1 -> split FI; short-end vertex 4 -> FII
    rep = identify(rs, canonical_involution(rs, "omega", None, (1, 2, 3)))
    assert rep.name == "FI" and rep.character == 4
    rep = identify(rs, canonical_involution(rs, "omega", None, (0, 1, 2)))
    assert rep.name == "FII" and rep.character == -20


def test_e6_painted_names():
    rs = build_root_system("E", 6)
    fixed = tuple(range(6))
    # short-branch extreme (Bourbaki vertex 2) -> EII
    j = tuple(sorted(set(fixed) - {1}))
    rep = identify(rs, canonical_involution(rs, "omega", None, j))
    assert rep.name == "EII" and rep.character == 2
    # long-branch extreme (vertex 1) -> EIII
    j = tuple(sorted(set(fixed) - {0}))
    rep = identify(rs, canonical_involution(rs, "omega", None, j))
    assert rep.name == "EIII" and rep.character == -14


def test_c_painted_names():
    # painting the long end vertex n of C_n gives sp(n,R), with k = u(n);
    # painting vertex j < n gives sp(j,n-j), with k = sp(j) + sp(n-j)
    cases = [
        (3, 3, "sp(3,R)", 3),
        (4, 4, "sp(4,R)", 4),
        (3, 1, "sp(1,2)", -5),
        (4, 2, "sp(2,2)", -4),
    ]
    for rank, vertex, name, character in cases:
        rs = build_root_system("C", rank)
        j = tuple(i for i in range(rank) if i != vertex - 1)
        rep = identify(rs, canonical_involution(rs, "omega", None, j))
        assert rep.name == name and rep.character == character


ORACLE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def _nullity(mat, shift):
    n = len(mat)
    return len(nullspace(
        [[mat[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
    ))


@pytest.mark.parametrize("series, rank", ORACLE_TYPES)
def test_trace_dims_match_real_basis_eigenspaces(series, rank):
    # reference: theta on the explicit real basis of g^sigma, eigenspaces
    # by elimination, the Cartan part being the leading h_vectors block
    rs = build_root_system(series, rank)
    for sigma in _sigma_variants(rs, "all"):
        basis = fixed_point_basis(rs, sigma)
        t = theta_action_on_real_basis(rs, cartan_involution(rs, sigma), basis)
        h = basis.h_vectors
        t_h = [row[:h] for row in t[:h]]
        report = identify(rs, sigma)
        assert (report.dim_k, report.dim_p, report.dc, report.dnc) == (
            _nullity(t, 1), _nullity(t, -1), _nullity(t_h, 1), _nullity(t_h, -1)
        )


def _roots_vanishing_on(rs, theta, sign):
    """Reference root sets: the roots vanishing on the sign eigenspace of
    theta on h, that eigenspace found by elimination on the leading
    rank x rank block of theta's matrix."""
    n, m = rs.rank, involution_matrix(theta)
    block = [[m[i][j] - (sign if i == j else 0) for j in range(n)] for i in range(n)]
    part = nullspace(block)
    return [
        g for g in rs.roots
        if not any(sum((v[i] * w for i, w in enumerate(rs.root_values(g))), ZERO) for v in part)
    ]


def _theta_star(rs, sigma):
    """gamma -> theta* gamma, read off theta's columns by sigma_root_action."""
    action = sigma_root_action(rs, cartan_involution(rs, sigma))
    return {g: image for g, (image, _) in action.items()}


def test_no_imaginary_roots_for_varsigma_mu():
    # varsigma o mu has a maximally split Cartan: theta* fixes no root
    rs = build_root_system("A", 3)
    sigma = canonical_involution(rs, "varsigma", DiagramAutomorphism((2, 1, 0)))
    star = _theta_star(rs, sigma)
    assert [g for g in rs.roots if star[g] == g] == []
    assert _roots_vanishing_on(rs, cartan_involution(rs, sigma), -1) == []


def test_no_real_roots_for_omega_mu():
    # omega o mu has a maximally compact Cartan: theta* negates no root
    rs = build_root_system("A", 3)
    sigma = canonical_involution(rs, "omega", DiagramAutomorphism((2, 1, 0)), (1,))
    star = _theta_star(rs, sigma)
    assert [g for g in rs.roots if star[g] == tuple(-x for x in g)] == []
    assert _roots_vanishing_on(rs, cartan_involution(rs, sigma), 1) == []


@pytest.mark.parametrize("series, rank", ORACLE_TYPES)
def test_root_sets_match_theta_star(series, rank):
    # imaginary roots (vanishing on the -1 part of h) are those theta* fixes,
    # real roots (vanishing on the +1 part) those theta* negates
    rs = build_root_system(series, rank)
    for sigma in _sigma_variants(rs, "all"):
        theta = cartan_involution(rs, sigma)
        star = _theta_star(rs, sigma)
        assert _roots_vanishing_on(rs, theta, -1) == [g for g in rs.roots if star[g] == g]
        assert _roots_vanishing_on(rs, theta, 1) == [
            g for g in rs.roots if star[g] == tuple(-x for x in g)
        ]


def _broken_theta(monkeypatch, edit):
    def broken(rs, sigma):
        m = involution_matrix(cartan_involution(rs, sigma))
        edit(m)
        return monomial_involution(m)

    monkeypatch.setattr(realform, "cartan_involution", broken)


def test_identify_rejects_theta_not_squaring_to_one(monkeypatch):
    rs = build_root_system("A", 2)
    col = rs.root_index((1, 0))

    def scale_root_column(m):
        for row in m:
            row[col] = row[col] * 2

    _broken_theta(monkeypatch, scale_root_column)
    with pytest.raises(AssertionError, match="not an involution"):
        identify(rs, canonical_involution(rs, "varsigma"))


def test_identify_accepts_theta_conjugated_by_complex_torus(monkeypatch):
    # D theta D^-1 for a complex torus element D still squares to 1 and
    # preserves h, but its entries are not real: the guards must take the
    # linear square, not theta conj(theta)
    rs = build_root_system("A", 2)
    sigma = canonical_involution(rs, "varsigma")
    want = identify(rs, sigma).to_json()
    d = rescaling_automorphism(rs, {0: ONE + I, 1: GaussianRational(2)})
    d_inv = linalg.inverse(d)

    def conjugate_by_d(m):
        m[:] = mat_mul(d, mat_mul(m, d_inv))
        assert any(not x.is_real() for row in m for x in row)

    _broken_theta(monkeypatch, conjugate_by_d)
    assert identify(rs, sigma).to_json() == want


def test_identify_rejects_theta_moving_h(monkeypatch):
    # conjugate theta by the permutation P that swaps h_1 and x_alpha1,
    # its own inverse: still an involution, and still one entry per column
    rs = build_root_system("A", 2)
    r = rs.root_index((1, 0))
    p = identity(rs.dim)
    p[0][0] = p[r][r] = ZERO
    p[0][r] = p[r][0] = ONE

    def conjugate(m):
        m[:] = mat_mul(p, mat_mul(m, p))

    _broken_theta(monkeypatch, conjugate)
    with pytest.raises(AssertionError, match="does not preserve h"):
        identify(rs, canonical_involution(rs, "varsigma"))


def test_compact_omega_is_built_once_per_root_system(monkeypatch):
    """identify composes each sigma with the compact omega, whose bracket
    recursion runs once per root system: the template cache of
    canonical_involution holds it."""
    rs = RootSystem(SimpleType("A", 3))  # a fresh instance, not the shared one
    flip = DiagramAutomorphism((2, 1, 0))
    sigmas = [canonical_involution(rs, "varsigma"), canonical_involution(rs, "varsigma", flip)]
    built, template = [], involution._Template

    def counting(*args):
        built.append(args)
        return template(*args)

    monkeypatch.setattr(involution, "_Template", counting)
    names = [identify(rs, sigma).name for sigma in sigmas]
    assert names == ["sl(4,R)", "su(2,2)"]
    assert built == [(rs, "omega", identity_automorphism(3))]


def test_compact_omega_cache_releases_its_root_system():
    rs = RootSystem(SimpleType("G", 2))
    assert identify(rs, canonical_involution(rs, "varsigma")).name == "G"
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None
