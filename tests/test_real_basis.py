"""Real-form coordinates and both doubles against dense references.

The library inverts the block-diagonal basis matrix W of a real form
block by block and works on nonzeros only; tests/oracles.py holds the
dense matrix algebra (W^-1 by elimination, brackets through ad
matrices) whose nonzeros, in index order, the sparse results must equal
exactly.
"""

import pytest

from liebialg import core, linalg
from liebialg.bdtriple import BDTriple
from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, ZERO, gaussian, over_lcm
from liebialg.involution import canonical_involution, fixed_point_basis, real_structure_constants
from liebialg.manin import double_factorizable, double_imaginary, real_killing_gram
from liebialg.parameter import apply_reality, solve_parameters
from liebialg.rmatrix import iter_data, make_datum
from liebialg.rootsystem import build_root_system
from oracles import (
    basis_vectors,
    bracket,
    dense_coordinates,
    dense_inverse,
    dense_real_killing_gram,
    dense_real_structure_constants,
    dense_tensor_coordinates,
    scalar_table,
    sparse_vector,
)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def _bases(series, rank):
    rs = build_root_system(series, rank)
    return rs, [fixed_point_basis(rs, sigma) for sigma in _sigma_variants(rs, "all")]


def _terms(v: list) -> list:
    """The nonzero (i, x) of a dense vector, by increasing i."""
    return list(sparse_vector(v).items())


def _int_coordinates(basis, v: list) -> tuple | None:
    """term_coordinates of a dense vector, handed over as Gaussian-integer
    terms over one denominator, its real coordinates read back as
    scalars; None if it reports one that is not real."""
    terms = _terms(v)
    den, z = over_lcm((x.a, x.b, x.d) for _, x in terms)
    coords = basis.term_coordinates((i, p) for (i, _), p in zip(terms, z))
    if coords is None:
        return None
    return tuple((k, gaussian(c, 0, den * basis.inverse_den)) for k, c in coords)


@pytest.mark.parametrize("series, rank", TYPES)
def test_coordinates_of_brackets_match_dense(series, rank):
    rs, bases = _bases(series, rank)
    for basis in bases:
        winv = dense_inverse(basis)
        vectors = basis_vectors(basis)
        for u in vectors:
            for v in vectors:
                br = bracket(rs.structure, u, v)
                coords = _int_coordinates(basis, br)
                dense = dense_coordinates(basis, br, winv)
                assert dense is not None
                assert coords == tuple(_terms(dense))


@pytest.mark.parametrize("series, rank", TYPES)
def test_coordinates_reject_i_times_a_fixed_vector(series, rank):
    _, bases = _bases(series, rank)
    for basis in bases:
        winv = dense_inverse(basis)
        vectors = basis_vectors(basis)
        total = [sum(col, ZERO) for col in zip(*vectors)]
        for v in vectors + [total]:
            assert any(v)
            iv = [I * x for x in v]
            assert dense_coordinates(basis, iv, winv) is None
            assert _int_coordinates(basis, iv) is None


@pytest.mark.parametrize("series, rank", TYPES)
def test_structure_constants_and_killing_gram_match_dense(series, rank):
    rs, bases = _bases(series, rank)
    for basis in bases:
        table = scalar_table(real_structure_constants(rs, basis))
        assert table == dense_real_structure_constants(rs, basis)
        rows, den = real_killing_gram(rs, basis), basis.den**2 * rs.gram_den
        dense = dense_real_killing_gram(rs, basis)
        assert [[(j, gaussian(x, 0, den)) for j, x in row.items()] for row in rows] == [
            _terms(row) for row in dense
        ]


@pytest.mark.parametrize("series, rank", TYPES)
def test_tensor_coordinates_of_data_match_dense(series, rank):
    rs = build_root_system(series, rank)
    bases = {}
    for sigma, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        if sigma not in bases:
            basis = fixed_point_basis(rs, sigma)
            bases[sigma] = basis, dense_inverse(basis)
        basis, winv = bases[sigma]
        for x in (datum.r, datum.r0):
            dense = dense_tensor_coordinates(basis, x, winv)
            expected = [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]
            assert list(basis.tensor_coordinates(x).items()) == expected


def _dense_linear_algebra(*args):
    raise AssertionError("dense linear algebra on the path of the double")


def test_doubles_build_and_verify_without_dense_linear_algebra(monkeypatch):
    # the rank-3 doubles: B3 split with t = 2, compact A3 with t = i
    empty = BDTriple.empty()
    b3 = build_root_system("B", 3)
    vs = canonical_involution(b3, "varsigma")
    space = apply_reality(solve_parameters(b3, empty), vs.describe(), vs.mu, empty)
    b3_datum = make_datum(b3, vs, empty, space.base_point, GaussianRational(2))
    a3 = build_root_system("A", 3)
    om = canonical_involution(a3, "omega", None, (0, 1, 2))
    space = apply_reality(solve_parameters(a3, empty), om.describe(), om.mu, empty)
    a3_datum = make_datum(a3, om, empty, space.base_point, I)
    # the root systems are built (their Killing form inverts a matrix);
    # from here no dense matrix, elimination or determinant may be made
    for name in ("inverse", "rref", "det", "rank"):
        monkeypatch.setattr(linalg, name, _dense_linear_algebra)
    doubles = [
        (b3, b3_datum, double_factorizable(b3, b3_datum)),
        (a3, a3_datum, double_imaginary(a3, a3_datum)),
    ]
    # r and the bracket table are read before counting starts; the checks
    # on them, verify and the CYBE of r, run in ints and make no scalar,
    # by the constructor or by arithmetic
    checks = [(double, datum.r, rs.structure) for rs, datum, double in doubles]
    made = [0]
    new, init = core._new, GaussianRational.__init__

    def counting_new(cls):
        made[0] += cls is GaussianRational
        return new(cls)

    def counting_init(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(core, "_new", counting_new)
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    for double, r, structure in checks:
        assert all(double.verify().values())
        assert core.cybe_is_zero(r, structure)
    assert made[0] == 0
    GaussianRational(3), I * I  # positive control: the hooks see both ways
    assert made[0] == 2
