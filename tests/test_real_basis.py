"""Real-form coordinates and both doubles against dense references.

The library inverts the block-diagonal basis matrix W of a real form
block by block and works on nonzeros only; tests/oracles.py holds the
dense matrix algebra (W^-1 by elimination, brackets through ad
matrices) that the results must equal exactly.
"""

import pytest

from liebialg import linalg
from liebialg.bdtriple import BDTriple
from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, ZERO
from liebialg.involution import canonical_involution, fixed_point_basis, real_structure_constants
from liebialg.manin import double_factorizable, double_imaginary, real_killing_gram
from liebialg.parameter import apply_reality, solve_parameters
from liebialg.rmatrix import iter_data, make_datum
from liebialg.rootsystem import build_root_system
from oracles import (
    bracket,
    dense_coordinates,
    dense_inverse,
    dense_real_killing_gram,
    dense_real_structure_constants,
    dense_tensor_coordinates,
)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def _bases(series, rank):
    rs = build_root_system(series, rank)
    return rs, [fixed_point_basis(rs, sigma) for sigma in _sigma_variants(rs, "all")]


@pytest.mark.parametrize("series, rank", TYPES)
def test_coordinates_of_brackets_match_dense(series, rank):
    rs, bases = _bases(series, rank)
    for basis in bases:
        winv = dense_inverse(basis)
        for u in basis.vectors:
            for v in basis.vectors:
                br = bracket(rs.structure, u, v)
                coords = basis.coordinates(br)
                assert coords is not None
                assert coords == dense_coordinates(basis, br, winv)


@pytest.mark.parametrize("series, rank", TYPES)
def test_coordinates_reject_i_times_a_fixed_vector(series, rank):
    _, bases = _bases(series, rank)
    for basis in bases:
        total = [sum(col, ZERO) for col in zip(*basis.vectors)]
        for v in basis.vectors + [total]:
            assert any(v)
            assert basis.coordinates([I * x for x in v]) is None


@pytest.mark.parametrize("series, rank", TYPES)
def test_structure_constants_and_killing_gram_match_dense(series, rank):
    rs, bases = _bases(series, rank)
    for basis in bases:
        assert real_structure_constants(rs, basis) == dense_real_structure_constants(rs, basis)
        assert real_killing_gram(rs, basis) == dense_real_killing_gram(rs, basis)


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
            assert basis.tensor_coordinates(x) == dense_tensor_coordinates(basis, x, winv)


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
    # from here no elimination or determinant may run
    for name in ("mat_vec", "inverse", "rref", "det", "rank"):
        monkeypatch.setattr(linalg, name, _dense_linear_algebra)
    assert all(double_factorizable(b3, b3_datum).verify().values())
    assert all(double_imaginary(a3, a3_datum).verify().values())
