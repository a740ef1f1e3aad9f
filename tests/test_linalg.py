from fractions import Fraction

import pytest

from liebialg import linalg
from liebialg.core import GaussianRational, I, ONE, ZERO
from oracles import is_positive_definite


def g(x, y=0):
    return GaussianRational(x, y)


def test_rref_and_rank():
    m = [[g(1), g(2)], [g(2), g(4)]]
    assert linalg.rank(m) == 1
    assert linalg.rank([[g(1), g(0)], [g(0), g(1)]]) == 2


def test_solve_exact():
    m = [[g(2), g(1)], [g(1), g(-1)]]
    x, kernel = linalg.solve(m, [g(5), g(1)])
    assert linalg.mat_vec(m, x) == [g(5), g(1)] and kernel == []
    # a singular consistent system: the kernel comes from the same elimination
    m = [[g(1), g(1), g(0)], [g(2), g(2), g(0)]]
    x, kernel = linalg.solve(m, [g(3), g(6)])
    assert linalg.mat_vec(m, x) == [g(3), g(6)]
    assert kernel == linalg.nullspace(m) and len(kernel) == 2


def test_solve_inconsistent():
    m = [[g(1), g(1)], [g(1), g(1)]]
    assert linalg.solve(m, [g(0), g(1)]) is None


def test_nullspace():
    m = [[g(1), g(1), g(0)]]
    basis = linalg.nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert linalg.mat_vec(m, v) == [ZERO]


def test_inverse_complex():
    m = [[ONE, I], [ZERO, g(2)]]
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.inverse([[ONE, ONE], [ONE, ONE]])


def test_det():
    assert linalg.det([[g(2), g(1)], [g(1), g(1)]]) == ONE
    assert linalg.det([[ONE, ONE], [ONE, ONE]]) == ZERO
    assert linalg.det([[I]]) == I


def test_positive_definite():
    assert is_positive_definite([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert not is_positive_definite([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not is_positive_definite([[Fraction(0)]])
