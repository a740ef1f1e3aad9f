import random
from fractions import Fraction

import pytest

from liebialg import linalg
from liebialg.core import GaussianRational, I, ONE, ZERO
from oracles import identity, is_positive_definite, mat_mul, nullspace, solve


def g(x, y=0):
    return GaussianRational(x, y)


def test_rref_and_rank():
    m = [[g(1), g(2)], [g(2), g(4)]]
    assert linalg.rank(m) == 1
    assert linalg.rank([[g(1), g(0)], [g(0), g(1)]]) == 2


def test_int_solve_exact():
    x, kernel = linalg.int_solve([[2, 1, 5], [1, -1, 1]], 2)
    assert x == [g(2), g(1)] and kernel == {}
    # a singular consistent system: free columns 1 and 2
    x, kernel = linalg.int_solve([[1, 1, 0, 3], [2, 2, 0, 6]], 3)
    assert x == [g(3), ZERO, ZERO]
    assert kernel == {1: [-ONE, ONE, ZERO], 2: [ZERO, ZERO, ONE]}
    # no rows: everything is free
    assert linalg.int_solve([], 2) == ([ZERO, ZERO], {0: [ONE, ZERO], 1: [ZERO, ONE]})


def test_int_solve_inconsistent():
    assert linalg.int_solve([[1, 1, 0], [1, 1, 1]], 2) is None
    assert linalg.int_solve([[0, 0, 4]], 2) is None


def test_int_solve_matches_the_general_elimination():
    """Random integer systems, many rank-deficient, against one
    Gaussian-rational elimination of the augmented matrix."""
    rng = random.Random(1968)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(cols + 1)] for _ in range(rng.randint(1, 4))]
        m = [  # combinations of a few rows, so ranks vary
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(cols + 1)]
            for _ in range(rows)
        ]
        got = linalg.int_solve(m, cols)
        ref = solve([[g(x) for x in r[:-1]] for r in m], [g(r[-1]) for r in m])
        if ref is None:
            assert got is None, m
        else:
            assert got is not None, m
            assert (got[0], list(got[1].values())) == ref, m


def test_nullspace():
    m = [[g(1), g(1), g(0)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert linalg.mat_vec(m, v) == [ZERO]


def test_inverse_complex():
    m = [[ONE, I], [ZERO, g(2)]]
    inv = linalg.inverse(m)
    assert mat_mul(m, inv) == identity(2)
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
