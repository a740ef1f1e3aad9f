import random
from fractions import Fraction
from math import gcd

import pytest

from liebialg import linalg
from liebialg.core import GaussianRational, I, ONE, ZERO
from oracles import identity, is_positive_definite, mat_mul, mat_vec, nullspace, solve


def g(x, y=0):
    return GaussianRational(x, y)


def test_rref_and_rank():
    m = [[g(1), g(2)], [g(2), g(4)]]
    assert linalg.rank(m) == 1
    assert linalg.rank([[g(1), g(0)], [g(0), g(1)]]) == 2


def scalars(vector) -> list:
    """An int_solve vector (den, numerators) as scalars; checks it is in
    lowest terms."""
    den, v = vector
    assert den > 0 and gcd(den, *v) == 1
    return [g(Fraction(x, den)) for x in v]


def test_int_solve_exact():
    x, kernel = linalg.int_solve([[2, 1, 5], [1, -1, 1]], 2)
    assert scalars(x) == [g(2), g(1)] and kernel == {}
    # a singular consistent system: free columns 1 and 2
    x, kernel = linalg.int_solve([[1, 1, 0, 3], [2, 2, 0, 6]], 3)
    assert scalars(x) == [g(3), ZERO, ZERO]
    assert {f: scalars(v) for f, v in kernel.items()} == {1: [-ONE, ONE, ZERO], 2: [ZERO, ZERO, ONE]}
    # no rows: everything is free
    x, kernel = linalg.int_solve([], 2)
    assert (scalars(x), {f: scalars(v) for f, v in kernel.items()}) == (
        [ZERO, ZERO], {0: [ONE, ZERO], 1: [ZERO, ONE]}
    )
    # a negative pivot: each entry over a positive denominator
    assert linalg.int_solve([[-3, 1]], 1) == ((3, [-1]), {})


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
            assert (scalars(got[0]), [scalars(v) for v in got[1].values()]) == ref, m


def _scaled_to_pivots(rows: dict) -> dict:
    """Echelon rows {pivot: {column: int}} with each row over its pivot."""
    return {c: {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in rows.items()}


def test_echelon_is_the_same_in_every_order():
    """Random integer spanning sets, rank-deficient and with repeated
    vectors, fed in shuffled orders: each order gives the same pivot
    columns and the same rows up to one nonzero scale each, the reduced
    row echelon form of the span by the dense elimination over the
    Gaussian rationals.  int_solve reads its answer off these rows, so
    its answer cannot depend on the order of the elimination."""
    rng = random.Random(2410)
    for _ in range(200):
        cols = rng.randint(1, 8)
        basis = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        dense = [
            [sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(cols)]
            for _ in range(rng.randint(1, 8))
        ]
        dense += rng.choices(dense, k=rng.randint(1, 3))  # repeated vectors
        vectors = [{j: x for j, x in enumerate(v) if x} for v in dense]
        ref, pivots = linalg.rref([[g(x) for x in v] for v in dense])
        expected = {
            c: {j: Fraction(x.a, x.d) for j, x in enumerate(row) if x} for c, row in zip(pivots, ref)
        }
        for _ in range(4):
            rng.shuffle(vectors)
            rows = linalg.echelon(vectors)
            assert _scaled_to_pivots(rows) == expected, dense
            assert all(linalg.residual(v, rows) == {} for v in vectors)
        for f in set(range(cols)) - set(pivots):  # a free column is out of the span
            assert linalg.residual({f: 1}, rows)


def test_nullspace():
    m = [[g(1), g(1), g(0)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(m, v) == [ZERO]


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


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 3), ("G", 2)])
def test_commands_never_run_the_dense_elimination(monkeypatch, capsys, tmp_path, series, rank):
    """Every command solves in ints through echelon, the root-system build
    (its Killing Gram) included; the dense routines are test references."""
    from liebialg.cli import main
    from liebialg.rootsystem import build_root_system

    def forbidden(*args):
        raise AssertionError("a dense elimination ran")

    for name in ("rref", "inverse", "det", "rank"):
        monkeypatch.setattr(linalg, name, forbidden)
    build_root_system.cache_clear()
    typ = ["--type", series, "--rank", str(rank)]
    requests = [
        ["enumerate", *typ], ["classify", *typ], ["enumerate", *typ, "--what", "root-system"],
        ["identify", *typ, "--sigma", "varsigma"], ["identify", *typ, "--sigma", "omega"],
    ]
    for sigma, t in (("varsigma", "2"), ("omega", "i")):
        path = str(tmp_path / f"{sigma}.json")
        requests += [["build", *typ, "--sigma", sigma, "--t", t, "--out", path],
                     ["verify", path, "--manin"]]
    for argv in requests:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
