"""Tensor2's integer format against the scalar reference of oracles.py.

A Tensor2 holds Gaussian-integer numerators over one denominator, the lcm
of the reduced entry denominators.  Each tensor here is compared with a
ReferenceTensor, a dict of GaussianRational entries whose operations are
summed entry by entry: the denominator and numerators, the reads, the
JSON bytes, equality and hashing, and every operation.  The tensors are
r0 and r of every datum the table loop gives on A1-A3, B2 and G2, and
seeded random sparse tensors with mixed denominators and cancellations.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import ReferenceTensor, entry, tensor_from_items

from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, Tensor2, ZERO
from liebialg.rmatrix import iter_data
from liebialg.rootsystem import build_root_system

SCALARS = [
    ZERO, GaussianRational(2), GaussianRational(Fraction(1, 3)), I * GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(3, 2), Fraction(-5, 7)),
]


def _assert_matches(x: Tensor2, ref: ReferenceTensor):
    """x holds exactly the reference's entries, in the canonical format."""
    assert x.dim == ref.dim
    assert x.den == ref.den() and x.num == ref.numerators()
    assert gcd(x.den, *(p for pair in x.num.values() for p in pair)) == 1
    assert all(pair != (0, 0) for pair in x.num.values())
    assert list(x.items()) == sorted(ref.entries.items())
    assert all(entry(x, i, j) == v for (i, j), v in ref.entries.items())
    assert x.is_zero() == (not ref.entries)
    assert x.is_antisymmetric() == ref.is_antisymmetric()
    assert json.dumps(x.to_json()) == json.dumps(ref.to_json())


def _assert_operations_match(x: Tensor2, y: Tensor2, rx: ReferenceTensor, ry: ReferenceTensor):
    _assert_matches(Tensor2(x.dim, rx.entries), rx)
    _assert_matches(Tensor2.from_json(x.to_json()), rx)
    _assert_matches(x.transpose(), rx.transpose())
    _assert_matches(-x, -rx)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x - y, rx - ry)
    _assert_matches(x - x, rx - rx)
    _assert_matches(x - x.transpose(), rx - rx.transpose())
    for c in SCALARS:
        _assert_matches(x.scale(c), rx.scale(c))
    # equality and hashing follow the entries, however a tensor is built
    for same in ((x + y) - y, x.scale(3).scale(GaussianRational(Fraction(1, 3))),
                 x.transpose().transpose(), tensor_from_items(x.dim, reversed(list(x.items())))):
        assert same == x and hash(same) == hash(x)
    assert (x == y) == (rx.entries == ry.entries)
    assert x != Tensor2(x.dim + 1, rx.entries)


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_tensor_format_matches_reference_on_table_data(series, rank):
    rs = build_root_system(series, rank)
    tensors = {}
    for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        for x in (datum.r0, datum.r):
            tensors.setdefault(id(x), x)
    xs = list(tensors.values())
    refs = [ReferenceTensor.read(x) for x in xs]
    omega = rs.casimir
    for x, rx in zip(xs, refs):
        _assert_matches(x, rx)
    for k, (x, rx) in enumerate(zip(xs, refs)):
        y, ry = xs[k - 1], refs[k - 1]
        _assert_operations_match(x, y, rx, ry)
        _assert_operations_match(x, omega, rx, ReferenceTensor.read(omega))


def _random_entries(rng: random.Random, dim: int) -> dict:
    def part():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9, 12]))

    entries = {}
    for _ in range(rng.randint(0, 12)):
        kind = rng.randrange(3)
        key = (rng.randrange(dim), rng.randrange(dim))
        entries[key] = GaussianRational(part() if kind != 1 else 0, part() if kind else 0)
    return entries


@pytest.mark.parametrize("seed", range(6))
def test_tensor_format_matches_reference_on_random_tensors(seed):
    """Entries mix denominators, zeros and real, imaginary and complex
    values; y cancels some of x's entries, so x + y has a smaller
    denominator than either."""
    rng = random.Random(f"tensor-format:{seed}")
    dim = rng.randint(2, 6)
    for _ in range(20):
        ex, ey = _random_entries(rng, dim), _random_entries(rng, dim)
        for key in rng.sample(sorted(ex), len(ex) // 2):
            ey[key] = -ex[key]
        for key in rng.sample(sorted(ex), len(ex) // 3):  # an antisymmetric pair
            i, j = key
            if i != j:
                ex[(j, i)] = -ex[key]
        rx, ry = ReferenceTensor(dim, ex), ReferenceTensor(dim, ey)
        x, y = Tensor2(dim, ex), Tensor2(dim, ey)
        _assert_matches(x, rx)
        _assert_matches(y, ry)
        _assert_operations_match(x, y, rx, ry)
