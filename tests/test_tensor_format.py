"""Tensor2's integer format against the scalar reference of oracles.py.

A Tensor2 holds Gaussian-integer numerators over one denominator, the lcm
of the reduced entry denominators.  Each tensor here is compared with a
ReferenceTensor, a dict of GaussianRational entries whose operations are
summed entry by entry: the denominator and numerators, the reads, the
JSON bytes, equality, and every operation.  The tensors are
r0 and r of every datum the table loop gives on A1-A3, B2 and G2, and
seeded random sparse tensors with mixed denominators and cancellations.
The readers, Tensor2.from_json and ContinuousParameter.from_json, invert
to_json and read every rational spelling as Fraction does.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import ReferenceTensor, entry, lambda_from_rows, tensor_from_items, tensor_items

from liebialg.cli import _sigma_variants
from liebialg.core import GaussianRational, I, Tensor2, ZERO
from liebialg.parameter import ContinuousParameter
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
    assert list(tensor_items(x)) == sorted(ref.entries.items())
    assert all(entry(x, i, j) == v for (i, j), v in ref.entries.items())
    assert x.is_zero() == (not ref.entries)
    assert x.is_antisymmetric() == ref.is_antisymmetric()
    assert json.dumps(x.to_json()) == json.dumps(ref.to_json())


def _assert_operations_match(x: Tensor2, y: Tensor2, rx: ReferenceTensor, ry: ReferenceTensor):
    _assert_matches(tensor_from_items(x.dim, rx.entries.items()), rx)
    _assert_matches(Tensor2.from_json(x.to_json()), rx)
    _assert_matches(x.transpose(), rx.transpose())
    _assert_matches(x.scale(-1), -rx)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x + y.scale(-1), rx - ry)
    _assert_matches(x + x.scale(-1), rx - rx)
    _assert_matches(x + x.transpose().scale(-1), rx - rx.transpose())
    for c in SCALARS:
        _assert_matches(x.scale(c), rx.scale(c))
    # equality follows the entries, however a tensor is built
    reordered = tensor_from_items(x.dim, reversed(list(tensor_items(x))))
    for same in ((x + y) + y.scale(-1), x.scale(3).scale(GaussianRational(Fraction(1, 3))),
                 x.transpose().transpose(), reordered):
        assert same == x
    assert (x == y) == (rx.entries == ry.entries)
    assert x != tensor_from_items(x.dim + 1, rx.entries.items())


TABLE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


@pytest.mark.parametrize("series, rank", TABLE_TYPES)
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
        x, y = tensor_from_items(dim, ex.items()), tensor_from_items(dim, ey.items())
        _assert_matches(x, rx)
        _assert_matches(y, ry)
        _assert_operations_match(x, y, rx, ry)


@pytest.mark.parametrize("series, rank", TABLE_TYPES)
def test_readers_invert_to_json_on_table_data(series, rank):
    rs = build_root_system(series, rank)
    count = 0
    for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        for x in (datum.r0, datum.r):
            assert Tensor2.from_json(json.loads(json.dumps(x.to_json()))) == x
        lam = datum.lam
        assert ContinuousParameter.from_json(json.loads(json.dumps(lam.to_json()))) == lam
        count += 1
    assert count > 0


# spellings that to_json never writes; each reads to the value Fraction
# gives it, "-0" to 0
SPELLINGS = ["2/4", "+1", " 3", "1.5", "1e2", "-0"]


@pytest.mark.parametrize("text", SPELLINGS)
def test_readers_take_every_spelling_fraction_takes(text):
    v = Fraction(text)
    doc = {"dim": 3, "entries": [[0, 1, text, "1/3"], [2, 0, "-1/6", text], [1, 1, text, text]]}
    want = [
        ((0, 1), GaussianRational(v, Fraction(1, 3))),
        ((2, 0), GaussianRational(Fraction(-1, 6), v)),
        ((1, 1), GaussianRational(v, v)),
    ]
    x = Tensor2.from_json(doc)
    assert x == tensor_from_items(3, want)
    assert [k for k, _ in tensor_items(x)] == sorted(k for k, c in want if c)
    rows = [[[text, "0"], ["1/3", text]], [["0", "-1/6"], [text, text]]]
    lam = ContinuousParameter.from_json(rows)
    assert lam == lambda_from_rows(
        [[GaussianRational(v), GaussianRational(Fraction(1, 3), v)],
         [GaussianRational(0, Fraction(-1, 6)), GaussianRational(v, v)]]
    )
    n = lam.den
    assert [Fraction(a, n) for a in lam.re] == [v, Fraction(1, 3), 0, v]
    assert [Fraction(b, n) for b in lam.im] == [0, v, Fraction(-1, 6), v]
