import math
import operator
import random
from fractions import Fraction

import pytest

from liebialg.core import (
    GaussianRational,
    I,
    ONE,
    StructureTable,
    Tensor2,
    ZERO,
    apply_semilinear_pair,
    cybe_is_zero,
    lowest,
    over_lcm,
    rational_sqrt,
)
from liebialg.rootsystem import build_root_system
from oracles import (
    HALF,
    bracket,
    cybe,
    entry,
    imag_part,
    involution_matrix,
    real_part,
    reference_cybe,
    scalar_table,
    tensor_from_items,
)


def test_scalar_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(1, 4))
    assert a * b == GaussianRational(Fraction(7, 4), -1)
    assert (a / b) * b == a
    assert a - a == ZERO
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(3, 4))
    assert ONE / I == -I


def test_scalar_conjugation_involution():
    z = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    assert z.conj().conj() == z
    assert (z * z.conj()).is_real()


def test_scalar_coercion_and_parse():
    assert GaussianRational(1) + 1 == GaussianRational(2)
    assert 2 * I == GaussianRational(0, 2)
    assert GaussianRational.parse("-3/4") == GaussianRational(Fraction(-3, 4))
    assert GaussianRational.parse("i") == I
    assert GaussianRational.parse("-i") == -I
    assert GaussianRational.parse("2i") == GaussianRational(0, 2)
    assert GaussianRational.parse("1/2i") == GaussianRational(0, Fraction(1, 2))


def test_scalar_json_roundtrip():
    z = GaussianRational(Fraction(-5, 3), Fraction(7, 11))
    assert GaussianRational.from_json(z.to_json()) == z


# ---- the scalar kernel against a (Fraction, Fraction) pair reference ----


def _ref_fields(re: Fraction, im: Fraction) -> tuple:
    """The (a, b, d) normal form of re + im*i, from the pair alone."""
    d = re.denominator * im.denominator // math.gcd(re.denominator, im.denominator)
    return int(re * d), int(im * d), d


def _ref_str(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


_REF_OPS = {
    "+": (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (operator.mul, lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])),
    "/": (
        operator.truediv,
        lambda x, y: (
            (x[0] * y[0] + x[1] * y[1]) / (y[0] ** 2 + y[1] ** 2),
            (x[1] * y[0] - x[0] * y[1]) / (y[0] ** 2 + y[1] ** 2),
        ),
    ),
}


def _random_rational(rng) -> Fraction:
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:  # past a machine word
        return Fraction(rng.randint(-(2**80), 2**80), rng.randint(1, 2**70))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 36))


def _random_operand(rng):
    """(value under test, reference pair): a scalar, an int or a Fraction."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(-7, 7)
        return n, (Fraction(n), Fraction(0))
    if kind == 1:
        q = _random_rational(rng)
        return q, (q, Fraction(0))
    re = _random_rational(rng)
    im = Fraction(0) if kind == 2 else _random_rational(rng)
    return GaussianRational(re, im), (re, im)


def _assert_matches(z, ref):
    re, im = ref
    assert type(z) is GaussianRational
    assert (z.a, z.b, z.d) == _ref_fields(re, im)
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (Fraction(z.a, z.d), Fraction(z.b, z.d)) == (re, im)
    assert repr(z) == f"GaussianRational({re!r}, {im!r})"
    assert bool(z) == bool(re or im)
    assert str(z) == _ref_str(re, im)
    assert z.to_json() == [str(re), str(im)]
    assert z == GaussianRational(re, im) and hash(z) == hash(GaussianRational(re, im))
    assert (z.conj().a, z.conj().b, z.conj().d) == _ref_fields(re, -im)
    assert (-z).to_json() == [str(-re), str(-im)]
    assert real_part(z) == GaussianRational(re) and imag_part(z) == GaussianRational(im)
    if not im:
        assert z == re and re == z
        if re.denominator == 1:
            assert z == int(re) and int(re) == z
    else:
        assert z != re and z != int(re)


def test_scalar_kernel_matches_fraction_pair_reference():
    rng = random.Random(20261018)
    for _ in range(3000):
        (x, xr), (y, yr) = _random_operand(rng), _random_operand(rng)
        if type(x) is not GaussianRational and type(y) is not GaussianRational:
            x, xr = GaussianRational(*xr), xr  # at least one side is a scalar
        symbol = rng.choice(sorted(_REF_OPS))
        op, ref_op = _REF_OPS[symbol]
        if symbol == "/" and not (yr[0] or yr[1]):
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        _assert_matches(op(x, y), ref_op(xr, yr))
        _assert_matches(GaussianRational(*xr), xr)


def test_scalar_equal_values_have_equal_fields_and_hashes():
    half = GaussianRational(Fraction(1, 2))
    ways = [
        GaussianRational(Fraction(2, 4)),
        half,
        GaussianRational(1) / 2,
        ONE - half,
        (half * I) / I,
        GaussianRational(Fraction(3, 4), Fraction(1, 3)) - GaussianRational(Fraction(1, 4), Fraction(1, 3)),
        (GaussianRational(1, 1) * GaussianRational(1, -1)) / 4,
    ]
    assert {(z.a, z.b, z.d) for z in ways} == {(1, 0, 2)}
    assert len({hash(z) for z in ways}) == 1
    zero = [ZERO, half - half, I * 0, GaussianRational(Fraction(0, 5), Fraction(0, 7))]
    assert {(z.a, z.b, z.d) for z in zero} == {(0, 0, 1)}


def test_scalar_division_by_zero_raises():
    for zero in (ZERO, 0, Fraction(0), I - I):
        for x in (ONE, I, GaussianRational(Fraction(2, 3), -1)):
            with pytest.raises(ZeroDivisionError):
                x / zero
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


def test_scalar_rejects_floats():
    for bad in ((0.5,), (1, 2.0), (Fraction(1, 2), 0.0), ("1/2",)):
        with pytest.raises(TypeError):
            GaussianRational(*bad)
    for bad in ([2.0, "0"], ["2", 0], [2, 0], ["1", None]):
        with pytest.raises(TypeError):
            GaussianRational.from_json(bad)
    with pytest.raises(TypeError):
        ONE + 0.5
    assert ONE != 1.0


# Literals on the int path (-?[0-9]+(/[0-9]+)? with a nonzero denominator)
# and on the Fraction path (everything else), incl. Arabic-Indic and
# superscript digits and a number past int's default digit limit.
LITERALS = [
    "0", "-0", "7", "-12/18", "00/4", "1/02", "0/5", "+3", " 1/2", "1/2\n", "1_000",
    "0.5", "-.5", "1e3", "1e-3", "1.", "3/-4", "1/0", "-1/0", "0/0", "/2", "2/",
    "1/2/3", "--1", "\u0663", "\u0661/\u0662", "\u00b2", "\u00bd", "-", "", "1" * 5000,
]


def _outcome(read, text):
    """("value", Fraction) for what read(text) gives, or ("raises", type)."""
    try:
        return "value", read(text)
    except Exception as exc:  # the exception type is the outcome
        return "raises", type(exc)


def _real(z):
    assert type(z) is GaussianRational and not z.b
    assert z.d > 0 and math.gcd(z.a, z.d) == 1
    return Fraction(z.a, z.d)


def _imag(z):
    assert type(z) is GaussianRational and not z.a
    assert z.d > 0 and math.gcd(z.b, z.d) == 1
    return Fraction(z.b, z.d)


@pytest.mark.parametrize("text", LITERALS)
def test_literals_read_as_fraction_reads_them(text):
    expect = _outcome(Fraction, text)
    assert _outcome(lambda t: _real(GaussianRational.from_json([t, "0"])), text) == expect
    assert _outcome(lambda t: _imag(GaussianRational.from_json(["0", t])), text) == expect
    assert _outcome(lambda t: _real(GaussianRational.parse(t)), text) == expect
    if text.strip() not in ("", "+", "-"):  # 'i', '+i' and '-i' are the unit
        assert _outcome(lambda t: _imag(GaussianRational.parse(t + "i")), text) == expect


def test_rational_sqrt():
    assert rational_sqrt(9, 4) == rational_sqrt(18, 8) == (3, 2)
    assert rational_sqrt(0, 5) == (0, 1)
    assert rational_sqrt(1, 6) is None
    assert rational_sqrt(-1, 1) is None
    # every p/q with |p| <= 40, 0 < q <= 40 against the squares of the
    # Fractions a/b, 0 <= a, b <= 7, which are all the candidate roots
    squares = {Fraction(a, b) ** 2: Fraction(a, b) for a in range(8) for b in range(1, 8)}
    for p in range(-40, 41):
        for q in range(1, 41):
            root = rational_sqrt(p, q)
            expect = squares.get(Fraction(p, q))
            if expect is None:
                assert root is None, (p, q)
            else:  # ints in lowest terms
                a, b = root
                assert type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1, (p, q)
                assert Fraction(a, b) == expect, (p, q)


def test_antisymmetrize_idempotent_up_to_scale():
    t = tensor_from_items(2, [((0, 1), GaussianRational(3))])
    half = GaussianRational(Fraction(1, 2))
    anti = (t - t.transpose()).scale(half)
    assert (anti - anti.transpose()).scale(half) == anti


def _pruned(entries: dict) -> dict:
    return {k: v for k, v in entries.items() if v}


def _cybe_bruteforce(r: Tensor2, st: StructureTable) -> dict:
    """Independent dense triple-loop evaluation used as the test oracle."""
    d, table = r.dim, scalar_table(st)
    out = {}

    def bracket(i, j):
        return dict(table.get((i, j), ()))

    for a in range(d):
        for b in range(d):
            v1 = entry(r, a, b)
            if not v1:
                continue
            for c in range(d):
                for e in range(d):
                    v2 = entry(r, c, e)
                    if not v2:
                        continue
                    for k, cf in bracket(a, c).items():
                        key = (k, b, e)
                        out[key] = out.get(key, ZERO) + v1 * v2 * cf
                    for k, cf in bracket(b, c).items():
                        key = (a, k, e)
                        out[key] = out.get(key, ZERO) + v1 * v2 * cf
                    for k, cf in bracket(b, e).items():
                        key = (a, c, k)
                        out[key] = out.get(key, ZERO) + v1 * v2 * cf
    return _pruned(out)


def test_cybe_zero_tensor():
    rs = build_root_system("A", 1)
    assert not cybe(Tensor2(rs.dim), rs.structure)


def test_cybe_of_casimir_matches_bruteforce():
    rs = build_root_system("A", 1)
    result = cybe(rs.casimir, rs.structure)
    assert result
    assert result == _cybe_bruteforce(rs.casimir, rs.structure)


def test_cybe_casimir_equals_omega13_omega23_bracket():
    # for an invariant symmetric tensor the first two terms cancel
    rs = build_root_system("A", 1)
    om = rs.casimir
    out = {}
    for (a, b), va in om.items():
        for (c, e), vc in om.items():
            for k, cf in scalar_table(rs.structure).get((b, e), ()):
                key = (a, c, k)
                out[key] = out.get(key, ZERO) + va * vc * cf
    assert cybe(om, rs.structure) == _pruned(out)


def test_cybe_dj_rmatrix_is_zero():
    from liebialg.bdtriple import BDTriple
    from liebialg.parameter import solve_parameters
    from liebialg.rmatrix import build_r

    rs = build_root_system("A", 1)
    ps = solve_parameters(rs, BDTriple.empty())
    r = build_r(rs, BDTriple.empty(), ps.base_point, ONE)
    assert cybe_is_zero(r, rs.structure)
    assert not cybe(r, rs.structure)


def test_cybe_dimension_mismatch():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        cybe(Tensor2(2), rs.structure)


# ---- the integer CYBE kernel against the scalar references -----------------

KERNEL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("D", 4), ("G", 2),
]


def _assert_kernel_agrees(x: Tensor2, st: StructureTable, bruteforce: bool = True):
    """cybe equals the GaussianRational accumulator in keys, values and
    order, cybe_is_zero reads its emptiness, and both agree with the
    dense triple loop."""
    ref = reference_cybe(x, st)
    out = cybe(x, st)
    assert list(out.items()) == list(ref.items())
    assert all(type(v) is GaussianRational for v in out.values())
    assert cybe_is_zero(x, st) is (not ref)
    if bruteforce:
        assert out == _cybe_bruteforce(x, st)


@pytest.mark.parametrize("series, rank", KERNEL_TYPES)
def test_cybe_kernel_matches_references_on_enumerated_data(series, rank):
    """r and r0 of every enumerated datum: r solves the CYBE, r0 does not
    (its CYBE is the modified-YBE constant times CYB(Omega)).  The dense
    loop runs on every tensor up to dimension 21 and on every tenth one
    above."""
    from liebialg.cli import _sigma_variants
    from liebialg.rmatrix import iter_data

    rs = build_root_system(series, rank)
    tensors = {}
    for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")):
        assert cybe_is_zero(datum.r, rs.structure)
        assert not cybe_is_zero(datum.r0, rs.structure)
        for x in (datum.r, datum.r0):
            tensors.setdefault(id(x), x)
    for n, x in enumerate(tensors.values()):
        _assert_kernel_agrees(x, rs.structure, bruteforce=rs.dim <= 21 or n % 10 == 0)


@pytest.mark.parametrize(
    "series, rank, triple, t",
    [
        ("A", 2, ((0,), (1,)), GaussianRational(Fraction(1, 3))),
        ("A", 3, ((0, 1), (1, 2)), GaussianRational(Fraction(1, 3))),
        ("A", 2, ((), ()), GaussianRational(0, Fraction(3, 2))),
        ("G", 2, ((), ()), GaussianRational(0, Fraction(3, 2))),
        ("B", 3, ((), ()), GaussianRational(Fraction(3, 2), Fraction(-5, 7))),
    ],
)
def test_cybe_kernel_on_built_data_with_fractional_t_and_complex_lambda(series, rank, triple, t):
    from liebialg.bdtriple import BDTriple
    from liebialg.parameter import solve_parameters
    from liebialg.rmatrix import build_r, build_r0

    rs = build_root_system(series, rank)
    g1, g2 = triple
    bd = BDTriple.make(g1, g2, dict(zip(g1, g2))) if g1 else BDTriple.empty()
    ps = solve_parameters(rs, bd)
    lams = [ps.base_point]
    if ps.dimension:
        coeffs = [GaussianRational(Fraction(k + 1, 3), Fraction(-2, k + 5)) for k in range(ps.dimension)]
        lams.append(ps.point(coeffs))
    for lam in lams:
        r, r0 = build_r(rs, bd, lam, t), build_r0(rs, bd, lam, t)
        assert cybe_is_zero(r, rs.structure) and not cybe(r, rs.structure)
        for x in (r, r0):
            _assert_kernel_agrees(x, rs.structure)


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_cybe_kernel_on_random_antisymmetric_tensors(series, rank):
    """Seeded antisymmetric tensors whose entries mix denominators and are
    real, imaginary or neither."""
    rs = build_root_system(series, rank)
    rng = random.Random(f"cybe:{series}{rank}")

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for trial in range(8):
        entries = {}
        for _ in range(rng.randint(1, 14)):
            i, j = rng.sample(range(rs.dim), 2)
            kind = (trial + i + j) % 3
            v = GaussianRational(part() if kind != 1 else 0, part() if kind else 0)
            entries[(i, j)], entries[(j, i)] = v, -v
        x = Tensor2(rs.dim, entries)
        assert x.is_antisymmetric()
        _assert_kernel_agrees(x, rs.structure)


def test_structure_table_puts_fields_over_the_least_denominator():
    """The constructor takes int coefficients over any den and keeps them
    over the lcm of the reduced denominators, read here through Fraction,
    in the order of the pairs and of their terms; a table already in
    lowest terms is kept as given."""
    ints = {
        (0, 1): ((2, 6), (1, -16)),
        (1, 0): ((2, -12), (1, 8)),
        (2, 0): ((0, 48),),
        (0, 2): ((0, -48),),
    }
    st = StructureTable(3, 24, ints)
    want = {key: [(k, Fraction(c, 24)) for k, c in terms] for key, terms in ints.items()}
    assert st.dim == 3
    assert st.den == math.lcm(*(x.denominator for ts in want.values() for _, x in ts)) == 12
    assert list(st.table) == list(ints)
    assert {key: [(k, Fraction(c, st.den)) for k, c in ts] for key, ts in st.table.items()} == want
    assert StructureTable(3, st.den, st.table).table is st.table
    half = StructureTable(2, 4, {(0, 1): ((1, 2),)})
    assert (half.den, half.table) == (2, {(0, 1): ((1, 1),)})


def test_over_lcm_keeps_order_and_zeros():
    values = [ZERO, GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(1, 3)),
              GaussianRational(Fraction(3, 4), Fraction(-1, 6)), GaussianRational(-5)]
    fields = [(x.a, x.b, x.d) for x in values]
    assert over_lcm(fields) == (12, [(0, 0), (6, 0), (0, 4), (9, -2), (-60, 0)])
    assert over_lcm(iter(fields[:1])) == (1, [(0, 0)]) and over_lcm([]) == (1, [])


def test_over_lcm_reads_fields_in_any_terms():
    # 2/4, 3i/6 and 0/8: the lcm 24 shares the factor 12 with every numerator
    assert over_lcm([(2, 0, 4), (0, 3, 6), (0, 0, 8)]) == (2, [(1, 0), (0, 1), (0, 0)])


def test_lowest_divides_out_the_common_factor():
    pairs = [(2, -4), (6, 0)]
    assert lowest(8, pairs) == (4, [(1, -2), (3, 0)])
    assert lowest(3, pairs)[1] is pairs  # no common factor: as given
    assert lowest(6, ((2, 4, 0), (6,))) == (3, [(1, 2, 0), (3,)])
    # a tensor from ints is canonical, so equal to the one from scalars
    t = Tensor2.from_ints(2, 4, {(0, 1): (2, 0), (1, 0): (-2, 2)})
    assert (t.den, t.num) == (2, {(0, 1): (1, 0), (1, 0): (-1, 1)})
    assert t == Tensor2(2, {(0, 1): HALF, (1, 0): GaussianRational(Fraction(-1, 2), Fraction(1, 2))})


def test_cybe_equivariance_under_automorphisms():
    # CYB((phi x phi) x) = (phi x phi x phi) CYB(x) for algebra maps phi
    from oracles import rescaling_automorphism

    rs = build_root_system("A", 2)
    phi = rescaling_automorphism(rs, {0: GaussianRational(2), 1: I})
    # compose with the diagram flip made linear via varsigma twice trick:
    # a pure torus automorphism suffices here
    x = tensor_from_items(
        rs.dim,
        [((0, rs.root_index((1, 0))), ONE), ((rs.root_index((1, 1)), 1), I)],
    )
    d = rs.dim
    phix = tensor_from_items(
        d,
        [
            ((i, j), phi[i][a] * phi[j][b] * v)
            for (a, b), v in x.items()
            for i in range(d)
            if phi[i][a]
            for j in range(d)
            if phi[j][b]
        ],
    )
    lhs = cybe(phix, rs.structure)
    rhs_src = cybe(x, rs.structure)
    out = {}
    for (a, b, c), v in rhs_src.items():
        for i in range(d):
            if not phi[i][a]:
                continue
            for j in range(d):
                if not phi[j][b]:
                    continue
                for k in range(d):
                    if phi[k][c]:
                        key = (i, j, k)
                        out[key] = out.get(key, ZERO) + phi[i][a] * phi[j][b] * phi[k][c] * v
    assert lhs == _pruned(out)


def test_apply_semilinear_pair_fixes_real_tensor():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 1)
    vs = canonical_involution(rs, "varsigma")  # plain conjugation
    x = tensor_from_items(rs.dim, [((0, 1), GaussianRational(Fraction(2, 3)))])
    assert apply_semilinear_pair(vs, x) == x


def test_apply_semilinear_pair_is_involutive():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    x = tensor_from_items(
        rs.dim, [((0, 5), I), ((3, 2), GaussianRational(1, 2)), ((1, 1), ONE)]
    )
    assert apply_semilinear_pair(om, apply_semilinear_pair(om, x)) == x


def test_apply_semilinear_pair_conjugates_scalars():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 1)
    vs = canonical_involution(rs, "varsigma")
    x = tensor_from_items(rs.dim, [((0, 1), ONE)])
    assert apply_semilinear_pair(vs, x.scale(I)) == x.scale(-I)


def test_apply_semilinear_pair_dimension_mismatch():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 1)
    vs = canonical_involution(rs, "varsigma")
    with pytest.raises(ValueError):
        apply_semilinear_pair(vs, Tensor2(5))


# ---- dense oracles for the sparse tensor and the sparse involution action ----


def _dense_zero(d):
    return [[ZERO] * d for _ in range(d)]


def _dense_mul(a, b):
    d = len(a)
    out = _dense_zero(d)
    for i in range(d):
        for k in range(d):
            if a[i][k]:
                for j in range(d):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _dense_map(f, *mats):
    """Slotwise f, for an f that maps zeros to zero."""
    return [
        [f(*vals) if any(vals) else ZERO for vals in zip(*rows)] for rows in zip(*mats)
    ]


def _tensor_of(dense):
    return tensor_from_items(
        len(dense),
        [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v],
    )


def _agrees(t, dense):
    """t holds exactly the nonzero slots of dense, in row-major order."""
    d = len(dense)
    want = [((i, j), v) for i in range(d) for j, v in enumerate(dense[i]) if v]
    return (
        t.dim == d
        and list(t.items()) == want
        and all(
            entry(t, i, j) == v if v else not entry(t, i, j)
            for i in range(d)
            for j, v in enumerate(dense[i])
        )
        and t.to_json()["entries"] == [[i, j, *v.to_json()] for (i, j), v in want]
    )


def _random_dense(rng, d):
    values = [ONE, -ONE, I, GaussianRational(Fraction(1, 2), -1), GaussianRational(-2, 3)]
    m = _dense_zero(d)
    for _ in range(2 * d):
        m[rng.randrange(d)][rng.randrange(d)] = rng.choice(values)
    return m


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_sparse_tensor_and_pair_action_match_dense_oracles(series, rank):
    import random

    from liebialg.cli import _sigma_variants

    rs = build_root_system(series, rank)
    d = rs.dim
    rng = random.Random(rank * 31 + ord(series))
    c = GaussianRational(Fraction(2, 3), 1)
    for sigma in _sigma_variants(rs, "all"):
        xd = _random_dense(rng, d)
        m = involution_matrix(sigma)
        mt = [list(col) for col in zip(*m)]
        conj_x = _dense_map(lambda v: v.conj(), xd)
        yd = _dense_mul(_dense_mul(m, conj_x), mt)  # (sigma (x) sigma)(x)
        x, y = _tensor_of(xd), _tensor_of(yd)
        assert _agrees(x, xd) and _agrees(y, yd)
        assert _agrees(apply_semilinear_pair(sigma, x), yd)
        xtd = [list(col) for col in zip(*xd)]
        assert _agrees(x.transpose(), xtd)
        assert _agrees(x + y, _dense_map(lambda a, b: a + b, xd, yd))
        assert _agrees(x - y, _dense_map(lambda a, b: a - b, xd, yd))
        assert _agrees(-x, _dense_map(lambda a: -a, xd))
        assert _agrees(x.scale(c), _dense_map(lambda a: c * a, xd))
        assert _agrees(x.scale(0), _dense_zero(d))
        assert _agrees(x - x, _dense_zero(d)) and (x - x).is_zero()
        anti, sym = x - x.transpose(), x + x.transpose()
        antid = _dense_map(lambda a, b: a - b, xd, xtd)
        symd = _dense_map(lambda a, b: a + b, xd, xtd)
        assert _agrees(anti, antid) and _agrees(sym, symd)
        for t, td in ((x, xd), (y, yd), (anti, antid), (sym, symd)):
            pairs = [(td[i][j], td[j][i]) for i in range(d) for j in range(d)]
            assert t.is_antisymmetric() == all(a == -b for a, b in pairs)
            assert t.is_zero() == (not any(a for a, _ in pairs))
        assert anti.is_antisymmetric()
        diagonal = tensor_from_items(d, [((1, 1), I)])  # diagonal entries count
        assert not (anti + diagonal).is_antisymmetric()
        # equality and hashing follow the dense slots, however a tensor is built
        items = list(x.items())
        rng.shuffle(items)
        same = [
            tensor_from_items(d, items),
            Tensor2.from_json(x.to_json()),
            (x + y) - y,
            x + (y - y),
            x.transpose().transpose(),
        ]
        for t in same:
            assert t == x and hash(t) == hash(x)
        assert (x == y) == (xd == yd)
        assert (x == x.transpose()) == (xd == xtd)
        assert x != x.scale(2) and x != Tensor2(d + 1)


def test_tensor_from_json_drops_zeros_and_rejects_bad_indices():
    doc = {"dim": 2, "entries": [[0, 1, "0", "0"], [1, 0, "1/2", "-1"]]}
    t = Tensor2.from_json(doc)
    assert list(t.items()) == [((1, 0), GaussianRational(Fraction(1, 2), -1))]
    assert t == tensor_from_items(2, [((1, 0), GaussianRational(Fraction(1, 2), -1))])
    for bad in ([[True, 0, "1", "0"]], [[0, 1.0, "1", "0"]], [["0", 1, "1", "0"]],
                [[0, 1, "1", "0"], [0, 1, "1", "0"]], [[0, 2, "1", "0"]]):
        with pytest.raises(ValueError):
            Tensor2.from_json({"dim": 2, "entries": bad})


def test_structure_table_bracket_bilinear_antisymmetric():
    rs = build_root_system("B", 2)
    st = rs.structure
    import random

    rng = random.Random(3)
    for _ in range(10):
        u = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rs.dim)]
        v = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rs.dim)]
        uv = bracket(st, u, v)
        vu = bracket(st, v, u)
        assert all(a == -b for a, b in zip(uv, vu))
        two_u = [GaussianRational(2) * x for x in u]
        assert bracket(st, two_u, v) == [GaussianRational(2) * x for x in uv]
