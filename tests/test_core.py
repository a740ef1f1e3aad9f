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
    cybe,
    cybe_is_zero,
    rational_sqrt,
)
from liebialg.rootsystem import build_root_system


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
    assert (z.re, z.im) == (re, im)
    assert bool(z) == bool(re or im)
    assert str(z) == _ref_str(re, im)
    assert z.to_json() == [str(re), str(im)]
    assert z == GaussianRational(re, im) and hash(z) == hash(GaussianRational(re, im))
    assert (z.conj().a, z.conj().b, z.conj().d) == _ref_fields(re, -im)
    assert (-z).to_json() == [str(-re), str(-im)]
    assert z.real_part() == GaussianRational(re) and z.imag_part() == GaussianRational(im)
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


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(1, 6)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_antisymmetrize_idempotent_up_to_scale():
    t = Tensor2.from_items(2, [((0, 1), GaussianRational(3))])
    half = GaussianRational(Fraction(1, 2))
    anti = (t - t.transpose()).scale(half)
    assert (anti - anti.transpose()).scale(half) == anti


def _pruned(entries: dict) -> dict:
    return {k: v for k, v in entries.items() if v}


def _cybe_bruteforce(r: Tensor2, st: StructureTable) -> dict:
    """Independent dense triple-loop evaluation used as the test oracle."""
    d = r.dim
    out = {}

    def bracket(i, j):
        return dict(st.table.get((i, j), ()))

    for a in range(d):
        for b in range(d):
            v1 = r.get(a, b)
            if not v1:
                continue
            for c in range(d):
                for e in range(d):
                    v2 = r.get(c, e)
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
            for k, cf in rs.structure.table.get((b, e), ()):
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


def test_cybe_equivariance_under_automorphisms():
    # CYB((phi x phi) x) = (phi x phi x phi) CYB(x) for algebra maps phi
    from oracles import rescaling_automorphism

    rs = build_root_system("A", 2)
    phi = rescaling_automorphism(rs, {0: GaussianRational(2), 1: I})
    # compose with the diagram flip made linear via varsigma twice trick:
    # a pure torus automorphism suffices here
    x = Tensor2.from_items(
        rs.dim,
        [((0, rs.root_index((1, 0))), ONE), ((rs.root_index((1, 1)), 1), I)],
    )
    d = rs.dim
    phix = Tensor2.from_items(
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
    x = Tensor2.from_items(rs.dim, [((0, 1), GaussianRational(Fraction(2, 3)))])
    assert apply_semilinear_pair(vs, x) == x


def test_apply_semilinear_pair_is_involutive():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 2)
    om = canonical_involution(rs, "omega", None, (0, 1))
    x = Tensor2.from_items(
        rs.dim, [((0, 5), I), ((3, 2), GaussianRational(1, 2)), ((1, 1), ONE)]
    )
    assert apply_semilinear_pair(om, apply_semilinear_pair(om, x)) == x


def test_apply_semilinear_pair_conjugates_scalars():
    from liebialg.involution import canonical_involution

    rs = build_root_system("A", 1)
    vs = canonical_involution(rs, "varsigma")
    x = Tensor2.from_items(rs.dim, [((0, 1), ONE)])
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
    return Tensor2.from_items(
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
            t.get(i, j) == v if v else not t.get(i, j)
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
        m = sigma.matrix
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
        diagonal = Tensor2.from_items(d, [((1, 1), I)])  # diagonal entries count
        assert not (anti + diagonal).is_antisymmetric()
        # equality and hashing follow the dense slots, however a tensor is built
        items = list(x.items())
        rng.shuffle(items)
        same = [
            Tensor2.from_items(d, items),
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
    assert t == Tensor2.from_items(2, [((1, 0), GaussianRational(Fraction(1, 2), -1))])
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
        uv = st.bracket(u, v)
        vu = st.bracket(v, u)
        assert all(a == -b for a, b in zip(uv, vu))
        two_u = [GaussianRational(2) * x for x in u]
        assert st.bracket(two_u, v) == [GaussianRational(2) * x for x in uv]
