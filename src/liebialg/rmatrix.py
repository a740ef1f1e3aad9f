"""Construction and analysis of the classified r-matrices.

The quasitriangular tensor is

    r = t * (lam + sum over positive gamma of x_{-gamma} (x) x_gamma
               + sum over alpha < beta of x_{-alpha} wedge x_beta),

and build_r0 builds its antisymmetric companion r0 = r - t Omega / 2
directly.  The table loop (make_datum, iter_data) builds and checks r0
only; r = r0 + t Omega / 2 is derived from it where a command writes r
(build, enumerate --materialize), and verify reads both from its file.

The root-vector family used in the precedence terms is produced by
extend_T: target vectors along tau-chains are rescaled so that the
chain transport maps x_beta exactly to x_{T beta}, propagating through
brackets for composite roots.  When a canonical involution is supplied, a further
sign adjustment on the simple chain vectors makes the family
sigma-compatible, which is what makes (sigma (x) sigma)(r0) = r0 hold in
the stable/antistable cases.

extract_data inverts the construction in the standard frame: from an
antisymmetric solution it recovers the sign-normalized scalar t, the
triple and the continuous parameter.

iter_data is the one enumeration pipeline: every (involution, triple)
row of the classification table, instantiated at a base point; what
depends only on the triple, the cut or r0 is computed once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import lcm

from .bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    extend_tau_additively,
    precedence_pairs,
    span_subset_roots,
    stability,
    tau_chains,
)
from .core import (
    GaussianRational,
    HALF,
    ONE,
    Tensor2,
    ZERO,
    cybe,
    cybe_is_zero,
)
from .involution import Involution
from .parameter import (
    ContinuousParameter,
    NoBialgebraDatum,
    ParameterSpace,
    apply_reality,
    lambda_reality_ok,
    reality_kind_for,
    satisfies_constraints,
    solve_parameters,
    stability_ok,
    t_reality_ok,
)
from .rootsystem import RootSystem


class ExtractionError(ValueError):
    """The tensor is outside the branch this library classifies."""


# ---- the root-vector family -------------------------------------------------


def _chain_of(chains, root):
    for c in chains:
        if c[0] == root:
            return c
    raise KeyError(root)


def _sigma_chain_scalars(rs, bd, sigma):
    """Simple-root rescalings making the family sigma-compatible.

    Only the omega kinds with a nonempty antistable triple need work:
    there the generator scalars (-1)^{chi_J} must come out constant
    along every tau-chain, which a per-vertex rescaling always achieves
    inside Q(i)."""
    s: dict[tuple, GaussianRational] = {}
    if sigma is None or sigma.kind == "varsigma" or bd.is_empty():
        return s
    mu = sigma.mu
    jset = set(sigma.J)

    def c_of(root):
        # simple root index
        idx = root.index(1)
        return -ONE if idx in jset else ONE

    simple_chains = [
        c for c in tau_chains(rs, bd) if sum(c[0]) == 1
    ]
    starts = {c[0] for c in simple_chains}
    done = set()
    for chain in simple_chains:
        if chain[0] in done:
            continue
        m = len(chain) - 1
        mirror_start = mu.apply_root(chain[m])
        if mirror_start == chain[0]:
            # self-paired chain: mu reverses it.  The generator scalars
            # cannot be scaled past c * |s|^2 > 0 at a mu-fixed middle
            # vertex, so normalize the chain constant to the middle value
            # rather than to 1; only constancy along the chain matters.
            eps = c_of(chain[m // 2]) if m % 2 == 0 else ONE
            for k in range(m + 1):
                j = m - k
                if k < j:
                    s.setdefault(chain[k], ONE)
                    s[chain[j]] = eps / c_of(chain[k])
                elif k == j:
                    s[chain[k]] = ONE
            done.add(chain[0])
        else:
            if mirror_start not in starts:
                raise ValueError("triple is not sigma-compatible")
            mirror = _chain_of(simple_chains, mirror_start)
            for k in range(m + 1):
                s.setdefault(chain[k], ONE)
                s[mirror[k]] = ONE / c_of(chain[m - k])
            done.add(chain[0])
            done.add(mirror_start)
    return s


def extend_T(rs: RootSystem, bd: BDTriple, sigma: Involution | None = None) -> dict:
    """Scale map s of the root-vector family adapted to the triple.

    The family is x'_gamma = s_gamma x_gamma, x'_{-gamma} = x_{-gamma} /
    s_gamma over positive gamma; chain transport satisfies
    T(x'_beta) = x'_{T beta} for every beta in the Gamma1 span.
    """
    s = {g: ONE for g in rs.positive_roots}
    s.update(_sigma_chain_scalars(rs, bd, sigma))
    hat1 = set(span_subset_roots(rs, bd.gamma1))
    gamma1_roots = {rs.simple_roots[i] for i in bd.gamma1}

    composite_chains = [c for c in tau_chains(rs, bd) if sum(c[0]) > 1]
    composite_chains.sort(key=lambda c: sum(c[0]))
    for chain in composite_chains:
        for beta, tbeta in zip(chain, chain[1:]):
            # decompose beta inside the Gamma1 subsystem
            gamma = next(
                g
                for g in gamma1_roots
                if tuple(a - b for a, b in zip(beta, g)) in hat1
            )
            delta = tuple(a - b for a, b in zip(beta, gamma))
            tg = extend_tau_additively(rs, bd, gamma)
            td = extend_tau_additively(rs, bd, delta)
            s[tbeta] = (
                s[beta]
                * s[tg]
                * s[td]
                * rs.normalized_n(tg, td)
                / (rs.normalized_n(gamma, delta) * s[gamma] * s[delta])
            )
    return s


# ---- tensors ---------------------------------------------------------------


def build_r0(
    rs: RootSystem,
    bd: BDTriple,
    lam: ContinuousParameter,
    t: GaussianRational,
    family: dict | None = None,
) -> Tensor2:
    """The antisymmetric tensor r0 = r - t Omega / 2, built in one pass:
    t (lam - Omega_0 / 2) on h (x) h, t/2 at (x_{-gamma}, x_gamma) and
    -t/2 at (x_gamma, x_{-gamma}) over positive gamma, and the precedence
    terms of r, which Omega does not touch."""
    if not t:
        raise ValueError("t must be nonzero")
    if not satisfies_constraints(rs, bd, lam):
        raise ValueError("continuous parameter fails its defining constraints")
    if family is None:
        family = extend_T(rs, bd)
    half_t = t * HALF
    omega0 = rs.cartan_dual_gram
    entries = {}
    for i, row in enumerate(lam.matrix):
        for j, v in enumerate(row):
            entries[(i, j)] = t * v - half_t * omega0[i][j] if omega0[i][j] else t * v
    npos, minus_half_t = rs.npos, -half_t
    for ip in range(rs.rank, rs.rank + npos):  # x_gamma, then x_{-gamma} npos later
        entries[(ip + npos, ip)], entries[(ip, ip + npos)] = half_t, minus_half_t
    # alpha precedes beta strictly, so no key below repeats one above
    for alpha, beta in precedence_pairs(rs, bd):
        coeff = t * family[beta] / family[alpha]
        ia, ib = rs.root_index(alpha) + npos, rs.root_index(beta)
        entries[(ia, ib)], entries[(ib, ia)] = coeff, -coeff
    return Tensor2(rs.dim, entries)


def build_r(
    rs: RootSystem,
    bd: BDTriple,
    lam: ContinuousParameter,
    t: GaussianRational,
    family: dict | None = None,
) -> Tensor2:
    """The quasitriangular tensor r = r0 + t Omega / 2 for the given data.

    No command calls it (a datum derives r from its r0 when r is read);
    it stays because the per-layer tracer of perfbench/layers.py spans it
    by name."""
    return _plus_half_t_omega(rs, build_r0(rs, bd, lam, t, family), t)


def _plus_half_t_omega(rs: RootSystem, r0: Tensor2, t: GaussianRational) -> Tensor2:
    """r0 + t Omega / 2, touching only the nonzero entries of r0 and Omega."""
    return r0 + rs.casimir.scale(t * HALF)


# ---- the classification datum ----------------------------------------------


class BialgebraDatum:
    """One classification datum.  r is r0 + t Omega / 2, derived on first
    read unless given (a datum file states its own r)."""

    __slots__ = ("rs", "sigma", "sigma_label", "bd", "lam", "t", "r0", "_r")

    def __init__(
        self, rs: RootSystem, sigma: Involution, sigma_label: str, bd: BDTriple,
        lam: ContinuousParameter, t: GaussianRational, r0: Tensor2, r: Tensor2 | None = None,
    ):
        self.rs, self.sigma, self.sigma_label, self.bd = rs, sigma, sigma_label, bd
        self.lam, self.t, self.r0, self._r = lam, t, r0, r

    @property
    def r(self) -> Tensor2:
        if self._r is None:
            self._r = _plus_half_t_omega(self.rs, self.r0, self.t)
        return self._r

    @property
    def t_class(self) -> str:
        return "real_positive" if self.t.is_real() else "imaginary_positive"

    def to_json(self) -> dict:
        return {
            "type": str(self.rs.type),
            "sigma": self.sigma.to_json(),
            "sigma_label": self.sigma_label,
            "bd": self.bd.to_json(),
            "lambda": self.lam.to_json(),
            "t": self.t.to_json(),
            "t_class": self.t_class,
            "r0": self.r0.to_json(),
            "r": self.r.to_json(),
        }


def _positive(t: GaussianRational) -> bool:
    return t.a > 0 or (not t.a and t.b > 0)


def _shared(memo: dict | None, key: tuple, compute):
    """compute(), or the value memo already holds for key."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def make_datum(
    rs: RootSystem,
    sigma: Involution,
    bd: BDTriple,
    lam: ContinuousParameter,
    t: GaussianRational,
    memo: dict | None = None,
) -> BialgebraDatum:
    """Assemble and check one classification datum.

    Raises NoBialgebraDatum when the combination violates one of the
    reality conditions (wrong stability, lambda coefficients or t-line).

    memo, when given, holds what several data of one root system share:
    stability per (triple, mu), the lambda condition per (lambda, kind,
    mu), and r0 per (triple, lambda, t, simple-chain scalars of sigma),
    the only way r0 depends on sigma.  Each datum still checks
    sigma_fixes against its own sigma, and derives r only when read.
    """
    label = sigma.describe()
    kind = reality_kind_for(label)
    mu = sigma.mu
    st = _shared(memo, ("stability", bd, mu), lambda: stability(bd, mu))
    if not stability_ok(bd, kind, mu, st):
        raise NoBialgebraDatum(f"triple incompatible with {label}")
    if not t_reality_ok(t, kind):
        raise NoBialgebraDatum(f"t = {t} not allowed for {label}")
    lam_key = tuple(map(tuple, lam.matrix))
    if not _shared(
        memo, ("lambda", lam_key, kind, mu), lambda: lambda_reality_ok(lam, kind, mu)
    ):
        raise NoBialgebraDatum(f"lambda coefficients not allowed for {label}")
    if not _positive(t):
        raise ValueError("t must lie on the positive real or imaginary ray")
    scalars = frozenset(_sigma_chain_scalars(rs, bd, sigma).items())
    r0 = _shared(
        memo, ("r0", bd, lam_key, t, scalars),
        lambda: build_r0(rs, bd, lam, t, extend_T(rs, bd, sigma)),
    )
    datum = BialgebraDatum(rs, sigma, label, bd, lam, t, r0)
    assert sigma_fixes(datum), "constructed tensor escaped the real form"
    return datum


def default_t(label: str) -> GaussianRational:
    """The representative scalar of a table row: 1 on the real rows, i on
    the imaginary ones."""
    if reality_kind_for(label) in ("real", "conjugate-mu"):
        return ONE
    return GaussianRational(0, 1)


def iter_data(
    rs: RootSystem, sigmas
) -> Iterator[tuple[Involution, ParameterSpace, BialgebraDatum]]:
    """Every classification datum over the given involutions.

    Yields (sigma, reality-cut parameter space, datum at its base point
    and default t), involution-major, then in triple enumeration order.
    The triples are enumerated once, and each triple's complex parameter
    space is solved at most once, only after some involution passed the
    stability test for it.  Its reality cut, which depends only on the
    triple, the reality kind and mu, is made once per such key.  One memo
    for the whole call lets make_datum share stability, the lambda
    condition and r0 among the involutions that agree on them.
    """
    triples = enumerate_bd_triples(rs)
    solved: dict[BDTriple, ParameterSpace] = {}
    cut: dict[tuple, ParameterSpace | None] = {}  # None: no datum
    memo: dict = {}
    for sigma in sigmas:
        label = sigma.describe()
        kind = reality_kind_for(label)
        mu = sigma.mu
        for bd in triples:
            st = _shared(memo, ("stability", bd, mu), lambda: stability(bd, mu))
            if not stability_ok(bd, kind, mu, st):
                continue
            if bd not in solved:
                solved[bd] = solve_parameters(rs, bd)
            key = (bd, kind, mu)
            if key not in cut:
                try:
                    cut[key] = apply_reality(solved[bd], label, mu, bd)
                except NoBialgebraDatum:
                    cut[key] = None
            space = cut[key]
            if space is None:
                continue
            datum = make_datum(rs, sigma, bd, space.base_point, default_t(label), memo)
            yield sigma, space, datum


def sigma_fixes(datum: BialgebraDatum) -> bool:
    """(sigma (x) sigma)(r0) = r0, checked entry by entry in ints.

    sigma maps e_a to m_a e_{sigma a} (a one-entry column), so sigma (x)
    sigma permutes the index pairs and sends the entry v at (a, b) to
    conj(v) m_a m_b at (sigma a, sigma b); r0 is fixed iff every such
    image equals the entry of r0 it lands on.  Over the lcm L of r0's
    denominators and the common denominator D of sigma's columns, each
    test is an equality of Gaussian integers.  Raises ValueError if a
    column of sigma has more than one entry."""
    images, den, scalars = datum.sigma.int_columns()
    dd = den * den
    entries = datum.r0.entries
    lcd = lcm(*(v.d for v in entries.values()))
    ints = {k: (v.a * (lcd // v.d), v.b * (lcd // v.d)) for k, v in entries.items()}
    for (a, b), (p, q) in ints.items():
        w = ints.get((images[a], images[b]))
        if w is None:
            return False
        (xa, ya), (xb, yb) = scalars[a], scalars[b]
        s, u = xa * xb - ya * yb, xa * yb + ya * xb  # m_a m_b, times D^2
        # conj(v) m_a m_b = (p - q i)(s + u i) / (L D^2)
        if w[0] * dd != p * s + q * u or w[1] * dd != p * u - q * s:
            return False
    return True


def verify_datum(datum: BialgebraDatum, check_cybe: bool = True) -> dict:
    """Every defining identity, each as a named exact check.

    parameter_constraints holds when the declared triple and lambda
    satisfy their constraints and are the ones r0 carries: extract_data
    recovers them, and t, from r0 alone.
    """
    rs = datum.rs
    t = datum.t
    omega = rs.casimir
    r_sym = datum.r + datum.r.transpose()
    checks = {
        "r_plus_r21_equals_t_omega": r_sym == omega.scale(t),
        "r0_antisymmetric": datum.r0.is_antisymmetric(),
        "r0_equals_r_minus_half_t_omega": _plus_half_t_omega(rs, datum.r0, t)
        == datum.r,
        "parameter_constraints": satisfies_constraints(rs, datum.bd, datum.lam)
        and _carries_declared_data(datum),
        "sigma_fixes_r0": sigma_fixes(datum),
        "t_reality": t_reality_ok(t, reality_kind_for(datum.sigma_label)),
        "lambda_reality": lambda_reality_ok(
            datum.lam, reality_kind_for(datum.sigma_label), datum.sigma.mu
        ),
        "stability": stability_ok(
            datum.bd, reality_kind_for(datum.sigma_label), datum.sigma.mu
        ),
    }
    if check_cybe:
        checks["cybe"] = cybe_is_zero(datum.r, rs.structure)
    return checks


def _carries_declared_data(datum: BialgebraDatum) -> bool:
    """Whether r0 recovers exactly the triple, lambda and t the datum
    declares.  A tensor extraction rejects is not a datum of this
    classification, so it carries nothing."""
    try:
        t, bd, lam = extract_data(datum.rs, datum.r0)
    except ExtractionError:
        return False
    return bd == datum.bd and t == datum.t and lam.matrix == datum.lam.matrix


# ---- recovery ---------------------------------------------------------------


def extract_data(
    rs: RootSystem, r0: Tensor2
) -> tuple[GaussianRational, BDTriple, ContinuousParameter]:
    """Recover (t, triple, lambda) from an antisymmetric solution r0.

    Recovery works in the standard frame only: the bracket image of r0
    must lie in the standard Cartan subalgebra and the recovered simple
    roots must be the standard ones, as they are for every tensor this
    library builds and its images under diagram symmetries.
    """
    if r0.dim != rs.dim:
        raise ValueError("dimension mismatch")
    if not r0.is_antisymmetric():
        raise ExtractionError("tensor is not antisymmetric")
    if r0.is_zero():
        raise ExtractionError("zero tensor is triangular, not almost factorizable")

    # modified Yang-Baxter constant: CYB(r0) = c^2 [Omega13, Omega23], and
    # [Omega13, Omega23] = CYB(Omega) for the invariant symmetric Omega
    cyb = cybe(r0, rs.structure)
    if not cyb:
        raise ExtractionError("tensor is triangular (vanishing modified YBE constant)")
    ref = rs.casimir_cybe
    key = next(iter(ref))
    ratio = cyb.get(key, ZERO) / ref[key]
    if cyb != {k: ratio * v for k, v in ref.items()}:
        raise ExtractionError("CYB(r0) is not proportional to [Omega13, Omega23]")
    if not ratio.is_real():
        raise ExtractionError("modified YBE constant squared must be real")

    # H = image of r0 under the bracket; must be regular in the Cartan.
    # ad H is diagonal there, gamma(H) on x_gamma, so H is regular when
    # no root vanishes on it.
    h_vec = [ZERO] * rs.dim
    for (a, b), v in r0.items():
        for k, c in rs.structure.bracket_basis(a, b):
            h_vec[k] = h_vec[k] + v * c
    if any(h_vec[rs.rank:]):
        raise ExtractionError("bracket image does not lie in the standard Cartan")
    for g in rs.positive_roots:
        if not sum((x * y for x, y in zip(h_vec, rs.root_values(g))), ZERO):
            raise ExtractionError("bracket image is not regular")

    # t from the paired root slots, sign-normalized to the positive rays
    sample = None
    for g in rs.positive_roots:
        v = r0.get(rs.root_index(tuple(-x for x in g)), rs.root_index(g))
        if v:
            sample = v
            break
    if sample is None:
        raise ExtractionError("no paired root-vector entries found")
    t = sample + sample  # 2v = +-t
    if not _positive(t):
        t = -t
    if not (t.is_real() or t.is_imaginary()):
        raise ExtractionError("recovered t is neither real nor imaginary")
    if t * t + GaussianRational(4) * ratio:
        raise ExtractionError("entry-level t disagrees with the modified YBE constant")

    half_t = t * HALF
    new_pos = []
    for g in rs.positive_roots:
        v = r0.get(rs.root_index(tuple(-x for x in g)), rs.root_index(g))
        if v == half_t:
            new_pos.append(g)
        elif v == -half_t:
            new_pos.append(tuple(-x for x in g))
        else:
            raise ExtractionError("paired root slots are not +-t/2")
    # consistency: H = -t * sum of h_alpha over the recovered positives
    expect = [ZERO] * rs.dim
    for g in new_pos:
        for i, c in enumerate(g):
            expect[i] = expect[i] + GaussianRational(c)
    if [x * (-t) for x in expect] != h_vec:
        raise ExtractionError("bracket image inconsistent with recovered positives")

    pos_set = set(new_pos)
    delta = [
        g
        for g in new_pos
        if not any(
            tuple(a - b for a, b in zip(g, h)) in pos_set for h in new_pos if h != g
        )
    ]
    delta.sort(key=lambda r: (next(i for i, c in enumerate(r) if c), r))
    if delta != rs.simple_roots:
        raise ExtractionError("recovered simple roots are not the standard ones")

    pairs = set()
    for a in new_pos:
        ia = rs.root_index(tuple(-x for x in a))
        for b in new_pos:
            if a != b and r0.get(ia, rs.root_index(b)):
                pairs.add((a, b))

    # triple: covering relations among the simple pairs
    lefts = {a for a, _ in pairs}
    g1_pos = [i for i, d in enumerate(delta) if d in lefts]

    def chain_len(a):
        return len([1 for (x, _) in pairs if x == a])

    mapping = {}
    for i in g1_pos:
        a = delta[i]
        succ = [b for (x, b) in pairs if x == a]
        target = chain_len(a) - 1
        nxt = [b for b in succ if chain_len(b) == target]
        if len(nxt) != 1 or nxt[0] not in delta:
            raise ExtractionError("precedence pairs do not form tau-chains")
        mapping[i] = delta.index(nxt[0])
    bd = BDTriple.make(tuple(g1_pos), tuple(sorted(mapping.values())), mapping)

    # lambda: the Cartan block of r0 over t, plus the symmetric Omega_0 / 2
    omega0 = rs.cartan_dual_gram
    lam = ContinuousParameter([
        [r0.get(i, j) / t + HALF * omega0[i][j] for j in range(rs.rank)]
        for i in range(rs.rank)
    ])
    return t, bd, lam


# ---- dedup ------------------------------------------------------------------


def conjugate_datum_key(datum: BialgebraDatum, psi: DiagramAutomorphism):
    """Canonical comparison key of the datum conjugated by psi."""
    perm = psi.permutation
    mu = datum.sigma.mu
    mu2 = tuple(perm[mu(perm.index(k))] for k in range(len(perm)))
    j2 = tuple(sorted(perm[j] for j in datum.sigma.J))
    g1 = tuple(sorted(perm[i] for i in datum.bd.gamma1))
    g2 = tuple(sorted(perm[i] for i in datum.bd.gamma2))
    tau2 = tuple(sorted((perm[i], perm[j]) for i, j in datum.bd.tau))
    n = len(perm)
    lam = datum.lam.matrix
    lam2 = tuple(
        tuple(str(lam[perm.index(i)][perm.index(j)]) for j in range(n))
        for i in range(n)
    )
    return (datum.sigma_label, mu2, j2, g1, g2, tau2, lam2, str(datum.t))


def classify(data: Iterable[BialgebraDatum]) -> list[BialgebraDatum]:
    """One representative per isomorphism class: same table row with the
    remaining data conjugate under an order-2 diagram symmetry.  Reads
    data once, as it comes, keeping only each class's representative."""
    seen: dict[tuple, tuple] = {}  # class key -> (own key, representative)
    autos = None
    for datum in data:
        if autos is None:
            autos = diagram_automorphisms(datum.rs)
            assert autos[0].is_identity()
        keys = [conjugate_datum_key(datum, psi) for psi in autos]
        key, own = min(keys), keys[0]
        cur = seen.get(key)
        if cur is None or own < cur[0]:
            seen[key] = (own, datum)
    return [datum for _, datum in sorted(seen.values(), key=lambda kept: kept[0])]
