"""Construction and analysis of the classified r-matrices.

The quasitriangular tensor is

    r = t * (lam + sum over positive gamma of x_{-gamma} (x) x_gamma
               + sum over alpha < beta of x_{-alpha} wedge x_beta),

and build_r0 builds its antisymmetric companion r0 = r - t Omega / 2
directly.  The table loop (make_datum, iter_data) builds and checks r0
only; r = r0 + t Omega / 2 is derived from it where a command writes r
(build, enumerate --materialize), and verify reads both from its file.

The root-vector family used in the precedence terms is produced by
extend_T, a sign map: target vectors along tau-chains are signed so
that the chain transport maps x_beta exactly to x_{T beta}, propagating
through brackets for composite roots (_family says why signs suffice).
When a canonical involution is supplied, a further sign on the simple
chain vectors makes the family sigma-compatible, which is what makes
(sigma (x) sigma)(r0) = r0 hold in the stable/antistable cases.

extract_data inverts the construction in the standard frame: from an
antisymmetric solution it recovers the sign-normalized scalar t, the
triple and the continuous parameter, all read off r0's integer
numerators, so verify makes no scalar arithmetic.

iter_data is the one enumeration pipeline: every (involution, triple)
row of the classification table, instantiated at a base point; what
depends only on the triple, the cut or r0 is computed once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    extend_tau_additively,
    precedence_pairs,
    span_subset_roots,
    tau_chains,
)
from .core import (
    GaussianRational,
    I,
    ONE,
    Tensor2,
    cybe_is_zero,
    cybe_sums,
    entry_str,
    gaussian,
    over_lcm,
)
from .involution import Involution
from .parameter import (
    ContinuousParameter,
    NoBialgebraDatum,
    ParameterSpace,
    apply_reality,
    lambda_reality_ok,
    satisfies_constraints,
    solve_parameters,
    stability_ok,
    t_reality_ok,
)
from .rootsystem import RootSystem


class ExtractionError(ValueError):
    """The tensor is outside the branch this library classifies."""


# ---- the root-vector family -------------------------------------------------


def _sigma_chain_scalars(bd, sigma, chains):
    """Simple-root signs making the family sigma-compatible, given the
    tau-chains of the triple.

    Only the omega kinds with a nonempty antistable triple need work:
    there the generator scalars (-1)^{chi_J} must come out constant
    along every tau-chain, which a sign per vertex always achieves."""
    s: dict[tuple, int] = {}
    if sigma is None or sigma.kind == "varsigma" or bd.is_empty():
        return s
    mu = sigma.mu
    jset = set(sigma.J)

    def c_of(root):  # (-1)^{chi_J} at a simple root
        return -1 if root.index(1) in jset else 1

    simple_chains = {c[0]: c for c in chains if sum(c[0]) == 1}
    done = set()
    for chain in simple_chains.values():
        if chain[0] in done:
            continue
        m = len(chain) - 1
        mirror_start = mu.apply_root(chain[m])
        if mirror_start == chain[0]:
            # self-paired chain: mu reverses it.  The generator scalars
            # cannot be scaled past c * |s|^2 > 0 at a mu-fixed middle
            # vertex, so normalize the chain constant to the middle value
            # rather than to 1; only constancy along the chain matters.
            eps = c_of(chain[m // 2]) if m % 2 == 0 else 1
            for k in range(m + 1):
                j = m - k
                if k < j:
                    s.setdefault(chain[k], 1)
                    s[chain[j]] = eps * c_of(chain[k])
                elif k == j:
                    s[chain[k]] = 1
            done.add(chain[0])
        else:
            mirror = simple_chains.get(mirror_start)
            if mirror is None or len(mirror) != len(chain):
                raise ValueError("triple is not sigma-compatible")
            for k in range(m + 1):
                s.setdefault(chain[k], 1)
                s[mirror[k]] = c_of(chain[m - k])
            done.add(chain[0])
            done.add(mirror_start)
    return s


def extend_T(rs: RootSystem, bd: BDTriple, sigma: Involution | None = None) -> dict:
    """Sign map s of the root-vector family adapted to the triple.

    The family is x'_gamma = s_gamma x_gamma, x'_{-gamma} = s_gamma
    x_{-gamma} over positive gamma, each s_gamma = +-1; chain transport
    satisfies T(x'_beta) = x'_{T beta} for every beta in the Gamma1 span.
    """
    chains = tau_chains(rs, bd)
    return _family(rs, bd, chains, _sigma_chain_scalars(bd, sigma, chains))


def _family(rs: RootSystem, bd: BDTriple, chains: list, signs: dict) -> dict:
    """extend_T's sign map from the tau-chains and the sigma signs.

    A composite beta = gamma + delta of the Gamma1 span is sent to
    T beta = T gamma + T delta, and transport through the bracket asks
    s(T beta) = s(beta) s(T gamma) s(T delta) N'(T gamma, T delta) /
    (N'(gamma, delta) s(gamma) s(delta)) for the kappa-normalized
    constants N'.  T is an isometry of the Gamma1 and Gamma2 subsystems,
    so it keeps root norms, hence each root's kappa-scale, and root
    strings, hence |N|: the quotient of the N' is the sign of N(T gamma,
    T delta) N(gamma, delta), and starting from signs every s is a sign.
    """
    s = dict.fromkeys(rs.positive_roots, 1)
    s.update(signs)
    nmap = rs._n
    hat1 = set(span_subset_roots(rs, bd.gamma1))
    gamma1_roots = {rs.simple_roots[i] for i in bd.gamma1}

    composite_chains = [c for c in chains if sum(c[0]) > 1]
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
            e = s[beta] * s[tg] * s[td] * s[gamma] * s[delta]
            s[tbeta] = e if nmap[tg, td] == nmap[gamma, delta] else -e
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
    terms of r, which Omega does not touch.

    Written in the integer format directly: each distinct entry is a
    fraction of the ints of t and lam, a precedence term signed by the
    family, and one over_lcm puts them over r0's denominator."""
    if not t:
        raise ValueError("t must be nonzero")
    if not satisfies_constraints(rs, bd, lam):
        raise ValueError("continuous parameter fails its defining constraints")
    if family is None:
        family = extend_T(rs, bd)
    n, npos = rs.rank, rs.npos
    ta, tb, td = t.a, t.b, t.d
    omega0 = rs.cartan_dual_gram
    cartan, fields = [], [(ta, tb, 2 * td)]  # t/2 first
    # t (lam - Omega_0 / 2) = t (2 (re + im i) - den Omega_0) / (2 den)
    lre, lim, d2 = lam.re, lam.im, 2 * lam.den * td
    for i in range(n):
        for j in range(n):
            x, y = 2 * lre[n * i + j] - lam.den * omega0[i][j], 2 * lim[n * i + j]
            if x or y:
                cartan.append((i, j))
                fields.append((ta * x - tb * y, ta * y + tb * x, d2))
    # t s_beta / s_alpha = e t for the sign e = s_alpha s_beta
    precedence = []
    for alpha, beta in precedence_pairs(rs, bd):
        e = family[alpha] * family[beta]
        precedence.append((rs.root_index(alpha) + npos, rs.root_index(beta)))
        fields.append((e * ta, e * tb, td))
    den, z = over_lcm(fields)
    half_t = z[0]
    minus_half_t = (-half_t[0], -half_t[1])
    num = dict(zip(cartan, z[1:]))
    for ip in range(n, n + npos):  # x_gamma, then x_{-gamma} npos later
        num[(ip + npos, ip)], num[(ip, ip + npos)] = half_t, minus_half_t
    # alpha precedes beta strictly, so no key below repeats one above
    for (ia, ib), (a, b) in zip(precedence, z[1 + len(cartan) :]):
        num[(ia, ib)], num[(ib, ia)] = (a, b), (-a, -b)
    return Tensor2(rs.dim, den, num)


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
    """r0 + t Omega / 2, touching only the nonzero entries of r0 and
    Omega; t / 2 is read off t's fields."""
    return r0 + rs.casimir.scale(gaussian(t.a, t.b, 2 * t.d))


# ---- the classification datum ----------------------------------------------


class BialgebraDatum:
    """One classification datum.  r is r0 + t Omega / 2, derived on first
    read unless given (a datum file states its own r)."""

    __slots__ = ("rs", "sigma", "bd", "lam", "t", "r0", "_r")

    def __init__(
        self, rs: RootSystem, sigma: Involution, bd: BDTriple, lam: ContinuousParameter,
        t: GaussianRational, r0: Tensor2, r: Tensor2 | None = None,
    ):
        self.rs, self.sigma, self.bd = rs, sigma, bd
        self.lam, self.t, self.r0, self._r = lam, t, r0, r

    @property
    def sigma_label(self) -> str:
        return self.sigma.describe()

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


def _positive(a: int, b: int) -> bool:
    """Whether (a + b i) / d, d > 0, lies on the positive real or
    imaginary ray."""
    return a > 0 or (not a and b > 0)


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

    Raises NoBialgebraDatum when the combination violates sigma's reality
    rule (parameter.py) on the triple's stability, t or lambda.

    memo, when given, holds what several data of one root system share:
    the lambda condition per (lambda, sigma's kind, mu), the tau-chains
    per triple, and r0 per (triple, lambda, t, simple-root signs of
    sigma), the only way r0 depends on sigma.  lambda is a key by its
    integer fields.  Each datum still checks sigma_fixes against its own
    sigma, and derives r only when read.
    """
    if not stability_ok(bd, sigma):
        raise NoBialgebraDatum(f"triple incompatible with {sigma.describe()}")
    if not t_reality_ok(t, sigma):
        raise NoBialgebraDatum(f"t = {t} not allowed for {sigma.describe()}")
    if not _shared(
        memo, ("lambda", lam, sigma.kind, sigma.mu), lambda: lambda_reality_ok(lam, sigma)
    ):
        raise NoBialgebraDatum(f"lambda coefficients not allowed for {sigma.describe()}")
    if not _positive(t.a, t.b):
        raise ValueError("t must lie on the positive real or imaginary ray")
    chains = _shared(memo, ("chains", bd), lambda: tau_chains(rs, bd))
    scalars = _sigma_chain_scalars(bd, sigma, chains)
    r0 = _shared(
        memo, ("r0", bd, lam, t, frozenset(scalars.items())),
        lambda: build_r0(rs, bd, lam, t, _family(rs, bd, chains, scalars)),
    )
    datum = BialgebraDatum(rs, sigma, bd, lam, t, r0)
    assert sigma_fixes(datum), "constructed tensor escaped the real form"
    return datum


def default_t(sigma: Involution) -> GaussianRational:
    """The representative scalar of sigma's table rows, on the line
    conj(t) = eps t: 1 for varsigma, i for omega."""
    return ONE if sigma.kind == "varsigma" else I


def iter_data(
    rs: RootSystem, sigmas
) -> Iterator[tuple[Involution, ParameterSpace, BialgebraDatum]]:
    """Every classification datum over the given involutions.

    Yields (sigma, reality-cut parameter space, datum at its base point
    and default t), involution-major, then in triple enumeration order.
    The triples are enumerated once, and those whose stability allows
    the reality rule of a (sigma's kind, mu) are listed once per (kind,
    mu), a group; each involution walks its group's list.  A triple's
    complex parameter space is solved at most once, only when some group
    lists it, and its reality cut once per group.  A memo per triple
    holds that space and lets make_datum share the lambda condition, the
    tau-chains and r0 among the involutions that agree on them.

    State goes after its last possible reader: a triple's memo after the
    last involution whose group lists the triple, and a group's list and
    cuts after the group's last involution, so a long table holds only
    what a later involution may still read.
    """
    sigmas = list(sigmas)
    keys = [(sigma.kind, sigma.mu) for sigma in sigmas]
    end = {key: i for i, key in enumerate(keys)}  # each group's last involution
    triples = enumerate_bd_triples(rs)
    groups: dict[tuple, tuple[list, dict]] = {}  # the group's triples, their cuts
    final: dict[BDTriple, int] = {}  # the last involution whose group lists a triple
    for key, last in end.items():
        allowed = []
        for bd in triples:
            if stability_ok(bd, sigmas[last]):
                allowed.append(bd)
                final[bd] = max(final.get(bd, last), last)
        groups[key] = (allowed, {})
    memos: dict[BDTriple, dict] = {}
    for i, (sigma, key) in enumerate(zip(sigmas, keys)):
        closing = end[key] == i  # the group's last involution
        allowed, cut = groups.pop(key) if closing else groups[key]
        for bd in allowed:
            memo = memos.pop(bd, {}) if final[bd] == i else memos.setdefault(bd, {})
            if bd not in cut:
                solved = _shared(memo, "solved", lambda: solve_parameters(rs, bd))
                try:
                    cut[bd] = apply_reality(solved, sigma, bd)
                except NoBialgebraDatum:
                    cut[bd] = None  # no datum
            space = cut.pop(bd) if closing else cut[bd]
            if space is None:
                continue
            datum = make_datum(rs, sigma, bd, space.base_point, default_t(sigma), memo)
            yield sigma, space, datum


def sigma_fixes(datum: BialgebraDatum) -> bool:
    """(sigma (x) sigma)(r0) = r0, checked entry by entry in ints.

    sigma maps e_a to m_a e_{sigma a}, so sigma (x) sigma permutes the
    index pairs and sends the entry v at (a, b) to conj(v) m_a m_b at
    (sigma a, sigma b); r0 is fixed iff every such image equals the entry
    of r0 it lands on: an equality of Gaussian integers on the numerators
    of r0 and on sigma's fields, m_a = scalars[a] / den."""
    sigma = datum.sigma
    images, den, scalars = sigma.images, sigma.den, sigma.scalars
    dd = den * den
    num = datum.r0.num
    for (a, b), (p, q) in num.items():
        w = num.get((images[a], images[b]))
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
        "t_reality": t_reality_ok(t, datum.sigma),
        "lambda_reality": lambda_reality_ok(datum.lam, datum.sigma),
        "stability": stability_ok(datum.bd, datum.sigma),
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
    return bd == datum.bd and t == datum.t and lam == datum.lam


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
    # [Omega13, Omega23] = CYB(Omega) for the invariant symmetric Omega.
    # Both are integer sums over their own denominators, so proportionality
    # is a cross-multiplication against the first key of CYB(Omega).
    acc, acc_im, den = cybe_sums(r0, rs.structure)
    if not any(acc.values()) and not any(acc_im.values()):
        raise ExtractionError("tensor is triangular (vanishing modified YBE constant)")
    ref_den, ref = rs.casimir_cybe
    key = next(iter(ref))
    c, p, q = ref[key], acc.get(key, 0), acc_im.get(key, 0)
    if any(k not in acc for k in ref) or any(
        a * c != p * ref.get(k, 0) or acc_im.get(k, 0) * c != q * ref.get(k, 0)
        for k, a in acc.items()
    ):
        raise ExtractionError("CYB(r0) is not proportional to [Omega13, Omega23]")
    if q:
        raise ExtractionError("modified YBE constant squared must be real")
    ratio_num, ratio_den = p * ref_den, den * c  # CYB(r0) / CYB(Omega)

    # H = image of r0 under the bracket; must be regular in the Cartan.
    # ad H is diagonal there, gamma(H) on x_gamma, so H is regular when
    # no root vanishes on it.  H is summed in ints, over the dens of r0
    # and the table, and gamma(H) over theirs and gram_den.
    table = rs.structure.table
    h_re, h_im = [0] * rs.dim, [0] * rs.dim
    for (a, b), (p, q) in r0.num.items():
        for k, c in table.get((a, b), ()):
            h_re[k] += p * c
            h_im[k] += q * c
    if any(h_re[rs.rank:]) or any(h_im[rs.rank:]):
        raise ExtractionError("bracket image does not lie in the standard Cartan")
    for g in rs.positive_roots:
        values = rs.root_values(g)
        if not any(sum(x * v for x, v in zip(h, values)) for h in (h_re, h_im)):
            raise ExtractionError("bracket image is not regular")

    # t from the paired root slots, sign-normalized to the positive rays:
    # t / 2 = (x + y i) / r0.den, +- the first nonzero entry there
    num, index = r0.num, rs.root_index
    paired = [num.get((index(tuple(-c for c in g)), index(g))) for g in rs.positive_roots]
    sample = next((v for v in paired if v), None)
    if sample is None:
        raise ExtractionError("no paired root-vector entries found")
    x, y = sample if _positive(*sample) else (-sample[0], -sample[1])
    if x and y:
        raise ExtractionError("recovered t is neither real nor imaginary")
    # t^2 = -4 CYB(r0) / CYB(Omega), times r0.den^2 ratio_den / 4; x y = 0
    if (x * x - y * y) * ratio_den + ratio_num * r0.den**2:
        raise ExtractionError("entry-level t disagrees with the modified YBE constant")

    new_pos = []
    for g, v in zip(rs.positive_roots, paired):
        if v == (x, y):
            new_pos.append(g)
        elif v == (-x, -y):
            new_pos.append(tuple(-c for c in g))
        else:
            raise ExtractionError("paired root slots are not +-t/2")
    # H = -t * (sum of h_g over new_pos) by construction: a Cartan-root entry leaves a root part,
    # rejected as not in the standard Cartan above, and the paired slots, now +-t/2, give that sum.

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
            if a != b and (ia, index(b)) in num:
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

    # lambda: the Cartan block of r0 over t, plus the symmetric Omega_0 / 2;
    # for the entry (p + q i) / r0.den it is ((p + q i)(x - y i) + m w) /
    # (2 m), with m = x^2 + y^2 and w the entry of Omega_0
    m, omega0 = x * x + y * y, rs.cartan_dual_gram
    cells = [(num.get((i, j), (0, 0)), w)
             for i, row in enumerate(omega0) for j, w in enumerate(row)]
    re = [p * x + q * y + m * w for (p, q), w in cells]
    im = [q * x - p * y for (p, q), _ in cells]
    return gaussian(2 * x, 2 * y, r0.den), bd, ContinuousParameter(rs.rank, 2 * m, re, im)


# ---- dedup ------------------------------------------------------------------


def conjugate_datum_key(datum: BialgebraDatum, psi: DiagramAutomorphism):
    """Canonical comparison key of the datum conjugated by psi.  lambda
    enters as one string, its entries in row-major order joined by a
    space, which sorts below every character an entry uses (digits, '-',
    '/', '+', 'i'), so the keys order and compare as the tuples of entry
    strings would, in a fraction of their memory."""
    perm = psi.permutation
    mu = datum.sigma.mu
    mu2 = tuple(perm[mu(perm.index(k))] for k in range(len(perm)))
    j2 = tuple(sorted(perm[j] for j in datum.sigma.J))
    g1 = tuple(sorted(perm[i] for i in datum.bd.gamma1))
    g2 = tuple(sorted(perm[i] for i in datum.bd.gamma2))
    tau2 = tuple(sorted((perm[i], perm[j]) for i, j in datum.bd.tau))
    n = len(perm)
    inv = [perm.index(i) for i in range(n)]
    lam = datum.lam
    entries = [entry_str(x, y, lam.den) for x, y in zip(lam.re, lam.im)]
    lam2 = " ".join(entries[n * inv[i] + inv[j]] for i in range(n) for j in range(n))
    return (datum.sigma_label, mu2, j2, g1, g2, tau2, lam2, str(datum.t))


def classify(data: Iterable[BialgebraDatum]) -> list[dict]:
    """One representative per isomorphism class: same table row with the
    remaining data conjugate under an order-2 diagram symmetry.  Reads
    data once, as it comes.  For each class it keeps only the keys and
    what its row prints (sigma_label, sigma, bd and t_class), so no datum
    outlives its turn; returns the rows in the order of the
    representatives' own keys."""
    seen: dict[tuple, tuple] = {}  # class key -> (own key, label, sigma, bd, t_class)
    autos = None
    for datum in data:
        if autos is None:
            autos = diagram_automorphisms(datum.rs)
            assert autos[0].is_identity()
        keys = [conjugate_datum_key(datum, psi) for psi in autos]
        key, own = min(keys), keys[0]
        cur = seen.get(key)
        if cur is None or own < cur[0]:
            seen[key] = (own, datum.sigma_label, datum.sigma, datum.bd, datum.t_class)
    return [
        {"sigma_label": label, "sigma": sigma.to_json(), "bd": bd.to_json(), "t_class": t_class}
        for _, label, sigma, bd, t_class in sorted(seen.values(), key=lambda kept: kept[0])
    ]
