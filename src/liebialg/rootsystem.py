"""Root systems and Chevalley bases with exact structure constants.

Basis layout for the algebra of type X_n with N positive roots:

    index 0 .. n-1        Cartan vectors h_i, the Killing duals of the
                          simple roots (alpha(H) = kappa(h_alpha, H)),
    index n .. n+N-1      root vectors x_gamma, positive roots ordered
                          by height then lexicographically,
    index n+N .. n+2N-1   x_{-gamma}, mirroring the positive ones.

Root vectors are normalized so that kappa(x_gamma, x_{-gamma}) = 1.  The
rescaling from the integer Chevalley generators uses a rational square
root when one exists and otherwise moves the whole factor onto the
negative vector, keeping every coordinate inside Q(i).

Simple roots carry the Bourbaki numbering; vertex numbering is 0-based
in code and 1-based in displayed names.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .core import StructureTable, Tensor2, entry_json, lowest, over_lcm, rational_sqrt
from . import linalg

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 3, "D": 4, "F": 4, "G": 2}

Root = tuple  # integer coordinates in the simple-root basis


class SimpleType:
    __slots__ = ("series", "rank")

    def __init__(self, series: str, rank: int):
        self.series, self.rank = series, rank
        s, n = self.series, self.rank
        if s in _RANK_BOUNDS:
            lo = _RANK_BOUNDS[s]
            ok = n >= lo if s in "ABCD" else n == lo
        elif s == "E":
            ok = n in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"rank {n} out of bounds for series {s!r}")

    def __str__(self):
        return f"{self.series}{self.rank}"

    @staticmethod
    def parse(text: str) -> "SimpleType":
        if not text:
            raise ValueError("empty type name")
        return SimpleType(text[0].upper(), int(text[1:]))


def cartan_matrix(typ: SimpleType) -> list[list[int]]:
    """Cartan matrix a[i][j] = 2(alpha_i|alpha_j)/(alpha_j|alpha_j)."""
    s, n = typ.series, typ.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if s in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if s == "B" and n >= 2:
            join(n - 2, n - 1, -2, -1)  # alpha_n short
        if s == "C":
            join(n - 2, n - 1, -1, -2)  # alpha_n long
    elif s == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif s == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            join(i, j)
        join(1, 3)
    elif s == "F":
        join(0, 1)
        join(1, 2, -2, -1)  # alpha_1, alpha_2 long
        join(2, 3)
    elif s == "G":
        join(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return a


# A root is also coded as one int, _BITS bits per coordinate: sum of
# c_k << (_BITS * k).  Every coordinate met below (roots, sums and
# differences of two roots) is under 2**(_BITS - 1) in absolute value, and
# on such vectors the code is one-to-one and additive, so root arithmetic
# is int arithmetic.
_BITS = 8


def _generate_positive_roots(cartan: list[list[int]]) -> list[Root]:
    """Close the simple roots under root strings; height-then-lex order."""
    n = len(cartan)
    unit = [1 << (_BITS * i) for i in range(n)]
    # code -> (root, its pairings sum_k root[k] * cartan[k][i] for each i)
    roots = {
        u: (tuple(1 if k == i else 0 for k in range(n)), cartan[i])
        for i, u in enumerate(unit)
    }
    frontier = list(roots)
    while frontier:
        new = []
        for code in frontier:
            beta, pairings = roots[code]
            for i, step in enumerate(unit):
                if code == step:
                    continue  # twice a root is never a root
                down = 0
                cur = code - step
                while cur in roots:
                    down += 1
                    cur -= step
                up = code + step
                if down > pairings[i] and up not in roots:
                    roots[up] = (
                        beta[:i] + (beta[i] + 1,) + beta[i + 1 :],
                        [p + c for p, c in zip(pairings, cartan[i])],
                    )
                    new.append(up)
        frontier = new
    return sorted((r for r, _ in roots.values()), key=lambda r: (sum(r), r))


class RootSystem:
    """A simple complex Lie algebra in a fixed Chevalley-type basis."""

    def __init__(self, typ: SimpleType):
        self.type = typ
        self.rank = typ.rank
        self.cartan_matrix = cartan_matrix(typ)
        self.positive_roots: list[Root] = _generate_positive_roots(self.cartan_matrix)
        # diagram-node order, not the height-lex order of positive_roots
        self.simple_roots: list[Root] = [
            tuple(1 if k == i else 0 for k in range(self.rank))
            for i in range(self.rank)
        ]
        self.roots: list[Root] = self.positive_roots + [
            tuple(-x for x in r) for r in self.positive_roots
        ]
        self.npos = len(self.positive_roots)
        self.dim = self.rank + 2 * self.npos

        # basis index of x_r; also the membership test for roots
        self._index = {r: self.rank + k for k, r in enumerate(self.roots)}
        # Gram matrix of the Killing form on the Cartan coordinates:
        # kappa(h_i, h_j) = (alpha_i | alpha_j) = gram[i][j] / gram_den, the
        # inverse of C = sum over roots of gamma gamma^T.  Row i of the
        # echelon form of [C | 1] is p_i e_i + p_i (row i of C^-1).  The
        # Gram is symmetric, so each row is also one simple root's column.
        n = self.rank
        C = [[0] * n for _ in range(n)]
        for g in self.positive_roots:  # gamma and -gamma alike
            for i in range(n):
                if g[i]:
                    for j in range(n):
                        C[i][j] += 2 * g[i] * g[j]
        self.cartan_dual_gram: list[list[int]] = C
        ech = linalg.echelon({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(C))
        fields = []
        for i in range(n):
            row = ech[i]
            s = 1 if row[i] > 0 else -1  # the sign of p_i onto the numerators
            fields.extend((s * row.get(n + j, 0), 0, s * row[i]) for j in range(n))
        den, z = over_lcm(fields)
        self.gram_den, self.gram = den, [[a for a, _ in z[k : k + n]] for k in range(0, n * n, n)]

        # each root norm once, as an int over gram_den; the
        # kappa-normalization scale of each root, the int pair (p, q) in
        # lowest terms of p / q, as a class id into _scales (a handful of
        # values per type), by position in self.roots
        self._inorm: dict[Root, int] = {}
        scales: dict[tuple[int, int], int] = {}
        up_class, down_class = [], []
        for g in self.positive_roots:
            norm = self._inorm[g] = self._inorm[tuple(-x for x in g)] = self.root_pairing(g, g)
            up = down = rational_sqrt(norm, 2 * den)
            if up is None:  # |g|^2 / 2 onto x_{-g}
                q, ((p,),) = lowest(2 * den, [(norm,)])
                up, down = (1, 1), (p, q)
            up_class.append(scales.setdefault(up, len(scales)))
            down_class.append(scales.setdefault(down, len(scales)))
        self._sclass: list[int] = up_class + down_class
        self._scales: list[tuple[int, int]] = list(scales)

        # positive pairs (mu, nu), mu first in root order, by their sum in
        # increasing height, as positions in self.roots; the first pair of
        # a sum is its extraspecial pair, kept as positions too
        codes = [sum(c << (_BITS * k) for k, c in enumerate(r)) for r in self.positive_roots]
        at = {c: k for k, c in enumerate(codes)}
        at.update((-c, k + self.npos) for k, c in enumerate(codes))
        pairs: dict[int, list[tuple[int, int]]] = {g: [] for g in range(n, self.npos)}
        for k, cm in enumerate(codes):
            for l in range(k + 1, self.npos):
                g = at.get(cm + codes[l])
                if g is not None:
                    pairs[g].append((k, l))
        self._extraspecial: dict[int, tuple[int, int]] = {g: kl for g, (kl, *_) in pairs.items()}
        self._n: dict[tuple[Root, Root], int] = {}  # N(mu, nu) when mu + nu is a root
        # (basis index of x_mu, of x_nu, of x_{mu+nu}, N(mu, nu)), one per
        # antisymmetric pair of _n, in its order: what `structure` reads
        self._brackets: list[tuple[int, int, int, int]] = []
        self._structure_constants(pairs, codes + [-c for c in codes], at)
        self.casimir = self._build_casimir()

    # ---- root bookkeeping -------------------------------------------------

    def root_index(self, r: Root) -> int:
        """Basis index of the root vector x_r."""
        return self._index[r]

    def index_root(self, idx: int) -> Root:
        return self.roots[idx - self.rank]

    def root_pairing(self, alpha: Root, beta: Root) -> int:
        """(alpha | beta) under the Killing normalization, as an int
        numerator over gram_den."""
        return sum(
            a * sum(g * b for g, b in zip(row, beta))
            for a, row in zip(alpha, self.gram)
            if a
        )

    def root_values(self, root: Root) -> list[int]:
        """[root(h_i)] = [(alpha_i | root)] times gram_den, one integer sum
        per row of the Gram."""
        return [sum(g * c for g, c in zip(row, root)) for row in self.gram]

    # ---- structure constants ---------------------------------------------

    def _structure_constants(self, pairs: dict, codes: list[int], at: dict[int, int]):
        """Every N(mu, nu) into _n, and each bracket's target into _brackets.

        Roots are positions in self.roots here, with their int codes.  Each
        positive pair (mu, nu) summing to a root gamma fixes the zero-sum
        triples (mu, nu, -gamma) and (-mu, -nu, gamma).  Its constant comes
        from the extraspecial recursion, in increasing height of gamma; the
        other eleven ordered pairs of the two triples follow from
        N(b, a) = -N(a, b), N(-a, -b) = -N(a, b) and
        N(a, b) / |c|^2 = N(b, c) / |a|^2 = N(c, a) / |b|^2 for a + b + c = 0.

        The bracket table is not built here: `structure` builds it from
        _brackets on first read, which only `verify` (its CYBE and
        extraction checks, and the Manin double) and `enumerate --what
        root-system` do.
        """
        npos = self.npos
        roots, nmap, brackets = self.roots, self._n, self._brackets
        base = self.rank
        neg = [*range(npos, 2 * npos), *range(npos)]
        inorm = [self._inorm[r] for r in roots]

        def exact(num: int, den: int) -> int:
            q, r = divmod(num, den)
            assert not r, "structure constant recursion lost integrality"
            return q

        def string_down(mu: int, nu: int) -> int:
            """Largest k with nu - k*mu a root."""
            k, step = 0, codes[mu]
            cur = codes[nu] - step
            while cur in at:
                k += 1
                cur -= step
            return k

        def fill(mu: int, nu: int, gamma: int, v: int):
            mg, ng = neg[gamma], inorm[gamma]
            for x, y, total, w in (
                (mu, nu, gamma, v),
                (nu, mg, neg[mu], exact(v * inorm[mu], ng)),
                (mg, mu, neg[nu], exact(v * inorm[nu], ng)),
            ):
                for a, b, t, c in ((x, y, total, w), (neg[x], neg[y], neg[total], -w)):
                    ra, rb = roots[a], roots[b]
                    nmap[ra, rb], nmap[rb, ra] = c, -c
                    brackets.append((base + a, base + b, base + t, c))

        for gamma, ((alpha, beta), *rest) in pairs.items():
            n_ab = string_down(alpha, beta) + 1
            fill(alpha, beta, gamma, n_ab)
            ra, rb = roots[alpha], roots[beta]
            for mu, nu in rest:
                # Jacobi-type four-root identity on (alpha, beta, -mu, -nu):
                # N(mu, nu) N(alpha, beta) / |gamma|^2 is the sum of
                # N(beta, -mu) N(alpha, -nu) / |beta - mu|^2 and
                # N(-mu, alpha) N(beta, -nu) / |alpha - mu|^2 over the
                # differences that are roots; each of those pairs sums to a
                # lower root.  The sum is kept as num / den in ints.
                num, den = 0, 1
                rmm, rmn = roots[neg[mu]], roots[neg[nu]]
                bm = at.get(codes[beta] - codes[mu])
                if bm is not None:
                    c = nmap[rb, rmm] * nmap[ra, rmn]
                    num, den = num * inorm[bm] + c * den, den * inorm[bm]
                am = at.get(codes[alpha] - codes[mu])
                if am is not None:
                    c = nmap[rmm, ra] * nmap[rb, rmn]
                    num, den = num * inorm[am] + c * den, den * inorm[am]
                val = exact(num * inorm[gamma], den * n_ab)
                p1 = string_down(mu, nu) + 1
                assert abs(val) == p1, "structure constant recursion lost integrality"
                fill(mu, nu, gamma, val)

    @cached_property
    def structure(self) -> StructureTable:
        """The bracket table [e_a, e_b] = sum c e_k, built in ints on first
        read: the root-root brackets in the order of _n, then those with
        an h_i and the [x_r, x_{-r}].  In the kappa-normalized basis N(mu,
        nu) becomes N(mu, nu) s(mu) s(nu) / s(mu + nu) for the scale s of
        each root, one multiplier per triple of scale classes.  Those
        multipliers, 1 / gram_den for the [h_i, x_r] and 1 for the h_r,
        go over one over_lcm, and each coefficient is an int times one of
        them."""
        npos, scales, brackets = self.npos, self._scales, self._brackets
        cls = [0] * self.rank + self._sclass  # by basis index
        classes = dict.fromkeys((cls[a], cls[b], cls[t]) for a, b, t, _ in brackets)
        fields = []
        for ka, kb, kt in classes:
            (p1, q1), (p2, q2), (p3, q3) = scales[ka], scales[kb], scales[kt]
            fields.append((p1 * p2 * q3, 0, q1 * q2 * p3))
        den, z = over_lcm([*fields, (1, 0, self.gram_den), (1, 0, 1)])
        *mults, (h, _), (one, _) = z
        mult = dict(zip(classes, (m for m, _ in mults)))
        table: dict[tuple[int, int], tuple] = {}
        for ia, ib, it, c in brackets:
            v = c * mult[cls[ia], cls[ib], cls[it]]
            table[ia, ib], table[ib, ia] = ((it, v),), ((it, -v),)

        for r in self.positive_roots:
            ir = self._index[r]
            im = ir + npos
            for i, v in enumerate(self.root_values(r)):
                if v:  # [h_i, x_r] = r(h_i) x_r, and -r(h_i) on x_{-r}
                    v *= h
                    table[i, ir], table[ir, i] = ((ir, v),), ((ir, -v),)
                    table[i, im], table[im, i] = ((im, -v),), ((im, v),)
            # [x_r, x_{-r}] = h_r, the Killing dual of r
            table[ir, im] = tuple((i, c * one) for i, c in enumerate(r) if c)
            table[im, ir] = tuple((i, -c * one) for i, c in enumerate(r) if c)
        return StructureTable(self.dim, den, table)

    # ---- invariant tensors and the Killing form ---------------------------

    def _build_casimir(self) -> Tensor2:
        """Omega in ints: the ints of Omega_0 on the Cartan block, and 1 on
        the paired root slots."""
        n, npos, omega0 = self.rank, self.npos, self.cartan_dual_gram
        num = {(i, j): (c, 0) for i, row in enumerate(omega0) for j, c in enumerate(row) if c}
        for ip in range(n, n + npos):
            num[ip, ip + npos] = num[ip + npos, ip] = (1, 0)
        return Tensor2(self.dim, 1, num)

    @cached_property
    def casimir_cybe(self) -> tuple[int, dict]:
        """CYB(Omega) = [Omega13, Omega23], a constant of the type: Omega is
        invariant, so [Omega12, Omega13] + [Omega12, Omega23] = 0, and one
        bracket of the three is the whole CYBE.  Summed in ints over the
        common denominator of Omega (real) and the table, and kept so:
        (den, {key: nonzero int}), CYB(Omega)[key] = int / den."""
        omega = self.casimir
        e, table = self.structure.den, self.structure.table
        cols: list[list] = [[] for _ in range(self.dim)]  # Omega is nondegenerate
        for (a, b), (x, _) in sorted(omega.num.items()):
            cols[b].append((a, x))
        acc: dict[tuple[int, int, int], int] = {}
        for (b, d), terms in table.items():
            for a, va in cols[b]:
                for c, vc in cols[d]:
                    v = va * vc
                    for k, coef in terms:
                        key = (a, c, k)
                        acc[key] = acc.get(key, 0) + v * coef
        return omega.den * omega.den * e, {k: v for k, v in acc.items() if v}

    def to_json(self) -> dict:
        """The root data and every nonzero [x_a, x_b] = c x_{a+b}, read
        off the structure table in basis order."""
        n, den = self.rank, self.structure.den
        triples = [
            [list(self.index_root(ia)), list(self.index_root(ib)), *entry_json(c, 0, den)]
            for (ia, ib), ((k, c), *_) in sorted(self.structure.table.items())
            if ia >= n and ib >= n and k >= n
        ]
        return {
            "type": str(self.type),
            "cartan_matrix": self.cartan_matrix,
            "roots": [list(r) for r in self.roots],
            "positive_roots": [list(r) for r in self.positive_roots],
            "structure_constants": triples,
        }


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given simple type."""
    return RootSystem(SimpleType(series, rank))
