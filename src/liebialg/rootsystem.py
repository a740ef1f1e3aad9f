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

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .core import (
    GaussianRational,
    ONE,
    StructureTable,
    Tensor2,
    ZERO,
    cybe,
    rational_sqrt,
)
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

    def __eq__(self, other):
        if type(other) is not SimpleType:
            return NotImplemented
        return (self.series, self.rank) == (other.series, other.rank)

    def __hash__(self):
        return hash((self.series, self.rank))

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


def _generate_positive_roots(cartan: list[list[int]]) -> list[Root]:
    """Close the simple roots under root strings; height-then-lex order."""
    n = len(cartan)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                if beta == simple[i]:
                    continue  # twice a root is never a root
                pairing = sum(beta[k] * cartan[k][i] for k in range(n) if beta[k])
                down = 0
                cur = beta
                while True:
                    cur = tuple(
                        c - 1 if k == i else c for k, c in enumerate(cur)
                    )
                    if cur in roots:
                        down += 1
                    else:
                        break
                if down - pairing > 0:
                    up = tuple(
                        c + 1 if k == i else c for k, c in enumerate(beta)
                    )
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        frontier = new
    return sorted(roots, key=lambda r: (sum(r), r))


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
        # kappa(h_i, h_j) = (alpha_i | alpha_j), the inverse of
        # C = sum over roots of gamma gamma^T.
        n = self.rank
        C = [[0] * n for _ in range(n)]
        for g in self.roots:
            for i in range(n):
                if g[i]:
                    for j in range(n):
                        C[i][j] += g[i] * g[j]
        self.cartan_dual_gram: list[list[int]] = C
        gmat = linalg.inverse(
            [[GaussianRational(x) for x in row] for row in C]
        )
        self.killing_h: list[list[Fraction]] = [[x.re for x in row] for row in gmat]
        # the same Gram as integers over one common denominator:
        # killing_h = _gram / _gram_den
        self._gram_den = lcm(*(x.denominator for row in self.killing_h for x in row))
        self._gram = [[int(x * self._gram_den) for x in row] for row in self.killing_h]

        # each root norm once, as an int over _gram_den; the
        # kappa-normalization scale of each root as a class id into
        # _scales (a handful of values per type)
        self._inorm: dict[Root, int] = {}
        self._sclass: dict[Root, int] = {}
        scales: dict[Fraction, int] = {}
        for g in self.positive_roots:
            neg = tuple(-x for x in g)
            norm = self.root_pairing(g, g)
            self._inorm[g] = self._inorm[neg] = norm.numerator * (
                self._gram_den // norm.denominator
            )
            half = norm / 2
            q = rational_sqrt(half)
            up, down = (q, q) if q is not None else (Fraction(1), half)
            self._sclass[g] = scales.setdefault(up, len(scales))
            self._sclass[neg] = scales.setdefault(down, len(scales))
        self._scales = list(scales)
        self._nnorm: dict[tuple, GaussianRational] = {}

        # positive pairs (mu, nu), mu first in root order, by their sum in
        # increasing height; the first pair of a sum is its extraspecial pair
        pairs: dict[Root, list[tuple[Root, Root]]] = {g: [] for g in self.positive_roots[n:]}
        for k, mu in enumerate(self.positive_roots):
            for nu in self.positive_roots[k + 1 :]:
                total = tuple(a + b for a, b in zip(mu, nu))
                if total in pairs:
                    pairs[total].append((mu, nu))
        self._extraspecial: dict[Root, tuple[Root, Root]] = {
            gamma: ps[0] for gamma, ps in pairs.items()
        }
        self._n: dict[tuple[Root, Root], int] = {}  # N(mu, nu) when mu + nu is a root
        self.structure = self._build_structure_table(pairs)
        self.casimir = self._build_casimir()

    # ---- root bookkeeping -------------------------------------------------

    def root_index(self, r: Root) -> int:
        """Basis index of the root vector x_r."""
        return self._index[r]

    def index_root(self, idx: int) -> Root:
        return self.roots[idx - self.rank]

    def root_pairing(self, alpha: Root, beta: Root) -> Fraction:
        """(alpha | beta) under the Killing normalization."""
        total = sum(
            a * sum(g * b for g, b in zip(row, beta))
            for a, row in zip(alpha, self._gram)
            if a
        )
        return Fraction(total, self._gram_den)

    def root_values(self, root: Root) -> list[GaussianRational]:
        """[root(h_i)] = [(alpha_i | root)], one integer sum per row of the Gram."""
        return [
            GaussianRational(Fraction(sum(g * c for g, c in zip(row, root)), self._gram_den))
            for row in self._gram
        ]

    # ---- structure constants ---------------------------------------------

    def _string_down(self, mu: Root, nu: Root) -> int:
        """Largest k with nu - k*mu a root."""
        k = 0
        cur = nu
        while True:
            cur = tuple(a - b for a, b in zip(cur, mu))
            if cur in self._index:
                k += 1
            else:
                return k

    def _normalized(self, c: int, mu: Root, nu: Root, total: Root) -> GaussianRational:
        """N(mu, nu) = c in the kappa-normalized basis, looked up by c and
        the scale classes of mu, nu and total = mu + nu."""
        cls = self._sclass
        key = (c, cls[mu], cls[nu], cls[total])
        val = self._nnorm.get(key)
        if val is None:
            s = self._scales
            val = GaussianRational(c * s[key[1]] * s[key[2]] / s[key[3]])
            self._nnorm[key] = val
        return val

    def normalized_n(self, mu: Root, nu: Root) -> GaussianRational:
        """Structure constant in the kappa-normalized basis."""
        c = self._n.get((mu, nu))
        if c is None:
            return ZERO
        return self._normalized(c, mu, nu, tuple(a + b for a, b in zip(mu, nu)))

    def _build_structure_table(self, pairs: dict) -> StructureTable:
        """The bracket table, recording every N(mu, nu) in _n on the way.

        Each positive pair (mu, nu) summing to a root gamma fixes the
        zero-sum triples (mu, nu, -gamma) and (-mu, -nu, gamma).  Its
        constant comes from the extraspecial recursion, in increasing
        height of gamma; the other eleven ordered pairs of the two triples
        follow from N(b, a) = -N(a, b), N(-a, -b) = -N(a, b) and
        N(a, b) / |c|^2 = N(b, c) / |a|^2 = N(c, a) / |b|^2 for a + b + c = 0.
        """
        npos = self.npos
        index, inorm, nmap = self._index, self._inorm, self._n
        roots = self.roots
        neg = dict(zip(roots, roots[npos:] + roots[:npos]))
        table: dict[tuple[int, int], tuple] = {}

        def exact(num: int, den: int) -> int:
            q, r = divmod(num, den)
            assert not r, "structure constant recursion lost integrality"
            return q

        def fill(mu: Root, nu: Root, gamma: Root, v: int):
            mg, ng = neg[gamma], inorm[gamma]
            for x, y, total, w in (
                (mu, nu, gamma, v),
                (nu, mg, neg[mu], exact(v * inorm[mu], ng)),
                (mg, mu, neg[nu], exact(v * inorm[nu], ng)),
            ):
                for a, b, t, c in ((x, y, total, w), (neg[x], neg[y], neg[total], -w)):
                    nmap[a, b], nmap[b, a] = c, -c
                    ia, ib, it = index[a], index[b], index[t]
                    table[ia, ib] = ((it, self._normalized(c, a, b, t)),)
                    table[ib, ia] = ((it, self._normalized(-c, b, a, t)),)

        for gamma, ((alpha, beta), *rest) in pairs.items():
            n_ab = self._string_down(alpha, beta) + 1
            fill(alpha, beta, gamma, n_ab)
            for mu, nu in rest:
                # Jacobi-type four-root identity on (alpha, beta, -mu, -nu):
                # N(mu, nu) N(alpha, beta) / |gamma|^2 is the sum of
                # N(beta, -mu) N(alpha, -nu) / |beta - mu|^2 and
                # N(-mu, alpha) N(beta, -nu) / |alpha - mu|^2 over the
                # differences that are roots; each of those pairs sums to a
                # lower root.  The sum is kept as num / den in ints.
                num, den = 0, 1
                bm = tuple(a - b for a, b in zip(beta, mu))
                if bm in index:
                    c = nmap[beta, neg[mu]] * nmap[alpha, neg[nu]]
                    num, den = num * inorm[bm] + c * den, den * inorm[bm]
                am = tuple(a - b for a, b in zip(alpha, mu))
                if am in index:
                    c = nmap[neg[mu], alpha] * nmap[beta, neg[nu]]
                    num, den = num * inorm[am] + c * den, den * inorm[am]
                val = exact(num * inorm[gamma], den * n_ab)
                p1 = self._string_down(mu, nu) + 1
                assert abs(val) == p1, "structure constant recursion lost integrality"
                fill(mu, nu, gamma, val)

        for r in self.positive_roots:
            ir = index[r]
            im = ir + npos
            for i, v in enumerate(self.root_values(r)):
                if v:  # [h_i, x_r] = r(h_i) x_r, and -r(h_i) on x_{-r}
                    table[i, ir], table[ir, i] = ((ir, v),), ((ir, -v),)
                    table[i, im], table[im, i] = ((im, -v),), ((im, v),)
            # [x_r, x_{-r}] = h_r, the Killing dual of r
            terms = tuple((i, GaussianRational(c)) for i, c in enumerate(r) if c)
            table[ir, im] = terms
            table[im, ir] = tuple((i, -c) for i, c in terms)
        return StructureTable(self.dim, table)

    # ---- invariant tensors and the Killing form ---------------------------

    def _build_casimir(self) -> Tensor2:
        items = []
        n = self.rank
        for i in range(n):
            for j in range(n):
                c = self.cartan_dual_gram[i][j]
                if c:
                    items.append(((i, j), GaussianRational(c)))
        for ip in range(n, n + self.npos):
            im = ip + self.npos
            items.append(((ip, im), ONE))
            items.append(((im, ip), ONE))
        return Tensor2.from_items(self.dim, items)

    @cached_property
    def casimir_cybe(self) -> dict:
        """CYB(Omega) = [Omega13, Omega23], a constant of the type."""
        return cybe(self.casimir, self.structure)

    def killing_gram(self) -> list[list[GaussianRational]]:
        """Gram matrix of the Killing form in the ambient basis."""
        k = linalg.zeros(self.dim, self.dim)
        for i in range(self.rank):
            for j in range(self.rank):
                k[i][j] = GaussianRational(self.killing_h[i][j])
        for ip in range(self.rank, self.rank + self.npos):
            im = ip + self.npos
            k[ip][im] = ONE
            k[im][ip] = ONE
        return k

    def killing_form(self, x, y) -> GaussianRational:
        """kappa(x, y) for coordinate vectors, via the block Gram matrix."""
        acc = ZERO
        g = self.killing_h
        for i in range(self.rank):
            if x[i]:
                for j in range(self.rank):
                    if y[j]:
                        acc = acc + x[i] * y[j] * GaussianRational(g[i][j])
        for ip in range(self.rank, self.rank + self.npos):
            im = ip + self.npos
            acc = acc + x[ip] * y[im] + x[im] * y[ip]
        return acc

    def to_json(self) -> dict:
        """The root data and every nonzero [x_a, x_b] = c x_{a+b}, read
        off the structure table in basis order."""
        n = self.rank
        triples = [
            [list(self.index_root(ia)), list(self.index_root(ib)), *c.to_json()]
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
