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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class SimpleType:
    series: str
    rank: int

    def __post_init__(self):
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

        self._pos_index = {r: k for k, r in enumerate(self.positive_roots)}
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

        self._norm: dict[Root, Fraction] = {}
        self._scale: dict[Root, Fraction] = {}
        for g in self.positive_roots:
            neg = tuple(-x for x in g)
            self._norm[g] = self._norm[neg] = norm = self.root_pairing(g, g)
            half = norm / 2
            q = rational_sqrt(half)
            if q is not None:
                self._scale[g] = self._scale[neg] = q
            else:
                self._scale[g] = Fraction(1)
                self._scale[neg] = half
        self._extraspecial: dict[Root, tuple[Root, Root]] = {
            gamma: self._special_pair(gamma) for gamma in self.positive_roots[n:]
        }

        self._nmemo: dict[tuple[Root, Root], Fraction] = {}

        self.structure = self._build_structure_table()
        self.casimir = self._build_casimir()

    # ---- root bookkeeping -------------------------------------------------

    def is_root(self, r: Root) -> bool:
        return r in self._index

    def root_index(self, r: Root) -> int:
        """Basis index of the root vector x_r."""
        return self._index[r]

    def index_root(self, idx: int) -> Root:
        return self.roots[idx - self.rank]

    def height(self, r: Root) -> int:
        return sum(r)

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

    def root_norm(self, alpha: Root) -> Fraction:
        """(alpha | alpha) for a root alpha, computed once at construction."""
        return self._norm[alpha]

    def coroot_vector(self, alpha: Root) -> list[GaussianRational]:
        """h_alpha in Cartan coordinates: linear in alpha."""
        return [GaussianRational(x) for x in alpha] + [ZERO] * (2 * self.npos)

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

    def _special_pair(self, gamma: Root) -> tuple[Root, Root]:
        """Minimal-first special pair summing to a composite positive root."""
        for xi in self.positive_roots:
            rest = tuple(a - b for a, b in zip(gamma, xi))
            if rest in self._pos_index:
                return xi, rest
        raise AssertionError("composite positive root with no special pair")

    def chevalley_n(self, mu: Root, nu: Root) -> Fraction:
        """Integer structure constant N(mu, nu) of the Chevalley basis."""
        key = (mu, nu)
        memo = self._nmemo
        if key in memo:
            return memo[key]
        total = tuple(a + b for a, b in zip(mu, nu))
        if total not in self._index:
            memo[key] = Fraction(0)
            return memo[key]
        mu_pos = mu in self._pos_index
        nu_pos = nu in self._pos_index
        if mu_pos and nu_pos:
            val = self._n_positive(mu, nu)
        elif not mu_pos and not nu_pos:
            val = -self.chevalley_n(tuple(-x for x in mu), tuple(-x for x in nu))
        elif mu_pos:
            val = self._n_mixed(mu, tuple(-x for x in nu))
        else:
            val = -self._n_mixed(nu, tuple(-x for x in mu))
        memo[key] = val
        return val

    def _n_positive(self, mu: Root, nu: Root) -> Fraction:
        if self._pos_index[mu] > self._pos_index[nu]:
            return -self._n_positive(nu, mu)
        gamma = tuple(a + b for a, b in zip(mu, nu))
        alpha, beta = self._extraspecial[gamma]
        p1 = Fraction(self._string_down(mu, nu) + 1)
        if (alpha, beta) == (mu, nu):
            return p1
        # Jacobi-type four-root identity on (alpha, beta, -mu, -nu),
        # solving for N(mu, nu) in terms of pairs with smaller height sum.
        acc = Fraction(0)
        bm = tuple(a - b for a, b in zip(beta, mu))
        if bm in self._index:
            acc += (
                self.chevalley_n(beta, tuple(-x for x in mu))
                * self.chevalley_n(alpha, tuple(-x for x in nu))
                / self.root_norm(bm)
            )
        am = tuple(a - b for a, b in zip(alpha, mu))
        if am in self._index:
            acc += (
                self.chevalley_n(tuple(-x for x in mu), alpha)
                * self.chevalley_n(beta, tuple(-x for x in nu))
                / self.root_norm(am)
            )
        val = acc * self.root_norm(gamma) / self.chevalley_n(alpha, beta)
        assert abs(val) == p1, "structure constant recursion lost integrality"
        return val

    def _n_mixed(self, mu: Root, nu: Root) -> Fraction:
        """N(mu, -nu) for positive roots mu != nu with mu - nu a root."""
        delta = tuple(a - b for a, b in zip(mu, nu))
        if delta in self._pos_index:
            return -self.root_norm(delta) / self.root_norm(mu) * self.chevalley_n(
                nu, delta
            )
        dprime = tuple(-x for x in delta)
        return self.root_norm(dprime) / self.root_norm(nu) * self.chevalley_n(
            dprime, mu
        )

    def normalized_n(self, mu: Root, nu: Root) -> GaussianRational:
        """Structure constant in the kappa-normalized basis."""
        total = tuple(a + b for a, b in zip(mu, nu))
        if total not in self._index:
            return ZERO
        val = (
            self.chevalley_n(mu, nu)
            * self._scale[mu]
            * self._scale[nu]
            / self._scale[total]
        )
        return GaussianRational(val)

    def _build_structure_table(self) -> StructureTable:
        n = self.rank
        table: dict[tuple[int, int], tuple] = {}

        def put(i, j, terms):
            terms = tuple((k, c) for k, c in terms if c)
            if terms:
                table[(i, j)] = terms

        index = self._index
        values = [(ri, self.root_values(r)) for r, ri in index.items()]
        for i in range(n):
            for ri, vals in values:
                put(i, ri, [(ri, vals[i])])
                put(ri, i, [(ri, -vals[i])])
        for a, ia in index.items():
            for b, ib in index.items():
                total = tuple(x + y for x, y in zip(a, b))
                it = index.get(total)
                if it is not None:
                    put(ia, ib, [(it, self.normalized_n(a, b))])
                elif not any(total) and a in self._pos_index:
                    # [x_a, x_{-a}] = h_a, the Killing dual of a
                    terms = [(i, GaussianRational(a[i])) for i in range(n)]
                    put(ia, ib, terms)
                    put(ib, ia, [(i, -c) for i, c in terms])
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

    def killing_form_adjoint(self, x, y) -> GaussianRational:
        """kappa via trace of adjoint maps; the independent oracle path."""
        ax = self.structure.ad(x)
        ay = self.structure.ad(y)
        acc = ZERO
        for i in range(self.dim):
            for k in range(self.dim):
                if ax[i][k] and ay[k][i]:
                    acc = acc + ax[i][k] * ay[k][i]
        return acc

    def basis_vector(self, idx: int) -> list[GaussianRational]:
        v = [ZERO] * self.dim
        v[idx] = ONE
        return v

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
