"""Dynkin diagram automorphisms, triples (Gamma1, Gamma2, T), the induced
partial order on positive roots, and the stability predicates."""

from __future__ import annotations

from itertools import combinations
from weakref import WeakKeyDictionary

from .rootsystem import RootSystem


class DiagramAutomorphism:
    """Permutation of the simple-root indices preserving the Cartan matrix."""

    __slots__ = ("permutation",)

    def __init__(self, permutation: tuple):
        self.permutation = permutation
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("not a permutation")

    def __eq__(self, other):
        if type(other) is not DiagramAutomorphism:
            return NotImplemented
        return self.permutation == other.permutation

    def __hash__(self):
        return hash((self.permutation,))

    def __call__(self, i: int) -> int:
        return self.permutation[i]

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.permutation))

    def fixed_points(self) -> tuple:
        return tuple(i for i, p in enumerate(self.permutation) if p == i)

    def apply_root(self, root: tuple) -> tuple:
        out = [0] * len(root)
        for i, c in enumerate(root):
            out[self.permutation[i]] = c
        return tuple(out)

    def to_json(self) -> list[int]:
        return list(self.permutation)


def identity_automorphism(rank: int) -> DiagramAutomorphism:
    return DiagramAutomorphism(tuple(range(rank)))


def diagram_permutations(rs: RootSystem) -> list[tuple]:
    """Every Cartan-matrix-preserving permutation, any order."""
    n = rs.rank
    a = rs.cartan_matrix
    found: list[tuple] = []
    assignment = [-1] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            found.append(tuple(assignment))
            return
        for img in range(n):
            if used[img]:
                continue
            if any(
                assignment[j] >= 0
                and (a[i][j] != a[img][assignment[j]] or a[j][i] != a[assignment[j]][img])
                for j in range(n)
            ):
                continue
            assignment[i] = img
            used[img] = True
            extend(i + 1)
            assignment[i] = -1
            used[img] = False

    extend(0)
    return sorted(found)


def diagram_automorphisms(rs: RootSystem) -> list[DiagramAutomorphism]:
    """Cartan-matrix-preserving permutations of order at most 2; the
    order-3 symmetries of D4 are excluded from classification use."""
    autos = [
        DiagramAutomorphism(p)
        for p in diagram_permutations(rs)
        if all(p[p[i]] == i for i in range(rs.rank))
    ]
    return sorted(autos, key=lambda m: m.permutation)


class BDTriple:
    """(Gamma1, Gamma2, tau) on the simple-root indices of a fixed diagram;
    tau holds the pairs (i, tau(i)), sorted by i."""

    __slots__ = ("gamma1", "gamma2", "tau")

    def __init__(self, gamma1: tuple, gamma2: tuple, tau: tuple):
        self.gamma1, self.gamma2, self.tau = gamma1, gamma2, tau
        if tuple(sorted(self.gamma1)) != self.gamma1:
            raise ValueError("gamma1 must be sorted")
        if tuple(sorted(self.gamma2)) != self.gamma2:
            raise ValueError("gamma2 must be sorted")
        if tuple(sorted(i for i, _ in self.tau)) != self.gamma1:
            raise ValueError("tau domain must be gamma1")
        if tuple(sorted(j for _, j in self.tau)) != self.gamma2:
            raise ValueError("tau image must be gamma2")

    def __eq__(self, other):
        if type(other) is not BDTriple:
            return NotImplemented
        return (self.gamma1, self.gamma2, self.tau) == (other.gamma1, other.gamma2, other.tau)

    def __hash__(self):
        return hash((self.gamma1, self.gamma2, self.tau))

    @staticmethod
    def make(gamma1, gamma2, mapping) -> "BDTriple":
        g1 = tuple(sorted(gamma1))
        g2 = tuple(sorted(gamma2))
        tau = tuple(sorted((i, mapping[i]) for i in g1))
        return BDTriple(g1, g2, tau)

    @staticmethod
    def empty() -> "BDTriple":
        return BDTriple((), (), ())

    @property
    def mapping(self) -> dict:
        return dict(self.tau)

    @property
    def inverse_mapping(self) -> dict:
        return {j: i for i, j in self.tau}

    def is_empty(self) -> bool:
        return not self.gamma1

    def sort_key(self):
        return (len(self.gamma1), self.gamma1, self.gamma2, self.tau)

    def to_json(self) -> dict:
        return {
            "gamma1": list(self.gamma1),
            "gamma2": list(self.gamma2),
            "tau": [list(p) for p in self.tau],
        }

    @staticmethod
    def from_json(doc: dict) -> "BDTriple":
        return BDTriple.make(doc["gamma1"], doc["gamma2"], dict(map(tuple, doc["tau"])))


def preserves_pairing(rs: RootSystem, mapping: dict) -> bool:
    """(alpha_i | alpha_j) = (alpha_tau(i) | alpha_tau(j)) on the domain,
    read off the Killing Gram of the simple roots in ints (over one
    denominator, so equal entries have equal numerators)."""
    g = rs.gram
    return all(g[i][j] == g[mapping[i]][mapping[j]] for i in mapping for j in mapping)


def is_nilpotent(gamma1, gamma2, mapping: dict) -> bool:
    """Every tau-orbit leaves Gamma1: some power lands in Gamma2 - Gamma1."""
    g1 = set(gamma1)
    for start in gamma1:
        cur = start
        seen = set()
        while True:
            cur = mapping[cur]
            if cur not in g1:
                break
            if cur in seen:
                return False
            seen.add(cur)
    return True


def enumerate_bd_triples(rs: RootSystem) -> list[BDTriple]:
    """All valid triples in canonical order, the empty triple first."""
    n = rs.rank
    out = [BDTriple.empty()]
    for size in range(1, n + 1):
        for g1 in combinations(range(n), size):
            for g2 in combinations(range(n), size):
                out.extend(_bijections(rs.gram, g1, g2))
    return sorted(out, key=BDTriple.sort_key)


def _bijections(g, g1, g2):
    """Nilpotent bijections g1 -> g2 preserving the simple-root Gram g
    (symmetric, in ints), by backtracking."""
    found = []
    mapping: dict = {}
    used = set()

    def extend(pos: int):
        if pos == len(g1):
            if is_nilpotent(g1, g2, mapping):
                found.append(BDTriple.make(g1, g2, mapping))
            return
        i = g1[pos]
        for j in g2:
            if j in used:
                continue
            if g[i][i] != g[j][j] or any(g[i][k] != g[j][mapping[k]] for k in mapping):
                continue
            mapping[i] = j
            used.add(j)
            extend(pos + 1)
            del mapping[i]
            used.discard(j)

    extend(0)
    return found


# root system -> {subset: span_subset_roots}, held no longer than the root system
_SPANS: WeakKeyDictionary = WeakKeyDictionary()


def span_subset_roots(rs: RootSystem, subset: tuple) -> tuple[tuple, ...]:
    """Positive roots supported entirely on the given simple indices, in
    the order of rs.positive_roots; computed once per (root system,
    subset)."""
    spans = _SPANS.setdefault(rs, {})
    roots = spans.get(subset)
    if roots is None:
        allowed = set(subset)
        roots = spans[subset] = tuple(
            r for r in rs.positive_roots if all(c == 0 or i in allowed for i, c in enumerate(r))
        )
    return roots


def extend_tau_additively(rs: RootSystem, bd: BDTriple, root: tuple) -> tuple:
    """Image of a Gamma1-span root under the additive extension of tau."""
    out = [0] * rs.rank
    for i, c in enumerate(root):
        if c:
            out[bd.mapping[i]] = c
    return tuple(out)


def precedence_pairs(rs: RootSystem, bd: BDTriple) -> set:
    """All ordered pairs (alpha, beta) of positive roots with alpha
    preceding beta: beta = T^n(alpha) for some n >= 1, so the earlier
    and later roots of one T-orbit chain."""
    return {
        (a, b) for chain in tau_chains(rs, bd) for k, a in enumerate(chain) for b in chain[k + 1 :]
    }


def tau_chains(rs: RootSystem, bd: BDTriple) -> list[list[tuple]]:
    """Maximal T-orbit chains on the spanned roots, each listed in orbit
    order from its entry point in Gamma1-hat minus Gamma2-hat."""
    hat1 = set(span_subset_roots(rs, bd.gamma1))
    hat2 = set(span_subset_roots(rs, bd.gamma2))
    chains = []
    for start in sorted(hat1 - hat2, key=lambda r: (sum(r), r)):
        chain = [start]
        cur = start
        while cur in hat1:
            cur = extend_tau_additively(rs, bd, cur)
            chain.append(cur)
        chains.append(chain)
    return chains


def stability(bd: BDTriple, mu: DiagramAutomorphism) -> str:
    """'stable', 'antistable', 'both' or 'neither' for the pair (bd, mu)."""
    g1, g2 = set(bd.gamma1), set(bd.gamma2)
    m = bd.mapping
    minv = bd.inverse_mapping
    stable = (
        {mu(i) for i in g1} == g1
        and {mu(i) for i in g2} == g2
        and all(m[mu(i)] == mu(m[i]) for i in g1)
    )
    antistable = (
        {mu(i) for i in g1} == g2
        and {mu(i) for i in g2} == g1
        and all(minv[mu(i)] == mu(m[i]) for i in g1)
    )
    if stable and antistable:
        return "both"
    if stable:
        return "stable"
    if antistable:
        return "antistable"
    return "neither"
