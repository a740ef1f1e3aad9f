"""Identification of the real form fixed by a canonical involution.

The Cartan involution of g^sigma complexifies to theta = sigma o omega,
a linear map with theta^2 = 1, so its eigenspace dimensions on g are
(dim g +- tr theta)/2, and on h, which theta preserves, (rank +-
tr theta|h)/2.  These are the dimensions of k and p in g^sigma and of
the compact and noncompact parts of its Cartan subalgebra: theta^2 = 1
forces theta sigma = sigma theta, so theta preserves g^sigma, its
restriction complexifies back to theta, complexification keeps
eigenspace dimensions, and g^sigma meet h complexifies to h.  No real
basis of g^sigma is needed.  Together with the painted set P (mu-fixed
simple roots not in J) the invariants name the form.  Names for painted
exceptional diagrams follow the extreme-vertex-of-a-branch description;
painted vertices not covered by the naming table are reported as
"unnormalized" with all numeric invariants still filled in.
"""

from __future__ import annotations

from .core import ZERO, gaussian, lowest
from .involution import Involution, RealFormBasis, canonical_involution
from .rootsystem import RootSystem


class RealFormReport:
    __slots__ = (
        "name", "dim_k", "dim_p", "character", "dc", "dnc",
        "vogan_painted", "maximally_compact",
    )

    def __init__(
        self, name: str, dim_k: int, dim_p: int, character: int,
        dc: int, dnc: int, vogan_painted: tuple, maximally_compact: bool,
    ):
        self.name, self.dim_k, self.dim_p = name, dim_k, dim_p
        self.character, self.dc, self.dnc = character, dc, dnc
        self.vogan_painted, self.maximally_compact = vogan_painted, maximally_compact

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim_k": self.dim_k,
            "dim_p": self.dim_p,
            "character": self.character,
            "dc": self.dc,
            "dnc": self.dnc,
            "vogan_painted": list(self.vogan_painted),
            "maximally_compact": self.maximally_compact,
        }


def cartan_involution(rs: RootSystem, sigma: Involution) -> Involution:
    """theta = sigma o omega; linear since both factors are semilinear.
    omega sends x_j to w x_k and sigma sends x_k to m x_i, so theta sends
    x_j to m conj(w) x_i: composed in ints over the product of the two
    denominators, then made canonical by one lowest."""
    omega = canonical_involution(rs, "omega", None, tuple(range(rs.rank)))
    images, scalars = sigma.images, sigma.scalars
    pairs = []
    for k, (c, d) in zip(omega.images, omega.scalars):
        a, b = scalars[k]
        pairs.append((a * c + b * d, b * c - a * d))  # (a + b i)(c - d i)
    den, pairs = lowest(sigma.den * omega.den, pairs)
    return Involution([images[k] for k in omega.images], den, pairs)


def theta_action_on_real_basis(rs: RootSystem, theta: Involution, basis: RealFormBasis):
    """Matrix of theta restricted to the real form, in its real basis:
    column j holds the real coordinates of theta(v_j), theta sending the
    entry x at a to m_a x at images[a].

    identify does not use it, and no command calls it; it stays because
    the per-layer tracer of perfbench/layers.py spans it by name.  Tests
    use it as an independent reference for the trace formulas."""
    images, scalars = theta.images, theta.scalars
    den = theta.den * basis.den * basis.inverse_den  # of each coordinate
    n = basis.count
    out = [[ZERO] * n for _ in range(n)]
    for j, nz in enumerate(basis.support):
        terms = []
        for a, (p, q) in nz:
            x, y = scalars[a]
            terms.append((images[a], (x * p - y * q, x * q + y * p)))
        coords = basis.term_coordinates(terms)
        if coords is None:
            raise AssertionError("theta does not preserve the real form")
        for k, c in coords:
            out[k][j] = gaussian(c, 0, den)
    return out


def _theta_lines(rs: RootSystem, theta: Involution) -> tuple:
    """theta's fields (images, den, scalars), asserted to preserve h and
    to square to 1 entry by entry: theta sends x_j to s_j x_k and x_k
    back to s_k x_j with s_j s_k = 1."""
    images, den, scalars = lines = theta.images, theta.den, theta.scalars
    assert all(i < rs.rank for i in images[: rs.rank]), "theta does not preserve h"
    dd = den * den
    for j, k in enumerate(images):
        (a, b), (c, d) = scalars[j], scalars[k]
        assert images[k] == j and a * c - b * d == dd and not a * d + b * c, (
            "theta is not an involution"
        )
    return lines


def _trace_dims(lines: tuple, size: int) -> tuple[int, int]:
    """(+1, -1) eigenspace dimensions of theta on the span of the first
    size basis vectors, (size +- tr) / 2 for the trace of that block: the
    sum over the columns theta maps to themselves."""
    images, den, scalars = lines
    fixed = [scalars[j] for j in range(size) if images[j] == j]
    assert not sum(b for _, b in fixed), "trace of theta is not real"
    tr = sum(a for a, _ in fixed)  # times den
    plus, odd_plus = divmod(size * den + tr, 2 * den)
    minus, odd_minus = divmod(size * den - tr, 2 * den)
    assert not odd_plus and not odd_minus
    return plus, minus


# ---- the naming table -------------------------------------------------------

_EXCEPTIONAL_PAINTED = {
    # series, rank -> {1-based painted vertex: name}
    ("E", 6): {2: "EII", 1: "EIII", 6: "EIII"},
    ("E", 7): {2: "EV", 1: "EVI", 7: "EVII"},
    ("E", 8): {1: "EVIII", 8: "EIX"},
    ("F", 4): {1: "FI", 4: "FII"},
    ("G", 2): {1: "G", 2: "G"},
}

_SPLIT_NAMES = {
    "A": lambda n: f"sl({n + 1},R)",
    "B": lambda n: f"so({n},{n + 1})",
    "C": lambda n: f"sp({n},R)",
    "D": lambda n: f"so({n},{n})",
    "E": lambda n: {6: "EI", 7: "EV", 8: "EVIII"}[n],
    "F": lambda n: "FI",
    "G": lambda n: "G",
}

_COMPACT_NAMES = {
    "A": lambda n: f"su({n + 1})",
    "B": lambda n: f"so({2 * n + 1})",
    "C": lambda n: f"sp({n})",
    "D": lambda n: f"so({2 * n})",
    "E": lambda n: f"e{n}(c)",
    "F": lambda n: "f4(c)",
    "G": lambda n: "g2(c)",
}


def _signature(fmt: str, p: int, q: int) -> str:
    lo, hi = min(p, q), max(p, q)
    return f"{fmt}({lo},{hi})"


def _name_varsigma_mu(series: str, n: int) -> str | None:
    if series == "A":
        if n % 2 == 0:
            m = n // 2
            return f"su({m},{m + 1})"
        m = (n - 1) // 2
        return f"su({m + 1},{m + 1})"
    if series == "D":
        return _signature("so", n - 1, n + 1)
    if series == "E" and n == 6:
        return "EII"
    return None


def _name_omega_j(series: str, n: int, j: int) -> str | None:
    """Painted vertex j (1-based) with mu = id."""
    if series == "A":
        return _signature("su", j, n + 1 - j)
    if series == "B":
        return _signature("so", 2 * j, 2 * n + 1 - 2 * j)
    if series == "C":
        return f"sp({n},R)" if j == n else _signature("sp", j, n - j)
    if series == "D":
        if j <= n - 2:
            return _signature("so", 2 * j, 2 * n - 2 * j)
        return f"so*({2 * n})"
    return _EXCEPTIONAL_PAINTED.get((series, n), {}).get(j)


def _name_omega_mu_j(series: str, n: int, painted: tuple, rs=None, mu=None) -> str | None:
    if series == "A":
        if n % 2 == 0:
            return f"sl({n + 1},R)"
        if not painted:
            return f"sl({(n + 1) // 2},H)"
        return f"sl({n + 1},R)"
    if series == "D":
        if not painted:
            return _signature("so", 1, 2 * n - 1)
        j = _standardize_d_vertex(rs, mu, painted[0]) + 1
        return _signature("so", 2 * j + 1, 2 * (n - j) - 1)
    if series == "E" and n == 6:
        return "EIV" if not painted else "EI"
    return None


def _standardize_d_vertex(rs, mu, vertex: int) -> int:
    """Relabel a mu-fixed vertex through a diagram symmetry conjugating
    mu to the standard spinor swap.

    Conjugate involutions have isomorphic fixed forms, so names may be
    read off after relabeling; for D4 this uses the order-3 symmetries,
    which stay out of classification but are fine for naming.
    """
    from .bdtriple import diagram_permutations

    n = rs.rank
    standard = tuple(list(range(n - 2)) + [n - 1, n - 2])
    if mu.permutation == standard:
        return vertex
    for p in diagram_permutations(rs):
        conj = tuple(p[mu(p.index(k))] for k in range(n))
        if conj == standard:
            return p[vertex]
    raise AssertionError("no diagram symmetry conjugates mu to the spinor swap")


def identify(rs: RootSystem, sigma: Involution) -> RealFormReport:
    """Full report on g^sigma: name, Cartan decomposition, Vogan data.

    dim k, dim p = (dim g +- tr theta)/2 and dc, dnc = (rank +-
    tr theta|h)/2 for theta = sigma o omega; exact because theta^2 = 1
    makes theta commute with sigma (see the module docstring).
    """
    if sigma.kind not in ("varsigma", "omega"):
        raise ValueError("identify requires a canonical involution")
    series, n = rs.type.series, rs.rank
    mu = sigma.mu
    lines = _theta_lines(rs, cartan_involution(rs, sigma))
    dim_k, dim_p = _trace_dims(lines, rs.dim)
    dc, dnc = _trace_dims(lines, n)

    if sigma.kind == "omega":
        painted = tuple(i for i in mu.fixed_points() if i not in sigma.J)
        maximally_compact = True
    else:
        painted = ()
        maximally_compact = False

    name = "unnormalized"
    if sigma.kind == "varsigma":
        if mu.is_identity():
            name = _SPLIT_NAMES[series](n)
        else:
            name = _name_varsigma_mu(series, n) or "unnormalized"
    else:
        if len(painted) == 0:
            if mu.is_identity():
                name = _COMPACT_NAMES[series](n)
            else:
                name = _name_omega_mu_j(series, n, painted, rs, mu) or "unnormalized"
        elif len(painted) == 1:
            if mu.is_identity():
                name = _name_omega_j(series, n, painted[0] + 1) or "unnormalized"
            else:
                name = _name_omega_mu_j(series, n, painted, rs, mu) or "unnormalized"

    report = RealFormReport(
        name=name,
        dim_k=dim_k,
        dim_p=dim_p,
        character=dim_p - dim_k,
        dc=dc,
        dnc=dnc,
        vogan_painted=painted,
        maximally_compact=maximally_compact,
    )
    _check_invariants(rs, sigma, report)
    return report


def expected_character(name: str, dim_g: int, rank: int) -> int | None:
    """Independent character values for the names we emit; a guard against
    transcription errors in the naming table."""
    import re

    if name.startswith("su(") and "," in name:
        p, q = map(int, re.findall(r"\d+", name))
        return 2 * p * q - (p * p + q * q) + 1
    if name.startswith("su("):
        return -dim_g
    if name.startswith("sl(") and name.endswith(",R)"):
        m = int(re.findall(r"\d+", name)[0])
        return rank  # split form of A_{m-1}
    if name.startswith("sl(") and name.endswith(",H)"):
        m = int(re.findall(r"\d+", name)[0])
        return -(2 * m + 1)  # k = sp(m) inside sl(m, H)
    if name.startswith("so*("):
        m = int(re.findall(r"\d+", name)[0]) // 2
        return (m * m - m) - m * m  # dim p - dim k with k = u(m)
    if name.startswith("so("):
        if "," not in name:
            return -dim_g  # compact orthogonal form
        p, q = map(int, re.findall(r"\d+", name))
        return p * q - (p * (p - 1) + q * (q - 1)) // 2
    if name.startswith("sp(") and name.endswith(",R)"):
        return rank
    if name.startswith("sp(") and "," in name:
        p, q = map(int, re.findall(r"\d+", name))
        return 4 * p * q - (p * (2 * p + 1) + q * (2 * q + 1))
    if name.startswith("sp("):
        return -dim_g
    table = {
        "EI": 6, "EII": 2, "EIII": -14, "EIV": -26,
        "EV": 7, "EVI": -5, "EVII": -25, "EVIII": 8, "EIX": -24,
        "FI": 4, "FII": -20, "G": 2,
        "e6(c)": -78, "e7(c)": -133, "e8(c)": -248, "f4(c)": -52, "g2(c)": -14,
    }
    return table.get(name)


def _check_invariants(rs: RootSystem, sigma: Involution, report: RealFormReport):
    assert report.dim_k + report.dim_p == rs.dim
    assert report.dc + report.dnc == rs.rank
    mu = sigma.mu
    n_moved = rs.rank - len(mu.fixed_points())
    if sigma.kind == "varsigma":
        assert report.dc == n_moved // 2
    else:
        assert report.dnc == n_moved // 2
    if report.name not in ("unnormalized",):
        expect = expected_character(report.name, rs.dim, rs.rank)
        if expect is not None:
            assert report.character == expect, (
                f"{report.name}: character {report.character} != expected {expect}"
            )
