"""Correctness checks that do not reuse the program's code.

Three sources: golden digests of each request's exit code and stdout,
captured at the parent commit; a table of real forms written out from the
Cartan classification (Helgason, *Differential Geometry, Lie Groups, and
Symmetric Spaces*, ch. X, table V), giving each form's maximal compact
subalgebra k and so (dim k, dim p); and verdicts known by construction for
`verify`.
"""

from __future__ import annotations

import hashlib
import json

def algebra_dim(series: str, n: int) -> int:
    """Dimension of the complex simple Lie algebra of type series_n."""
    return {
        "A": n * (n + 2),
        "B": n * (2 * n + 1),
        "C": n * (2 * n + 1),
        "D": n * (2 * n - 1),
        "E": {6: 78, 7: 133, 8: 248}.get(n, 0),
        "F": 52,
        "G": 14,
    }[series]


def _so_k(p: int, q: int) -> int:
    return p * (p - 1) // 2 + q * (q - 1) // 2


def _classical_k(series: str, n: int) -> dict:
    """name -> dim k for the real forms of a classical type (names in the
    program's spelling: smaller signature entry first)."""
    if series == "A":
        big = n + 1
        forms = {f"su({big})": big * big - 1, f"sl({big},R)": big * (big - 1) // 2}
        forms.update({f"su({p},{big - p})": p * p + (big - p) ** 2 - 1 for p in range(1, big // 2 + 1)})
        if big % 2 == 0:
            m = big // 2
            forms[f"sl({m},H)"] = m * (2 * m + 1)  # k = sp(m)
        return forms
    if series in "BD":
        big = 2 * n + 1 if series == "B" else 2 * n
        forms = {f"so({big})": big * (big - 1) // 2}
        forms.update({f"so({p},{big - p})": _so_k(p, big - p) for p in range(1, big // 2 + 1)})
        if series == "D":
            forms[f"so*({big})"] = n * n  # k = u(n)
        return forms
    if series == "C":
        forms = {f"sp({n})": n * (2 * n + 1), f"sp({n},R)": n * n}  # k = u(n)
        forms.update(
            {f"sp({p},{n - p})": p * (2 * p + 1) + (n - p) * (2 * (n - p) + 1) for p in range(1, n // 2 + 1)}
        )
        return forms
    raise KeyError(series)


# dim k of the exceptional real forms: compact, then the noncompact ones
# with k = sp(4), su(6)+su(2), so(10)+R, f4; su(8), so(12)+su(2), e6+R;
# so(16), e7+su(2); sp(3)+su(2), so(9); su(2)+su(2).
_EXCEPTIONAL_K = {
    ("E", 6): {"e6(c)": 78, "EI": 36, "EII": 38, "EIII": 46, "EIV": 52},
    ("E", 7): {"e7(c)": 133, "EV": 63, "EVI": 69, "EVII": 79},
    ("E", 8): {"e8(c)": 248, "EVIII": 120, "EIX": 136},
    ("F", 4): {"f4(c)": 52, "FI": 24, "FII": 36},
    ("G", 2): {"g2(c)": 14, "G": 6},
}


def real_forms(series: str, n: int) -> dict:
    """name -> (dim k, dim p) for every real form of the given type."""
    dim = algebra_dim(series, n)
    ks = _EXCEPTIONAL_K[(series, n)] if series in "EFG" else _classical_k(series, n)
    return {name: (k, dim - k) for name, k in ks.items()}


def check_real_form(series: str, n: int, report: dict, expect_name: str | None = None) -> list:
    """Errors in one `identify` report (empty when it is right)."""
    forms = real_forms(series, n)
    name, k, p = report["name"], report["dim_k"], report["dim_p"]
    errors = []
    if k + p != algebra_dim(series, n):
        errors.append(f"dim_k + dim_p = {k + p}")
    if report["character"] != p - k:
        errors.append(f"character {report['character']} != {p - k}")
    if name == "unnormalized":
        if (k, p) not in forms.values():
            errors.append(f"({k}, {p}) is no real form of {series}{n}")
    elif forms.get(name) != (k, p):
        errors.append(f"{name} with ({k}, {p}); table has {forms.get(name)}")
    if expect_name is not None and name != expect_name:
        errors.append(f"named {name}, expected {expect_name}")
    return errors


def check_output(req, stdout: str) -> list:
    """Oracle errors for the output of a request that exited as expected."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if req.command == "identify":
        return check_real_form(req.series, req.rank, doc, req.expect_name)
    if req.command == "enumerate":
        names = set(real_forms(req.series, req.rank)) | {"unnormalized"}
        bad = sorted({row["real_form"] for row in doc["rows"]} - names)
        return [f"real_form {x} is no real form of {req.series}{req.rank}" for x in bad]
    if req.command == "classify":
        if doc["classes"] != len(doc["representatives"]) or doc["classes"] > doc["total_data"]:
            return ["class counts disagree"]
        return []
    if req.command == "build":
        return [] if doc["type"] == f"{req.series}{req.rank}" else [f"built type {doc['type']}"]
    if req.command == "verify" and doc.get("pass") is not (req.expect_exit == 0):
        return [f"pass is {doc.get('pass')} with expected exit {req.expect_exit}"]
    return []


def request_key(argv: list, input_text: str | None) -> str:
    """Golden key: the argv, with a verify input file named by its digest."""
    if input_text is None:
        return " ".join(argv)
    digest = hashlib.sha256(input_text.encode()).hexdigest()
    return " ".join(a if a != "{input}" else f"<{digest}>" for a in argv)


def classify_failure(req, outcome: dict, golden: dict | None, oracle_errors: list) -> str | None:
    """The kind of failure of one run of a request, or None if it passed.

    `outcome` has `exit`, `timed_out`, `exception` (a string or None) and
    `stdout_sha256`; `golden` has `exit` and `stdout_sha256`.
    """
    if outcome["timed_out"]:
        return "timeout"
    if outcome["exception"]:
        return "crash"
    if outcome["exit"] != req.expect_exit:
        return "wrong_exit"
    if golden is not None and (golden["exit"], golden["stdout_sha256"]) != (
        outcome["exit"],
        outcome["stdout_sha256"],
    ):
        return "golden_mismatch"
    if oracle_errors:
        return "oracle"
    return None
