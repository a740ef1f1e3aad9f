"""The command table's argv reader against argparse.

`reference_parser` is the argparse parser the CLI used before the table
replaced it, kept here as the oracle: every argv in the corpus must parse
to the same attributes under both.  Malformed argv must exit 2 with one
`error:` line and no usage block."""

import argparse
import ast
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

from liebialg.cli import (
    cmd_build,
    cmd_classify,
    cmd_enumerate,
    cmd_identify,
    cmd_verify,
    main,
    parse_args,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIGMA_CHOICES = ("varsigma", "varsigma-mu", "omega", "omega-J", "omega-mu-J", "all")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liebialg",
        description="Exact classification data for almost-factorizable "
        "real simple Lie bialgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sigma=True):
        p.add_argument("--type", required=True, help="series letter A..G")
        p.add_argument("--rank", required=True, type=int)
        if sigma:
            p.add_argument("--sigma", choices=SIGMA_CHOICES)
            p.add_argument("--mu", help="1-based permutation, e.g. 3,2,1")
            p.add_argument("--J", help="1-based mu-fixed vertices, e.g. 1,3")
            p.add_argument(
                "--painted", help="1-based painted vertices (complement of J)"
            )
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json"
        )
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("enumerate", help="list triples, involutions or data")
    common(p)
    p.add_argument(
        "--what",
        choices=("bd-triples", "involutions", "bialgebras", "root-system"),
        default="bialgebras",
    )
    p.add_argument(
        "--materialize",
        action="store_true",
        help="include the full datum (with tensors) in each row",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="materialize one datum with tensors")
    common(p)
    p.add_argument("--bd", help="triple as JSON {gamma1, gamma2, tau}")
    p.add_argument(
        "--t", help="scalar (1, 2, i, 3i) or the line keywords real/imaginary"
    )
    p.add_argument(
        "--coefficients", help="JSON list of direction coefficients"
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check all identities of a datum file")
    p.add_argument("input", help="datum JSON file")
    p.add_argument("--skip-cybe", action="store_true")
    p.add_argument("--manin", action="store_true", help="also verify the double")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identify", help="name the real form of an involution")
    common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("classify", help="deduplicate enumerated data")
    common(p)
    p.set_defaults(func=cmd_classify)

    return parser


# ---- the corpus -------------------------------------------------------------

COMMANDS = ("enumerate", "build", "verify", "identify", "classify")


def readme_argvs() -> list:
    """Every `liebialg ...` example of the README, continuation lines joined."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in re.findall(r"^liebialg .*$", text, re.M)]


def cli_test_argvs() -> list:
    """Every argv literal in tests/test_cli.py: the arguments of each
    `run(capsys, ...)` and `main([...])` call, every list or tuple of
    strings that starts with a command, and the build base argv with each
    malformed-argument probe appended.  A value computed at run time (a
    file path) reads as `datum.json`."""
    with open(os.path.join(HERE, "test_cli.py")) as fh:
        tree = ast.parse(fh.read())

    def words(nodes):
        return [n.value if isinstance(n, ast.Constant) else "datum.json" for n in nodes]

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            if not any(isinstance(a, ast.Starred) for a in node.args):
                out.append(words(node.args[1:]))
        elif isinstance(node, (ast.List, ast.Tuple)) and node.elts:
            first = node.elts[0]
            if isinstance(first, ast.Constant) and first.value in COMMANDS:
                out.append(words(node.elts))
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BUILD_PROBES":
            base = ["build", "--type", "A", "--rank", "2", "--sigma", "varsigma"]
            out += [base + probe for probe in ast.literal_eval(node.value).values()]
    return out


def perfbench_argvs() -> list:
    """Every argv the benchmark's workloads build for seeds 1-20."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [
        r.argv
        for name in workloads.WORKLOADS
        for seed in range(1, 21)
        for r in workloads.requests(name, seed)
    ]


# `=` with and without a value, prefixes, repeats, options on both sides of
# verify's input, negative numbers and values with spaces, `--`.
SPELLINGS = [
    ["identify", "--type=F", "--rank=4", "--sigma=omega-J", "--J="],
    ["identify", "--type", "E", "--rank", "6", "--sigma", "omega-mu-J", "--painted="],
    ["identify", "--ty", "A", "--ra", "3", "--si", "omega-J", "--pa", "1"],
    ["identify", "--ty=G", "--r=2", "--s=varsigma", "--f=pretty"],
    ["enumerate", "--type", "A", "--rank", "2", "--wh", "bd-triples", "--mat"],
    ["enumerate", "--type", "A", "--rank", "2", "--what=involutions", "--mu", "2,1"],
    ["build", "--type", "A", "--rank", "2", "--t", "1", "--t", "-1"],
    ["build", "--type", "A", "--rank", "2", "--c", '["2"]', "--b", '{"gamma1": []}'],
    ["build", "--type", "A", "--rank", "2", "--t", "-1 + i", "--coefficients=[]"],
    ["build", "--t=-1/2", "--type", "A", "--rank", "2", "--sigma", "omega", "--out", "-"],
    ["classify", "--rank", "3", "--type", "B", "--rank", "2", "--sigma", "all"],
    ["classify", "--type", "A", "--rank", " 3", "--format", "csv", "--format", "json"],
    ["verify", "datum.json", "--manin", "--skip-cybe"],
    ["verify", "--manin", "datum.json", "--sk", "--fo", "pretty", "--o", "x.json"],
    ["verify", "--out=x.json", "-", "--manin"],
    ["verify", "-1"],
    ["verify", "a file with spaces.json"],
    ["verify", "--manin", "--", "--datum.json"],
    ["identify", "--type", "A", "--rank", "2", "--sigma", "omega-J", "--J", "", "--mu", "-1"],
]


def corpus() -> list:
    out = []
    for argv in readme_argvs() + cli_test_argvs() + perfbench_argvs() + SPELLINGS:
        if argv not in out:
            out.append(argv)
    return out


def test_corpus_covers_every_source():
    assert len(readme_argvs()) >= 7
    assert any("--painted=" in argv for argv in perfbench_argvs())
    assert any("--J=" in argv for argv in perfbench_argvs())
    assert ["verify", "datum.json", "--manin"] in cli_test_argvs()
    assert len(corpus()) > 60


def _attributes(namespace) -> dict:
    return {k: v for k, v in vars(namespace).items() if k != "func"}


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_parses_as_argparse_does(argv):
    expected = reference_parser().parse_args(argv)
    assert _attributes(parse_args(argv)) == _attributes(expected)


def test_handler_follows_the_command():
    for command, handler in [
        ("identify", cmd_identify), ("classify", cmd_classify), ("enumerate", cmd_enumerate),
    ]:
        assert parse_args([command, "--type", "A", "--rank", "1"]).func is handler
    assert parse_args(["verify", "x.json"]).func is cmd_verify


# ---- malformed argv ---------------------------------------------------------

IDENTIFY = ["identify", "--type", "A", "--rank", "2"]
MALFORMED = {
    "no-command": [],
    "unknown-command": ["identity", "--type", "A", "--rank", "2"],
    "command-prefix": ["ident", "--type", "A", "--rank", "2"],
    "unknown-option": IDENTIFY + ["--sigm4", "omega"],
    "unknown-short-option": IDENTIFY + ["-s", "omega"],
    "ambiguous-option": ["enumerate", "--type", "A", "--rank", "2", "--m", "2,1"],
    "missing-value-at-end": IDENTIFY + ["--sigma"],
    "missing-value-before-option": ["identify", "--type", "--rank", "2"],
    "missing-type": ["identify", "--rank", "2"],
    "missing-rank": ["classify", "--type", "A"],
    "missing-both": ["enumerate"],
    "rank-not-int": ["identify", "--type", "A", "--rank", "two"],
    "rank-empty": ["identify", "--type", "A", "--rank="],
    "sigma-not-a-choice": IDENTIFY + ["--sigma", "omega-j"],
    "format-not-a-choice": IDENTIFY + ["--format", "yaml"],
    "what-not-a-choice": ["enumerate", "--type", "A", "--rank", "2", "--what", "roots"],
    "flag-with-value": ["verify", "x.json", "--manin=yes"],
    "verify-no-input": ["verify", "--manin"],
    "verify-two-inputs": ["verify", "x.json", "y.json"],
    "positional-to-identify": IDENTIFY + ["omega"],
}


def _run_cli(argv):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run(
        [sys.executable, "-m", "liebialg", *argv], env=env, capture_output=True, text=True
    )


def _exit_code(parse, argv) -> int | None:
    """The exit code `parse(argv)` raises, None if it returns."""
    try:
        parse(argv)
    except SystemExit as exc:
        return exc.code
    return None


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_malformed_argv_exits_2_with_one_error_line(capsys, probe):
    # malformed for argparse too, which prints a usage block as well
    assert _exit_code(reference_parser().parse_args, MALFORMED[probe]) == 2
    capsys.readouterr()
    assert _exit_code(main, MALFORMED[probe]) == 2
    _assert_one_error_line(capsys)


def test_empty_argv_names_the_commands(capsys):
    assert _exit_code(main, MALFORMED["no-command"]) == 2
    assert capsys.readouterr().err == (
        "error: missing command: choose one of enumerate, build, verify, identify, classify\n"
    )


WORDS = [
    "--type", "A", "--rank", "2", "3", "--rank=3", "--r", "-1", "-1.5", "--sigma", "omega",
    "--sigma=all", "--s", "--mu", "--m", "--manin", "--manin=", "--J", "--J=", "--painted",
    "--what", "bd-triples", "--materialize", "--format", "csv", "--out", "--t", "--t=", "--ty",
    "--skip-cybe", "--sk", "x.json", "a b", "-", "--", "-x", "--x", "--=", "--help",
]


def test_random_argvs_match_argparse_or_fail_in_one_line(capsys):
    """Seeded argvs: each command, its required arguments in random places
    and random words of the table.  Whatever argparse accepts parses to the
    same attributes; whatever the table rejects gets one error line."""
    rng = random.Random(20)
    accepted = 0
    for _ in range(400):
        command = rng.choice(COMMANDS)
        required = [["x.json"]] if command == "verify" else [["--type", "B"], ["--rank", "2"]]
        pieces = required + [[w] for w in rng.choices(WORDS, k=rng.randrange(4))]
        rng.shuffle(pieces)
        argv = [command] + [w for piece in pieces for w in piece]
        expected = None
        if _exit_code(reference_parser().parse_args, argv) is None:
            expected = _attributes(reference_parser().parse_args(argv))
            accepted += 1
        capsys.readouterr()
        if expected is not None:
            assert _attributes(parse_args(argv)) == expected, argv
            continue
        code = _exit_code(parse_args, argv)
        if code == 2:
            _assert_one_error_line(capsys)
        elif code == 0:
            assert capsys.readouterr().out.startswith("usage: liebialg"), argv
        else:
            # argparse (3.11) reports a `--` that no positional argument
            # follows as unrecognized; the table reads it as the end of options
            assert "--" in argv, argv
    assert accepted > 100


@pytest.mark.parametrize("probe", ["unknown-option", "missing-type", "rank-not-int"])
def test_malformed_argv_from_the_shell(probe):
    done = _run_cli(MALFORMED[probe])
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["identify", "--help"], ["verify", "-h"], ["build", "--ty", "A", "--he"]],
)
def test_help_exits_0_with_usage(argv):
    done = _run_cli(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: liebialg") and done.stderr == ""
    if argv[0] in COMMANDS:
        assert done.stdout.startswith(f"usage: liebialg {argv[0]} ")
    else:
        assert all(f"\n  {command} " in done.stdout for command in COMMANDS)


@pytest.mark.parametrize(
    "argv", [["--help"]] + [[command, "--help"] for command in COMMANDS], ids=" ".join
)
def test_help_descriptions_share_one_column(capsys, argv):
    # each row is "  LABEL  description", LABEL's words single-spaced
    assert _exit_code(main, argv) == 0
    rows = capsys.readouterr().out.split("\n\n")[-1].splitlines()
    columns = {re.match(r"  \S+(?: \S+)*  +", row).end() for row in rows}
    assert len(rows) > 1 and len(columns) == 1, rows
