"""Seeded mutations of datum files: verify, with and without --manin,
ends with exit 0, 1 or 2 on every one and never raises.

Each mutant of a built datum (the A2 split datum at t = 2 and the B2
compact one at t = i) has one to three leaves, or whole entries,
deleted or replaced: by a value of the same kind, or by one of another
JSON type (ints, floats, bools, null, strings, "1/0", short lists and
nested lists).  Every tensor entry, scalar and index of the file is a
leaf, so the tensor reader sees each shape."""

import json
import random

import pytest

from liebialg.cli import main

DATA = {
    "A2-split": ["--type", "A", "--rank", "2", "--sigma", "varsigma", "--t", "2"],
    "B2-compact": ["--type", "B", "--rank", "2", "--sigma", "omega", "--t", "i"],
}
MUTATIONS = 300  # per datum and mode: about 3 s for the four cases


def _leaves(node, path=()):
    """The path of every leaf (a value that is not a non-empty container)."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    found = []
    for key, child in items:
        found += _leaves(child, (*path, key))
    return found or [path]


def _value(rng: random.Random, old):
    """A value of the leaf's own kind about half the time (another
    rational string, another index), so that many mutants are well formed
    and reach the checks; otherwise any JSON value."""
    if rng.random() < 0.5 and type(old) in (int, str):
        if type(old) is int:
            return rng.randint(0, 14)
        return rng.choice(["0", "1", "-1", "2", "1/2", "-3/4", "5/3"])
    return rng.choice([
        rng.randint(-3, 40), rng.choice([0.5, -1.0, 2.0]), rng.choice([True, False]), None,
        rng.choice(["", "0", "1", "-1/2", "1/0", "i", "x", "2.5"]),
        [], [str(rng.randint(-2, 2))], ["1", "0", "0"], [["1", "0"]], [[0, 1, "1", "0"]],
        {}, {"dim": 3},
    ])


def _mutate(doc, rng: random.Random):
    """doc with one leaf, or the container of one (a whole tensor entry,
    say), replaced or deleted."""
    path = rng.choice(_leaves(doc))
    if path and rng.random() < 0.2:
        path = path[:-1]
    if not path:
        return _value(rng, doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _value(rng, parent[path[-1]])
    return doc


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(DATA))
@pytest.mark.parametrize("manin", [False, True])
def test_verify_survives_seeded_datum_mutations(tmp_path, capsys, name, manin):
    built = tmp_path / "datum.json"
    assert main(["build", *DATA[name], "--out", str(built)]) == 0
    text = built.read_text()
    rng = random.Random(f"{name}:{manin}")
    path = tmp_path / "mutant.json"
    mode = ["--manin"] if manin else []
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(MUTATIONS):
        doc = json.loads(text)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        code = _exit_code(["verify", str(path), *mode])
        assert code in codes, (code, doc)
        codes[code] += 1
    capsys.readouterr()
    assert codes[1] and codes[2], codes  # some mutants reach the checks, some the reader rejects
