"""The CLI's JSON writer against json.dumps(x, indent=2, sort_keys=True).

Every payload kind the CLI emits is captured on its way to the writer and
compared with json.dumps, and so is stdout; seeded random nested values
cover what the payloads do not (escapes, empty containers, tuples, bools,
large ints)."""

import json
import random

import pytest

from liebialg import cli
from liebialg.cli import _json_text, main


def _dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


@pytest.fixture
def emitted(monkeypatch):
    """The payloads passed to cli._emit, in order."""
    payloads = []
    emit = cli._emit

    def spy(args, payload):
        payloads.append(payload)
        emit(args, payload)

    monkeypatch.setattr(cli, "_emit", spy)
    return payloads


def _check(capsys, emitted, argv, code=0):
    assert main(argv) == code
    out = capsys.readouterr().out
    (payload,) = emitted
    emitted.clear()
    assert _json_text(payload) == _dumps(payload)
    assert out == _dumps(payload) + "\n"
    return out


A2 = ["--type", "A", "--rank", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", *A2, "--what", "bd-triples"],
        ["enumerate", *A2, "--what", "involutions"],
        ["enumerate", *A2, "--what", "bialgebras"],
        ["enumerate", *A2, "--what", "root-system"],
        ["enumerate", *A2, "--materialize"],
        ["enumerate", "--type", "G", "--rank", "2", "--sigma", "omega-J"],
        ["classify", *A2],
        ["identify", "--type", "A", "--rank", "3", "--sigma", "omega-J", "--painted", "2"],
        ["identify", "--type", "D", "--rank", "4", "--sigma", "varsigma-mu"],
    ],
)
def test_writer_matches_dumps_on_payloads(capsys, emitted, argv):
    _check(capsys, emitted, argv)


def test_writer_matches_dumps_on_build_and_verify(tmp_path, capsys, emitted):
    bd = '{"gamma1":[0],"gamma2":[1],"tau":[[0,1]]}'
    text = _check(capsys, emitted, ["build", *A2, "--sigma", "varsigma", "--t", "2", "--bd", bd])
    path = tmp_path / "a2.json"
    path.write_text(text)
    _check(capsys, emitted, ["verify", str(path)])
    _check(capsys, emitted, ["verify", str(path), "--manin"])
    doc = json.loads(text)
    doc["t"] = ["3", "0"]  # r + r21 no longer equals t Omega
    path.write_text(json.dumps(doc))
    _check(capsys, emitted, ["verify", str(path), "--manin"], code=1)


# quote, backslash, control characters, DEL, non-ASCII and astral characters
_CHARS = 'ab /"\\\n\r\t\b\f\x00\x1f\x7f\xe9 €\U0001f600'


def _random_str(rng) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))


def _random_value(rng, depth=0):
    kinds = ["str", "int", "big", "bool", "none"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "strs"]
    kind = rng.choice(kinds)
    if kind == "str":
        return _random_str(rng)
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "big":
        return rng.randint(-(10**40), 10**40)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "strs":  # the one-pass path, as for an [re, im] pair
        return [_random_str(rng) for _ in range(rng.randrange(4))]
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {_random_str(rng): v for v in items}


def test_writer_matches_dumps_on_random_values():
    rng = random.Random(20261018)
    for _ in range(500):
        x = _random_value(rng)
        assert _json_text(x) == _dumps(x), x


def test_shared_object_is_rendered_once(monkeypatch):
    # a _Shared value is a dict to every reader; the writer renders it
    # once for all of its uses at one depth and drops the text after them
    doc = {"directions": [["1", "0"], ["-1/2", "0"]], "kind": {"real": True}}
    shared = cli._Shared(doc)
    shared.uses = 3
    payload = {"rows": [{"space": shared, "k": k} for k in range(3)], "one": [doc]}
    rendered = []
    render = cli._json_text

    def spy(x, nl="\n"):
        if type(x) is dict and x == doc:
            rendered.append(nl)
        return render(x, nl)

    monkeypatch.setattr(cli, "_json_text", spy)
    assert render(payload) == _dumps(payload)
    assert rendered == ["\n    ", "\n      "]  # "one", then once for the three rows
    assert shared.text is None
    assert json.dumps(shared, sort_keys=True) == json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "x",
    [1.5, {1: "a"}, object(), ["a", 0.5], {"a": {2: []}}, ({"a": [True, 1e3]},)],
)
def test_writer_rejects_what_it_cannot_match(x):
    with pytest.raises(TypeError):
        _json_text(x)
