"""`enumerate` writes each row as the table loop yields it, byte for byte
as the whole payload rendered at once (oracles.render_payload); the table
loop and `classify` keep nothing past its last reader; an unwritable
`--out` fails before any table work."""

import gc
import io
import json
import sys

import pytest

import oracles
from liebialg import cli
from liebialg.cli import _sigma_variants, main
from liebialg.core import Tensor2
from liebialg.rmatrix import BialgebraDatum, classify, iter_data
from liebialg.rootsystem import build_root_system


def _payload(monkeypatch, argv) -> dict:
    """The payload `argv` hands the writer, its streamed rows in a list
    and each model object in them as its to_json(); nothing is written."""
    captured = []

    def capture(args, payload):
        captured.append(oracles.materialized(payload))

    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", capture)
        assert main(argv) == 0
    (payload,) = captured
    return payload


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


REQUESTS = [
    [what, *rest]
    for what in ("bd-triples", "involutions", "bialgebras", "root-system")
    for rest in ([], ["--materialize"])
    if what == "bialgebras" or not rest
]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("request_", REQUESTS, ids=" ".join)
@pytest.mark.parametrize("series, rank", [("A", 2), ("G", 2), ("B", 3)])
def test_streamed_enumerate_matches_the_whole_payload(
    capsys, monkeypatch, series, rank, request_, fmt
):
    what, *rest = request_
    argv = ["enumerate", "--type", series, "--rank", str(rank), "--what", what, *rest,
            "--format", fmt]
    want = oracles.render_payload(_payload(monkeypatch, argv), fmt)
    assert _stdout(capsys, argv) == want


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_classify_matches_the_whole_payload(capsys, monkeypatch, fmt):
    argv = ["classify", "--type", "B", "--rank", "3", "--format", fmt]
    want = oracles.render_payload(_payload(monkeypatch, argv), fmt)
    assert _stdout(capsys, argv) == want


EMPTY = ["enumerate", "--type", "A", "--rank", "1", "--sigma", "varsigma-mu"]


def test_an_empty_table_prints_as_the_whole_payload(capsys, monkeypatch):
    # A1 has no nontrivial diagram symmetry, so no involution and no row
    payload = _payload(monkeypatch, EMPTY)
    assert payload == {"type": "A1", "what": "bialgebras", "rows": []}
    out = {fmt: _stdout(capsys, EMPTY + ["--format", fmt]) for fmt in ("json", "csv", "pretty")}
    assert out == {fmt: oracles.render_payload(payload, fmt) for fmt in out}
    assert '\n  "rows": [],\n' in out["json"]
    assert out["csv"] == "rows,type,what\r\n[],A1,bialgebras\r\n"
    assert out["pretty"] == "rows:\n  (none)\ntype: A1\nwhat: bialgebras\n"


def test_enumerate_writes_the_first_row_before_the_last_datum(monkeypatch):
    argv = ["enumerate", "--type", "B", "--rank", "3"]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    produce, written = cli.iter_data, []

    def watched(rs, sigmas):
        data = produce(rs, sigmas)
        held = next(data)
        for item in data:
            yield held
            held = item
        written.append(out.getvalue())  # as the last datum is yielded
        yield held

    monkeypatch.setattr(cli, "iter_data", watched)
    assert main(argv) == 0
    (before_last,) = written
    first_row = json.loads(out.getvalue())["rows"][0]
    assert before_last.startswith('{\n  "rows": [\n    ' + cli._json_text(first_row, "\n    "))


def _reachable(root) -> list:
    """Every object reachable from root through gc.get_referents."""
    seen, stack, out = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            out.append(x)
            stack.extend(gc.get_referents(x))
    return out


def test_classify_keeps_no_datum():
    rs = build_root_system("B", 3)
    rows = classify(datum for _, _, datum in iter_data(rs, _sigma_variants(rs, "all")))
    assert len(rows) == 11  # B3 has no diagram symmetry: one class per datum
    assert not [x for x in _reachable(rows) if isinstance(x, BialgebraDatum)]


def test_the_split_table_holds_one_r0_at_a_time():
    """Under one involution, as E8's split form, whose list holds all
    6,635 of its triples, no r0 can be shared: at each datum the only
    tensors alive beyond those alive before the loop are the r0 the
    caller holds."""
    rs = build_root_system("D", 4)
    sigmas = [s for s in _sigma_variants(rs, "all") if s.describe() == "varsigma"]
    gc.collect()
    before = {id(x) for x in gc.get_objects() if type(x) is Tensor2}
    seen = 0
    for _, _, datum in iter_data(rs, sigmas):
        gc.collect()  # only what something still holds
        alive = {id(x) for x in gc.get_objects() if type(x) is Tensor2}
        assert alive - before == {id(datum.r0)}
        seen += 1
    assert seen > 1


@pytest.mark.parametrize("command", ["enumerate", "classify"])
def test_unwritable_out_fails_before_any_table_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args):
        raise AssertionError("table work ran")

    monkeypatch.setattr(cli, "_sigma_variants", no_work)
    monkeypatch.setattr(cli, "iter_data", no_work)
    out = tmp_path / "missing" / "table.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "B", "--rank", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}")


def test_out_replaces_a_longer_file_and_a_failure_leaves_it(tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("x" * 100_000)
    argv = ["identify", "--type", "A", "--rank", "2", "--sigma", "varsigma"]
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == _stdout(capsys, argv)
    kept = path.read_text()
    with pytest.raises(SystemExit) as exc:
        main(["build", "--type", "A", "--rank", "2", "--bd", "{", "--out", str(path)])
    assert exc.value.code == 2 and path.read_text() == kept


def test_verify_may_write_over_its_input(tmp_path, capsys):
    path = tmp_path / "a2.json"
    assert main(["build", "--type", "A", "--rank", "2", "--sigma", "varsigma", "--t", "2",
                 "--out", str(path)]) == 0
    want = _stdout(capsys, ["verify", str(path)])
    assert main(["verify", str(path), "--out", str(path)]) == 0
    assert path.read_text() == want
