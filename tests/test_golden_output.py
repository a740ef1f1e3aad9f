"""Byte-identity guard: sha256 of the CLI's stdout for fixed requests.

The digests were taken before the enumeration pipeline was consolidated
into rmatrix.iter_data (B4, C4, D4 and F4: before tensors became sparse);
any change to the emitted JSON (row order, keys, tensor entries) shows
up here.  LIGHT_DIGESTS cover the path without --materialize, where no
tensor is printed but every datum is still built and checked; they were
taken before the parameter layer moved to integer elimination and the
enumeration began to share tensors among involutions, except A5 and D5
`enumerate`, taken before the parameter solve and the Manin checks shared
one elimination (rank 5 with a diagram symmetry).  REQUEST_DIGESTS and
the build/verify pair cover the other output kinds; they were taken
before the CLI wrote JSON with its own writer and before each canonical
involution was read off one recursion per (kind, mu), except E7
`--what root-system`, taken before the Killing Gram was built by the
fraction-free elimination, and the two mu-twisted `identify` requests
and FAILING_MANIN, taken before the bracket table and the canonical
involutions dropped their scalar copies.
"""

import hashlib
import json

import pytest

from liebialg.cli import main

DIGESTS = {
    ("enumerate", "A", 1): "4e6c15afe1ba173843b7372fbe427501928676a1a8fb88d2cac94daf5f03b644",
    ("enumerate", "A", 2): "48455ea9c255428edb79e6ac6f2a2e7e89bc9096d14c7afd0f189897df5c1b5a",
    ("enumerate", "A", 3): "aed524adf49c200205e9276e6b8a1756c8871a0c44070deeb683785d879b1a0b",
    ("enumerate", "B", 2): "00915910068049da126ecbd8f6e9843bdffc4af7997e46a7251f6207c8b5d3a2",
    ("enumerate", "B", 3): "786a3750bb2cf55ae0de7d330c0ba6168a7b710b180369e478100f287806e202",
    ("enumerate", "G", 2): "718477459ed52e24208bf877ab6eb32ecd6bf8606dbed25da6fab17179e00a35",
    ("enumerate", "B", 4): "23d6660338454c0ea806e5f568510cb4ea1915210f0f5e55f7ab286de30181da",
    ("enumerate", "C", 4): "f2d93139e4ada6b29d85cb8a7408e87b8e83855e16ad00dd4cfb8babca935c48",
    ("enumerate", "D", 4): "67515e6da08e2a7e546a1b69fead530660efe8a705bf17be6fd041481dbc262a",
    ("classify", "A", 3): "c400c8d63bcda6e7b835fc1b3f711b527e18690367ab0fc180cec926c5b93aa5",
    ("classify", "B", 3): "4b69a7cf833383d6ca986b475ccd00f8f9093df4ebe6204fc2b3d79a12da3a97",
    ("classify", "C", 3): "b6fb815ac080dea7f38c30b67b6fbd617c00006f83321616bc5e525813647f96",
    ("classify", "G", 2): "96aa2658c57ce2d1c7bc54e2dd75ed0e80d1473989f0826213d35af90c9098c2",
    ("classify", "F", 4): "4df62e66d673d2a55e974a2fcd6fc4703fef225bb9f313410131cbafa5fdf4d3",
}

LIGHT_DIGESTS = {
    ("enumerate", "A", 4): "19117b72616d391a5e7493cb649a75a6127945cb7648b029ce9be54a91442975",
    ("enumerate", "A", 5): "247ec99d7fbf2655d535a6c392122261de30966caf1c758827e239ebdd9360e2",
    ("enumerate", "D", 4): "8091d3fb3296e5588f39a2810602604e61563587557a6d1bf6ad517130809250",
    ("enumerate", "D", 5): "10bb78268a3b0afe39a954d0de6848bf1e6d11e7daaf0b58065997a25fbf7897",
    ("classify", "A", 4): "ff2c867bccf17293adb4bc87f2a15f568b2da8450c667a31beb7567a33ef2a86",
    ("classify", "D", 4): "02453cb75272345f3280b4c65bbafaa2f01e4efe1f7beb165073cce179674ef2",
    ("classify", "D", 5): "846493564ff5ce8258e0c61fc8af425275f64d7dbe22d171898701e555accccf",
}


REQUEST_DIGESTS = {
    ("enumerate", "--type", "E", "--rank", "6", "--what", "involutions"):
        "c97625df04462f91ea9320d77ceb4a2b556e429d614d78e06f3a2d896aaba8a2",
    ("enumerate", "--type", "E", "--rank", "6", "--what", "bd-triples"):
        "25c682c44d729fcd17d83342f18e072ffbc781459b009a4c167417cf2afd7c39",
    ("enumerate", "--type", "F", "--rank", "4", "--what", "root-system"):
        "d4d6c02452ee73b0254040c4a9198610219e1949308e6e14cd6f908c0e8d1e1e",
    ("enumerate", "--type", "E", "--rank", "7", "--what", "root-system"):
        "58df8701d7abf53091b881fcfc78ebac69a3ca64435b4ba6a816e83aaf1b1958",
    ("identify", "--type", "E", "--rank", "7", "--sigma", "omega-J", "--painted", "2"):
        "35311718415766303f73311e5ea6c6a913f1a2fb499027002176ce764ad58774",
    ("enumerate", "--type", "B", "--rank", "4"):
        "e6ff3b455d22e3274ba551ef3c2c0a4a4eb42a8896d0d0d0c37d889a8b773cb9",
    ("identify", "--type", "D", "--rank", "4", "--sigma", "omega-mu-J", "--painted", "2"):
        "e0597f1ae9218b2897e6094f4de43eefe4cdeb120f314adbb66ba6d82ab936b4",
    ("identify", "--type", "E", "--rank", "6", "--sigma", "omega-mu-J", "--painted="):
        "513ba24e4f0b0c149925d158d78c0613d8d41cc3921822c1728748e5fb8a27af",
}

BUILD_A3 = [
    "build", "--type", "A", "--rank", "3", "--sigma", "varsigma", "--t", "2",
    "--bd", '{"gamma1":[0,1],"gamma2":[1,2],"tau":[[0,1],[1,2]]}',
]
BUILD_A3_DIGEST = "044717b8b6e35fbdd64473fa1f516990edf7b69678bb4c06d5a31ef3af9a0531"
VERIFY_MANIN_A3_DIGEST = "9cc3510918883ec459d01294156d8222dfdabe42e77fc17c2f9b0d474d628ee6"

# verify --manin on a built datum with one entry appended to r, as
# (type, rank, sigma, t, the entry): each exits 1.  Every passing double
# prints the same bytes, so only these show which Manin keys fail: both
# sub2 keys on A3 compact, manin_sub2_closed alone on B3 split.
FAILING_MANIN = {
    ("A", "3", "omega", "i", (0, 9, "1", "0")):
        "dc1fba2166b0692f5287070fc449e757da8f7b9e021ca703ca5a2c7cdffaacc4",
    ("B", "3", "varsigma", "2", (3, 12, "1", "0")):
        "662ef2ff678f99e2a30a890d7a85e9075c6abff037a5d7b360798b1ea546fe2d",
}


def _digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command,series,rank", sorted(DIGESTS))
def test_stdout_digest(capsys, command, series, rank):
    argv = [command, "--type", series, "--rank", str(rank)]
    if command == "enumerate":
        argv.append("--materialize")  # put the r and r0 tensors in the output
    assert _digest(capsys, argv) == DIGESTS[(command, series, rank)]


@pytest.mark.parametrize("command,series,rank", sorted(LIGHT_DIGESTS))
def test_light_stdout_digest(capsys, command, series, rank):
    argv = [command, "--type", series, "--rank", str(rank)]
    assert _digest(capsys, argv) == LIGHT_DIGESTS[(command, series, rank)]


@pytest.mark.parametrize("argv", sorted(REQUEST_DIGESTS))
def test_request_stdout_digest(capsys, argv):
    assert _digest(capsys, list(argv)) == REQUEST_DIGESTS[argv]


def test_build_and_verify_manin_stdout_digests(tmp_path, capsys):
    assert main(BUILD_A3) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_A3_DIGEST
    path = tmp_path / "a3.json"
    path.write_text(out)
    assert _digest(capsys, ["verify", str(path), "--manin"]) == VERIFY_MANIN_A3_DIGEST


@pytest.mark.parametrize("series,rank,sigma,t,entry", sorted(FAILING_MANIN))
def test_failing_manin_double_stdout_digest(tmp_path, capsys, series, rank, sigma, t, entry):
    assert main(["build", "--type", series, "--rank", rank, "--sigma", sigma, "--t", t]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["r"]["entries"].append(list(entry))
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--manin"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_MANIN[series, rank, sigma, t, entry]
