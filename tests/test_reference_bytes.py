"""The bytes of the reference outputs, pinned by sha256.

The certificates of a search follow from the solver's pivot sequence and
from which earlier sibling's certificate covers a continuation, so these
digests change only when a change means to move pivots, to hand another
valid certificate to a history, or to change a file or output format; such
a change updates them on purpose. A change of form
alone (how the tableau, the lift or the writer reach the same numbers)
must leave every byte as it is.
"""

import hashlib
from pathlib import Path

import pytest

from pavcore.cli import main
from pavcore.proofs import lemma2_suite

from test_cli import TIED_PAIR_8, write_json

HISTORIES_M10_K8_STDOUT = "a3d0426c5867973702207fedad8ff5473279286583dcfe1ebb7fe1f573eff28f"
HISTORIES_M10_K8_BUNDLE = "60c63a28d3e8d3c54313c1b717fcfd3e9140bf1bc8102e29ebb9e5d8b23065a4"
PROGRAM3_K5_BUNDLE = "99137bc2b206b87117fc74967254a35c594bb570af64d87163bec4b23d05f6a0"
LEMMA2_SUITE_REPR = "429ba2d3407133bc33d221d67492576b9228fff2df2b1ca0088ffbf011aee81c"

# stdout of each command, PROFILE standing for a file holding TIED_PAIR_8.
COMMAND_STDOUT = {
    "rule PROFILE --rule pav-local":
        "70518fe785eb7035f617641626fe10bf1d0af98f08b8badd4eecfee1aef83cd0",
    "rule PROFILE --rule pav-local --json":
        "f371fcb43cefa09df64bf101cd10b2e0e9f38f123aca93999a7ceabf10f85983",
    "rule PROFILE --rule pav-global":
        "e62ee2f854add89d2c9f35195930d2a027a4375b2d2bf2b13e52ed2b2b8a9d4e",
    "rule PROFILE --rule pav-global --json":
        "3def8cbf8686bcd4de21ce12b19b765eec80f37733e1a832a1696283520498ab",
    "rule PROFILE --rule recursive-pav":
        "7276d72e3c65c1c36a782a554b0bce4e7b81e4d6c98fcfb1f93bf97739047f9f",
    "rule PROFILE --rule recursive-pav --json":
        "17bea60c37e7d483f9720ff266721f5118522d44d24fb26b27949f1efeb11b12",
    "verify-core PROFILE 1,2,5-10 --quota hare":
        "d233fce5b82209d8c3d65eafe9559fe52e1e9e5c7b15643fe3cfcc57c1cd6e42",
    "verify-core PROFILE 1,2,5-10 --quota hare --json":
        "3205c0b718e0805eafbd8d88aee89489252f89b3fbd0b400c9229c89fe2255aa",
    "verify-core PROFILE 1,2,5-10 --quota droop":
        "461f0fa424387d232fa751f55a7fa022bccf89f58f1182c8ecea75169a4b15cd",
    "verify-core PROFILE 1,2,5-10 --quota droop --json":
        "9bf34fa8e8685fc294efd650612816bca12661b5b08eed7acb4a59e6cb8db66b",
    "prove --mode inequality --k 8 --json":
        "c8341bed30c11a900cb5b84fdcdceeb83d67ba5aaf8e14afa2800b4981c2be48",
    "prove --mode program3 --k 8 --json":
        "df9855301a2f53cf90ad74cf27e0795a7ec0dc8920bab8cfd624f35c2081f8ff",
}
# stderr of check-certificates on a missing path, the path written as PATH.
MISSING_BUNDLE_STDERR = "7b780ff0dbdd41042ce373c041b2b186839545af668595d4bad3b7a8e2ffcb3d"


def bundle_digest(root: Path) -> str:
    """sha256 over the sorted relative paths of a bundle's files and their
    bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prove(capsys, out: Path, *argv) -> str:
    code = main(["prove", *argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    return stdout


def test_histories_m10_k8_bundle_and_stdout(tmp_path, capsys):
    stdout = prove(capsys, tmp_path, "--mode", "histories", "--m", "10", "--k", "8")
    assert sha256(stdout) == HISTORIES_M10_K8_STDOUT
    assert bundle_digest(tmp_path) == HISTORIES_M10_K8_BUNDLE


def test_program3_k5_bundle(tmp_path, capsys):
    prove(capsys, tmp_path, "--mode", "program3", "--k", "5")
    assert bundle_digest(tmp_path) == PROGRAM3_K5_BUNDLE


def test_lemma2_suite_repr():
    assert sha256(repr(lemma2_suite())) == LEMMA2_SUITE_REPR


@pytest.mark.parametrize("command", sorted(COMMAND_STDOUT))
def test_command_stdout(tmp_path, capsys, command):
    profile = str(write_json(tmp_path / "profile.json", TIED_PAIR_8))
    main([profile if word == "PROFILE" else word for word in command.split()])
    assert sha256(capsys.readouterr().out) == COMMAND_STDOUT[command]


def test_missing_bundle_stderr(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["check-certificates", missing]) == 2
    assert sha256(capsys.readouterr().err.replace(missing, "PATH")) == MISSING_BUNDLE_STDERR
