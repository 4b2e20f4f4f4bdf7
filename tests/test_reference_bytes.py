"""The bytes of three reference outputs, pinned by sha256.

The certificates of a search follow from the solver's pivot sequence, so
these digests change only when a change means to move pivots or to change
a file format; such a change updates them on purpose. A change of form
alone (how the tableau, the lift or the writer reach the same numbers)
must leave every byte as it is.
"""

import hashlib
from pathlib import Path

from pavcore.cli import main
from pavcore.proofs import lemma2_suite

HISTORIES_M10_K8_STDOUT = "a3d0426c5867973702207fedad8ff5473279286583dcfe1ebb7fe1f573eff28f"
HISTORIES_M10_K8_BUNDLE = "6d246e55d54dc1c8afe46f23121069ffd6537b84521200985b41e4af2cd3a55f"
PROGRAM3_K5_BUNDLE = "46a7bc249ec9ac4e6b8d706aecee1faa11924da18709d5bf49c8d90856bfa6e6"
LEMMA2_SUITE_REPR = "de85234322eb6785bbeb41e5a44ebdaad7cb88c41ed65b4742a2e8f0d251e4e7"


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
