"""The names the benchmark's per-layer tracer wraps (`bench/layers.py`)
must be the ones the commands call: a traced prove and check of a
program3 or histories bundle counts one write, two reference-row builds
(the search's check and the file's) and one checker call per certificate
file, the history search times the rows it builds, and the election
commands count every round of the recursive rule and every deviation
search."""

from pathlib import Path

import pytest

from pavcore import cli

from test_cli import TIED_PAIR_8, write_json

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    return tracer


def test_traced_program3_round_trip_counts_every_file(tmp_path, monkeypatch):
    tracer = _tracer(monkeypatch)
    try:
        bundle = tmp_path / "p3"
        assert cli.main(["prove", "--mode", "program3", "--k", "4", "--out", str(bundle)]) == 0
        assert cli.main(["check-certificates", str(bundle)]) == 0
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    n_files = len(list(bundle.glob("*.json")))
    assert n_files == 10
    assert counts["exactlp.verify_farkas_calls"] == n_files
    # One reference-row build per certificate in the search's check, and
    # one per file in check-certificates.
    assert counts["proofs.reference_rows_calls"] == 2 * n_files
    assert counts["fileio.files_written"] == n_files
    assert counts["exactlp.lps"] > 0


@pytest.mark.parametrize("m", [9, 10])
def test_traced_histories_round_times_the_rows_the_search_builds(tmp_path, monkeypatch, m):
    # The tracer wraps the history's `child` and `problem` under the name
    # `proofs._HistoryRows`; the search must still call what it wraps. At
    # m = 9 every continuation of the empty history has one candidate
    # outside W, so each gets its Theorem 1 certificate with no quotient;
    # at m = 10 the (4, 2) step and its children go through the quotient.
    tracer = _tracer(monkeypatch)
    try:
        bundle = tmp_path / f"h{m}8"
        argv = ["prove", "--mode", "histories", "--m", str(m), "--k", "8", "--out", str(bundle)]
        assert cli.main(argv) == 0
        assert cli.main(["check-certificates", str(bundle)]) == 0
    finally:
        tracer.uninstall()
    times, counts = tracer.take()
    assert times["proofs.rows"] > 0
    assert ("proofs.quotient" in times) == (m == 10)
    assert counts["fileio.files_written"] == counts["exactlp.verify_farkas_calls"] > 0
    assert counts["proofs.reference_rows_calls"] == (
        counts["fileio.files_written"] + counts["exactlp.verify_farkas_calls"]
    )


def test_traced_election_commands_count_rounds_and_searches(tmp_path, monkeypatch):
    profile = str(write_json(tmp_path / "tied.json", TIED_PAIR_8))
    tracer = _tracer(monkeypatch)
    try:
        codes = [
            cli.main(["rule", profile, "--rule", "recursive-pav"]),
            cli.main(["rule", profile, "--rule", "pav-global"]),
            cli.main(["verify-core", profile, "1,2,5-10"]),
        ]
    finally:
        tracer.uninstall()
    times, counts = tracer.take()
    assert codes == [0, 0, 1]
    # Two rounds of the recursive rule, each with one deviation search,
    # and one search for verify-core.
    assert counts["rules.recursive_rounds"] == 2
    assert counts["stability.find_deviation_calls"] == 3
    assert "elections.pav_score" in times
    assert "rules.global_pav" in times
