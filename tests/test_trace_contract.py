"""The names the benchmark's per-layer tracer wraps (`bench/layers.py`)
must be the ones the commands call: a traced prove and check of a
program3 bundle counts one write, one reference-row build and one Farkas
check per certificate file, and the election commands count every round
of the recursive rule and every deviation search."""

from pathlib import Path

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
    assert counts["proofs.reference_rows_calls"] == n_files
    assert counts["fileio.files_written"] == n_files
    assert counts["exactlp.lps"] > 0


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
