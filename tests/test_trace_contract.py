"""The names the benchmark's per-layer tracer wraps (`bench/layers.py`)
must be the ones the commands call: a traced prove and check of a
program3 bundle counts one write, one reference-row build and one Farkas
check per certificate file."""

from pathlib import Path

from pavcore import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_program3_round_trip_counts_every_file(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
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
