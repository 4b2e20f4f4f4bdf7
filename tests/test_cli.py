"""Tests for the command-line contract: exit codes, bundles and budgets.

Exit codes: 0 when the claim holds, 1 when it fails, 2 on input errors,
3 when a size or time budget is exceeded.
"""

import json
import time

import pytest

from pavcore.cli import main
from pavcore.proofs import (
    DeviationShape,
    build_program3,
    enumerate_histories,
    farkas_from_theorem1,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


TIED_PAIR_8 = {
    "m": 10,
    "k": 8,
    "ballots": [
        {"approve": [1, 2, 3], "count": 1},
        {"approve": [1, 2, 4], "count": 1},
        {"approve": [5, 6, 7, 8, 9, 10], "count": 2},
    ],
}


@pytest.fixture
def tied_pair_file(tmp_path):
    return write_json(tmp_path / "tied.json", TIED_PAIR_8)


def certificate_files(bundle):
    return sorted(p for p in bundle.rglob("*.json") if p.name != "histories.json")


def negate_one_multiplier(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    i = next(i for i, v in enumerate(payload["multipliers"]) if int(v))
    payload["multipliers"][i] = str(-int(payload["multipliers"][i]))
    write_json(path, payload)


class TestVerifyCore:
    def test_stable_and_unstable(self, capsys, tied_pair_file):
        assert run(capsys, "verify-core", tied_pair_file, "1-8")[0] == 0
        code, out, _ = run(capsys, "verify-core", tied_pair_file, "1,2,5-10", "--json")
        assert code == 1
        assert json.loads(out)["deviation"] == ["c1", "c2", "c3", "c4"]

    def test_input_errors(self, capsys, tmp_path, tied_pair_file):
        assert run(capsys, "verify-core", tmp_path / "missing.json", "1")[0] == 2
        assert run(capsys, "verify-core", tied_pair_file, "1-7")[0] == 2
        # A repeated member is refused, not merged into a smaller committee.
        small = write_json(
            tmp_path / "small.json",
            {"m": 3, "k": 2, "ballots": [{"approve": [1], "count": 1}]},
        )
        code, _, err = run(capsys, "verify-core", small, "1,1,2")
        assert code == 2 and "twice" in err

    def test_size_budget(self, capsys, tmp_path):
        wide = write_json(
            tmp_path / "wide.json",
            {"m": 21, "k": 1, "ballots": [{"approve": [1], "count": 1}]},
        )
        assert run(capsys, "verify-core", wide, "1")[0] == 3


class TestRule:
    def test_success(self, capsys, tied_pair_file):
        code, out, _ = run(capsys, "rule", tied_pair_file, "--json")
        assert code == 0 and json.loads(out)["status"] == "success"

    def test_boolean_candidate_refused(self, capsys, tmp_path):
        bad = write_json(
            tmp_path / "bool.json",
            {"m": 3, "k": 1, "ballots": [{"approve": [True], "count": 1}]},
        )
        code, _, err = run(capsys, "rule", bad, "--rule", "pav-local")
        assert code == 2 and "True" in err

    def test_size_budget(self, capsys, tmp_path):
        big = write_json(
            tmp_path / "big.json",
            {"m": 30, "k": 15, "ballots": [{"approve": [1, 2], "count": 1}]},
        )
        assert run(capsys, "rule", big, "--rule", "pav-global")[0] == 3


class TestProveInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "inequality", "--k", "0"],
            ["--mode", "program3", "--k", "0"],
            ["--mode", "program3", "--k", "-1"],
            ["--mode", "program3"],
            ["--mode", "histories", "--m", "5", "--k", "9"],
            ["--mode", "histories", "--k", "3"],
            ["--mode", "histories", "--m", "5", "--k", "3", "--threads", "0"],
            ["--mode", "program3", "--k", "3", "--threads", "-2"],
        ],
    )
    def test_input_errors(self, capsys, argv):
        code, out, err = run(capsys, "prove", *argv)
        assert code == 2
        assert err.startswith("error: ") and not out

    def test_claim_fails_at_k8(self, capsys):
        assert run(capsys, "prove", "--mode", "inequality", "--k", "8")[0] == 1

    def test_budgets(self, capsys):
        argv = ["prove", "--mode", "histories", "--k", "8"]
        assert run(capsys, *argv, "--m", "17")[0] == 3
        assert run(capsys, *argv, "--m", "10", "--budget-seconds", "0")[0] == 3


class TestProgram3:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_no_feasible_shape_below_k8(self, capsys, k):
        code, out, _ = run(capsys, "prove", "--mode", "program3", "--k", k, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["all_infeasible"]
        assert len(payload["results"]) == k * (k + 1) // 2

    def test_only_shape_4_2_feasible_at_k8(self, capsys):
        code, out, _ = run(capsys, "prove", "--mode", "program3", "--k", 8, "--json")
        feasible = [
            (e["size"], e["overlap"])
            for e in json.loads(out)["results"]
            if e["status"] == "feasible"
        ]
        assert code == 1 and feasible == [(4, 2)]

    def test_round_trip(self, capsys, tmp_path):
        bundle = tmp_path / "p3"
        assert run(capsys, "prove", "--mode", "program3", "--k", 4, "--out", bundle)[0] == 0
        files = certificate_files(bundle)
        assert len(files) == 10
        for path in files:
            assert json.loads(path.read_text(encoding="utf-8"))["kind"] == "history"
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        assert code == 0 and json.loads(out)["checked"] == 10
        negate_one_multiplier(files[3])
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        assert code == 1
        assert [f["file"] for f in json.loads(out)["failures"]] == [files[3].name]


class TestHistories:
    def test_round_trip(self, capsys, tmp_path):
        bundle = tmp_path / "h"
        argv = ["prove", "--mode", "histories", "--m", 9, "--k", 8, "--out", bundle, "--json"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["complete"] and payload["proposition1"]
        files = certificate_files(bundle)
        assert len(files) == payload["certificates"] == 8
        assert run(capsys, "check-certificates", bundle)[0] == 0
        negate_one_multiplier(files[0])
        assert run(capsys, "check-certificates", bundle)[0] == 1

    def test_budget_stops_a_threaded_search(self):
        started = time.monotonic()
        result = enumerate_histories(10, 8, threads=2, budget_seconds=1)
        assert not result.complete
        assert time.monotonic() - started < 10


class TestCheckCertificates:
    def shape_file(self, bundle, k, shape, multipliers=None):
        """A certificate in the older ``kind: "shape"`` format."""
        system = build_program3(k, shape)
        certificate = farkas_from_theorem1(k, shape)
        n_general = len(system.head_rows)
        values = multipliers or [certificate.multiplier(i) for i in range(n_general)]
        return write_json(
            bundle / f"shape_{shape.size}_{shape.overlap}.json",
            {
                "kind": "shape",
                "m": k + shape.outside,
                "k": k,
                "shape": {"size": shape.size, "overlap": shape.overlap},
                "multipliers": [str(v) for v in values],
            },
        )

    def test_shape_format_still_checks(self, capsys, tmp_path):
        path = self.shape_file(tmp_path, 4, DeviationShape(3, 1))
        assert run(capsys, "check-certificates", tmp_path)[0] == 0
        negate_one_multiplier(path)
        assert run(capsys, "check-certificates", tmp_path)[0] == 1

    @pytest.mark.parametrize("content", ["not json", "5", "[1, 2]", ""])
    def test_non_object_file_is_an_input_error(self, capsys, tmp_path, content):
        self.shape_file(tmp_path, 3, DeviationShape(1, 0))
        (tmp_path / "x.json").write_text(content, encoding="utf-8")
        code, _, err = run(capsys, "check-certificates", tmp_path)
        assert code == 2 and "x.json" in err

    def test_boolean_in_history_is_an_input_error(self, capsys, tmp_path):
        write_json(
            tmp_path / "bool.json",
            {
                "kind": "history",
                "m": 3,
                "k": 2,
                "history": [{"W": [True, 2], "T": [3]}],
                "multipliers": ["1"],
            },
        )
        assert run(capsys, "check-certificates", tmp_path)[0] == 2

    def test_missing_bundle(self, capsys, tmp_path):
        assert run(capsys, "check-certificates", tmp_path / "none")[0] == 2
