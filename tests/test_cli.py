"""Tests for the command-line contract: exit codes, bundles and budgets.

Exit codes: 0 when the claim holds, 1 when it fails, 2 on input errors,
3 when a size or time budget is exceeded.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from pavcore import checker, cli, exactlp, fileio, proofs, rules
from pavcore.checker import FarkasCertificate
from pavcore.cli import main
from pavcore.elections import CandidateSet
from pavcore.fileio import certificate_record_from_dict, history_certificate_dict
from pavcore.proofs import (
    DeviationShape,
    _is_lemma1_shape,
    canonical_program3_sets,
    enumerate_histories,
    farkas_from_theorem1,
    history_verdict,
    iter_shapes,
    program3_history,
)
from pavcore.stability import DeviationReport

from test_exactlp import fraction_verify_farkas


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


#: The three proof modes, each small enough to run in a test.
MODE_ARGVS = [
    ["program3", "--k", "5"],
    ["inequality", "--k", "8"],
    ["histories", "--m", "9", "--k", "8"],
]


TIED_PAIR_8 = {
    "m": 10,
    "k": 8,
    "ballots": [
        {"approve": [1, 2, 3], "count": 1},
        {"approve": [1, 2, 4], "count": 1},
        {"approve": [5, 6, 7, 8, 9, 10], "count": 2},
    ],
}

# Three ballots over 200000 candidates: a swap table of m-bit masks would
# not fit in memory.
SHORT_WIDE_PROFILE = {
    "m": 200000,
    "k": 2,
    "ballots": [
        {"approve": [1, 2], "count": 1},
        {"approve": [3], "count": 1},
        {"approve": [1, 200000], "count": 1},
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


def zero_a_needed_multiplier(files, kind):
    """Set to 0 the first nonzero multiplier of a ``kind`` row without
    which its certificate fails the Fraction reference check, and return
    that file. The sign test passes a zero. A swap row has rhs 0, so only
    the A^T y test can reject its loss; a deviation row has no positive
    coefficient, so only the y.b test can."""
    for path in files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = certificate_record_from_dict(payload).rows
        values = [int(v) for v in payload["multipliers"]]
        for i, v in enumerate(values):
            if not v or rows[i].tag[0] != kind:
                continue
            zeroed = FarkasCertificate.from_list(values[:i] + [0] + values[i + 1 :])
            if not fraction_verify_farkas(rows, zeroed):
                payload["multipliers"][i] = "0"
                write_json(path, payload)
                return path
    raise AssertionError(f"no certificate needs the multiplier of a {kind} row")


def write_deeply_nested(path):
    """A file of 100000 ``[``: too deep for the JSON decoder."""
    path.write_text("[" * 100000, encoding="utf-8")
    return path


def run_python_m_pavcore(argv, **kwargs):
    """``python -m pavcore ARGV`` in a subprocess, on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pavcore", *argv]
    return subprocess.run(command, text=True, env=env, timeout=60, **kwargs)


def test_python_m_pavcore_runs_the_cli():
    argv = ["prove", "--mode", "inequality", "--k", "3", "--json"]
    done = run_python_m_pavcore(argv, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["violations"] == []


@pytest.mark.parametrize("output", [["--json"], []])
def test_closed_stdout_keeps_the_exit_code(output):
    # The pipe's read end closes before the command starts, so its first
    # write fails as it does behind `| head -c 10` on a longer output.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = ["prove", "--mode", "program3", "--k", "4", *output]
        done = run_python_m_pavcore(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == 0


class TestParser:
    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    def test_one_parser_serves_every_call(self, capsys, monkeypatch, tied_pair_file):
        # Options of one call must not leak into the next: --json, --rule
        # and --quota are given, then left to their defaults.
        calls = [
            ["rule", tied_pair_file, "--rule", "pav-global", "--json"],
            ["rule", tied_pair_file],
            ["verify-core", tied_pair_file, "1,2,5-10", "--quota", "droop"],
            ["verify-core", tied_pair_file, "1,2,5-10"],
            ["verify-core", tied_pair_file, "1-8", "--bogus"],
            ["verify-core", tied_pair_file, "1-8", "--json"],
        ]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert [code for code, _ in fresh] == [0, 0, 1, 1, 2, 0]
        assert "hare" in fresh[3][1] and "droop" in fresh[2][1]
        built = []
        build = cli.build_parser
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert [self.outcome(capsys, argv) for argv in calls] == fresh
        assert built == [1]

    def test_no_action_has_a_mutable_default(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command in sub.choices.values():
            for action in command._actions:
                assert isinstance(action.default, (type(None), bool, int, float, str))

    def test_commands_are_looked_up_when_called(self, capsys, monkeypatch, tied_pair_file):
        main(["rule", str(tied_pair_file)])
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_rule", lambda args: 7)
        assert main(["rule", str(tied_pair_file)]) == 7


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

    @pytest.mark.parametrize("spec", ["\u0661,2", "1-\u0662"])
    def test_non_ascii_committee_digits_are_an_input_error(self, capsys, tied_pair_file, spec):
        # Arabic-Indic digits: members are ASCII digits, as every number is.
        code, _, err = run(capsys, "verify-core", tied_pair_file, spec)
        assert code == 2 and "bad committee element" in err

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

    def test_repeated_candidate_is_an_input_error(self, capsys, tmp_path):
        # Merged, [1, 1] would load as the ballot {c1}.
        bad = write_json(
            tmp_path / "twice.json",
            {"m": 3, "k": 1, "ballots": [{"approve": [1, 1], "count": 1}]},
        )
        code, _, err = run(capsys, "rule", bad)
        assert code == 2 and "candidate 1 listed twice" in err

    @pytest.mark.parametrize(
        "field,value",
        [("m", 3.9), ("k", 1.5), ("k", True), ("count", 2.7), ("count", True)],
    )
    def test_non_integer_is_an_input_error(self, capsys, tmp_path, field, value):
        # Read as ints, these would load as m = 3, k = 1 and count 2 or 1.
        payload = {
            "m": 3,
            "k": 1,
            "ballots": [{"approve": [1], "count": 2}, {"approve": [2], "count": 1}],
        }
        (payload["ballots"][0] if field == "count" else payload)[field] = value
        bad = write_json(tmp_path / "float.json", payload)
        for argv in (["rule", bad], ["verify-core", bad, "1"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and f"{field} must be an integer" in err

    def test_boolean_weight_is_an_input_error(self, capsys, tmp_path):
        bad = write_json(
            tmp_path / "bool.json",
            {"m": 2, "k": 1, "ballots": [{"approve": [1], "weight": True}]},
        )
        code, _, err = run(capsys, "rule", bad)
        assert code == 2 and "True" in err

    def test_non_ascii_digits_in_a_weight_are_an_input_error(self, capsys, tmp_path):
        # Arabic-Indic one half: a weight is read with the digits of a count.
        bad = write_json(
            tmp_path / "arabic.json",
            {"m": 2, "k": 1, "ballots": [{"approve": [1], "weight": "\u0661/\u0662"}]},
        )
        for argv in (["rule", bad], ["verify-core", bad, "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert "the numerator of '\u0661/\u0662' must be an integer" in err

    def test_zero_denominator_is_an_input_error(self, capsys, tmp_path):
        bad = write_json(
            tmp_path / "zero.json",
            {"m": 2, "k": 1, "ballots": [{"approve": [1], "weight": "1/0"}]},
        )
        for argv in (["rule", bad], ["verify-core", bad, "1"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "1/0" in err

    def test_undecodable_profile_is_an_input_error(self, capsys, tmp_path):
        # A UTF-16 byte-order mark is not UTF-8: no profile, and no claim fails.
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps(TIED_PAIR_8).encode("utf-16-le"))
        for argv in (["rule", bad], ["verify-core", bad, "1"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error: ")
            assert "Traceback" not in err

    def test_deeply_nested_profile_is_an_input_error(self, capsys, tmp_path):
        deep = write_deeply_nested(tmp_path / "deep.json")
        code, _, err = run(capsys, "rule", deep)
        assert code == 2 and err.startswith("error: ") and "deep.json" in err
        assert "Traceback" not in err

    def test_fixed_set_outgrowing_k_exits_1(self, capsys, tmp_path, monkeypatch):
        # No known profile makes the rule fail (none with m <= 15 can), so a
        # stub stands in for the deviation search: it objects to every
        # committee with the next two candidates, and the second objection
        # takes the fixed set to 4 > k = 2.
        profile = write_json(
            tmp_path / "p.json",
            {"m": 6, "k": 2, "ballots": [{"approve": [1, 2], "count": 3},
                                         {"approve": [5], "count": 1}]},
        )
        objections = []

        def stub(instance, committee, quota):
            deviation = CandidateSet(0b11 << 2 * len(objections), instance.m)
            objections.append(committee)
            return DeviationReport(deviation, Fraction(1), Fraction(1), quota, ())

        monkeypatch.setattr(rules, "find_deviation", stub)
        code, out, err = run(capsys, "rule", profile, "--rule", "recursive-pav", "--json")
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "rule": "recursive-pav",
            "status": "failed",
            "trace": [
                {"W": ["c1", "c2"], "T": ["c1", "c2"]},
                {"W": ["c1", "c2"], "T": ["c3", "c4"]},
            ],
        }
        objections.clear()
        code, out, err = run(capsys, "rule", profile, "--rule", "recursive-pav")
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "failed: the fixed set outgrew the committee size",
            "  round 1: W={c1, c2} fixed T={c1, c2}",
            "  round 2: W={c1, c2} fixed T={c3, c4}",
        ]

    def test_size_budget(self, capsys, tmp_path):
        big = write_json(
            tmp_path / "big.json",
            {"m": 30, "k": 15, "ballots": [{"approve": [1, 2], "count": 1}]},
        )
        assert run(capsys, "rule", big, "--rule", "pav-global")[0] == 3

    def test_swap_table_budget(self, capsys, tmp_path):
        # A swap test scores 1 + k(m - k) committees of ceil(m / 62) words:
        # about 1.3e9 words here, refused before the table is built.
        short = write_json(tmp_path / "short.json", SHORT_WIDE_PROFILE)
        started = time.monotonic()
        for rule in ("pav-local", "pav-global", "recursive-pav"):
            code, out, err = run(capsys, "rule", short, "--rule", rule)
            assert code == 3 and not out and err.startswith("budget: "), rule
        assert time.monotonic() - started < 10

    def test_swap_table_budget_admits_every_m_up_to_62(self, capsys, tmp_path):
        # The widest swap table at m = 62: 1 + 31 * 31 one-word committees.
        profile = {
            "m": 62,
            "k": 31,
            "ballots": [{"approve": list(range(1, 32)), "count": 1}, {"approve": [62], "count": 1}],
        }
        path = write_json(tmp_path / "p.json", profile)
        code, out, _ = run(capsys, "rule", path, "--rule", "pav-local")
        assert code == 0 and out.startswith("committee: ")


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
            ["--mode", "program3", "--k", "3", "--budget-seconds", "-1"],
            ["--mode", "histories", "--m", "5", "--k", "3", "--budget-seconds", "-0.5"],
            ["--mode", "histories", "--m", "5", "--k", "3", "--budget-seconds", "nan"],
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
        # A zero budget is spent at once in every mode.
        program3 = ["prove", "--mode", "program3", "--k", "3"]
        assert run(capsys, *program3, "--budget-seconds", "0")[0] == 3
        inequality = ["prove", "--mode", "inequality", "--k", "8"]
        assert run(capsys, *inequality, "--budget-seconds", "0")[0] == 3
        # The k = 60 scan takes far longer than its budget, and stops there.
        started = time.monotonic()
        code, out, _ = run(
            capsys, "prove", "--mode", "inequality", "--k", "60", "--budget-seconds", "0.2"
        )
        assert code == 3 and out == "budget exceeded; partial results only\n"
        assert time.monotonic() - started < 5

    @pytest.mark.parametrize("argv", MODE_ARGVS)
    def test_threads_do_not_change_the_output(self, capsys, tmp_path, argv):
        outputs = []
        for threads in (1, 2):
            bundle = tmp_path / str(threads)
            code, out, _ = run(
                capsys, "prove", "--mode", *argv, "--json", "--out", bundle, "--threads", threads
            )
            files = {
                p.relative_to(bundle).as_posix(): p.read_bytes()
                for p in bundle.rglob("*")
                if p.is_file()
            }
            outputs.append((code, out, files))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", MODE_ARGVS)
    @pytest.mark.parametrize("under", [False, True])
    def test_out_under_a_regular_file_is_refused_before_any_work(
        self, capsys, tmp_path, monkeypatch, argv, under
    ):
        def work(*args, **kwargs):
            raise AssertionError("a proof mode ran")

        for name in ("shape_violations", "history_verdict", "enumerate_histories"):
            monkeypatch.setattr(cli, name, work)
        taken = write_json(tmp_path / "taken.json", {})
        out = taken / "bundle" if under else taken
        code, stdout, err = run(capsys, "prove", "--mode", *argv, "--out", out)
        assert code == 2 and not stdout
        assert err == f"error: --out {out}: {taken} is not a directory\n"

    @pytest.mark.parametrize(
        "argv,blocker",
        [
            (MODE_ARGVS[0], "p3_k5_s1_o0.json"),
            (MODE_ARGVS[1], "inequality_k8.json"),
            (MODE_ARGVS[2], "certificates"),
        ],
    )
    def test_a_failed_bundle_write_is_an_input_error(self, capsys, tmp_path, argv, blocker):
        # A directory where a file goes, or a file where a directory goes.
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        if blocker.endswith(".json"):
            (bundle / blocker).mkdir()
        else:
            (bundle / blocker).write_text("", encoding="utf-8")
        code, stdout, err = run(capsys, "prove", "--mode", *argv, "--out", bundle)
        assert code == 2 and not stdout
        assert err.startswith(f"error: cannot write the bundle {bundle}: ")
        assert blocker in err and "Traceback" not in err

    def test_program3_caps_the_candidate_count(self, capsys):
        # The first shape, (|T|, |T∩W|) = (1, 0), has m = 41 candidates.
        code, out, err = run(capsys, "prove", "--mode", "program3", "--k", 40)
        assert code == 3 and not out
        assert err.startswith("budget: ") and "Traceback" not in err


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

    def test_k8_witness_is_a_ballot_list(self, capsys):
        # As in histories.json: labels in candidate order, ballots in mask
        # order, weights that sum to 1.
        _, out, _ = run(capsys, "prove", "--mode", "program3", "--k", 8, "--json")
        (entry,) = [e for e in json.loads(out)["results"] if e["status"] == "feasible"]
        numbers = [[int(c[1:]) for c in b["approve"]] for b in entry["witness"]]
        assert all(ballot == sorted(ballot) for ballot in numbers)
        masks = [sum(1 << (n - 1) for n in ballot) for ballot in numbers]
        assert masks == sorted(masks) and max(max(b) for b in numbers) == 10
        assert sum(Fraction(b["weight"]) for b in entry["witness"]) == 1

    def test_lemma1_shapes_carry_the_theorem1_certificate(self, capsys, tmp_path):
        for k in range(1, 6):
            bundle = tmp_path / f"k{k}"
            assert run(capsys, "prove", "--mode", "program3", "--k", k, "--out", bundle)[0] == 0
            for shape in iter_shapes(k):
                committee, deviation = canonical_program3_sets(k, shape)
                if not _is_lemma1_shape(committee.mask, deviation.mask):
                    continue
                expected = farkas_from_theorem1(k, shape)
                path = bundle / f"p3_k{k}_s{shape.size}_o{shape.overlap}.json"
                assert json.loads(path.read_text(encoding="utf-8"))["multipliers"] == [
                    str(expected.multiplier(i)) for i in range(expected.n_rows)
                ]
                assert history_verdict(program3_history(k, shape)).certificate == expected

    def test_cut_short_run_writes_no_bundle(self, capsys, tmp_path, monkeypatch):
        # A clock that advances 1 s per reading cuts the run after three
        # of the 36 shapes; no partial bundle may be left to check.
        clock = itertools.count()
        monkeypatch.setattr(proofs, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        bundle = tmp_path / "p3"
        argv = ["prove", "--mode", "program3", "--k", 8, "--out", bundle, "--json"]
        argv += ["--budget-seconds", 3.5]
        code, out, _ = run(capsys, *argv)
        assert code == 3 and len(json.loads(out)["results"]) == 3
        assert not bundle.exists()

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

    def test_zeroed_multiplier_fails(self, capsys, tmp_path):
        bundle = tmp_path / "p3"
        assert run(capsys, "prove", "--mode", "program3", "--k", 4, "--out", bundle)[0] == 0
        broken = zero_a_needed_multiplier(certificate_files(bundle), "swap")
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        assert code == 1
        assert [f["file"] for f in json.loads(out)["failures"]] == [broken.name]

    def test_k8_bundle_checks(self, capsys, tmp_path):
        # m reaches 16 here; only (4, 2) is feasible, so the proof exits 1.
        bundle = tmp_path / "p3"
        assert run(capsys, "prove", "--mode", "program3", "--k", 8, "--out", bundle)[0] == 1
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["checked"] == 35 and payload["failed"] == 0


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

    def test_zeroed_multiplier_fails(self, capsys, tmp_path):
        bundle = tmp_path / "h"
        argv = ["prove", "--mode", "histories", "--m", 9, "--k", 8, "--out", bundle]
        assert run(capsys, *argv)[0] == 0
        broken = zero_a_needed_multiplier(certificate_files(bundle), "deviation")
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        assert code == 1
        assert [f["file"] for f in json.loads(out)["failures"]] == [broken.name]

    def test_missing_certificate_fails(self, capsys, tmp_path):
        bundle = tmp_path / "h"
        argv = ["prove", "--mode", "histories", "--m", 9, "--k", 8, "--out", bundle]
        assert run(capsys, *argv)[0] == 0
        certificate_files(bundle)[2].unlink()
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        payload = json.loads(out)
        assert code == 1 and payload["checked"] == 7
        (failure,) = payload["failures"]
        assert failure["file"] == "histories.json"
        assert "lists 8 certificates, found 7" in failure["reason"]

    def test_incomplete_search_fails(self, capsys, tmp_path):
        bundle = tmp_path / "h"
        argv = ["prove", "--mode", "histories", "--m", 9, "--k", 8, "--out", bundle]
        assert run(capsys, *argv, "--budget-seconds", 0)[0] == 3
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and failure["file"] == "histories.json"
        assert failure["reason"] == "records an incomplete search"

    def test_budget_stops_a_threaded_search(self):
        # (12, 8) takes several seconds in two threads; (11, 8), about one,
        # could finish inside the budget.
        started = time.monotonic()
        result = enumerate_histories(12, 8, threads=2, budget_seconds=1)
        assert not result.complete
        assert time.monotonic() - started < 10


class TestFloatStart:
    @pytest.mark.parametrize(
        "argv",
        [["histories", "--m", "10", "--k", "8"], ["program3", "--k", "8"]],
        ids=["histories-10-8", "program3-8"],
    )
    def test_bundles_equal_the_slack_starts(self, capsys, tmp_path, monkeypatch, argv):
        # The float start may end phase 1 at another basis, and so write
        # other multipliers, but never another verdict: with the slack start
        # in its place, the exit code, stdout and file names are the same,
        # and both bundles pass the check.
        outputs = []
        for start in ("float", "slack"):
            if start == "slack":
                monkeypatch.setattr(exactlp, "_float_pivots", lambda problem: None)
            bundle = tmp_path / start
            code, out, _ = run(capsys, "prove", "--mode", *argv, "--out", bundle)
            names = sorted(
                p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file()
            )
            outputs.append((code, out, names))
            assert run(capsys, "check-certificates", bundle)[0] == 0
        assert outputs[0] == outputs[1]
        assert outputs[0][2]


class TestCheckCertificates:
    def shape_file(self, bundle, k, shape):
        """The Theorem 1 certificate of a shape, as the history file of its
        canonical one-step history."""
        return write_json(
            bundle / f"shape_{shape.size}_{shape.overlap}.json",
            history_certificate_dict(
                program3_history(k, shape), farkas_from_theorem1(k, shape)
            ),
        )

    def test_shape_format_is_unreadable(self, capsys, tmp_path):
        # A kind: "shape" file names a deviation shape instead of the
        # history steps; it is not a certificate file the checker reads.
        shape = DeviationShape(3, 1)
        path = self.shape_file(tmp_path, 4, shape)
        assert run(capsys, "check-certificates", tmp_path)[0] == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["history"]
        payload["kind"] = "shape"
        payload["shape"] = {"size": shape.size, "overlap": shape.overlap}
        write_json(path, payload)
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and "unreadable" in failure["reason"]
        assert "unknown certificate kind: 'shape'" in failure["reason"]

    @pytest.mark.parametrize("content", ["not json", "5", "[1, 2]", ""])
    def test_non_object_file_is_an_input_error(self, capsys, tmp_path, content):
        self.shape_file(tmp_path, 3, DeviationShape(1, 0))
        (tmp_path / "x.json").write_text(content, encoding="utf-8")
        code, _, err = run(capsys, "check-certificates", tmp_path)
        assert code == 2 and "x.json" in err

    def test_non_object_file_is_an_input_error_in_a_pool(self, capsys, tmp_path):
        for n in range(3):
            self.shape_file(tmp_path, 3, DeviationShape(n + 1, 0))
        (tmp_path / "x.json").write_text("[1, 2]", encoding="utf-8")
        code, out, err = run(capsys, "check-certificates", tmp_path, "--threads", 2)
        assert code == 2 and not out and "x.json" in err

    def test_deeply_nested_file_is_an_input_error(self, capsys, tmp_path):
        self.shape_file(tmp_path, 3, DeviationShape(1, 0))
        write_deeply_nested(tmp_path / "deep.json")
        code, out, err = run(capsys, "check-certificates", tmp_path)
        assert code == 2 and not out
        assert err.startswith("error: ") and "deep.json" in err
        assert "Traceback" not in err

    def test_boolean_in_history_is_unreadable(self, capsys, tmp_path):
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
        # Like every other malformed certificate file: a failed check.
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and "unreadable" in failure["reason"]

    def test_repeated_member_in_history_is_unreadable(self, capsys, tmp_path):
        # A valid certificate for W = {1, 2, 3}, T = {1, 4}, with 3 listed
        # twice in W: merged, the file would be checked as that system.
        h = program3_history(3, DeviationShape(2, 1))
        payload = history_certificate_dict(h, history_verdict(h).certificate)
        write_json(tmp_path / "good.json", payload)
        assert run(capsys, "check-certificates", tmp_path)[0] == 0
        payload["history"][0]["W"] = [1, 2, 3, 3]
        write_json(tmp_path / "good.json", payload)
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and "unreadable" in failure["reason"]
        assert "candidate 3 listed twice" in failure["reason"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("m", 3.5),
            ("k", 2.0),
            ("k", True),
            ("multiplier", float),
        ],
    )
    def test_non_integer_is_unreadable(self, capsys, tmp_path, field, value):
        # The file checks with m = 3 and k = 2; a float or a bool in their
        # place is refused, not truncated.
        path = self.shape_file(tmp_path, 2, DeviationShape(1, 0))
        assert run(capsys, "check-certificates", tmp_path)[0] == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        if field == "multiplier":
            payload["multipliers"][0] = value(payload["multipliers"][0])
        else:
            payload[field] = value
        write_json(path, payload)
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and f"{field} must be an integer" in failure["reason"]

    def test_file_argument_is_a_one_file_bundle(self, capsys, tmp_path):
        bundle = tmp_path / "p3"
        assert run(capsys, "prove", "--mode", "program3", "--k", 4, "--out", bundle)[0] == 0
        path = certificate_files(bundle)[3]
        code, out, _ = run(capsys, "check-certificates", path, "--json")
        assert code == 0 and json.loads(out)["checked"] == 1
        negate_one_multiplier(path)
        code, out, _ = run(capsys, "check-certificates", path, "--json")
        assert code == 1 and json.loads(out)["failed"] == 1

    def test_file_argument_without_multipliers_is_an_input_error(self, capsys, tmp_path):
        # A profile is not a one-file bundle that checks nothing.
        path = write_json(tmp_path / "profile.json", TIED_PAIR_8)
        code, out, err = run(capsys, "check-certificates", path)
        assert code == 2 and not out
        assert err.startswith("error: ") and "profile.json" in err

    def test_history_file_beyond_the_cap_is_refused(self, capsys, tmp_path):
        # 2 normalization rows, 16 swap rows and 1 deviation row.
        write_json(
            tmp_path / "m17.json",
            {
                "kind": "history",
                "m": 17,
                "k": 1,
                "history": [{"W": [1], "T": [2]}],
                "multipliers": ["0"] * 19,
            },
        )
        # An unreadable file in a bundle is a failed check, named with its reason.
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and "unreadable" in failure["reason"]
        assert "m=17" in failure["reason"]

    def test_wrong_multiplier_count_is_refused_before_any_row(
        self, capsys, tmp_path, monkeypatch
    ):
        # 401 valid steps at m = 12, k = 7 make 12438 rows: 2 normalization
        # rows, 35 swap rows at the first step and 30 at each later one (8
        # is fixed), and 401 deviation rows. Three multipliers cannot fit,
        # and the file is refused without building any of them.
        step = {"W": [1, 2, 3, 4, 5, 6, 8], "T": [8]}
        payload = {"kind": "history", "m": 12, "k": 7, "history": [step] * 401}
        assert len(fileio._history_from_payload(payload).tags()) == 12438

        def refuse(*args):
            raise AssertionError("rows were built")

        monkeypatch.setattr(proofs, "_build_rows", refuse)
        write_json(tmp_path / "long.json", {**payload, "multipliers": ["1"] * 3})
        code, out, _ = run(capsys, "check-certificates", tmp_path, "--json")
        (failure,) = json.loads(out)["failures"]
        assert code == 1 and "unreadable" in failure["reason"]
        assert "expected 12438 multipliers, found 3" in failure["reason"]

    @staticmethod
    def m10_k8_bundle(capsys, path):
        """The bundle of the k = 8 search at m = 10: 99 certificate files,
        85 of them continuations of the (4, 2) history."""
        argv = ["prove", "--mode", "histories", "--m", 10, "--k", 8, "--out", path]
        assert run(capsys, *argv)[0] == 0
        return path

    def test_each_command_starts_with_empty_row_caches(
        self, capsys, tmp_path, monkeypatch, tied_pair_file
    ):
        # Two checks of one bundle in one process: each builds its first
        # rows with empty caches, as a process of its own would.
        bundle = self.m10_k8_bundle(capsys, tmp_path / "b")
        seen = []
        build = proofs._build_rows

        def spy(*args):
            seen.append(dict(checker._ROW_CACHES))
            return build(*args)

        monkeypatch.setattr(proofs, "_build_rows", spy)
        for _ in range(2):
            seen.clear()
            assert run(capsys, "check-certificates", bundle)[0] == 0
            assert seen[0] == {} and len(seen) == 99
            # The masks of m = 10 and a block per step depth.
            assert sorted(checker._ROW_CACHES) == [
                "reference_masks", "reference_step1", "reference_step2"
            ]
        # A command that builds no rows empties them too.
        assert run(capsys, "rule", tied_pair_file)[0] == 0
        assert checker._ROW_CACHES == {}

    def test_the_check_reads_each_file_once(self, capsys, tmp_path, monkeypatch):
        bundle = self.m10_k8_bundle(capsys, tmp_path / "b")
        reads = []
        read = fileio._read_json

        def counted(path):
            reads.append(Path(path).name)
            return read(path)

        monkeypatch.setattr(fileio, "_read_json", counted)
        monkeypatch.setattr(cli, "_read_json", counted)
        code, out, _ = run(capsys, "check-certificates", bundle, "--json")
        assert code == 0 and json.loads(out)["checked"] == 99
        # The summary is read by the certificate reader, which finds no
        # multipliers in it, and then as the summary.
        names = [p.name for p in certificate_files(bundle)]
        assert sorted(reads) == sorted(names + ["histories.json"] * 2)

    def test_threads_do_not_change_the_check(self, capsys, tmp_path):
        # Each pool process keeps its own caches; a negated multiplier in a
        # continuation of the (4, 2) history fails the same file either way.
        bundle = self.m10_k8_bundle(capsys, tmp_path / "b")
        files = certificate_files(bundle)
        negate_one_multiplier(next(p for p in files if p.name.count("__W") == 2))
        outputs = []
        for threads in (1, 2):
            code, out, _ = run(capsys, "check-certificates", bundle, "--json", "--threads", threads)
            payload = json.loads(out)
            del payload["seconds"]
            outputs.append((code, payload))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 1 and outputs[0][1]["checked"] == len(files) == 99
        assert outputs[0][1]["failed"] == 1

    def test_missing_bundle(self, capsys, tmp_path):
        assert run(capsys, "check-certificates", tmp_path / "none")[0] == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_an_input_error(self, capsys, tmp_path, threads):
        self.shape_file(tmp_path, 3, DeviationShape(1, 0))
        argv = ["check-certificates", tmp_path, "--threads", threads]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: --threads must be at least 1, got {threads}\n"
