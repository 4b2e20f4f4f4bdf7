"""The values that results are made of pickle and copy: a witness
`Profile`, the `History` and `HistoryVerdict` of a search, and the reports
of the election rules all cross a process pool as they are."""

import copy
import pickle

import pytest

from pavcore.elections import CandidateSet, Profile
from pavcore.proofs import DeviationShape, History, history_verdict, program3_history
from pavcore.rules import recursive_pav
from pavcore.stability import Quota, find_deviation

from conftest import cs


@pytest.fixture(scope="module")
def values(tied_pair_8):
    history = History.from_masks(5, 2, [(0b00011, 0b00100)])
    verdict = history_verdict(program3_history(8, DeviationShape(4, 2)))
    assert verdict.witness is not None
    blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
    report = find_deviation(tied_pair_8, blue, Quota.HARE)
    assert report is not None
    outcome = recursive_pav(tied_pair_8, Quota.HARE)
    assert outcome.trace
    return {
        "CandidateSet": CandidateSet(0b1011, 5),
        "Profile": Profile(3, {1: 1}),
        "History": history,
        "HistoryVerdict": verdict,
        "DeviationReport": report,
        "RuleOutcome": outcome,
    }


@pytest.mark.parametrize("copier", ["pickle", "copy", "deepcopy"])
def test_values_round_trip(values, copier):
    round_trip = {
        "pickle": lambda v: pickle.loads(pickle.dumps(v)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }[copier]
    for name, value in values.items():
        again = round_trip(value)
        assert again == value and type(again) is type(value), name
