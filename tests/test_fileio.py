"""Fuzz tests for the profile and certificate readers: on any JSON-like
payload they either return or raise `InputError`, and so do the file
readers on a file they cannot decode."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pavcore import proofs
from pavcore.fileio import (
    InputError,
    _integer,
    certificate_record_from_dict,
    history_certificate_dict,
    instance_from_dict,
    load_certificate,
    load_instance,
    parse_fraction,
)
from pavcore.proofs import (
    History,
    history_system,
    history_verdict,
    iter_shapes,
    program3_history,
)

from test_proofs import k8_children, multi_step_histories

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 10)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "1/0", "0", "-1", "3/4", "x"])
)
json_like = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
small_m = st.integers(-1, 8) | scalars
indices = st.lists(st.integers(-1, 9) | scalars, max_size=4) | scalars
fraction = st.sampled_from(["1", "1/2", "1/3", "2/3", "0", "-1/2", "1/0"]) | scalars

ballots = st.lists(
    st.fixed_dictionaries(
        {"approve": indices},
        optional={"weight": fraction, "count": st.integers(-1, 3) | scalars},
    )
    | json_like,
    max_size=4,
)
profiles = st.fixed_dictionaries(
    {"m": small_m, "k": small_m, "ballots": ballots}
) | json_like

steps = st.lists(
    st.fixed_dictionaries({"W": indices, "T": indices}) | json_like, max_size=3
)
certificates = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["history", "shape"]) | scalars,
        "m": small_m,
        "k": small_m,
        "multipliers": st.lists(fraction, max_size=8) | scalars,
    },
    optional={
        "history": steps | json_like,
        "shape": st.fixed_dictionaries(
            {"size": small_m, "overlap": small_m}
        ) | json_like,
    },
) | json_like


@settings(max_examples=300, deadline=None)
@given(profiles)
@example({"m": 2, "k": 1, "ballots": [{"approve": [1], "weight": "1/0"}]})
@example({"m": 0, "k": 1, "ballots": [{"approve": [1], "count": 1}]})
@example({"m": -1, "k": 1, "ballots": [{"approve": [1], "count": 1}]})
@example({"m": float("inf"), "k": 1, "ballots": [{"approve": [1], "count": 1}]})
@example(
    {"m": 3.9, "k": 1.5,
     "ballots": [{"approve": [1], "count": 2.7}, {"approve": [2], "count": True}]}
)
@example({"m": 3, "k": 1, "ballots": [{"approve": [1], "count": 2.7}]})
@example({"m": 3, "k": 1, "ballots": [{"approve": [1], "count": True}]})
@example({"m": 3, "k": 1, "ballots": [{"approve": [1, 1], "count": 1}]})
def test_profile_reader_raises_only_format_errors(payload):
    try:
        instance_from_dict(payload)
    except InputError:
        pass


@settings(max_examples=300, deadline=None)
@given(certificates)
@example(
    {
        "kind": "history",
        "m": 17,
        "k": 1,
        "history": [{"W": [1], "T": [2]}],
        "multipliers": ["0"] * 19,
    }
)
@example({"kind": "history", "m": 0, "k": 1, "history": [], "multipliers": []})
@example({"kind": "history", "m": -1, "k": 1, "history": [], "multipliers": []})
@example(
    {"kind": "shape", "m": 3, "k": 10**12, "shape": {"size": 1, "overlap": 0},
     "multipliers": []}
)
@example({"kind": "history", "m": 2, "k": 1, "history": [], "multipliers": ["1/0"]})
@example({"kind": "history", "m": 3.5, "k": True, "history": [], "multipliers": []})
@example(
    {"kind": "shape", "m": 3, "k": 2, "shape": {"size": 1.0, "overlap": False},
     "multipliers": ["0"] * 5}
)
@example(
    {"kind": "history", "m": 3, "k": 2, "history": [{"W": [True, 2], "T": [3]}],
     "multipliers": ["1"]}
)
@example(
    {"kind": "history", "m": 4, "k": 3, "history": [{"W": [1, 2, 3, 3], "T": [1, 4]}],
     "multipliers": ["0"] * 6}
)
def test_certificate_reader_raises_only_format_errors(payload):
    try:
        certificate_record_from_dict(payload)
    except InputError:
        pass


@pytest.mark.parametrize("load", [load_instance, load_certificate])
def test_file_readers_refuse_undecodable_bytes(tmp_path, load):
    path = tmp_path / "x.json"
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark is not UTF-8
    with pytest.raises(InputError):
        load(path)


def test_row_count_from_the_masks_is_the_built_count():
    # The reader checks the multiplier count against the tags' count, from
    # the masks alone, before it builds any row.
    histories = [History.from_masks(*case) for case in multi_step_histories()]
    histories += [program3_history(k, s) for k in range(1, 6) for s in iter_shapes(k)]
    for h in histories + k8_children()[::6]:
        assert len(h.tags()) == len(history_system(h)), h.mask_steps()


multiplier_values = (
    st.integers()
    | st.booleans()
    | st.floats()
    | st.none()
    | st.text(max_size=6)
    | st.from_regex(r"\s?-?[0-9]{1,4}\s?", fullmatch=True)
    | st.sampled_from(
        ["0", "-0", "007", "+1", "1_000", "--1", "-", "", " ", "1e3", "0x1", "1.0",
         "١", "²", "-٢", "\t-12\n", "- 1", "1 2", "0\x1f", "\x1c5", "9" * 5000]
    )
)


def integer_oracle(value) -> int:
    """A decimal integer as a regular expression reads it: an int that is
    not a bool, or a string of ASCII digits with an optional leading "-"
    between whitespace, converted by int(). Anything else is a ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value.strip()):
        return int(value)
    raise ValueError(value)


@settings(max_examples=500, deadline=None)
@given(multiplier_values)
def test_integer_fields_are_read_as_the_regular_expression_reads_them(value):
    # `_integer` tests the string without a regular expression, but accepts
    # and refuses exactly what the oracle does, with the same value.
    try:
        expected = integer_oracle(value)
    except ValueError:
        with pytest.raises(InputError):
            _integer(value, "multiplier")
    else:
        got = _integer(value, "multiplier")
        assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value, expected",
    [
        (3, Fraction(3)),
        (-2, Fraction(-2)),
        ("1/2", Fraction(1, 2)),
        (" 1/2 ", Fraction(1, 2)),
        ("\t-3/4\n", Fraction(-3, 4)),
        ("007/014", Fraction(1, 2)),
        ("-0/5", Fraction(0)),
        ("12", Fraction(12)),
        # Each side of the slash is an integer field, between whitespace.
        ("1 / 2", Fraction(1, 2)),
    ],
)
def test_weights_read_exactly(value, expected):
    got = parse_fraction(value)
    assert got == expected and type(got) is Fraction


@pytest.mark.parametrize(
    "value",
    [
        "1/-2", "1/0", "-1/0", "1.5", "1/2.0", "1/2/3", "/2", "1/", "", " ", "+1/2", "1/+2",
        "1e3", "1_0/2", "\u0661/\u0662", "1/\u0662", "\u0661", "\u00b2", "1 2/3",
        pytest.param("9" * 5000 + "/2", id="5000-digit numerator"),
        True, False, 0.5, 1.0, None, [1, 2], {"1": 2},
    ],
)
def test_weights_refuse_what_is_not_an_exact_fraction(value):
    with pytest.raises(InputError):
        parse_fraction(value)


def test_the_reader_builds_only_the_rows_with_a_nonzero_multiplier():
    histories = [History.from_masks(*case) for case in multi_step_histories()]
    histories += [program3_history(k, s) for k in range(1, 5) for s in iter_shapes(k)]
    for h in histories:
        certificate = history_verdict(h).certificate
        record = certificate_record_from_dict(history_certificate_dict(h, certificate))
        assert record.certificate == certificate
        full = history_system(h)
        assert len(record.rows) == len(full) == certificate.n_rows
        for i, row in enumerate(record.rows):
            assert row == (full[i] if certificate.multiplier(i) else None), (h, i)


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_wrong_multiplier_count_is_refused_before_any_row(monkeypatch, extra):
    h = History.from_masks(*multi_step_histories()[0])
    payload = history_certificate_dict(h, history_verdict(h).certificate)
    n_rows = len(payload["multipliers"])
    payload["multipliers"] = ["1"] * (n_rows + extra)

    def refuse(*args):
        raise AssertionError("rows were built")

    monkeypatch.setattr(proofs, "_build_rows", refuse)
    with pytest.raises(InputError, match=f"expected {n_rows} multipliers"):
        certificate_record_from_dict(payload)
