"""On-disk formats: election profiles and certificate bundles.

Everything numeric is serialized as exact strings ("p/q" fractions, decimal
integer strings); floats never touch the disk. A certificate file describes
its system compactly: candidate count, committee size and the history
steps (``kind: "history"``, the only kind). The canonical row order, which
ends with the deviation rows, makes the reconstruction bit-exact. Every
variable is nonnegative without any row stating it, so a file holds one
multiplier per row of the system.

Candidate indices are 1-based in files, matching reports. Every reader
refuses what it cannot use with the one `InputError`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .checker import FarkasCertificate, Row
from .elections import CandidateSet, ElectionInstance, Profile
from .proofs import (
    MAX_HISTORY_M,
    DeviationShape,
    History,
    history_system,
    program3_history,
)


class InputError(ValueError):
    """Input the commands refuse: a file that cannot be read, violates its
    schema or cannot be reconstructed, or an argument out of range."""


class CertificateError(InputError):
    """A certificate file, a JSON object with multipliers, whose record
    cannot be made (`load_certificate`)."""


def parse_fraction(text: Union[str, int]) -> Fraction:
    """An int, or a string ``p`` or ``p/q`` with ``q > 0``, as an exact
    fraction. Each part is read as `_integer` reads an integer field."""
    num, slash, den = text.partition("/") if isinstance(text, str) else (text, "", "")
    p = _integer(num, f"the numerator of {text!r}")
    q = _integer(den, f"the denominator of {text!r}") if slash else 1
    if q < 1:
        raise InputError(f"the denominator of {text!r} must be positive")
    return Fraction(p, q)


def _integer(value, what: str) -> int:
    """An int or a decimal-integer string (ASCII digits with an optional
    leading ``-``, between whitespace), as an int. A bool, a float or
    anything else raises `InputError`: no value is truncated or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip()
        digits = text[1:] if text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError as exc:  # too many digits, or a space int() refuses
                raise InputError(f"{what}: {exc}") from exc
    raise InputError(f"{what} must be an integer, found {value!r}")


def _indices_to_mask(indices, m: int) -> int:
    if not isinstance(indices, list):
        raise InputError(f"candidate list expected, found {indices!r}")
    mask = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= m:
            raise InputError(f"candidate index {i!r} out of range 1..{m}")
        if mask >> (i - 1) & 1:
            raise InputError(f"candidate {i} listed twice")
        mask |= 1 << (i - 1)
    return mask


def _mask_to_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


def _read_json(path: Union[str, Path]):
    """The JSON value a file holds. A file that cannot be read, is not
    UTF-8, is not JSON or nests too deeply to decode raises `InputError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_instance(path: Union[str, Path]) -> ElectionInstance:
    """Read an election from JSON: candidate count, committee size, and
    ballots carrying either exact weights (summing to 1) or voter counts."""
    return instance_from_dict(_read_json(path))


def instance_from_dict(data) -> ElectionInstance:
    if not isinstance(data, dict):
        raise InputError("profile file must contain a JSON object")
    try:
        m = _integer(data["m"], "m")
        k = _integer(data["k"], "k")
        ballots = data["ballots"]
    except KeyError as exc:
        raise InputError(f"missing field: {exc}") from exc
    if not isinstance(ballots, list) or not ballots:
        raise InputError("ballots must be a nonempty list")
    kinds = {("weight" in b) for b in ballots if isinstance(b, dict)}
    if len(kinds) != 1:
        raise InputError("ballots must uniformly use either weight or count")
    use_weights = kinds.pop()
    weights: dict[int, Fraction] = {}
    counts: dict[int, int] = {}
    for entry in ballots:
        if not isinstance(entry, dict) or "approve" not in entry:
            raise InputError("each ballot needs an approve list")
        approve = entry["approve"]
        if not isinstance(approve, list) or not approve:
            raise InputError("approve lists must be nonempty")
        mask = _indices_to_mask(approve, m)
        if use_weights:
            w = parse_fraction(entry["weight"])
            if w < 0:
                raise InputError("weights must be nonnegative")
            weights[mask] = weights.get(mask, Fraction(0)) + w
        else:
            if "count" not in entry:
                raise InputError("each ballot needs a weight or a count")
            c = _integer(entry["count"], "count")
            if c <= 0:
                raise InputError("counts must be positive integers")
            counts[mask] = counts.get(mask, 0) + c
    try:
        if use_weights:
            profile = Profile(m, weights)
        else:
            profile = Profile.from_counts(m, counts)
        return ElectionInstance(profile, k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_committee(text: str, m: int) -> CandidateSet:
    """Parse a 1-based committee spec like ``1,2,5-10`` (``..`` also works)."""
    mask = 0
    cleaned = text.replace("..", "-").strip()
    if not cleaned:
        raise InputError("empty committee specification")
    for part in cleaned.split(","):
        part = part.strip()
        match = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", part)
        if not match:
            raise InputError(f"bad committee element: {part!r}")
        low = int(match.group(1))
        high = int(match.group(2)) if match.group(2) else low
        if not (1 <= low <= high <= m):
            raise InputError(f"committee range {part!r} out of 1..{m}")
        for i in range(low, high + 1):
            if (mask >> (i - 1)) & 1:
                raise InputError(f"candidate {i} listed twice")
            mask |= 1 << (i - 1)
    return CandidateSet(mask, m)


# ---------------------------------------------------------------------------
# Certificate files.


@dataclass(frozen=True)
class CertificateRecord:
    """A certificate file in memory: one multiplier per row of its
    reconstructed system, and the rows it is checked on, ready for the
    solver-free checker. ``rows`` has one entry per row of the system: the
    rows with a nonzero multiplier, each in the integer form of `Row`, and
    None for the others, which add nothing to the check."""

    rows: list[Optional[Row]]
    certificate: FarkasCertificate


def _history_from_payload(payload: dict) -> History:
    try:
        m = _integer(payload["m"], "m")
        k = _integer(payload["k"], "k")
        kind = payload["kind"]
    except KeyError as exc:
        raise InputError(f"missing field: {exc}") from exc
    # The system has 2^m - 1 columns: refuse a large m before building it.
    if m > MAX_HISTORY_M:
        raise InputError(f"m={m} exceeds the history cap m={MAX_HISTORY_M}")
    if not 1 <= k <= m:
        raise InputError(f"need 1 <= k <= m, got k={k} m={m}")
    if kind != "history":
        raise InputError(f"unknown certificate kind: {kind!r}")
    steps = payload.get("history")
    if not isinstance(steps, list) or not all(
        isinstance(step, dict) and {"W", "T"} <= step.keys() for step in steps
    ):
        raise InputError("history must be a list of W/T steps")
    try:
        masks = [
            (_indices_to_mask(step["W"], m), _indices_to_mask(step["T"], m))
            for step in steps
        ]
        return History.from_masks(m, k, masks)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def certificate_record_from_dict(payload: dict) -> CertificateRecord:
    """The record of a certificate file. The multiplier count is checked
    against the row count, from the row tags (`History.tags`), before any
    row is built, so a file cannot make the reader build a system that its
    multipliers do not fit. Then only the rows with a nonzero multiplier
    are built, in one `checker._build_rows` call."""
    if not isinstance(payload, dict):
        raise InputError("a certificate must be a JSON object")
    history = _history_from_payload(payload)
    raw = payload.get("multipliers")
    if not isinstance(raw, list):
        raise InputError("multipliers must be a list of strings")
    values = [_integer(v, "multiplier") for v in raw]
    expected = len(history.tags())
    if len(values) != expected:
        raise InputError(f"expected {expected} multipliers, found {len(values)}")
    certificate = FarkasCertificate.from_list(values)
    return CertificateRecord(history_system(history, certificate.nonzero), certificate)


def load_certificate(path: Union[str, Path]) -> Optional[CertificateRecord]:
    """The record of a certificate file, read once, or None when the file
    holds a JSON object with no multipliers, as a search's summary does. A
    file that holds no JSON object raises `InputError`; a certificate file
    whose record cannot be made raises `CertificateError`."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise InputError(f"{path}: does not hold a JSON object")
    if "multipliers" not in payload:
        return None
    try:
        return certificate_record_from_dict(payload)
    except InputError as exc:
        raise CertificateError(str(exc)) from exc


def history_certificate_dict(
    history: History, certificate: FarkasCertificate
) -> dict:
    """The file form of a history's certificate: one multiplier per row."""
    return {
        "kind": "history",
        "m": history.m,
        "k": history.k,
        "history": [
            {"W": _mask_to_indices(w.mask), "T": _mask_to_indices(t.mask)}
            for w, t in history.steps
        ],
        "multipliers": [
            str(certificate.multiplier(i)) for i in range(certificate.n_rows)
        ],
    }


def shape_certificate_dict(
    k: int, shape: DeviationShape, certificate: FarkasCertificate
) -> dict:
    """The file form of a shape's certificate: that of its canonical
    one-step history (`program3_history`)."""
    return history_certificate_dict(program3_history(k, shape), certificate)


def history_certificate_filename(history: History) -> str:
    parts = []
    for w, t in history.steps:
        w_ids = "-".join(str(i) for i in _mask_to_indices(w.mask))
        t_ids = "-".join(str(i) for i in _mask_to_indices(t.mask))
        parts.append(f"W{w_ids}_T{t_ids}")
    return "reject__" + "__".join(parts) + ".json"


def write_certificate(payload: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
