"""On-disk formats: election profiles and certificate bundles.

Everything numeric is serialized as exact strings ("p/q" fractions, decimal
integer strings); floats never touch the disk. A certificate file describes
its system compactly: candidate count, committee size and the history
steps (``kind: "history"``). Files of the older ``kind: "shape"``, which
name a deviation shape instead, are read as the shape's canonical one-step
history, whose system is the same. The canonical row order makes the
reconstruction bit-exact. Multipliers are stored for the
non-nonnegativity rows only, since certificates produced here always carry
zeros on the nonnegativity block.

Candidate indices are 1-based in files, matching reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .elections import CandidateSet, ElectionInstance, Profile
from .exactlp import FarkasCertificate, LinearSystem
from .proofs import (
    DeviationShape,
    History,
    history_system,
    program3_history,
)


class ProfileFormatError(ValueError):
    """A profile file violates the schema or its invariants."""


class CertificateFormatError(ValueError):
    """A certificate file violates the schema or cannot be reconstructed."""


def parse_fraction(text: Union[str, int]) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not re.fullmatch(
        r"-?\d+(/\d+)?", text.strip()
    ):
        raise ProfileFormatError(f"not an exact fraction string: {text!r}")
    return Fraction(text.strip())


def format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def _indices_to_mask(indices, m: int) -> int:
    if not isinstance(indices, list):
        raise ProfileFormatError(f"candidate list expected, found {indices!r}")
    mask = 0
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= m:
            raise ProfileFormatError(
                f"candidate index {i!r} out of range 1..{m}"
            )
        mask |= 1 << (i - 1)
    return mask


def _mask_to_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


def load_instance(path: Union[str, Path]) -> ElectionInstance:
    """Read an election from JSON: candidate count, committee size, and
    ballots carrying either exact weights (summing to 1) or voter counts."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileFormatError(f"cannot read profile file: {exc}") from exc
    return instance_from_dict(data)


def instance_from_dict(data) -> ElectionInstance:
    if not isinstance(data, dict):
        raise ProfileFormatError("profile file must contain a JSON object")
    try:
        m = int(data["m"])
        k = int(data["k"])
        ballots = data["ballots"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileFormatError(f"missing or malformed field: {exc}") from exc
    if not isinstance(ballots, list) or not ballots:
        raise ProfileFormatError("ballots must be a nonempty list")
    kinds = {("weight" in b) for b in ballots if isinstance(b, dict)}
    if len(kinds) != 1:
        raise ProfileFormatError(
            "ballots must uniformly use either weight or count"
        )
    use_weights = kinds.pop()
    weights: dict[int, Fraction] = {}
    counts: dict[int, int] = {}
    for entry in ballots:
        if not isinstance(entry, dict) or "approve" not in entry:
            raise ProfileFormatError("each ballot needs an approve list")
        approve = entry["approve"]
        if not isinstance(approve, list) or not approve:
            raise ProfileFormatError("approve lists must be nonempty")
        mask = _indices_to_mask(approve, m)
        if use_weights:
            w = parse_fraction(entry["weight"])
            if w < 0:
                raise ProfileFormatError("weights must be nonnegative")
            weights[mask] = weights.get(mask, Fraction(0)) + w
        else:
            try:
                c = int(entry["count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ProfileFormatError(f"bad count: {exc}") from exc
            if c <= 0:
                raise ProfileFormatError("counts must be positive integers")
            counts[mask] = counts.get(mask, 0) + c
    try:
        if use_weights:
            profile = Profile(m, weights)
        else:
            profile = Profile.from_counts(m, counts)
        return ElectionInstance(profile, k)
    except ValueError as exc:
        raise ProfileFormatError(str(exc)) from exc


def instance_to_dict(instance: ElectionInstance) -> dict:
    return {
        "m": instance.m,
        "k": instance.k,
        "ballots": [
            {
                "approve": _mask_to_indices(ballot.mask),
                "weight": format_fraction(weight),
            }
            for ballot, weight in instance.profile.items()
        ],
    }


def save_instance(instance: ElectionInstance, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(instance), indent=2) + "\n",
        encoding="utf-8",
    )


def parse_committee(text: str, m: int) -> CandidateSet:
    """Parse a 1-based committee spec like ``1,2,5-10`` (``..`` also works)."""
    mask = 0
    cleaned = text.replace("..", "-").strip()
    if not cleaned:
        raise ProfileFormatError("empty committee specification")
    for part in cleaned.split(","):
        part = part.strip()
        match = re.fullmatch(r"(\d+)(?:-(\d+))?", part)
        if not match:
            raise ProfileFormatError(f"bad committee element: {part!r}")
        low = int(match.group(1))
        high = int(match.group(2)) if match.group(2) else low
        if not (1 <= low <= high <= m):
            raise ProfileFormatError(
                f"committee range {part!r} out of 1..{m}"
            )
        for i in range(low, high + 1):
            if (mask >> (i - 1)) & 1:
                raise ProfileFormatError(f"candidate {i} listed twice")
            mask |= 1 << (i - 1)
    return CandidateSet(mask, m)


# ---------------------------------------------------------------------------
# Certificate files.


@dataclass(frozen=True)
class CertificateRecord:
    """A certificate file in memory: a reconstructible system plus the
    multipliers, ready for the solver-free checker."""

    kind: str
    m: int
    k: int
    system: LinearSystem
    certificate: FarkasCertificate
    payload: dict


def _steps_from_payload(payload: dict, kind: str, m: int, k: int):
    if kind == "history":
        steps = payload.get("history")
        if not isinstance(steps, list) or not all(
            isinstance(step, dict) and {"W", "T"} <= step.keys() for step in steps
        ):
            raise CertificateFormatError("history must be a list of W/T steps")
        return [
            (_indices_to_mask(step["W"], m), _indices_to_mask(step["T"], m))
            for step in steps
        ]
    if kind == "shape":
        shape_data = payload.get("shape")
        if not isinstance(shape_data, dict):
            raise CertificateFormatError("shape certificates need a shape")
        try:
            shape = DeviationShape(
                int(shape_data["size"]), int(shape_data["overlap"])
            )
            history = program3_history(k, shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateFormatError(str(exc)) from exc
        if m != history.m:
            raise CertificateFormatError(
                "candidate count must equal k plus the outside part"
            )
        return history.mask_steps()
    raise CertificateFormatError(f"unknown certificate kind: {kind!r}")


def _system_from_payload(payload: dict) -> tuple[str, int, int, LinearSystem]:
    try:
        m = int(payload["m"])
        k = int(payload["k"])
        kind = payload["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"missing field: {exc}") from exc
    steps = _steps_from_payload(payload, kind, m, k)
    try:
        history = History.from_masks(m, k, steps)
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from exc
    return kind, m, k, history_system(history)


def certificate_record_from_dict(payload: dict) -> CertificateRecord:
    kind, m, k, system = _system_from_payload(payload)
    raw = payload.get("multipliers")
    if not isinstance(raw, list):
        raise CertificateFormatError("multipliers must be a list of strings")
    try:
        values = [int(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad multiplier: {exc}") from exc
    general_ids = system.general_row_indices()
    if len(values) != len(general_ids):
        raise CertificateFormatError(
            f"expected {len(general_ids)} multipliers, found {len(values)}"
        )
    nonzero = {
        idx: v for idx, v in zip(general_ids, values) if v != 0
    }
    certificate = FarkasCertificate(system.n_rows, nonzero)
    return CertificateRecord(kind, m, k, system, certificate, payload)


def load_certificate(path: Union[str, Path]) -> CertificateRecord:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateFormatError(f"cannot read certificate: {exc}") from exc
    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate file must hold an object")
    return certificate_record_from_dict(payload)


def history_certificate_dict(
    history: History, certificate: FarkasCertificate
) -> dict:
    """The file form of a history's certificate. Its general rows are all
    rows but the ``2^m - 1`` nonnegativity rows, which come last."""
    n_general = certificate.n_rows - ((1 << history.m) - 1)
    if any(idx >= n_general for idx in certificate.nonzero):
        raise CertificateFormatError(
            "certificate carries weight on a nonnegativity row; "
            "cannot store compactly"
        )
    return {
        "kind": "history",
        "m": history.m,
        "k": history.k,
        "history": [
            {"W": _mask_to_indices(w.mask), "T": _mask_to_indices(t.mask)}
            for w, t in history.steps
        ],
        "multipliers": [str(certificate.multiplier(i)) for i in range(n_general)],
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
