"""Core-stability verification by exhaustive deviation search.

A committee fails the (Hare) core if some nonempty candidate set T with
|T| <= k is backed by voters of total weight at least |T|/k, every one of
whom strictly prefers T to the committee. The Droop variant uses the
threshold |T|/(k+1) and requires strictly more support than the threshold.
Both success tests are encoded once, in `Quota`, to keep the inequality
directions out of the search loops.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    Profile,
)

#: Deviation search is exponential in m; refuse above this by default.
DEFAULT_MAX_M = 20


class Quota(enum.Enum):
    """Entitlement scheme deciding when a coalition's objection succeeds."""

    HARE = "hare"
    DROOP = "droop"

    def threshold(self, deviation_size: int, k: int) -> Fraction:
        if self is Quota.HARE:
            return Fraction(deviation_size, k)
        return Fraction(deviation_size, k + 1)

    def succeeds(self, support: Fraction, deviation_size: int, k: int) -> bool:
        """Whether `support` is enough to object with a set of this size.

        Hare objections need support >= |T|/k; Droop objections need
        support strictly above |T|/(k+1).
        """
        bar = self.threshold(deviation_size, k)
        if self is Quota.HARE:
            return support >= bar
        return support > bar


@dataclass(frozen=True)
class DeviationReport:
    """A successful objection: the deviating set and who backs it."""

    deviation: CandidateSet
    support: Fraction
    threshold: Fraction
    quota: Quota
    supporters: tuple[CandidateSet, ...]

    def describe(self) -> str:
        names = ", ".join(self.deviation.labels())
        return (
            f"deviation {{{names}}} supported by {self.support} "
            f"({self.quota.value} threshold {self.threshold})"
        )


def deviation_support(
    profile: Profile, committee: CandidateSet, deviation: CandidateSet
) -> Fraction:
    """Total weight of ballots that strictly prefer ``deviation`` to the committee."""
    if not deviation or len(deviation) > committee.m:
        raise ValueError("deviation must be nonempty")
    return _supporters(profile, committee.mask, deviation.mask)[0]


def _supporters(profile: Profile, w_mask: int, t_mask: int):
    support = Fraction(0)
    backers = []
    for mask, weight in profile.mask_items():
        if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
            support += weight
            backers.append(mask)
    return support, backers


def find_deviation(
    instance: ElectionInstance,
    committee: CandidateSet,
    quota: Quota = Quota.HARE,
    max_m: int = DEFAULT_MAX_M,
) -> Optional[DeviationReport]:
    """Search all potential deviations; return the first successful one.

    Candidate sets T are scanned by ascending size and then ascending
    bitmask, so a returned report is a minimal witness. ``None`` means the
    committee is core stable under the given quota.
    """
    profile, k, m = instance.profile, instance.k, instance.m
    if len(committee) != k:
        raise ValueError(f"committee must have exactly {k} members")
    if m > max_m:
        raise EnumerationLimitError(
            f"deviation search over m={m} exceeds the cap of {max_m}"
        )
    w_mask = committee.mask
    for size in range(1, k + 1):
        threshold = quota.threshold(size, k)
        for combo in itertools.combinations(range(m), size):
            t_mask = 0
            for i in combo:
                t_mask |= 1 << i
            support, backers = _supporters(profile, w_mask, t_mask)
            if quota.succeeds(support, size, k):
                return DeviationReport(
                    deviation=CandidateSet(t_mask, m),
                    support=support,
                    threshold=threshold,
                    quota=quota,
                    supporters=tuple(CandidateSet(b, m) for b in backers),
                )
    return None


def check_special_deviations(
    instance: ElectionInstance,
    committee: CandidateSet,
    quota: Quota = Quota.HARE,
) -> list[DeviationReport]:
    """Scan only deviations that are disjoint from the committee or add
    at most one outsider, returning any that succeed.

    Against a locally swap-optimal committee both shapes are provably
    hopeless, so the expected result is an empty list.
    """
    profile, k, m = instance.profile, instance.k, instance.m
    if len(committee) != k:
        raise ValueError(f"committee must have exactly {k} members")
    w_mask = committee.mask
    outside = [i for i in range(m) if not (w_mask >> i) & 1]
    inside = [i for i in range(m) if (w_mask >> i) & 1]
    seen: set[int] = set()
    hits: list[DeviationReport] = []

    def consider(t_mask: int) -> None:
        if t_mask == 0 or t_mask in seen:
            return
        seen.add(t_mask)
        size = t_mask.bit_count()
        if size > k:
            return
        support, backers = _supporters(profile, w_mask, t_mask)
        if quota.succeeds(support, size, k):
            hits.append(
                DeviationReport(
                    deviation=CandidateSet(t_mask, m),
                    support=support,
                    threshold=quota.threshold(size, k),
                    quota=quota,
                    supporters=tuple(CandidateSet(b, m) for b in backers),
                )
            )

    # Shape (i): T entirely outside the committee.
    for size in range(1, min(k, len(outside)) + 1):
        for combo in itertools.combinations(outside, size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            consider(mask)
    # Shape (ii): at most one member of T is an outsider.
    for inner_size in range(0, k + 1):
        for combo in itertools.combinations(inside, inner_size):
            base = 0
            for i in combo:
                base |= 1 << i
            consider(base)
            if inner_size < k:
                for extra in outside:
                    consider(base | (1 << extra))
    return hits
