"""Core-stability verification by exhaustive deviation search.

A committee fails the (Hare) core if some nonempty candidate set T with
|T| <= k is backed by voters of total weight at least |T|/k, every one of
whom strictly prefers T to the committee. The Droop variant uses the
threshold |T|/(k+1) and requires strictly more support than the threshold.
Both success tests are encoded once, in `Quota`, to keep the inequality
directions out of the search loops. A voter with ballot A backs T only if
|A ∩ T| > |A ∩ W|, and |A ∩ T| <= |T|; so a size s of T can succeed only if
the ballots with |A ∩ W| < s reach the quota together, and the search skips
every other size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    Profile,
    _subset_masks,
)

#: Deviation search is exponential in m; refuse above this.
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
        """Whether `support` is enough to object with a set of this size:
        support p/q succeeds iff p is at least `least_support` over q."""
        p, q = Fraction(support).as_integer_ratio()
        return p >= self.least_support(deviation_size, k, q)

    def least_support(self, deviation_size: int, k: int, denominator: int) -> int:
        """The least integer s for which support s/denominator succeeds.

        Hare objections need support >= |T|/k; Droop objections need
        support strictly above |T|/(k+1).
        """
        bar = self.threshold(deviation_size, k) * denominator
        return math.ceil(bar) if self is Quota.HARE else math.floor(bar) + 1


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


def _supporters(profile: Profile, w_mask: int, t_mask: int):
    support = Fraction(0)
    backers = []
    for mask, weight in profile.mask_items():
        if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
            support += weight
            backers.append(mask)
    return support, backers


def _report(
    m: int, k: int, t_mask: int, support: Fraction, backers, quota: Quota
) -> DeviationReport:
    return DeviationReport(
        deviation=CandidateSet(t_mask, m),
        support=support,
        threshold=quota.threshold(t_mask.bit_count(), k),
        quota=quota,
        supporters=tuple(CandidateSet(b, m) for b in backers),
    )


def find_deviation(
    instance: ElectionInstance,
    committee: CandidateSet,
    quota: Quota = Quota.HARE,
) -> Optional[DeviationReport]:
    """Search all potential deviations; return the first successful one.

    Candidate sets T are scanned by ascending size and, within one size, in
    `itertools.combinations` order over the candidate indices (at m = 4,
    {c1, c4} comes before {c2, c3}), so a returned report is a minimal
    witness. ``None`` means the committee is core stable under the given
    quota. The support of every T of one size is summed at once, in ints
    over the lcm D of the weight denominators, from the ballots A with
    |A ∩ W| < |T| only; a size whose such ballots weigh less than the
    quota's least support cannot succeed and is skipped.
    """
    profile, k, m = instance.profile, instance.k, instance.m
    if len(committee) != k:
        raise ValueError(f"committee must have exactly {k} members")
    if m > DEFAULT_MAX_M:
        raise EnumerationLimitError(
            f"deviation search over m={m} exceeds the cap of {DEFAULT_MAX_M}"
        )
    w_mask = committee.mask
    scale, items = profile.scaled_mask_items()
    # Supports never exceed D, so int64 holds them unless D is this large.
    dtype = np.int64 if scale < 1 << 62 else object
    ballots = sorted(  # (|mask ∩ W|, mask, scaled weight) of the ballots not inside W
        ((mask & w_mask).bit_count(), mask, w) for mask, w in items if mask & ~w_mask
    )
    live = reach = 0  # ballots[:live] have u < size and weigh reach in all
    for size in range(1, k + 1):
        while live < len(ballots) and ballots[live][0] < size:
            reach += ballots[live][2]
            live += 1
        need = quota.least_support(size, k, scale)
        if reach < need:  # no T of this size can gather enough support
            continue
        t_masks = _subset_masks(m, size)
        support = np.zeros(len(t_masks), dtype=dtype)
        for u, mask, w in ballots[:live]:
            support[np.bitwise_count(t_masks & mask) > u] += w
        hits = np.flatnonzero(support >= need)
        if hits.size:
            t_mask = int(t_masks[hits[0]])
            support, backers = _supporters(profile, w_mask, t_mask)
            return _report(m, k, t_mask, support, backers, quota)
    return None
