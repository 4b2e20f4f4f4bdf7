"""Committee rules built on the PAV objective, all in exact arithmetic.

`local_pav` runs deterministic first-improvement swap search to a
swap-optimal committee, `global_pav` enumerates all committees
exhaustively (both refused above `DEFAULT_MAX_COMMITTEES`), and
`recursive_pav` repeatedly fixes successful deviations into the committee
until it is core stable or the fixed set no longer fits. Scores are ints
over one denominator from the array kernel `elections.pav_scores`, and
every swap test is `elections.first_improving_swap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    _as_mask,
    _subset_masks,
    first_improving_swap,
    harmonic_table,
    pav_scores,
)
from .stability import Quota, find_deviation

#: Refuse exhaustive enumeration above this many committees, and a swap
#: table above this many 62-bit words.
DEFAULT_MAX_COMMITTEES = 10**7


@dataclass(frozen=True)
class RuleOutcome:
    """Result of `recursive_pav`: the committee found, or the failure trace."""

    committee: Optional[CandidateSet]
    trace: tuple[tuple[CandidateSet, CandidateSet], ...]

    @property
    def succeeded(self) -> bool:
        return self.committee is not None


def _greedy_start(items, m: int, k: int, fixed_mask: int) -> int:
    """Fill the committee with the approval-weight top-up of the fixed set.

    Candidates are ranked by total approval weight over ``items``, ties
    broken by lowest index. This reproduces the documented runs of the
    recursive rule (the seed is swap-optimized afterwards, so any
    deterministic choice of start committee is admissible).
    """
    weight_of = [sum(w for mask, w in items if (mask >> i) & 1) for i in range(m)]
    candidates = [i for i in range(m) if not (fixed_mask >> i) & 1]
    candidates.sort(key=lambda i: (-weight_of[i], i))
    committee = fixed_mask
    need = k - fixed_mask.bit_count()
    for i in candidates[:need]:
        committee |= 1 << i
    return committee


def local_pav(
    instance: ElectionInstance,
    fixed: Optional[CandidateSet] = None,
    active=None,
) -> CandidateSet:
    """Find a committee that no single swap improves.

    The returned committee contains ``fixed`` and has size ``k``; only swaps
    that remove a non-fixed member are considered. Scores count only the
    ``active`` ballots (every ballot when ``active`` is None). Starting from
    the greedy seed, the first strictly improving swap in lexicographic
    ``(x, y)`` order is applied until none exists. Termination is
    guaranteed since the exact score increases with every swap. Refused
    when the table of a swap test, 1 + k·(m − k) committees of ceil(m / 62)
    words each, exceeds `DEFAULT_MAX_COMMITTEES` words.
    """
    profile, k, m = instance.profile, instance.k, instance.m
    committees, width = 1 + k * (m - k), -(-m // 62)
    if committees * width > DEFAULT_MAX_COMMITTEES:
        raise EnumerationLimitError(
            f"a swap test at m={m}, k={k} scores {committees} committees of "
            f"{width} words each, over the cap of {DEFAULT_MAX_COMMITTEES} words"
        )
    fixed_mask = fixed.mask if fixed is not None else 0
    if fixed is not None and fixed.m != m:
        raise ValueError("fixed-set universe does not match the instance")
    if fixed_mask.bit_count() > k:
        raise ValueError("fixed set is larger than the committee size")
    _, items = profile.scaled_mask_items()
    if active is not None:
        keep = frozenset(_as_mask(b, m) for b in active)
        items = [(mask, weight) for mask, weight in items if mask in keep]
    _, h = harmonic_table(k)
    committee = _greedy_start(items, m, k, fixed_mask)
    while swap := first_improving_swap(items, committee, committee & ~fixed_mask, m, h):
        x, y = swap
        committee ^= (1 << x) | (1 << y)
    result = CandidateSet(committee, m)
    assert fixed_mask & ~committee == 0 and committee.bit_count() == k
    return result


def global_pav(instance: ElectionInstance) -> set[CandidateSet]:
    """All committees attaining the maximum exact PAV score, found by
    scoring every committee; refused above `DEFAULT_MAX_COMMITTEES`."""
    profile, k, m = instance.profile, instance.k, instance.m
    total = math.comb(m, k)
    if total > DEFAULT_MAX_COMMITTEES:
        raise EnumerationLimitError(
            f"enumerating C({m},{k}) = {total} committees exceeds the cap of "
            f"{DEFAULT_MAX_COMMITTEES}"
        )
    _, items = profile.scaled_mask_items()
    _, h = harmonic_table(k)
    # Uncached: a table of up to 10**7 masks must not outlive the call.
    masks = _subset_masks.__wrapped__(m, k)
    scores = pav_scores(items, masks, h)
    return {CandidateSet(int(mask), m) for mask in masks[scores == scores.max()]}


def recursive_pav(
    instance: ElectionInstance, quota: Quota = Quota.HARE
) -> RuleOutcome:
    """Fix every successful deviation into the committee until stable.

    Each round computes a locally swap-optimal committee containing the
    fixed set, scored over the ballots that did not yet join a deviation.
    If the committee admits a successful deviation T (under ``quota``), T is
    fixed, its supporters' ballots are deactivated, and the search restarts;
    otherwise the committee is returned. The rule fails when the fixed set
    outgrows the committee size.
    """
    profile, k = instance.profile, instance.k
    active: frozenset[int] = frozenset(mask for mask, _ in profile.mask_items())
    fixed = CandidateSet.empty(instance.m)
    trace: list[tuple[CandidateSet, CandidateSet]] = []
    while True:
        if len(fixed) > k:
            return RuleOutcome(committee=None, trace=tuple(trace))
        committee = local_pav(instance, fixed=fixed, active=active)
        report = find_deviation(instance, committee, quota)
        if report is None:
            return RuleOutcome(committee=committee, trace=tuple(trace))
        trace.append((committee, report.deviation))
        fixed = fixed | report.deviation
        active = active - {b.mask for b in report.supporters}
