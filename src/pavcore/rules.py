"""Committee rules built on the PAV objective, all in exact arithmetic.

`local_pav` runs deterministic first-improvement swap search to a
swap-optimal committee, `global_pav` and `all_local_pav` enumerate all
committees exhaustively (refused above `DEFAULT_MAX_COMMITTEES`), and
`recursive_pav` repeatedly fixes successful deviations into the committee
until it is core stable or the fixed set no longer fits. `global_pav`
compares scores as ints over one denominator (`elections.mask_pav_score`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    _as_mask,
    harmonic_table,
    mask_pav_score,
    mask_swap_delta,
)
from .stability import Quota, find_deviation

#: Refuse exhaustive enumeration above this many committees.
DEFAULT_MAX_COMMITTEES = 10**7


@dataclass(frozen=True)
class RuleOutcome:
    """Result of `recursive_pav`: the committee found, or the failure trace."""

    committee: Optional[CandidateSet]
    trace: tuple[tuple[CandidateSet, CandidateSet], ...]
    status: str  # "success" or "failed"

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def _greedy_start(items, m: int, k: int, fixed_mask: int) -> int:
    """Fill the committee with the approval-weight top-up of the fixed set.

    Candidates are ranked by total approval weight over ``items``, ties
    broken by lowest index. This reproduces the documented runs of the
    recursive rule (the seed is swap-optimized afterwards, so any
    deterministic choice of start committee is admissible).
    """
    weight_of = [Fraction(0)] * m
    for mask, weight in items:
        rest = mask
        while rest:
            low = rest & -rest
            weight_of[low.bit_length() - 1] += weight
            rest ^= low
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
    guaranteed since the exact score increases with every swap.
    """
    profile, k, m = instance.profile, instance.k, instance.m
    fixed_mask = fixed.mask if fixed is not None else 0
    if fixed is not None and fixed.m != m:
        raise ValueError("fixed-set universe does not match the instance")
    if fixed_mask.bit_count() > k:
        raise ValueError("fixed set is larger than the committee size")
    items = profile.mask_items()
    if active is not None:
        keep = frozenset(_as_mask(b, m) for b in active)
        items = [(mask, weight) for mask, weight in items if mask in keep]
    committee = _greedy_start(items, m, k, fixed_mask)

    improved = True
    while improved:
        improved = False
        movable = [i for i in range(m) if (committee >> i) & 1 and not (fixed_mask >> i) & 1]
        outside = [i for i in range(m) if not (committee >> i) & 1]
        for x in movable:
            for y in outside:
                if mask_swap_delta(items, committee, x, y) > 0:
                    committee = (committee & ~(1 << x)) | (1 << y)
                    improved = True
                    break
            if improved:
                break
    result = CandidateSet(committee, m)
    assert fixed_mask & ~committee == 0 and committee.bit_count() == k
    return result


def _check_enumeration_cap(m: int, k: int) -> None:
    total = math.comb(m, k)
    if total > DEFAULT_MAX_COMMITTEES:
        raise EnumerationLimitError(
            f"enumerating C({m},{k}) = {total} committees exceeds the cap of "
            f"{DEFAULT_MAX_COMMITTEES}"
        )


def global_pav(instance: ElectionInstance) -> set[CandidateSet]:
    """All committees attaining the maximum exact PAV score."""
    profile, k, m = instance.profile, instance.k, instance.m
    _check_enumeration_cap(m, k)
    _, items = profile.scaled_mask_items()
    _, h = harmonic_table(k)
    best = -1
    winners: list[int] = []
    for combo in itertools.combinations(range(m), k):
        w_mask = 0
        for i in combo:
            w_mask |= 1 << i
        score = mask_pav_score(items, w_mask, h)
        if score > best:
            best, winners = score, [w_mask]
        elif score == best:
            winners.append(w_mask)
    return {CandidateSet(mask, m) for mask in winners}


def all_local_pav(instance: ElectionInstance) -> set[CandidateSet]:
    """All committees from which no single swap increases the PAV score."""
    profile, k, m = instance.profile, instance.k, instance.m
    _check_enumeration_cap(m, k)
    items = profile.mask_items()
    result: set[CandidateSet] = set()
    for combo in itertools.combinations(range(m), k):
        w_mask = 0
        for i in combo:
            w_mask |= 1 << i
        if _is_swap_stable(items, w_mask, m):
            result.add(CandidateSet(w_mask, m))
    return result


def _is_swap_stable(items, w_mask: int, m: int) -> bool:
    members = [i for i in range(m) if (w_mask >> i) & 1]
    outside = [i for i in range(m) if not (w_mask >> i) & 1]
    return all(
        mask_swap_delta(items, w_mask, x, y) <= 0
        for x in members
        for y in outside
    )


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
            return RuleOutcome(committee=None, trace=tuple(trace), status="failed")
        committee = local_pav(instance, fixed=fixed, active=active)
        report = find_deviation(instance, committee, quota)
        if report is None:
            return RuleOutcome(
                committee=committee, trace=tuple(trace), status="success"
            )
        deviation = report.deviation
        trace.append((committee, deviation))
        fixed = fixed | deviation
        w_mask, t_mask = committee.mask, deviation.mask
        active = frozenset(
            mask
            for mask in active
            if (mask & t_mask).bit_count() <= (mask & w_mask).bit_count()
        )
