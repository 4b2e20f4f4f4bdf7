"""Shared election instances used across the test suite.

``tied_pair_8`` is the 4-voter, 10-candidate instance with two tied optimal
committees at k = 8 (one core stable, one not). ``unique_9`` is the 27-voter,
11-candidate instance whose unique optimal committee fails the core at k = 9.
``droop_6`` is the 24-voter, 8-candidate instance whose unique optimal
committee fails the Droop core at k = 6. ``near_stable_6`` is the small
profile whose committee {a, d, e, f, g, h} is swap-stable only up to 1/40.
"""

from fractions import Fraction

import pytest

from pavcore.elections import (
    CandidateSet,
    ElectionInstance,
    Profile,
    _subset_masks,
    first_improving_swap,
    harmonic_table,
    pav_score,
)
from pavcore.proofs import _is_lemma1_shape
from pavcore.stability import Quota, _supporters


def cs(indices_1based, m):
    return CandidateSet.from_indices([i - 1 for i in indices_1based], m)


def fraction_swap_delta(items, w_mask, x, y):
    """Change in PAV score when member x is swapped for non-member y, over
    (ballot mask, `Fraction` weight) pairs: a ballot with u = |A ∩ W| gains
    1/(u+1) if it approves y but not x and loses 1/u if it approves x but
    not y. The oracle for the int swap kernel."""
    x_bit, y_bit = 1 << x, 1 << y
    delta = Fraction(0)
    for mask, weight in items:
        has_x, has_y = mask & x_bit, mask & y_bit
        if has_x and not has_y:
            delta -= weight / (mask & w_mask).bit_count()
        elif has_y and not has_x:
            delta += weight / ((mask & w_mask).bit_count() + 1)
    return delta


def score_swap_delta(profile, committee, x, y):
    """Change in `pav_score` when member x is swapped for non-member y."""
    swapped = CandidateSet(committee.mask ^ (1 << x) ^ (1 << y), committee.m)
    return pav_score(profile, swapped) - pav_score(profile, committee)


def local_optima(instance):
    """Every committee from which no single swap raises the PAV score."""
    _, items = instance.profile.scaled_mask_items()
    _, h = harmonic_table(instance.k)
    return {
        CandidateSet(w_mask, instance.m)
        for w_mask in _subset_masks(instance.m, instance.k).tolist()
        if first_improving_swap(items, w_mask, w_mask, instance.m, h) is None
    }


def special_deviations(instance, committee):
    """Every successful Hare deviation T, 1 <= |T| <= k, of a Lemma 1 shape:
    T is disjoint from the committee or adds at most one outsider. Against
    a swap-optimal committee the list is empty."""
    profile, k, m = instance.profile, instance.k, instance.m
    w_mask = committee.mask
    return [
        CandidateSet(t_mask, m)
        for size in range(1, k + 1)
        for t_mask in _subset_masks(m, size).tolist()
        if _is_lemma1_shape(w_mask, t_mask)
        and Quota.HARE.succeeds(_supporters(profile, w_mask, t_mask)[0], size, k)
    ]


@pytest.fixture(scope="session")
def tied_pair_8() -> ElectionInstance:
    profile = Profile.from_counts(
        10,
        {
            cs([1, 2, 3], 10): 1,
            cs([1, 2, 4], 10): 1,
            cs([5, 6, 7, 8, 9, 10], 10): 2,
        },
    )
    return ElectionInstance(profile, k=8)


@pytest.fixture(scope="session")
def unique_9() -> ElectionInstance:
    profile = Profile.from_counts(
        11,
        {
            cs([1, 2, 3], 11): 6,
            cs([1, 2, 4], 11): 6,
            cs([5, 6, 7, 8, 9, 10, 11], 11): 15,
        },
    )
    return ElectionInstance(profile, k=9)


@pytest.fixture(scope="session")
def droop_6() -> ElectionInstance:
    profile = Profile.from_counts(
        8,
        {
            cs([1, 2, 3], 8): 7,
            cs([1, 2, 4], 8): 7,
            cs([5, 6, 7, 8], 8): 10,
        },
    )
    return ElectionInstance(profile, k=6)


@pytest.fixture(scope="session")
def near_stable_6() -> ElectionInstance:
    profile = Profile(
        8,
        {
            cs([1, 2], 8): Fraction(1, 4),
            cs([1, 3], 8): Fraction(1, 4),
            cs([4, 5, 6, 7, 8], 8): Fraction(1, 2),
        },
    )
    return ElectionInstance(profile, k=6)
