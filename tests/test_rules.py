"""Tests for local, global, and recursive PAV committee computation."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from pavcore.elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    Profile,
    _subset_masks,
    harmonic,
    pav_score,
)
from pavcore.rules import (
    global_pav,
    local_pav,
    recursive_pav,
)
from pavcore.stability import Quota, find_deviation

from conftest import (
    cs,
    fraction_swap_delta,
    local_optima,
    score_swap_delta,
    special_deviations,
)
from test_stability import PROFILE_SHAPES, brute_force_deviations, random_instance


def assert_swap_stable(instance, committee, fixed=None, active=None):
    fixed_mask = fixed.mask if fixed is not None else 0
    items = instance.profile.mask_items()
    if active is not None:
        keep = {ballot.mask for ballot in active}
        items = [(mask, w) for mask, w in items if mask in keep]
    for x in committee:
        if (fixed_mask >> x) & 1:
            continue
        for y in range(instance.m):
            if y in committee:
                continue
            if active is None:
                assert score_swap_delta(instance.profile, committee, x, y) <= 0
            assert fraction_swap_delta(items, committee.mask, x, y) <= 0


def fraction_score(ballots, w_mask):
    """PAV score over (ballot, weight) pairs summed in `Fraction`s from
    `harmonic`: the oracle for the int score kernel."""
    return sum(
        (w * harmonic((b.mask & w_mask).bit_count()) for b, w in ballots),
        Fraction(0),
    )


def brute_force_global_pav(instance):
    scores = {
        combo: fraction_score(instance.profile.items(), sum(1 << i for i in combo))
        for combo in itertools.combinations(range(instance.m), instance.k)
    }
    best = max(scores.values())
    return {
        CandidateSet.from_indices(combo, instance.m)
        for combo, score in scores.items()
        if score == best
    }


def replay_recursive_pav(instance):
    """Check a Hare run of `recursive_pav` round by round against the
    brute-force deviation scan and `fraction_score`; return the number of
    trace steps."""
    m = instance.m
    outcome = recursive_pav(instance, Quota.HARE)
    assert outcome.succeeded
    assert not brute_force_deviations(instance, outcome.committee, Quota.HARE)
    fixed = CandidateSet.empty(m)
    active = list(instance.profile.items())
    for w, t in outcome.trace + ((outcome.committee, None),):
        assert fixed <= w
        # No swap of a non-fixed member gains over the ballots still active.
        best = fraction_score(active, w.mask)
        for x in w - fixed:
            for y in range(m):
                if y not in w:
                    assert fraction_score(active, (w.mask & ~(1 << x)) | (1 << y)) <= best
        if t is not None:
            assert t == brute_force_deviations(instance, w, Quota.HARE)[0][0]
            fixed = fixed | t
            active = [(b, v) for b, v in active if len(b & t) <= len(b & w)]
    return len(outcome.trace)


class TestPavScore:
    @pytest.mark.parametrize("max_ballots, max_count", PROFILE_SHAPES)
    def test_agrees_with_fraction_oracle(self, max_ballots, max_count):
        # Committees of every size, including the empty one and sizes
        # other than k.
        rng = random.Random(5511 + max_ballots)
        for _ in range(60):
            instance = random_instance(
                rng, max_m=9, max_ballots=max_ballots, max_count=max_count
            )
            m = instance.m
            committee = CandidateSet.from_indices(
                rng.sample(range(m), rng.randint(0, m)), m
            )
            expected = fraction_score(instance.profile.items(), committee.mask)
            assert pav_score(instance.profile, committee) == expected


class TestLocalPav:
    def test_single_ballot_k1(self):
        p = Profile(3, {cs([1], 3): 1})
        instance = ElectionInstance(p, k=1)
        assert local_pav(instance) == cs([1], 3)

    def test_single_ballot_takes_lowest_indices(self):
        p = Profile(6, {cs([1, 3, 5, 6], 6): 1})
        instance = ElectionInstance(p, k=2)
        assert local_pav(instance) == cs([1, 3], 6)

    def test_tied_pair_unconstrained(self, tied_pair_8):
        committee = local_pav(tied_pair_8)
        assert pav_score(tied_pair_8.profile, committee) == Fraction(79, 40)
        assert_swap_stable(tied_pair_8, committee)

    def test_tied_pair_fixed_prefix(self, tied_pair_8):
        fixed = cs([1, 2, 3, 4], 10)
        active = [cs([5, 6, 7, 8, 9, 10], 10)]
        committee = local_pav(tied_pair_8, fixed=fixed, active=active)
        assert committee == cs([1, 2, 3, 4, 5, 6, 7, 8], 10)
        assert_swap_stable(tied_pair_8, committee, fixed=fixed, active=active)

    def test_contains_fixed_and_has_size_k(self):
        rng = random.Random(4242)
        for _ in range(80):
            instance = random_instance(rng)
            fixed_size = rng.randint(0, instance.k)
            fixed = CandidateSet.from_indices(
                rng.sample(range(instance.m), fixed_size), instance.m
            )
            committee = local_pav(instance, fixed=fixed)
            assert len(committee) == instance.k
            assert fixed <= committee
            assert_swap_stable(instance, committee, fixed=fixed)


class TestGlobalPav:
    def test_single_ballot(self):
        p = Profile(3, {cs([1, 2], 3): 1})
        assert global_pav(ElectionInstance(p, k=2)) == {cs([1, 2], 3)}

    def test_tied_pair_has_both_optima(self, tied_pair_8):
        winners = global_pav(tied_pair_8)
        assert cs([1, 2, 5, 6, 7, 8, 9, 10], 10) in winners
        assert cs([1, 2, 3, 5, 6, 7, 8, 9], 10) in winners
        scores = {pav_score(tied_pair_8.profile, w) for w in winners}
        assert scores == {Fraction(79, 40)}

    def test_unique_9_is_unique(self, unique_9):
        assert global_pav(unique_9) == {cs([1, 2, 5, 6, 7, 8, 9, 10, 11], 11)}

    @pytest.mark.parametrize("max_ballots, max_count", PROFILE_SHAPES)
    def test_agrees_with_fraction_oracle(self, max_ballots, max_count):
        rng = random.Random(4411 + max_ballots)
        for _ in range(40):
            instance = random_instance(
                rng, max_m=8, max_ballots=max_ballots, max_count=max_count
            )
            assert global_pav(instance) == brute_force_global_pav(instance)

    def test_masks_past_int64(self):
        # Candidates c63..c70 lie past bit 62, so committee and ballot masks
        # are Python ints; C(70, 2) = 2415 committees, three of them optimal.
        m = 70
        profile = Profile.from_counts(
            m,
            {
                cs([1, 70], m): 3,
                cs([69, 70], m): 2,
                cs([64, 65, 66], m): 2,
                cs([2, 68], m): 1,
                cs([67], m): 1,
            },
        )
        instance = ElectionInstance(profile, k=2)
        winners = global_pav(instance)
        assert winners == brute_force_global_pav(instance) and len(winners) == 3
        assert_swap_stable(instance, local_pav(instance))

    def test_committees_are_scored_in_blocks(self):
        # C(20, 10) = 184756 committees: their mask table takes 1.5 MB, and
        # one (committee, ballot) array of all of them would take 16 times
        # that. The search may hold the table and 4 MB more, and keeps no
        # table after it returns.
        rng = random.Random(2010)
        m = 20
        counts = {
            sum(1 << i for i in rng.sample(range(m), rng.randint(2, 6))): rng.randint(1, 99)
            for _ in range(16)
        }
        instance = ElectionInstance(Profile.from_counts(m, counts), k=10)
        cached = _subset_masks.cache_info().currsize
        tracemalloc.start()
        try:
            winners = global_pav(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = 8 * 184756
        assert peak < table + (4 << 20)
        assert _subset_masks.cache_info().currsize == cached
        assert winners and all(len(w) == 10 for w in winners)

    def test_cap_refusal(self):
        # C(30, 15) = 155117520 committees, over the cap of 10^7.
        instance = ElectionInstance(Profile(30, {cs([1], 30): 1}), k=15)
        with pytest.raises(EnumerationLimitError):
            global_pav(instance)


class TestAllLocalPav:
    def test_unique_9_unique_local(self, unique_9):
        assert local_optima(unique_9) == {cs([1, 2, 5, 6, 7, 8, 9, 10, 11], 11)}

    def test_droop_6_unique_global_and_local(self, droop_6):
        expected = {cs([1, 2, 5, 6, 7, 8], 8)}
        assert local_optima(droop_6) == expected
        assert global_pav(droop_6) == expected

    def test_single_heavy_ballot(self):
        p = Profile(5, {cs([1, 2, 3, 4], 5): 1})
        instance = ElectionInstance(p, k=3)
        locals_ = local_optima(instance)
        # Exactly the committees maximizing overlap with the ballot.
        assert locals_ == {
            CandidateSet.from_indices(c, 5)
            for c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        }

    def test_global_subset_of_local(self):
        rng = random.Random(31337)
        for _ in range(60):
            instance = random_instance(rng, max_m=6)
            assert global_pav(instance) <= local_optima(instance)


class TestRecursivePav:
    def test_stable_first_round_returns_empty_trace(self, droop_6):
        outcome = recursive_pav(droop_6, Quota.HARE)
        assert outcome.succeeded
        assert outcome.trace == ()
        assert find_deviation(droop_6, outcome.committee, Quota.HARE) is None

    def test_tied_pair_fixes_blocking_coalition(self, tied_pair_8):
        outcome = recursive_pav(tied_pair_8, Quota.HARE)
        assert outcome.succeeded
        assert cs([1, 2, 3, 4], 10) <= outcome.committee
        assert find_deviation(tied_pair_8, outcome.committee, Quota.HARE) is None
        assert outcome.trace == (
            (cs([1, 2, 5, 6, 7, 8, 9, 10], 10), cs([1, 2, 3, 4], 10)),
        )

    def test_near_stable_single_round(self, near_stable_6):
        outcome = recursive_pav(near_stable_6, Quota.HARE)
        assert outcome.succeeded
        assert outcome.trace == ()
        assert find_deviation(near_stable_6, outcome.committee, Quota.HARE) is None

    def test_trace_containment_invariant(self):
        rng = random.Random(550)
        for _ in range(100):
            instance = random_instance(rng, max_m=7)
            outcome = recursive_pav(instance, Quota.HARE)
            assert outcome.succeeded, "small instances must never fail"
            committees = [w for w, _ in outcome.trace] + [outcome.committee]
            fixed = CandidateSet.empty(instance.m)
            for (w, t), w_next in zip(outcome.trace, committees[1:]):
                fixed = fixed | t
                assert fixed <= w_next

    def test_agrees_with_brute_force(self):
        # By the k <= 7 theorem these traces are empty: the rule's first
        # swap-optimal committee is already core stable.
        rng = random.Random(2501)
        for _ in range(200):
            assert replay_recursive_pav(random_instance(rng, max_m=7)) == 0

    def test_deactivated_ballots_leave_later_rounds(self):
        # unique_9 at weights 60/270, 60/270 and 149/270, plus 1/270 on
        # {c3, c4, c11}. That ballot backs T = {c1, c2, c3, c4} (two of T
        # against one member) and is deactivated with the special ballots.
        # Over the block alone c5..c11 tie, and the lowest indices take the
        # five free seats; scored over every ballot, c11 would take one.
        profile = Profile.from_counts(
            11,
            {
                cs([1, 2, 3], 11): 60,
                cs([1, 2, 4], 11): 60,
                cs([5, 6, 7, 8, 9, 10, 11], 11): 149,
                cs([3, 4, 11], 11): 1,
            },
        )
        instance = ElectionInstance(profile, k=9)
        t = cs([1, 2, 3, 4], 11)
        for quota in Quota:
            outcome = recursive_pav(instance, quota)
            assert outcome.trace == ((cs([1, 2, 5, 6, 7, 8, 9, 10, 11], 11), t),)
            assert outcome.committee == cs([1, 2, 3, 4, 5, 6, 7, 8, 9], 11)
        assert local_pav(instance, fixed=t) == cs([1, 2, 3, 4, 5, 6, 7, 8, 11], 11)
        assert replay_recursive_pav(instance) == 1

    def test_trace_steps_agree_with_brute_force(self, tied_pair_8, unique_9):
        assert replay_recursive_pav(tied_pair_8) == 1
        assert replay_recursive_pav(unique_9) == 1


class TestLocalImpliesCore:
    def test_small_committees_are_core_stable(self):
        # Every swap-stable committee passes core verification when k <= 7.
        rng = random.Random(777)
        checked = 0
        for _ in range(60):
            instance = random_instance(rng, max_m=7)
            if instance.k > 7:
                continue
            for committee in local_optima(instance):
                assert find_deviation(instance, committee, Quota.HARE) is None
                checked += 1
        assert checked > 50

    def test_no_special_shape_deviations_up_to_k8(self):
        rng = random.Random(778)
        for _ in range(60):
            instance = random_instance(rng, max_m=8)
            if instance.k > 8:
                continue
            for committee in local_optima(instance):
                assert special_deviations(instance, committee) == []
