"""Tests for core- and Droop-core verification."""

import itertools
import random
from fractions import Fraction

import pytest

from pavcore import stability
from pavcore.elections import (
    CandidateSet,
    ElectionInstance,
    EnumerationLimitError,
    Profile,
    _subset_masks,
)
from pavcore.stability import Quota, _supporters, find_deviation

from conftest import cs, special_deviations


def brute_force_deviations(instance, committee, quota):
    """Independent full scan: every successful deviation, combinatorics only."""
    profile, k, m = instance.profile, instance.k, instance.m
    hits = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(m), size):
            t = CandidateSet.from_indices(combo, m)
            support = Fraction(0)
            for ballot, weight in profile.items():
                if len(ballot & t) > len(ballot & committee):
                    support += weight
            bar = (
                Fraction(size, k) if quota is Quota.HARE else Fraction(size, k + 1)
            )
            ok = support >= bar if quota is Quota.HARE else support > bar
            if ok:
                hits.append((t, support))
    return hits


#: (max_ballots, max_count) of the differential tests' random profiles; the
#: last gives weight denominators far above 2**62.
PROFILE_SHAPES = [(5, 5), (12, 99), (8, 2**70)]


def random_instance(rng, max_m=7, max_ballots=5, max_count=5):
    m = rng.randint(2, max_m)
    ballots = {}
    for _ in range(rng.randint(1, max_ballots)):
        mask = rng.randint(1, (1 << m) - 1)
        ballots[mask] = ballots.get(mask, 0) + rng.randint(1, max_count)
    profile = Profile.from_counts(m, ballots)
    k = rng.randint(1, m)
    return ElectionInstance(profile, k)


class TestQuota:
    def test_thresholds(self):
        assert Quota.HARE.threshold(4, 8) == Fraction(1, 2)
        assert Quota.DROOP.threshold(4, 6) == Fraction(4, 7)

    def test_success_conditions(self):
        assert Quota.HARE.succeeds(Fraction(1, 2), 4, 8)
        assert not Quota.HARE.succeeds(Fraction(39, 80), 4, 8)
        assert not Quota.DROOP.succeeds(Fraction(4, 7), 4, 6)
        assert Quota.DROOP.succeeds(Fraction(14, 24), 4, 6)

    @pytest.mark.parametrize("quota", list(Quota))
    def test_least_support_is_the_boundary_of_succeeds(self, quota):
        # Denominators that divide k or k + 1 put a support exactly on the
        # threshold, where the two quotas differ.
        for k in range(1, 10):
            for size in range(1, k + 1):
                for denominator in (1, k, k + 1, k * (k + 1), 97, 2520):
                    need = quota.least_support(size, k, denominator)
                    assert quota.succeeds(Fraction(need, denominator), size, k)
                    assert not quota.succeeds(Fraction(need - 1, denominator), size, k)


class TestDeviationSupport:
    def test_tied_pair_support(self, tied_pair_8):
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        t = cs([1, 2, 3, 4], 10)
        support, _ = _supporters(tied_pair_8.profile, blue.mask, t.mask)
        assert support == Fraction(1, 2)

    def test_droop_instance_support(self, droop_6):
        committee = cs([1, 2, 5, 6, 7, 8], 8)
        t = cs([1, 2, 3, 4], 8)
        support, _ = _supporters(droop_6.profile, committee.mask, t.mask)
        assert support == Fraction(14, 24)

    def test_subset_of_committee_has_no_support(self, tied_pair_8):
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        for size in (1, 2, 3):
            for combo in itertools.combinations([0, 1, 4, 5, 6], size):
                t = CandidateSet.from_indices(combo, 10)
                support, _ = _supporters(tied_pair_8.profile, blue.mask, t.mask)
                assert support == 0


class TestFindDeviation:
    def test_tied_pair_blue_fails_hare(self, tied_pair_8):
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        report = find_deviation(tied_pair_8, blue, Quota.HARE)
        assert report is not None
        assert report.deviation == cs([1, 2, 3, 4], 10)
        assert report.support == Fraction(1, 2)
        assert report.threshold == Fraction(1, 2)

    def test_tied_pair_alternative_is_stable(self, tied_pair_8):
        alt = cs([1, 2, 3, 5, 6, 7, 8, 9], 10)
        assert find_deviation(tied_pair_8, alt, Quota.HARE) is None
        assert not brute_force_deviations(tied_pair_8, alt, Quota.HARE)

    def test_droop_committee(self, droop_6):
        committee = cs([1, 2, 5, 6, 7, 8], 8)
        report = find_deviation(droop_6, committee, Quota.DROOP)
        assert report is not None
        assert report.deviation == cs([1, 2, 3, 4], 8)
        assert report.support == Fraction(14, 24)
        assert report.support > Fraction(4, 7) == report.threshold

    def test_unique_9_fails_at_equality(self, unique_9):
        committee = cs([1, 2, 5, 6, 7, 8, 9, 10, 11], 11)
        report = find_deviation(unique_9, committee, Quota.HARE)
        assert report is not None
        assert report.deviation == cs([1, 2, 3, 4], 11)
        assert report.support == Fraction(12, 27) == Fraction(4, 9)
        assert report.threshold == Fraction(4, 9)

    def test_m_cap(self):
        instance = ElectionInstance(Profile(21, {cs([1], 21): 1}), k=2)
        with pytest.raises(EnumerationLimitError):
            find_deviation(instance, cs([1, 2], 21), Quota.HARE)

    def test_scan_follows_combinations_order(self):
        # Six pairs succeed under Droop. By combinations order {c1, c4}
        # comes first; by ascending bitmask it would be {c2, c3} (6 < 9).
        profile = Profile.from_counts(
            7, {cs([1, 4, 5], 7): 3, cs([2, 3, 6], 7): 3, cs([1, 2, 3, 4], 7): 2}
        )
        instance = ElectionInstance(profile, k=3)
        committee = cs([5, 6, 7], 7)
        hits = [t for t, _ in brute_force_deviations(instance, committee, Quota.DROOP)]
        assert hits[0] == cs([1, 4], 7)
        assert min(hits, key=lambda t: t.mask) == cs([2, 3], 7)
        report = find_deviation(instance, committee, Quota.DROOP)
        assert report.deviation == cs([1, 4], 7)
        assert report.support == Fraction(5, 8)
        assert report.supporters == (cs([1, 2, 3, 4], 7), cs([1, 4, 5], 7))
        assert find_deviation(instance, committee, Quota.HARE) is None

    @staticmethod
    def assert_agrees_with_brute_force(instance, committee):
        for quota in (Quota.HARE, Quota.DROOP):
            hits = brute_force_deviations(instance, committee, quota)
            report = find_deviation(instance, committee, quota)
            if report is None:
                assert not hits
            else:
                assert (report.deviation, report.support) == hits[0]
                assert report.supporters == tuple(
                    b
                    for b, _ in instance.profile.items()
                    if len(b & report.deviation) > len(b & committee)
                )

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for _ in range(120):
            instance = random_instance(rng)
            committee = CandidateSet.from_indices(
                rng.sample(range(instance.m), instance.k), instance.m
            )
            self.assert_agrees_with_brute_force(instance, committee)

    @pytest.mark.parametrize("max_ballots, max_count", PROFILE_SHAPES)
    def test_agrees_with_brute_force_on_wider_profiles(self, max_ballots, max_count):
        rng = random.Random(1801 + max_ballots)
        for _ in range(40):
            instance = random_instance(
                rng, max_m=9, max_ballots=max_ballots, max_count=max_count
            )
            committee = CandidateSet.from_indices(
                rng.sample(range(instance.m), instance.k), instance.m
            )
            self.assert_agrees_with_brute_force(instance, committee)

    def test_weights_over_a_denominator_above_2_to_the_62(self):
        # Supports are summed as Python ints here instead of int64.
        n = 2**64 + 1
        profile = Profile(
            6,
            {
                cs([1, 2], 6): Fraction(2**62, n),
                cs([1, 3], 6): Fraction(2**62, n),
                cs([4, 5, 6], 6): Fraction(2**63 + 1, n),
            },
        )
        assert profile.scaled_mask_items()[0] == n
        instance = ElectionInstance(profile, k=3)
        report = find_deviation(instance, cs([4, 5, 6], 6), Quota.HARE)
        assert report.deviation == cs([1], 6)
        assert report.support == Fraction(2**63, n)
        self.assert_agrees_with_brute_force(instance, cs([4, 5, 6], 6))

    def test_live_weight_equal_to_the_need_is_scanned(self):
        # At size 1 only {c3, c4} (|A ∩ W| = 0) is live. Its weight 1/2 is
        # the least support both quotas accept over D = 2: Hare's 1/2 at
        # equality, Droop's first step above 1/3.
        profile = Profile(4, {cs([3, 4], 4): Fraction(1, 2), cs([1], 4): Fraction(1, 2)})
        instance = ElectionInstance(profile, k=2)
        for quota in Quota:
            assert quota.least_support(1, 2, 2) == 1
            report = find_deviation(instance, cs([1, 2], 4), quota)
            assert (report.deviation, report.support) == (cs([3], 4), Fraction(1, 2))
        self.assert_agrees_with_brute_force(instance, cs([1, 2], 4))

    def test_live_weight_at_the_droop_threshold_falls_short(self):
        # The live weight 1/3 at size 1 is exactly |T|/(k + 1): Droop needs
        # strictly more. At size 2 no T is backed by the 2/3 of {c1}.
        profile = Profile(4, {cs([3, 4], 4): Fraction(1, 3), cs([1], 4): Fraction(2, 3)})
        instance = ElectionInstance(profile, k=2)
        assert find_deviation(instance, cs([1, 2], 4), Quota.DROOP) is None
        self.assert_agrees_with_brute_force(instance, cs([1, 2], 4))

    @pytest.mark.parametrize("a, n", [(1, 8), (2**61, 2**64 + 1)])
    def test_first_objection_after_skipped_sizes(self, monkeypatch, a, n):
        # W = {c1..c4}. Sizes 1 and 2 reach only the ballots with |A ∩ W| of
        # 0 and at most 1, about 1/8 and 1/4, short of either quota, so only
        # size 3 is scanned. n = 2**64 + 1 sums the supports as Python ints.
        profile = Profile(8, {
            cs([5], 8): Fraction(a, n),
            cs([1, 5, 6], 8): Fraction(a, n),
            cs([1, 2, 5, 6, 7], 8): Fraction(n - 2 * a, n),
        })
        assert (profile.scaled_mask_items()[0] >= 1 << 62) == (n > 8)
        instance, committee = ElectionInstance(profile, k=4), cs([1, 2, 3, 4], 8)
        scanned = []

        def subset_masks(m, size):
            scanned.append(size)
            return _subset_masks(m, size)

        monkeypatch.setattr(stability, "_subset_masks", subset_masks)
        for quota in Quota:
            scanned.clear()
            report = find_deviation(instance, committee, quota)
            assert scanned == [3]
            assert (report.deviation, report.support) == (cs([1, 2, 5], 8), 1)
        self.assert_agrees_with_brute_force(instance, committee)

    def test_droop_stable_implies_hare_stable(self):
        rng = random.Random(12345)
        for _ in range(150):
            instance = random_instance(rng)
            committee = CandidateSet.from_indices(
                rng.sample(range(instance.m), instance.k), instance.m
            )
            if find_deviation(instance, committee, Quota.DROOP) is None:
                assert find_deviation(instance, committee, Quota.HARE) is None


class TestSpecialDeviations:
    def test_unique_9_committee_clean(self, unique_9):
        committee = cs([1, 2, 5, 6, 7, 8, 9, 10, 11], 11)
        assert special_deviations(unique_9, committee) == []

    def test_tied_pair_blue_clean(self, tied_pair_8):
        # The committee does fail the core, but its deviation adds two
        # outsiders, so the restricted scan must come back empty.
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        assert special_deviations(tied_pair_8, blue) == []

    def test_full_committee_vacuous(self):
        p = Profile(4, {cs([1, 2], 4): 1})
        instance = ElectionInstance(p, k=4)
        assert special_deviations(instance, CandidateSet.full(4)) == []

    def test_catches_planted_violation(self):
        # A committee ignoring a unanimous ballot: the singleton deviation
        # {c4} is disjoint from the committee and is backed by everyone.
        p = Profile(4, {cs([4], 4): 1})
        instance = ElectionInstance(p, k=2)
        committee = cs([1, 2], 4)
        hits = special_deviations(instance, committee)
        assert cs([4], 4) in hits
