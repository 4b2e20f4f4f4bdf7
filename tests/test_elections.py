"""Unit tests for the exact election data model."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavcore import elections
from pavcore.elections import (
    CandidateSet,
    ElectionInstance,
    Profile,
    _subset_masks,
    first_improving_swap,
    harmonic,
    harmonic_table,
    pav_score,
    pav_scores,
)

from conftest import cs, fraction_swap_delta, score_swap_delta
from test_rules import fraction_score
from test_stability import PROFILE_SHAPES, random_instance


class TestCandidateSet:
    def test_set_algebra(self):
        a = CandidateSet.from_indices([0, 1, 2], 5)
        b = CandidateSet.from_indices([2, 3], 5)
        assert (a & b).mask == 0b00100
        assert (a | b).mask == 0b01111
        assert (a - b).mask == 0b00011
        assert len(a) == 3
        assert 1 in a and 3 not in a
        assert b <= (a | b)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet.from_indices([0], 3) & CandidateSet.from_indices([0], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet.from_indices([5], 5)
        with pytest.raises(ValueError):
            CandidateSet(1 << 5, 5)

    def test_labels_are_one_indexed(self):
        assert CandidateSet.from_indices([0, 4], 6).labels() == ("c1", "c5")

    def test_hashable_and_immutable(self):
        a = CandidateSet.from_indices([1], 3)
        assert {a: 1}[CandidateSet(2, 3)] == 1
        with pytest.raises(AttributeError):
            a.mask = 5


class TestProfile:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Profile(3, {cs([1], 3): Fraction(1, 2)})

    def test_zero_weight_entries_dropped(self):
        p = Profile(3, {cs([1], 3): 1, cs([2], 3): 0})
        assert p.mask_items() == ((cs([1], 3).mask, Fraction(1)),)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Profile(3, {cs([1], 3): Fraction(3, 2), cs([2], 3): Fraction(-1, 2)})

    def test_empty_ballot_rejected(self):
        with pytest.raises(ValueError):
            Profile(3, {CandidateSet.empty(3): 1})

    def test_from_counts_merges_and_normalizes(self):
        p = Profile.from_counts(4, {cs([1, 2], 4): 2, 0b0011: 1, cs([3], 4): 1})
        assert dict(p.mask_items()) == {
            cs([1, 2], 4).mask: Fraction(3, 4),
            cs([3], 4).mask: Fraction(1, 4),
        }

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_maps_that_sum_to_one(self, data):
        m = data.draw(st.integers(1, 4))
        # (mask, as a CandidateSet?, weight); one mask may come in both key
        # forms, whose weights then merge.
        drawn = data.draw(st.lists(st.tuples(
            st.integers(1, (1 << m) - 1),
            st.booleans(),
            st.fractions(min_value=0, max_value=1, max_denominator=12),
        ), max_size=6))
        weights = {CandidateSet(mask, m) if as_set else mask: w for mask, as_set, w in drawn}
        total = sum(weights.values(), Fraction(0))
        if total and data.draw(st.booleans()):
            weights = {key: w / total for key, w in weights.items()}
        entries = {
            key: data.draw(st.sampled_from(
                [w, str(w)] + ([int(w)] if w.denominator == 1 else [])
            ))
            for key, w in weights.items()
        }
        merged = {}
        for key, w in weights.items():
            mask = key.mask if isinstance(key, CandidateSet) else key
            if w:
                merged[mask] = merged.get(mask, 0) + w
        total = sum(merged.values(), Fraction(0))
        if total != 1:
            with pytest.raises(ValueError, match=f"sum to 1, got {total}$"):
                Profile(m, entries)
            return
        profile = Profile(m, entries)
        assert profile.mask_items() == tuple(sorted(merged.items()))
        scale = math.lcm(*(w.denominator for w in merged.values()))
        assert profile.scaled_mask_items() == (scale, tuple(
            (mask, w.numerator * (scale // w.denominator))
            for mask, w in sorted(merged.items())
        ))
        copy = pickle.loads(pickle.dumps(profile))
        assert copy == profile
        assert copy.scaled_mask_items() == profile.scaled_mask_items()

    def test_instance_validates_k(self):
        p = Profile(3, {cs([1], 3): 1})
        with pytest.raises(ValueError):
            ElectionInstance(p, k=0)
        with pytest.raises(ValueError):
            ElectionInstance(p, k=4)


class TestHarmonic:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 0), (1, 1), (4, Fraction(25, 12)), (6, Fraction(49, 20))],
    )
    def test_known_values(self, n, expected):
        assert harmonic(n) == expected

    def test_difference_is_reciprocal(self):
        for n in range(1, 21):
            assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=41, deadline=None)
    def test_harmonic_monotone(self, n):
        assert harmonic(n + 1) > harmonic(n)


class TestUtilityAndScore:
    def test_pav_score_of_tied_committees(self, tied_pair_8):
        profile = tied_pair_8.profile
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        alt = cs([1, 2, 3, 5, 6, 7, 8, 9], 10)
        assert pav_score(profile, blue) == Fraction(79, 40)
        assert pav_score(profile, alt) == Fraction(79, 40)

    def test_pav_score_zero_when_disjoint(self):
        p = Profile(6, {cs([1, 2], 6): 1})
        assert pav_score(p, cs([5, 6], 6)) == 0


class TestSubsetMasks:
    @pytest.mark.parametrize(
        "m, sizes", [(1, range(2)), (5, range(6)), (8, range(9)), (63, (0, 1, 2)), (70, (1, 2))]
    )
    def test_combinations_order(self, m, sizes):
        # Past m = 62 the masks are Python ints.
        for size in sizes:
            masks = _subset_masks(m, size)
            assert masks.dtype == (object if m > 62 else np.int64)
            assert masks.tolist() == [
                sum(1 << i for i in combo)
                for combo in itertools.combinations(range(m), size)
            ]


class TestPavScores:
    @staticmethod
    def assert_oracle_scores(profile, size, scores):
        scale, _ = profile.scaled_mask_items()
        lcm_k, _ = harmonic_table(size)
        assert [Fraction(int(s), scale * lcm_k) for s in scores] == [
            fraction_score(profile.items(), w_mask)
            for w_mask in _subset_masks(profile.m, size).tolist()
        ]

    @pytest.mark.parametrize("max_ballots, max_count", PROFILE_SHAPES)
    def test_agrees_with_fraction_oracle(self, max_ballots, max_count):
        # Every committee of every size, including the empty one.
        rng = random.Random(7300 + max_ballots)
        wide = 0
        for _ in range(30):
            instance = random_instance(
                rng, max_m=7, max_ballots=max_ballots, max_count=max_count
            )
            profile = instance.profile
            _, items = profile.scaled_mask_items()
            for size in range(profile.m + 1):
                _, h = harmonic_table(size)
                scores = pav_scores(items, _subset_masks(profile.m, size), h)
                self.assert_oracle_scores(profile, size, scores)
                wide += scores.dtype == object
        if max_count > 1 << 62:
            assert wide > 50  # scores past int64 take the Python-int path

    def test_blocks_cross_committee_boundaries(self, monkeypatch, unique_9):
        # Two committees of three ballots per block: C(11, 9) = 55
        # committees fill 27 blocks and one committee more.
        profile = unique_9.profile
        _, items = profile.scaled_mask_items()
        _, h = harmonic_table(9)
        monkeypatch.setattr(elections, "PAV_BLOCK", 2 * len(items) + 1)
        self.assert_oracle_scores(profile, 9, pav_scores(items, _subset_masks(11, 9), h))


class TestSwapDelta:
    @staticmethod
    def oracle(profile, committee, x, y):
        return fraction_swap_delta(profile.mask_items(), committee.mask, x, y)

    def test_near_stable_swap_is_one_fortieth(self, near_stable_6):
        committee = cs([1, 4, 5, 6, 7, 8], 8)
        delta = score_swap_delta(near_stable_6.profile, committee, 3, 1)
        assert delta == Fraction(1, 40)
        assert self.oracle(near_stable_6.profile, committee, 3, 1) == Fraction(1, 40)

    def test_zero_when_neither_candidate_approved(self):
        p = Profile(6, {cs([1, 2], 6): 1})
        committee = cs([1, 2, 5], 6)
        assert score_swap_delta(p, committee, 4, 5) == 0
        assert self.oracle(p, committee, 4, 5) == 0

    def test_tied_swap_in_tied_pair_instance(self, tied_pair_8):
        blue = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        assert score_swap_delta(tied_pair_8.profile, blue, 9, 2) == 0
        assert self.oracle(tied_pair_8.profile, blue, 9, 2) == 0

    def test_matches_score_difference_exhaustively(self):
        rng = random.Random(20240811)
        for _ in range(60):
            m = rng.randint(2, 6)
            ballots = {}
            for _ in range(rng.randint(1, 5)):
                mask = rng.randint(1, (1 << m) - 1)
                ballots[mask] = ballots.get(mask, 0) + rng.randint(1, 4)
            profile = Profile.from_counts(m, ballots)
            k = rng.randint(1, m)
            for combo in itertools.combinations(range(m), k):
                w_mask = sum(1 << i for i in combo)
                committee = CandidateSet(w_mask, m)
                for x in combo:
                    for y in range(m):
                        if (w_mask >> y) & 1:
                            continue
                        swapped = CandidateSet((w_mask & ~(1 << x)) | (1 << y), m)
                        delta = self.oracle(profile, committee, x, y)
                        assert pav_score(profile, swapped) - pav_score(
                            profile, committee
                        ) == delta


def oracle_first_improving_swap(items, w_mask, movable, m):
    """`first_improving_swap` over (mask, `Fraction` weight) pairs, one
    `fraction_swap_delta` per pair."""
    for x in range(m):
        if (movable >> x) & 1:
            for y in range(m):
                if not (w_mask >> y) & 1 and fraction_swap_delta(items, w_mask, x, y) > 0:
                    return x, y
    return None


class TestFirstImprovingSwap:
    @pytest.mark.parametrize("max_ballots, max_count", PROFILE_SHAPES)
    def test_agrees_with_fraction_oracle(self, max_ballots, max_count):
        # Random committees of every size, fixed subsets and active subsets
        # of the ballots, on scaled items over the full profile's D.
        rng = random.Random(6100 + max_ballots)
        found = none = huge = 0
        for _ in range(150):
            instance = random_instance(
                rng, max_m=8, max_ballots=max_ballots, max_count=max_count
            )
            m, profile = instance.m, instance.profile
            w_mask = sum(1 << i for i in rng.sample(range(m), rng.randint(1, m)))
            movable = w_mask & rng.randint(0, (1 << m) - 1)
            keep = {mask for mask, _ in profile.mask_items() if rng.random() < 0.7}
            scale, scaled = profile.scaled_mask_items()
            huge += scale > 1 << 62
            items = [(mask, w) for mask, w in scaled if mask in keep]
            _, h = harmonic_table(w_mask.bit_count())
            swap = first_improving_swap(items, w_mask, movable, m, h)
            expected = oracle_first_improving_swap(
                [(mask, w) for mask, w in profile.mask_items() if mask in keep],
                w_mask, movable, m,
            )
            assert swap == expected
            found += swap is not None
            none += swap is None
        assert found > 20 and none > 20
        if max_count > 1 << 62:
            assert huge > 100  # scaled weights past int64
