"""Known answers for the benchmark's own checkers and host-speed sums.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

pavcore appears here only to produce certificates and reference rows; the
checkers under test never call it.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
from pavcore.proofs import (  # noqa: E402
    DeviationShape,
    History,
    _build_rows,
    canonical_continuations,
    farkas_from_theorem1,
    iter_shapes,
)
from pavcore.stability import find_deviation  # noqa: E402
from pavcore.elections import CandidateSet, ElectionInstance, Profile  # noqa: E402


def mask(*numbers) -> int:
    return checks.mask_of(list(numbers), 16)


def tied_pair_8() -> checks.Election:
    return checks.Election.from_file_dict({
        "m": 10,
        "k": 8,
        "ballots": [
            {"approve": [1, 2, 3], "count": 1},
            {"approve": [1, 2, 4], "count": 1},
            {"approve": [5, 6, 7, 8, 9, 10], "count": 2},
        ],
    })


def general_multipliers(k: int, shape: DeviationShape) -> tuple:
    m, steps = checks.program3_steps(k, shape.size, shape.overlap)
    system = checks.HistorySystem(m, k, steps)
    cert = farkas_from_theorem1(k, shape)
    assert all(i < system.n_general for i in cert.nonzero)
    return system, [cert.multiplier(i) for i in range(system.n_general)]


class TestCore:
    def test_tied_pair_unstable_committee(self):
        election = tied_pair_8()
        w = mask(1, 2, 5, 6, 7, 8, 9, 10)
        t = mask(1, 2, 3, 4)
        assert election.support(w, t) == Fraction(1, 2)
        found = election.deviations(w)
        assert t in found
        assert min(d.bit_count() for d in found) == 4

    def test_tied_pair_stable_committee(self):
        assert tied_pair_8().deviations(mask(*range(1, 9))) == []

    def test_agrees_with_find_deviation_on_random_profiles(self):
        rng = random.Random(7)
        for _ in range(20):
            m, k = rng.randint(4, 7), rng.randint(1, 4)
            counts = {}
            for _ in range(rng.randint(1, 6)):
                ballot = rng.randrange(1, 1 << m)
                counts[ballot] = counts.get(ballot, 0) + rng.randint(1, 5)
            total = sum(counts.values())
            election = checks.Election(
                m, k, {b: Fraction(c, total) for b, c in counts.items()}
            )
            instance = ElectionInstance(Profile.from_counts(m, counts), k)
            w = sum(1 << i for i in rng.sample(range(m), k))
            report = find_deviation(instance, CandidateSet(w, m))
            assert (report is None) == (election.deviations(w) == [])


class TestPav:
    def test_tied_pair_optimum(self):
        best, top = tied_pair_8().best_committees()
        assert best == Fraction(79, 40)
        assert mask(1, 2, 5, 6, 7, 8, 9, 10) in top
        assert mask(*range(1, 9)) not in top

    def test_swap_stability(self):
        election = tied_pair_8()
        assert not election.improving_swap(mask(1, 2, 5, 6, 7, 8, 9, 10))
        assert election.improving_swap(mask(3, 4, 5, 6, 7, 8, 9, 10))


class TestWitness:
    def test_tied_pair_realizes_the_lemma2_step(self):
        steps = [(mask(1, 2, 5, 6, 7, 8, 9, 10), mask(1, 2, 3, 4))]
        assert tied_pair_8().realizes(steps)

    def test_unstable_committee_is_no_history(self):
        steps = [(mask(3, 4, 5, 6, 7, 8, 9, 10), mask(1, 2))]
        assert not tied_pair_8().realizes(steps)


class TestFarkas:
    @pytest.mark.parametrize("shape", list(iter_shapes(7)), ids=str)
    def test_theorem1_certificates_pass_at_k7(self, shape):
        system, multipliers = general_multipliers(7, shape)
        assert checks.farkas_holds(system, multipliers)

    def test_theorem1_fails_for_the_k8_counterexample_shape(self):
        system, multipliers = general_multipliers(8, DeviationShape(4, 2))
        assert not checks.farkas_holds(system, multipliers)

    def test_flipped_multiplier_fails(self):
        system, multipliers = general_multipliers(7, DeviationShape(3, 1))
        for i, v in enumerate(multipliers):
            if v:
                flipped = list(multipliers)
                flipped[i] = -v
                assert not checks.farkas_holds(system, flipped)

    def test_wrong_length_fails(self):
        system, multipliers = general_multipliers(7, DeviationShape(2, 1))
        assert not checks.farkas_holds(system, multipliers + [0])


class TestContinuations:
    def test_root_shapes(self):
        # At the root every (|T|, |T & W|) = (a + b, a) with 1 <= b <= m - k
        # and a + b <= k is one orbit.
        assert len(checks.continuation_orbits(10, 8, [])) == 15
        assert len(checks.continuation_orbits(12, 7, [])) == 25

    def test_after_the_lemma2_step(self):
        # 85 continuations after the (4, 2) step, and the 14 other root
        # shapes: the 99 certificates of the m = 10, k = 8 search.
        steps = [(mask(*range(1, 9)), mask(1, 2, 9, 10))]
        assert len(checks.continuation_orbits(10, 8, steps)) == 85

    def test_key_ignores_relabeling_within_a_kind(self):
        steps = [(mask(*range(1, 9)), mask(1, 2, 9, 10))]
        a = checks.orbit_key(10, steps, mask(1, 2, 3, 4, 5, 6, 9, 10), mask(3, 7))
        b = checks.orbit_key(10, steps, mask(1, 2, 4, 5, 6, 7, 9, 10), mask(4, 8))
        c = checks.orbit_key(10, steps, mask(1, 2, 3, 4, 5, 6, 9, 10), mask(3, 4))
        assert a == b != c

    @pytest.mark.parametrize(
        "m,k,steps",
        [
            (6, 3, []),
            (7, 4, [(0b0001111, 0b0110011)]),
            (8, 4, [(0b00001111, 0b00110011), (0b00110011, 0b11000000)]),
        ],
    )
    def test_agrees_with_canonical_continuations(self, m, k, steps):
        history = History(m, k, tuple(
            (CandidateSet(w, m), CandidateSet(t, m)) for w, t in steps
        ))
        keys = [
            checks.orbit_key(m, steps, w.mask, t.mask)
            for w, t in canonical_continuations(history)
        ]
        assert len(keys) == len(set(keys))
        assert set(keys) == checks.continuation_orbits(m, k, steps)


@pytest.mark.parametrize(
    "m,k,steps",
    [
        (6, 3, [(0b000111, 0b011001)]),
        (7, 3, [(0b0000111, 0b0011000), (0b0011001, 0b1100000)]),
        (8, 4, [(0b00001111, 0b00110011), (0b00110011, 0b11000000)]),
    ],
)
def test_rows_match_the_documented_order(m, k, steps):
    """The rebuilt rows equal pavcore's reference rows, scaled."""
    rows, _ = _build_rows(m, k, steps)
    system = checks.HistorySystem(m, k, steps)
    assert system.n_general == len(rows)
    for i, row in enumerate(rows):
        coef, rhs = system.row(i)
        expected = [0] * ((1 << m) - 1)
        for j, c in row.coeffs.items():
            expected[j] = c * system.scale
        assert list(coef) == expected
        assert rhs == row.rhs * system.scale


def test_host_speed_is_the_mean_of_probe_speeds():
    ref = speed.REFERENCE_S
    assert speed.speed_of([ref, ref]) == pytest.approx(1.0)
    # Half the time at full speed, half at a quarter: five eighths.
    assert speed.speed_of([ref, 4 * ref]) == pytest.approx(0.625)
    with pytest.raises(ValueError):
        speed.speed_of([])
