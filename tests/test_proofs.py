"""Tests for the LP families, analytic certificates, and trace search."""

import random
from fractions import Fraction

import pytest

from pavcore.elections import CandidateSet, Profile
from pavcore.exactlp import (
    Feasible,
    Infeasible,
    solve_feasibility,
    verify_farkas,
)
from pavcore.proofs import (
    DeviationShape,
    History,
    build_program3,
    canonical_continuations,
    canonical_program3_sets,
    check_proposition1,
    delta_formula,
    enumerate_histories,
    farkas_from_theorem1,
    history_system,
    history_verdict,
    inequality_scan,
    iter_shapes,
    lemma2_suite,
    min_supporter_delta,
    supporter_bound,
    verify_lemma2_structure,
    _build_rows,
    _rows_for_steps,
)

from conftest import cs


class TestDeltaFormula:
    @pytest.mark.parametrize(
        "shape,k,a,b,c,expected",
        [
            (DeviationShape(4, 2), 8, 0, 2, 1, Fraction(2)),
            (DeviationShape(4, 2), 7, 0, 2, 1, Fraction(5, 3)),
            (DeviationShape(1, 0), 7, 0, 0, 1, Fraction(7)),
        ],
    )
    def test_known_values(self, shape, k, a, b, c, expected):
        assert delta_formula(shape, k, a, b, c) == expected

    def test_bound_values(self):
        assert supporter_bound(DeviationShape(4, 2), 8) == 2
        assert supporter_bound(DeviationShape(1, 0), 7) == 6

    def test_out_of_range_rejected(self):
        shape = DeviationShape(4, 2)
        with pytest.raises(ValueError):
            delta_formula(shape, 8, 7, 0, 1)
        with pytest.raises(ValueError):
            delta_formula(shape, 8, 0, 3, 1)
        with pytest.raises(ValueError):
            delta_formula(shape, 8, 0, 0, 3)
        with pytest.raises(ValueError):
            delta_formula(DeviationShape(9, 2), 8, 0, 0, 1)

    def test_zero_a_term(self):
        # At a = 0 the decrease term vanishes even when b = 0.
        assert delta_formula(DeviationShape(2, 0), 5, 0, 0, 1) == 5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DeviationShape(0, 0)
        with pytest.raises(ValueError):
            DeviationShape(2, 3)


class TestInequalityScan:
    def test_small_k_clean(self):
        for k in range(1, 8):
            assert inequality_scan(k) == []

    def test_k8_violations_all_shape_4_2(self):
        violations = inequality_scan(8)
        assert violations
        assert {(v.shape.size, v.shape.overlap) for v in violations} == {(4, 2)}
        for v in violations:
            assert v.delta <= v.bound
            assert v.c > v.a

    def test_scan_matches_analytic_certificates(self):
        # The scan is empty for a shape at k exactly when the analytic
        # certificate for that shape verifies. Small k exhaustively here;
        # the full k <= 7 sweep runs in the acceptance suite.
        cases = [(k, shape) for k in (2, 3, 4, 5) for shape in iter_shapes(k)]
        cases += [
            (8, DeviationShape(4, 2)),
            (8, DeviationShape(4, 1)),
            (8, DeviationShape(3, 2)),
            (8, DeviationShape(5, 2)),
        ]
        for k, shape in cases:
            violating = {
                (v.shape.size, v.shape.overlap) for v in inequality_scan(k)
            }
            cert = farkas_from_theorem1(k, shape)
            system = build_program3(k, shape)
            expected = (shape.size, shape.overlap) not in violating
            assert verify_farkas(system, cert) is expected, (k, shape)


class TestProgram3:
    def test_row_layout_smallest_case(self):
        system = build_program3(2, DeviationShape(1, 0))
        assert system.n_vars == 7
        assert system.n_rows == 12
        tags = [row.tag for row in system.iter_rows()]
        assert tags[0] == ("norm_upper",)
        assert tags[1] == ("norm_lower",)
        assert tags[2] == ("swap", 1, 0, 2)
        assert tags[3] == ("swap", 1, 1, 2)
        assert tags[4] == ("deviation", 1)
        assert all(t[0] == "nonneg" for t in tags[5:])
        assert list(system.variables) == list(range(1, 8))

    def test_smallest_case_infeasible(self):
        system = build_program3(2, DeviationShape(1, 0))
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(system, verdict.certificate)

    def test_k8_shape42_feasible_with_structure(self):
        system = build_program3(8, DeviationShape(4, 2))
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Feasible)
        committee, deviation = canonical_program3_sets(8, DeviationShape(4, 2))
        profile = Profile(committee.m, dict(verdict.assignment))
        assert verify_lemma2_structure(profile, committee, deviation)

    def test_certificate_support_size(self):
        shape = DeviationShape(4, 2)
        cert = farkas_from_theorem1(7, shape)
        w_out = 7 - shape.overlap
        swap_support = sum(
            1
            for idx in cert.nonzero
            if 2 <= idx < 2 + 7 * shape.outside
        )
        assert swap_support == w_out * shape.outside
        assert 0 in cert.nonzero  # normalization
        assert (2 + 7 * shape.outside) in cert.nonzero  # deviation row

    def test_min_supporter_delta_at_boundary(self):
        assert min_supporter_delta(DeviationShape(4, 2), 8) == 2
        assert min_supporter_delta(DeviationShape(4, 2), 7) == Fraction(5, 3)


class TestLemma2Structure:
    def test_tied_pair_instance_matches(self, tied_pair_8):
        committee = cs([1, 2, 5, 6, 7, 8, 9, 10], 10)
        deviation = cs([1, 2, 3, 4], 10)
        assert verify_lemma2_structure(
            tied_pair_8.profile, committee, deviation
        )

    def test_perturbed_weights_fail(self):
        profile = Profile(
            10,
            {
                cs([1, 2, 3], 10): Fraction(26, 100),
                cs([1, 2, 4], 10): Fraction(24, 100),
                cs([5, 6, 7, 8, 9, 10], 10): Fraction(1, 2),
            },
        )
        assert not verify_lemma2_structure(
            profile, cs([1, 2, 5, 6, 7, 8, 9, 10], 10), cs([1, 2, 3, 4], 10)
        )

    def test_single_ballot_fails(self):
        profile = Profile(10, {cs([1, 2, 3], 10): 1})
        assert not verify_lemma2_structure(
            profile, cs([1, 2, 5, 6, 7, 8, 9, 10], 10), cs([1, 2, 3, 4], 10)
        )

    def test_bad_deviation_split_rejected(self):
        profile = Profile(10, {cs([1, 2, 3], 10): 1})
        with pytest.raises(ValueError):
            verify_lemma2_structure(
                profile, cs([1, 2, 5, 6, 7, 8, 9, 10], 10), cs([1, 2, 3], 10)
            )


def test_lemma2_suite_optima_are_certified():
    report = lemma2_suite()
    assert report.structure_ok
    assert report.all_optima_as_expected()
    assert len(report.zero_records) == 958
    # Every optimum carries a point and exact duals that the check accepts.
    assert report.all_certified()


class TestHistoryType:
    def test_validation(self):
        w = cs([1, 2], 4)
        t = cs([3], 4)
        History(4, 2, ((w, t),))
        with pytest.raises(ValueError):
            History(4, 2, ((cs([1], 4), t),))  # wrong committee size
        with pytest.raises(ValueError):
            History(4, 2, ((w, cs([1, 3, 4], 4)),))  # deviation too large
        with pytest.raises(ValueError):
            # second committee misses the fixed candidate c3
            History(4, 2, ((w, t), (cs([1, 2], 4), cs([4], 4))))

    def test_three_step_trace_m16(self):
        # A three-step potential trace over 16 candidates at k = 10 whose
        # fixed sets total 11, exceeding the committee size.
        h = History.from_masks(
            16,
            10,
            [
                (0b0000001111111111, 0b0000110000000001),
                (0b0001110001111111, 0b1110000000000000),
                (0b1111110000001111, 0b0000000111110000),
            ],
        )
        assert [len(t) for _, t in h.steps] == [3, 3, 5]
        assert h.total_deviation_size() == 11
        assert not check_proposition1([h], 10)

    def test_prefix(self):
        w = cs([1, 2], 4)
        t = cs([3], 4)
        h = History(4, 2, ((w, t),))
        assert h.prefix(0).steps == ()
        assert h.prefix(1) == h


class TestHistorySystem:
    def test_matches_reference_builder(self):
        rng = random.Random(8)
        for _ in range(12):
            m = rng.randint(3, 6)
            k = rng.randint(2, m)
            w1 = sum(1 << i for i in rng.sample(range(m), k))
            outside = [i for i in range(m) if not (w1 >> i) & 1]
            if not outside:
                continue
            t1 = 1 << rng.choice(outside)
            for i in rng.sample(range(m), rng.randint(0, 2)):
                t1 |= 1 << i
            if t1.bit_count() > k:
                continue
            steps = [(w1, t1)]
            ref_rows, _ = _build_rows(m, k, steps)
            fast = _rows_for_steps(m, k, steps)
            matrix, rhs, _, n_general = fast.assemble()
            assert n_general == len(ref_rows)
            for i, row in enumerate(ref_rows):
                assert rhs[i] == row.rhs
                for j in range(matrix.shape[1]):
                    assert Fraction(int(matrix[i, j]), fast.scale) == row.coeffs.get(
                        j, Fraction(0)
                    )

    def test_lemma1_shape_infeasible_at_step_one(self):
        h = History(5, 3, ((cs([1, 2, 3], 5), cs([1, 4], 5)),))
        verdict = history_verdict(h)
        assert not verdict.is_history
        assert verify_farkas(history_system(h), verdict.certificate)

    def test_program3_equals_one_step_history_system(self):
        shape = DeviationShape(2, 1)
        committee, deviation = canonical_program3_sets(3, shape)
        h = History(committee.m, 3, ((committee, deviation),))
        a = build_program3(3, shape)
        b = history_system(h)
        assert a.variables == b.variables
        assert len(a.head_rows) == len(b.head_rows)
        for ra, rb in zip(a.head_rows, rb_list := b.head_rows):
            assert ra.coeffs == rb.coeffs and ra.rhs == rb.rhs and ra.tag == rb.tag


class TestCanonicalContinuations:
    def test_first_level_m15_k13(self):
        root = History(15, 13, ())
        conts = canonical_continuations(root)
        committees = {w.mask for w, _ in conts}
        assert committees == {(1 << 13) - 1}
        # One deviation per (|T inside|, |T outside|) pair.
        pairs = [
            ((t.mask & ((1 << 13) - 1)).bit_count(), (t.mask >> 13).bit_count())
            for _, t in conts
        ]
        assert len(pairs) == len(set(pairs))
        assert all(1 <= inside + out <= 13 and out >= 1 for inside, out in pairs)
        expected = {
            (inside, out)
            for out in (1, 2)
            for inside in range(0, 13)
            if 1 <= inside + out <= 13
        }
        assert set(pairs) == expected

    def test_second_level_paper_example(self):
        w1 = cs(list(range(1, 14)), 15)
        t1 = cs([1, 14, 15], 15)
        h = History(15, 13, ((w1, t1),))
        conts = canonical_continuations(h)
        w2 = cs(list(range(1, 12)) + [14, 15], 15)
        t2 = cs([2, 12, 13], 15)
        assert (w2, t2) in conts

    def test_m_equals_k_has_no_continuations(self):
        assert canonical_continuations(History(4, 4, ())) == []

    def test_overfull_fixed_set_stops(self):
        w = cs([1, 2], 5)
        h = History(
            5,
            2,
            (
                (w, cs([1, 3], 5)),
                (cs([1, 3], 5), cs([2, 4], 5)),
            ),
        )
        # fixed = {c1, c2, c3, c4} has 4 > k members: nothing can continue.
        assert canonical_continuations(h) == []


class TestEnumerateHistories:
    def test_m_equals_k(self):
        res = enumerate_histories(5, 5)
        assert [h.steps for h in res.histories] == [()]
        assert res.certificates == {}
        assert res.complete

    def test_small_k_only_empty_history(self):
        # No deviation can succeed against a swap-optimal committee when
        # k <= 7, so only the empty history survives at every small m.
        res = enumerate_histories(6, 3)
        assert len(res.histories) == 1
        assert res.complete
        assert check_proposition1(res.histories, 3)
        # Certificate completeness: every canonical continuation of the
        # empty history carries a verified certificate.
        root = res.histories[0]
        conts = canonical_continuations(root)
        assert len(res.certificates) == len(conts)
        for committee, deviation in conts:
            child = root.extended(committee, deviation)
            assert child in res.certificates

    def test_certificates_verify_against_materialized_systems(self):
        res = enumerate_histories(5, 4)
        for hist, cert in res.certificates.items():
            assert verify_farkas(history_system(hist), cert)

    def test_witnesses_realize_their_histories(self):
        res = enumerate_histories(9, 8)
        for hist in res.histories:
            if not hist.steps:
                continue
            verdict = history_verdict(hist)
            assert verdict.is_history

    def test_budget_flagging(self):
        res = enumerate_histories(10, 8, budget_seconds=0.0)
        assert not res.complete

    def test_threads_match_single_process(self):
        seq = enumerate_histories(9, 8)
        par = enumerate_histories(9, 8, threads=2)
        assert [h.mask_steps() for h in seq.histories] == [
            h.mask_steps() for h in par.histories
        ]
        assert {
            h.mask_steps(): c.nonzero for h, c in seq.certificates.items()
        } == {h.mask_steps(): c.nonzero for h, c in par.certificates.items()}
