"""Tests for the LP families, analytic certificates, and trace search."""

import dataclasses
import functools
import itertools
import math
import multiprocessing
import os
import pickle
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavcore import checker, cli, exactlp, proofs
from pavcore.elections import (
    CandidateSet,
    EnumerationLimitError,
    Profile,
)
from pavcore.checker import FarkasCertificate, Row, _build_rows, _supporting, verify_farkas
from pavcore.exactlp import Feasible, Infeasible, _Problem, solve_feasibility
from pavcore.proofs import (
    DeviationShape,
    History,
    HistoryVerdict,
    Runner,
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
    program3_history,
    supporter_bound,
    verify_lemma2_structure,
    _Quotient,
    _verify_certificate_fast,
    _witness_realizes,
)

from conftest import cs, score_swap_delta
from tableau_oracle import ray_certificate


def multi_step_histories(count=12):
    """Valid 2- and 3-step histories: swap rows of later steps skip the
    fixed candidates and the ballots that supported earlier steps."""
    rng = random.Random(9)
    found = []
    while len(found) < count:
        m = rng.randint(4, 6)
        k = rng.randint(2, m - 1)
        steps, fixed = [], 0
        for _ in range(rng.randint(2, 3)):
            free = [i for i in range(m) if not (fixed >> i) & 1]
            need = k - fixed.bit_count()
            if need < 0 or need > len(free):
                break
            w = fixed | sum(1 << i for i in rng.sample(free, need))
            t = sum(1 << i for i in rng.sample(range(m), rng.randint(1, k)))
            if not t & ~w:
                continue
            steps.append((w, t))
            fixed |= t
        if len(steps) >= 2:
            found.append((m, k, steps))
    return found


def k8_children():
    """The two-step children of the k = 8 (4, 2) history at m = 10, the
    smallest m it fits: L = lcm(1..9) = 2520, and the ballots that support
    the first deviation drop out of the second step's swap rows."""
    h = program3_history(8, DeviationShape(4, 2))
    return [h.child(*step) for step in canonical_continuations(h)]


def _swap_coefficient(mask, w_mask, x, y):
    has_x = (mask >> x) & 1
    has_y = (mask >> y) & 1
    if has_y and not has_x:
        return Fraction(1, (mask & w_mask).bit_count() + 1)
    if has_x and not has_y:
        return Fraction(-1, (mask & w_mask).bit_count())
    return Fraction(0)


def per_mask_build_rows(m, k, steps):
    """The reference for `_build_rows`: every coefficient of every row is
    worked out on its own, one `Fraction` per ballot."""
    n = (1 << m) - 1
    rows = [
        Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("norm_upper",)),
        Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("norm_lower",)),
    ]
    swap_meta = []
    active = [True] * (n + 1)  # indexed by mask
    fixed = 0
    for t, (w_mask, t_mask) in enumerate(steps, start=1):
        for x in range(m):
            if not (w_mask & ~fixed) >> x & 1:
                continue
            for y in range(m):
                if w_mask >> y & 1:
                    continue
                coeffs = {}
                for mask in range(1, n + 1):
                    if not active[mask]:
                        continue
                    coef = _swap_coefficient(mask, w_mask, x, y)
                    if coef:
                        coeffs[mask - 1] = coef
                rows.append(Row(coeffs, Fraction(0), ("swap", t, x, y)))
                swap_meta.append((t, x, y))
        fixed |= t_mask
        for mask in range(1, n + 1):
            if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
                active[mask] = False
    for t, (w_mask, t_mask) in enumerate(steps, start=1):
        coeffs = {}
        for mask in range(1, n + 1):
            if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
                coeffs[mask - 1] = Fraction(-1)
        rows.append(Row(coeffs, Fraction(-t_mask.bit_count(), k), ("deviation", t)))
    return rows, swap_meta


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
            rows = history_system(program3_history(k, shape))
            expected = (shape.size, shape.overlap) not in violating
            assert verify_farkas(rows, cert) is expected, (k, shape)


class TestProgram3:
    def test_row_layout_smallest_case(self):
        h = program3_history(2, DeviationShape(1, 0))
        rows = history_system(h)
        assert [row.tag for row in rows] == [
            ("norm_upper",),
            ("norm_lower",),
            ("swap", 1, 0, 2),
            ("swap", 1, 1, 2),
            ("deviation", 1),
        ]
        assert {j for row in rows for j in row.coeffs} <= set(range(7))
        assert h.problem().n_vars == 7

    def test_history_cap(self):
        # k + |T \ W| = 17 candidates, one past MAX_HISTORY_M.
        with pytest.raises(EnumerationLimitError):
            history_verdict(program3_history(9, DeviationShape(8, 0)))

    def test_smallest_case_infeasible(self):
        h = program3_history(2, DeviationShape(1, 0))
        verdict = solve_feasibility(h.problem())
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(history_system(h), verdict.certificate)

    def test_k8_shape42_feasible_with_structure(self):
        h = program3_history(8, DeviationShape(4, 2))
        verdict = solve_feasibility(h.problem())
        assert isinstance(verdict, Feasible)
        committee, deviation = canonical_program3_sets(8, DeviationShape(4, 2))
        profile = Profile(committee.m, {j + 1: w for j, w in verdict.assignment.items()})
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

    def test_unequal_drops_fail(self):
        # The quarters and the disjoint half hold, but removing c10 lowers
        # the score by 1/24 only.
        profile = Profile(
            10,
            {
                cs([1, 2, 3], 10): Fraction(1, 4),
                cs([1, 2, 4], 10): Fraction(1, 4),
                cs([5, 6, 7, 8, 9, 10], 10): Fraction(1, 4),
                cs([5, 6, 7, 8, 9], 10): Fraction(1, 4),
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
    # One aggregate bound covers the 958 other deviation-meeting ballots.
    assert len(report.aggregate_zero_record.objective) == 958
    # Every bound carries exact multipliers that the check accepts, and the
    # witness attains it.
    assert report.all_certified()


def lemma2_records(report):
    return [*report.quarter_records, report.aggregate_zero_record, *report.drop_records]


def test_lemma2_suite_is_the_same_from_the_slack_start(monkeypatch):
    # The float pass runs on the quotient of the (4, 2) history, which is
    # feasible, and on each of the 17 bounds' systems, where it proposes the
    # refutation. From the slack start every bound certifies too.
    float_passes = []
    float_pivots = exactlp._float_pivots
    monkeypatch.setattr(
        exactlp, "_float_pivots", lambda problem: float_passes.append(1) or float_pivots(problem)
    )
    reports = [lemma2_suite()]
    assert len(float_passes) == 18
    monkeypatch.setattr(exactlp, "_float_pivots", lambda problem: None)
    reports.append(lemma2_suite())
    optima = [[(r.label, r.sense, r.optimum) for r in lemma2_records(report)] for report in reports]
    assert optima[0] == optima[1] and len(optima[0]) == 17
    for report in reports:
        assert report.structure_ok and report.all_optima_as_expected()
        assert report.all_certified()


@pytest.fixture(scope="module")
def lemma2_report():
    return lemma2_suite()


def test_lemma2_bounds_hold_on_the_checker_rows(lemma2_report):
    # Each record's multipliers, summed over the checker's rows of the
    # (4, 2) history in integers: A^T y >= mu sign c on every column and
    # y . b <= mu sign optimum.
    history = program3_history(8, DeviationShape(4, 2))
    rows = history_system(history)
    assert [row.tag for row in rows] == history.tags()
    n_cols = (1 << history.m) - 1
    for record in lemma2_records(lemma2_report):
        sign = 1 if record.sense == "max" else -1
        y, mu = record.multipliers, record.scale
        assert len(y) == len(rows) and min(y) >= 0 and mu > 0, record.label
        used = [i for i, v in enumerate(y) if v]
        D = math.lcm(
            record.optimum.denominator,
            *(Fraction(c).denominator for c in record.objective.values()),
            *(rows[i].den * rows[i].rhs.denominator for i in used),
        )
        sums = np.zeros(n_cols, dtype=object)
        for i in used:
            sums[rows[i].cols] += y[i] * (D // rows[i].den) * rows[i].nums.astype(object)
        costs = np.zeros(n_cols, dtype=object)
        for j, c in record.objective.items():
            costs[j] = int(mu * sign * c * D)
        assert (sums >= costs).all(), record.label
        yb = sum(y[i] * int(rows[i].rhs * D) for i in used)
        assert yb <= int(mu * sign * record.optimum * D), record.label


def with_record(report, index, **changes):
    """``report`` with its record ``index``, in `lemma2_records` order,
    changed."""
    records = lemma2_records(report)
    records[index] = dataclasses.replace(records[index], **changes)
    return dataclasses.replace(
        report,
        quarter_records=tuple(records[:4]),
        aggregate_zero_record=records[4],
        drop_records=tuple(records[5:]),
    )


def test_lemma2_mutants_fail(lemma2_report):
    rows = history_system(program3_history(8, DeviationShape(4, 2)))
    records = lemma2_records(lemma2_report)
    mutants = []
    for index, record in enumerate(records):
        # Scale 0 proves nothing; on the aggregate record only this check
        # catches it, since y . h = 0 and A^T y >= 0 there.
        mutants.append(with_record(lemma2_report, index, scale=0))
        y = list(record.multipliers)
        first = next(i for i, v in enumerate(y) if v)
        y[first] = -y[first]
        mutants.append(with_record(lemma2_report, index, multipliers=tuple(y)))
        if record.sense == "max":
            # y . h = mu sign optimum for every bound at its optimum, so a
            # lower claim breaks y . h <= mu sign optimum.
            lower = record.optimum - Fraction(1, 12)
            assert not dataclasses.replace(record, optimum=lower).verify(rows)
            mutants.append(with_record(lemma2_report, index, optimum=lower))
    assert len(mutants) == 17 + 17 + 9
    assert not any(mutant.all_certified() for mutant in mutants)
    # A max quarter bound raised to 1/3 still holds, but the witness does
    # not attain it.
    raised = dataclasses.replace(records[0], optimum=Fraction(1, 3))
    assert records[0].sense == "max" and raised.verify(rows)
    assert not with_record(lemma2_report, 0, optimum=Fraction(1, 3)).all_certified()


def test_a_bound_certified_on_mutant_solver_rows_is_refused():
    # The (4, 2) system with its deviation row tightened from -1/2 to
    # -9/16 has no solution, so the solver certifies a bound on it that
    # the history's own rows break: the witness has weight 1/4 on abx.
    history = program3_history(8, DeviationShape(4, 2))
    problem = history.problem()
    rhs = problem.rhs[:-1] + [Fraction(-9, 16)]
    tight = _Problem(problem.matrix, problem.scales, rhs, problem.tags)
    assert problem.tags[-1] == ("deviation", 1) and problem.rhs[-1] == Fraction(-1, 2)
    assert isinstance(solve_feasibility(tight), Infeasible)
    abx = (1 << 0 | 1 << 1 | 1 << 8) - 1
    record = proofs._certified_bound(tight, {abx: Fraction(1)}, "max", Fraction(1, 5), "abx")
    assert not record.verify(history_system(history))


def test_lemma2_suite_raises_on_a_bound_the_checker_refuses(monkeypatch):
    # Scale 0 makes every record's certificate prove nothing.
    certify = proofs._certified_bound
    monkeypatch.setattr(
        proofs, "_certified_bound", lambda *args: dataclasses.replace(certify(*args), scale=0)
    )
    with pytest.raises(RuntimeError, match="bound certificate failed"):
        lemma2_suite()


def test_lemma2_bounds_past_the_optimum_raise(lemma2_report):
    problem = program3_history(8, DeviationShape(4, 2)).problem()
    for record in lemma2_records(lemma2_report):
        sign = 1 if record.sense == "max" else -1
        tighter = record.optimum - sign * Fraction(1, 10**6)
        with pytest.raises(RuntimeError, match="does not hold"):
            proofs._certified_bound(problem, record.objective, record.sense, tighter, record.label)


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
        assert History(4, 2, h.steps[:0]).steps == ()
        assert History(4, 2, h.steps[:1]) == h


class TestHistoryChild:
    def test_child_extends_the_masks_by_one_step(self):
        for m, k, steps in multi_step_histories():
            parent = History.from_masks(m, k, steps[:-1])
            w, t = steps[-1]
            child = parent.child(CandidateSet(w, m), CandidateSet(t, m))
            assert child == History.from_masks(m, k, parent.mask_steps() + ((w, t),))
            assert child.steps[:-1] == parent.steps

    def test_an_invalid_step_raises_at_child(self):
        h = History(4, 2, ((cs([1, 2], 4), cs([3], 4)),))
        with pytest.raises(ValueError):
            h.child(cs([1, 2], 4), cs([4], 4))  # drops the fixed candidate c3
        with pytest.raises(ValueError):
            h.child(cs([1, 2, 3], 4), cs([4], 4))  # committee of size 3
        with pytest.raises(ValueError):
            h.child(cs([1, 3], 5), cs([4], 5))  # another universe

    def test_child_survives_pickle(self):
        for child in k8_children()[::6]:
            again = pickle.loads(pickle.dumps(child))
            assert again == child and hash(again) == hash(child)


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
            self.assert_rows_match(m, k, [(w1, t1)])

    def test_matches_reference_builder_over_several_steps(self):
        for m, k, steps in multi_step_histories():
            self.assert_rows_match(m, k, steps)
            # k <= 5 here, so no history gets past its first step.
            h = History.from_masks(m, k, steps)
            verdict = history_verdict(h)
            assert verdict.witness is None
            assert verify_farkas(history_system(h), verdict.certificate)
        # Two-step children of the k = 8 (4, 2) history, over m = 10.
        for h in k8_children()[::28]:
            self.assert_rows_match(h.m, h.k, h.mask_steps())

    @pytest.mark.parametrize(
        "h",
        [History.from_masks(*case) for case in multi_step_histories()]
        + [program3_history(k, s) for k in range(1, 6) for s in iter_shapes(k)]
        + k8_children()[::6],
    )
    def test_build_rows_equals_the_per_mask_builder(self, h):
        args = (h.m, h.k, h.mask_steps())
        rows, swap_meta = _build_rows(*args)
        ref_rows, ref_meta = per_mask_build_rows(*args)
        assert swap_meta == ref_meta
        assert rows == ref_rows

    def test_full_system_is_held_once_while_built(self):
        # The k = 8 (8, 0) system: m = 16, 67 rows over 65535 ballots, the
        # largest that program3 builds. Its build may hold little more than
        # the one matrix.
        h = program3_history(8, DeviationShape(8, 0))
        tracemalloc.start()
        try:
            problem = h.problem()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problem.matrix.shape == (67, 65535)
        assert peak < 2.5 * problem.matrix.nbytes

    def test_reference_rows_are_held_once_while_built(self):
        # The same (8, 0) system from the checker's builder, every row read
        # (a row is made when it is read): one int64 column and one int64
        # numerator per nonzero coefficient, and the build may hold little
        # more than those arrays.
        h = program3_history(8, DeviationShape(8, 0))
        checker.clear_row_caches()
        tracemalloc.start()
        try:
            rows = list(_build_rows(h.m, h.k, h.mask_steps())[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 67
        entries = sum(row.cols.size for row in rows)
        held = sum(row.cols.nbytes + row.nums.nbytes for row in rows)
        assert held == 16 * entries
        assert peak < 1.5 * held

    @staticmethod
    def assert_rows_match(m, k, steps):
        ref_rows, _ = _build_rows(m, k, steps)
        scaled = History.from_masks(m, k, steps).problem()
        assert scaled.tags == [row.tag for row in ref_rows]
        assert scaled.n_rows == len(ref_rows)
        for i, row in enumerate(ref_rows):
            assert scaled.rhs[i] == row.rhs
            for j in range(scaled.n_vars):
                assert Fraction(
                    int(scaled.matrix[i, j]), scaled.scales[i]
                ) == row.coeffs.get(j, Fraction(0))

    def test_lemma1_shape_infeasible_at_step_one(self):
        h = History(5, 3, ((cs([1, 2, 3], 5), cs([1, 4], 5)),))
        verdict = history_verdict(h)
        assert verdict.witness is None
        assert verify_farkas(history_system(h), verdict.certificate)

    def test_deviation_inside_the_committee_is_refuted(self):
        # No ballot strictly prefers T ⊆ W to W: not a Lemma 1 shape, so
        # the LP refutes it.
        h = History(5, 3, ((cs([1, 2, 3], 5), cs([1, 2], 5)),))
        verdict = history_verdict(h)
        assert verdict.witness is None
        assert verify_farkas(history_system(h), verdict.certificate)

    def test_asymmetric_history_solves_through_the_quotient(self):
        # Program 3 at k = 2, shape (2, 1): W = {1, 2}, T = {1, 3} leave no
        # two candidates interchangeable, so the quotient is the full system.
        h = program3_history(2, DeviationShape(2, 1))
        assert _Quotient(h.m, h.k, h.mask_steps()).types.shape[0] == (1 << h.m) - 1
        verdict = history_verdict(h)
        assert verdict.witness is None
        assert verify_farkas(history_system(h), verdict.certificate)

    def test_quotient_types_follow_product_order(self):
        # The type grid holds every count vector but the empty one, in
        # itertools.product order, so quotient column j is the same type.
        for m, k, steps in multi_step_histories():
            quotient = _Quotient(m, k, steps)
            grid = itertools.product(*(range(s + 1) for s in quotient.sizes))
            assert quotient.types.dtype == np.int64
            assert quotient.types.tolist() == [list(t) for t in grid][1:]

    def test_program3_equals_one_step_history_system(self):
        shape = DeviationShape(2, 1)
        committee, deviation = canonical_program3_sets(3, shape)
        h = History(committee.m, 3, ((committee, deviation),))
        assert program3_history(3, shape) == h


def root_continuations(m, k):
    """The children of the empty history: one per canonical continuation."""
    root = History(m, k, ())
    return [root.child(*step) for step in canonical_continuations(root)]


def row_selections(n_rows, seed):
    """Row selections of a system of ``n_rows`` rows: none, each end, a
    seeded random third and half, and all."""
    rng = random.Random(seed)
    everything = list(range(n_rows))
    return [
        [],
        [0],
        [n_rows - 1],
        sorted(rng.sample(everything, n_rows // 3)),
        sorted(rng.sample(everything, n_rows // 2)),
        everything,
    ]


SELECTION_HISTORIES = (
    [History.from_masks(*case) for case in multi_step_histories()]
    + root_continuations(10, 8)
    + [program3_history(k, s) for k in range(1, 5) for s in iter_shapes(k)]
)


class TestUsedRows:
    """A certificate is checked on the rows it uses: both row builders
    build a selection of rows that equals the same rows of the full build."""

    @pytest.mark.parametrize("h", SELECTION_HISTORIES)
    def test_selected_rows_equal_the_full_build(self, h):
        full = h.problem()
        assert h.tags() == full.tags
        ref_rows, ref_meta = _build_rows(h.m, h.k, h.mask_steps())
        per_mask, _ = per_mask_build_rows(h.m, h.k, h.mask_steps())
        assert ref_rows == per_mask
        selections = row_selections(full.n_rows, repr(h.mask_steps()))
        verdict = history_verdict(h)
        if verdict.certificate is not None:
            selections.append(sorted(verdict.certificate.nonzero))
        for rows in selections:
            built, swap_meta = _build_rows(h.m, h.k, h.mask_steps(), rows)
            assert swap_meta == ref_meta and len(built) == len(ref_rows)
            for r, row in enumerate(built):
                assert row == (ref_rows[r] if r in rows else None), (rows, r)

    @pytest.mark.parametrize("path", ["analytic", "lift"])
    @pytest.mark.parametrize(
        "corrupt", ["negate", "zero_norm_upper", "zero_deviations", "inflate_deviation", "extend"]
    )
    def test_a_corrupted_certificate_raises(self, monkeypatch, path, corrupt):
        # Each corruption changes the multiplier of a row the certificate
        # uses, or the multiplier count. Without the upper normalization
        # row a ballot that only loses in the swap rows prices negative;
        # without the deviation rows only the y.b test fails.
        if path == "analytic":
            h, name = program3_history(4, DeviationShape(2, 0)), "_analytic_step1_certificate"
            original, owner = proofs._analytic_step1_certificate, proofs
        else:
            h, name = History.from_masks(*multi_step_histories()[0]), "lift_certificate"
            original, owner = proofs._Quotient.lift_certificate, proofs._Quotient
        tags = h.tags()

        def corrupted(*args):
            good = original(*args)
            y = {i: good.multiplier(i) for i in range(good.n_rows)}
            deviation = next(i for i in sorted(good.nonzero) if tags[i][0] == "deviation")
            if corrupt == "negate":
                y[deviation] = -y[deviation]
            elif corrupt == "zero_norm_upper":
                assert y[0] > 0
                y[0] = 0
            elif corrupt == "zero_deviations":
                y.update((i, 0) for i in y if tags[i][0] == "deviation")
            elif corrupt == "inflate_deviation":
                y[deviation] *= 10**9
            else:
                y[good.n_rows] = 0
            return FarkasCertificate.from_list([y[i] for i in sorted(y)])

        assert history_verdict(h).certificate is not None
        monkeypatch.setattr(owner, name, corrupted)
        with pytest.raises(RuntimeError, match="certificate failed exact verification"):
            history_verdict(h)

    def test_a_wrong_solver_row_is_caught_by_the_checker(self, monkeypatch):
        # The solver's builder with every swap row stripped of its losses:
        # the quotient then refutes the feasible k = 8 (4, 2) system, and
        # only a check on rows from another builder sees that the lifted
        # certificate is wrong.
        build = proofs._type_rows

        def gains_only(*args):
            problem = build(*args)
            matrix = problem.matrix.copy()
            for i, tag in enumerate(problem.tags):
                if tag[0] == "swap":
                    matrix[i] = np.maximum(matrix[i], 0)
            return _Problem(matrix, problem.scales, problem.rhs, problem.tags)

        monkeypatch.setattr(proofs, "_type_rows", gains_only)
        with pytest.raises(RuntimeError, match="certificate failed exact verification"):
            history_verdict(program3_history(8, DeviationShape(4, 2)))

    def test_the_check_needs_exactly_the_used_rows(self):
        # The checker's test, on the reference rows that the certificate
        # uses: every change to which rows it uses, or how many rows it
        # has, fails.
        h = History.from_masks(*multi_step_histories()[0])
        certificate = history_verdict(h).certificate
        assert _verify_certificate_fast(h, certificate)
        y, n_rows = dict(certificate.nonzero), certificate.n_rows
        used, last = sorted(y), n_rows - 1
        unused = next(r for r in range(n_rows) if r not in y)
        truncated = FarkasCertificate(last, {r: v for r, v in y.items() if r < last})
        moved = {**y, unused: y[used[-1]]}
        del moved[used[-1]]
        bad = [truncated, FarkasCertificate(n_rows + 1, y), FarkasCertificate(n_rows, moved)]
        # Without the upper normalization row a ballot that only loses in
        # the swap rows prices negative; without the deviation rows y.b >= 0.
        assert 0 in y
        bad.append(FarkasCertificate(n_rows, {**y, 0: 0}))
        deviations = [r for r, tag in enumerate(h.tags()) if tag[0] == "deviation"]
        bad.append(FarkasCertificate(n_rows, {r: v for r, v in y.items() if r not in deviations}))
        for wrong in bad:
            assert not _verify_certificate_fast(h, wrong), wrong

    def test_deciding_builds_only_the_used_rows(self):
        # Both are Theorem 1 histories at k = 8 over m = 16 candidates, whose
        # full systems have 67 rows over 65535 ballots. The check sums the
        # certificate over the step's swap block, 64 rows of int16, which
        # is under a quarter of one full int64 matrix, and makes no `Row`:
        # the (8, 0) shape's certificate uses 66 rows, and with one
        # outsider it uses 10; each check starts with empty caches.
        full_matrix = 67 * 65535 * 8
        cases = [
            (program3_history(8, DeviationShape(8, 0)), 66, 0.75),
            (History.from_masks(16, 8, [(0xFF, 1 << 8)]), 10, 0.5),
        ]
        for h, n_used, bound in cases:
            checker.clear_row_caches()
            tracemalloc.start()
            try:
                verdict = history_verdict(h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert verdict.certificate.n_rows == 67
            assert len(verdict.certificate.nonzero) == n_used
            assert peak < bound * full_matrix, (h.mask_steps(), peak / full_matrix)


def siblings_of(h):
    """The first and the last canonical continuation of the parent of
    ``h``, and ``h``."""
    parent = History(h.m, h.k, h.steps[:-1])
    steps = canonical_continuations(parent)
    return [parent.child(*step) for step in steps[:1] + steps[-1:]] + [h]


def other_first_deviation(h):
    """``h`` with its first T cut by its lowest member: the same W_1 and
    later steps, another T_1, so every row after step 1 may differ."""
    (w1, t1), *rest = h.mask_steps()
    return History.from_masks(h.m, h.k, [(w1, t1 & (t1 - 1))] + rest)


def other_last_deviation(h):
    """The masks of ``h`` with its last T changed by the lowest candidate
    outside W_last: the same earlier steps and W_last, so the same swap rows
    in the last step, but another deviation row."""
    *before, (w, t) = h.mask_steps()
    outside = ((1 << h.m) - 1) & ~w
    return before + [(w, t ^ (outside & -outside))]


def grown_first_deviation(h):
    """The masks of ``h`` with its first T grown by the lowest member of
    W_2 outside it: the same W in every step, but another T_1, so every
    step after the first has other active ballots or fixed candidates."""
    (w1, t1), (w2, t2), *rest = h.mask_steps()
    extra = w2 & ~t1
    return [(w1, t1 | (extra & -extra)), (w2, t2)] + rest


#: Multi-step histories that a pair with a different T_1 can be made of,
#: and the two-step children of the k = 8 (4, 2) history, which share one
#: parent.
CACHE_HISTORIES = [
    h
    for h in (History.from_masks(*case) for case in multi_step_histories())
    if h.steps[0][1].mask.bit_count() > 1
] + k8_children()[::28]


def cold(build):
    checker.clear_row_caches()
    return build()


class TestRowCaches:
    """The reference builder keeps the block of each step depth, keyed by
    what its swap rows depend on, (m, k, the steps before it, its W), and
    the arrays of the last m. A row built with what another history left
    in the caches (warm) equals the same row built with empty caches
    (cold)."""

    @pytest.mark.parametrize("h", CACHE_HISTORIES, ids=lambda h: repr(h.mask_steps()))
    def test_warm_reference_rows_equal_cold_ones(self, h):
        args = (h.m, h.k, h.mask_steps())
        ref_rows, ref_meta = per_mask_build_rows(*args)
        selections = row_selections(len(ref_rows), repr(args)) + [None]
        # Fillers: the siblings, a history with another T_1, one with
        # another T_last (which shares the last step's block), one with the
        # same W_last after another T_1 (which must not), the same masks at
        # another k, and the history itself.
        fillers = [s.mask_steps() for s in siblings_of(h)]
        fillers.append(other_first_deviation(h).mask_steps())
        fillers += [other_last_deviation(h), grown_first_deviation(h)]
        for rows in selections:
            want = [r if rows is None or i in rows else None for i, r in enumerate(ref_rows)]
            assert cold(lambda: _build_rows(*args, rows)) == (want, ref_meta)
            for steps in fillers:
                checker.clear_row_caches()
                _build_rows(h.m, h.k, steps)
                assert _build_rows(*args, rows) == (want, ref_meta), (steps, rows)
            for k in (h.k - 1, h.k + 1):
                checker.clear_row_caches()
                _build_rows(h.m, k, h.mask_steps())
                assert _build_rows(*args, rows) == (want, ref_meta), (k, rows)
        # The other T_1 is read right after the history fills the caches.
        other = (h.m, h.k, other_first_deviation(h).mask_steps())
        _build_rows(*args)
        assert _build_rows(*other) == per_mask_build_rows(*other)
        # The last step's swap rows are the very rows built for another
        # T_last, and none of those built after another T_1.
        last = len(h.steps)
        for steps, shared in ((other_last_deviation(h), True), (grown_first_deviation(h), False)):
            checker.clear_row_caches()
            filled = {row.tag: row for row in _build_rows(h.m, h.k, steps)[0]}
            for row in _build_rows(*args)[0]:
                if row.tag[:2] == ("swap", last):
                    assert (filled.get(row.tag) is row) == shared, (steps, row.tag)

    def test_a_search_starts_with_empty_caches(self, monkeypatch):
        # A search reuses no rows of an earlier one: its first certificate
        # is checked on rows built with empty caches. It builds rows once
        # per certificate, 99, and once for the witness of the (4, 2)
        # history.
        seen = []
        build = proofs._build_rows

        def spy(*args):
            seen.append(dict(checker._ROW_CACHES))
            return build(*args)

        monkeypatch.setattr(proofs, "_build_rows", spy)
        for _ in range(2):
            seen.clear()
            enumerate_histories(10, 8)
            assert seen[0] == {} and len(seen) == 99 + 1
            assert checker._ROW_CACHES


def fraction_lift_certificate(quotient, certificate, tags):
    """The lift of a quotient certificate as a `Fraction` ray over the full
    rows, each row of an orbit getting the orbit's multiplier over the
    orbit's size, scaled to integers by the lcm of its denominators: the
    oracle for the integer `_Quotient.lift_certificate`."""
    index = {tag: i for i, tag in enumerate(tags)}
    ray = [Fraction(0)] * len(tags)
    for row, value in certificate.nonzero.items():
        tag = quotient.problem().tags[row]
        if tag[0] == "swap":
            _, t, ci, cj = tag
            share = Fraction(value, quotient.sizes[ci] * quotient.sizes[cj])
            orbit = [
                ("swap", t, x, y) for x in quotient.classes[ci] for y in quotient.classes[cj]
            ]
        else:
            share, orbit = Fraction(value), [tag]
        for full_tag in orbit:
            ray[index[full_tag]] += share
    return ray_certificate(ray)


LIFT_HISTORIES = (
    [History.from_masks(*case) for case in multi_step_histories()]
    + [program3_history(8, DeviationShape(4, 2)), program3_history(6, DeviationShape(3, 1))]
    + k8_children()[::40]
)


@functools.cache
def lift_quotient(i):
    h = LIFT_HISTORIES[i]
    return _Quotient(h.m, h.k, h.mask_steps()), h.tags()


@st.composite
def quotient_multipliers(draw):
    """A quotient of `LIFT_HISTORIES` and nonzero multipliers on some of
    its rows, each a small integer times a divisor of its orbit's size."""
    quotient, tags = lift_quotient(draw(st.integers(0, len(LIFT_HISTORIES) - 1)))
    nonzero = {}
    for row in draw(st.lists(st.integers(0, quotient.problem().n_rows - 1), unique=True)):
        tag = quotient.problem().tags[row]
        n = quotient.sizes[tag[2]] * quotient.sizes[tag[3]] if tag[0] == "swap" else 1
        divisor = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        nonzero[row] = draw(st.integers(1, 40)) * divisor
    return quotient, FarkasCertificate(quotient.problem().n_rows, nonzero), tags


class TestIntegerLift:
    @staticmethod
    def assert_lift_is_the_scaled_ray(quotient, certificate, tags):
        lifted = quotient.lift_certificate(certificate, tags)
        expected = fraction_lift_certificate(quotient, certificate, tags)
        assert lifted.n_rows == expected.n_rows == len(tags)
        # The same multipliers, in the same (row) order.
        assert list(lifted.nonzero.items()) == list(expected.nonzero.items())

    def test_every_quotient_certificate_of_the_searches(self, monkeypatch):
        lifts = []
        original = _Quotient.lift_certificate

        def logged(self, certificate, tags):
            lifts.append((self, certificate, tags))
            return original(self, certificate, tags)

        monkeypatch.setattr(_Quotient, "lift_certificate", logged)
        # Every continuation of the (10, 8) search, each through its own LP.
        root = History(10, 8, ())
        for h in [root.child(*step) for step in canonical_continuations(root)] + k8_children():
            history_verdict(h)
        searched = len(lifts)
        for case in multi_step_histories():
            history_verdict(History.from_masks(*case))
        monkeypatch.undo()
        assert searched > 80 and len(lifts) > searched
        for args in lifts:
            self.assert_lift_is_the_scaled_ray(*args)

    @settings(max_examples=300, deadline=None)
    @given(quotient_multipliers())
    def test_multipliers_that_share_factors_with_their_orbit_sizes(self, case):
        self.assert_lift_is_the_scaled_ray(*case)


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


class TestWitnessRealizes:
    # The re-check tests only the two election conditions of each step, not
    # the shape of the steps (`History` does that), so committees smaller
    # than k keep the profile small. {c2, c4} backs T1 = {c2} and leaves
    # the active ballots; without it, no swap of c1 or c3 gains at step 2.
    BACKER, OTHER = cs([2, 4], 5).mask, cs([1], 5).mask
    W2, T2 = cs([1, 2, 3], 5).mask, cs([2, 4], 5).mask
    STEPS = ((cs([1], 5).mask, cs([2], 5).mask), (W2, T2))
    WITNESS = {BACKER: Fraction(1, 3), OTHER: Fraction(2, 3)}

    def test_accepts_a_swap_only_deactivated_ballots_want(self):
        assert _witness_realizes(self.WITNESS, 5, 6, self.STEPS)
        profile = Profile(5, self.WITNESS)
        # Over every ballot, c3 -> c4 gains 1/3 * 1/2 for {c2, c4}.
        delta = score_swap_delta(profile, CandidateSet(self.W2, 5), 2, 3)
        assert delta == Fraction(1, 6)

    def test_rejects_an_improving_swap_among_active_ballots(self):
        # The same second step taken first: {c2, c4} is still active.
        assert not _witness_realizes(self.WITNESS, 5, 6, [(self.W2, self.T2)])

    def test_rejects_an_under_supported_deviation(self):
        # At k = 3, T2 needs 2/3 and has the 1/3 of {c2, c4}.
        assert _witness_realizes(self.WITNESS, 5, 3, self.STEPS[:1])
        assert not _witness_realizes(self.WITNESS, 5, 3, self.STEPS)

    @pytest.mark.parametrize("other", [Fraction(1, 2), Fraction(5, 6)])
    def test_rejects_weights_that_do_not_sum_to_one(self, other):
        witness = {self.BACKER: Fraction(1, 3), self.OTHER: other}
        assert not _witness_realizes(witness, 5, 6, self.STEPS)

    def test_rejects_a_negative_weight(self):
        # Summing to 1, and passing both steps if -1/6 were a weight.
        witness = {
            self.BACKER: Fraction(1, 3),
            self.OTHER: Fraction(5, 6),
            cs([5], 5).mask: Fraction(-1, 6),
        }
        assert not _witness_realizes(witness, 5, 6, self.STEPS)


class TestWitnessCheck:
    """The checker accepts a witness as a point of every reference row of
    its history (`_verify_witness_fast`); the solver's full system takes
    no part."""

    def test_the_verdict_builds_no_full_solver_system(self, monkeypatch):
        def refused(history):
            raise AssertionError("History.problem was called")

        monkeypatch.setattr(History, "problem", refused)
        assert history_verdict(program3_history(8, DeviationShape(4, 2))).witness is not None

    def test_a_witness_of_mutant_solver_rows_is_refused(self, monkeypatch):
        # Every deviation row of the solver's rows asks for half the
        # support: the (4, 2) history at k = 7 becomes feasible there, and
        # only the checker's rows refuse its witness.
        build = proofs._type_rows

        def halved(*args):
            p = build(*args)
            rhs = [b / 2 if tag[0] == "deviation" else b for b, tag in zip(p.rhs, p.tags)]
            return _Problem(p.matrix, p.scales, rhs, p.tags)

        monkeypatch.setattr(proofs, "_type_rows", halved)
        with pytest.raises(RuntimeError, match="witness failed exact verification"):
            history_verdict(program3_history(7, DeviationShape(4, 2)))

    def test_refuses_a_point_off_the_rows(self):
        history = program3_history(8, DeviationShape(4, 2))
        witness = dict(history_verdict(history).witness.mask_items())
        assert proofs._verify_witness_fast(history, witness)
        full = 1 << history.m
        for bad in (
            {mask: 2 * w for mask, w in witness.items()},  # weight 2
            {**witness, 0: Fraction(1, 8)},  # the empty ballot
            {**witness, full: Fraction(1, 8)},  # a ballot past m candidates
            {**witness, full - 1: Fraction(-1, 8)},  # a negative weight
        ):
            assert not proofs._verify_witness_fast(history, bad)


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
            child = History(root.m, root.k, ((committee, deviation),))
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
            assert verdict.witness is not None

    def test_budget_flagging(self):
        res = enumerate_histories(10, 8, budget_seconds=0.0)
        assert not res.complete

    def test_threads_match_single_process(self, tmp_path):
        # (10, 8) solves LPs, so siblings' certificates stand in for some.
        seq = enumerate_histories(10, 8)
        par = enumerate_histories(10, 8, threads=2)
        assert [h.mask_steps() for h in seq.histories] == [
            h.mask_steps() for h in par.histories
        ]
        assert {
            h.mask_steps(): c.nonzero for h, c in seq.certificates.items()
        } == {h.mask_steps(): c.nonzero for h, c in par.certificates.items()}
        bundles = []
        for threads in (1, 2):
            out = tmp_path / str(threads)
            argv = ["prove", "--mode", "histories", "--m", "10", "--k", "8", "--out", str(out)]
            assert cli.main(argv + ["--threads", str(threads)]) == 0
            bundles.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*.json")})
        assert bundles[0] == bundles[1] and len(bundles[0]) == 100

    def test_budget_stops_the_search_inside_a_group(self, monkeypatch):
        # A clock that advances 1 s per reading: one reading at the start,
        # one before each group and one before each continuation. The
        # budget runs out after the root's group and ten continuations of
        # the first of the three groups of the (4, 2) history at m = 12.
        root = History(12, 8, ())
        n_root = len(canonical_continuations(root))
        clock = itertools.count()
        monkeypatch.setattr(proofs, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        res = enumerate_histories(12, 8, budget_seconds=n_root + 13)
        assert not res.complete
        assert [len(h.steps) for h in res.histories] == [0, 1]
        second = [h for h in res.certificates if len(h.steps) == 2]
        assert len(res.certificates) == n_root - 1 + len(second)
        assert len(second) == 10 and {h.steps[1][0] for h in second} == {
            canonical_continuations(res.histories[1])[0][0]
        }

    @pytest.mark.parametrize("threads, cpus, processes", [(1000, 3, 3), (2, 8, 2), (4, None, 1)])
    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch, threads, cpus, processes):
        sizes = []

        class FakePool:
            def __init__(self, n):
                sizes.append(n)

            def imap(self, func, tasks):
                return map(func, tasks)

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=FakePool)
        )
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with Runner(threads) as runner:
            assert list(runner.map(abs, [-1, -2, -3])) == [1, 2, 3]
        assert sizes == [processes]

    @pytest.mark.parametrize(
        "k,shape",
        [(4, DeviationShape(1, 0)), (4, DeviationShape(4, 2)), (8, DeviationShape(4, 2))],
    )
    def test_a_decided_task_keeps_no_full_rows(self, k, shape):
        # A search level holds all its tasks until the level ends, so a
        # task holds only its steps, whichever way it is decided: the
        # Theorem 1 shortcut, an LP refutation or an LP witness.
        h = program3_history(k, shape)
        task = History(h.m, k, ()).child(*h.steps[0])
        verdict = history_verdict(task)
        assert vars(task).keys() == {"m", "k", "steps"}
        assert isinstance(verdict, HistoryVerdict) and verdict.history == h
        assert (verdict.witness is not None) == (k == 8)


class TestCovers:
    """A record of sibling A's certificate proposes it for sibling B
    exactly when it certifies B's system, over every ordered pair of the
    85 continuations of the (4, 2) history at (10, 8), which share W."""

    @staticmethod
    def proposals(covers_type, siblings, certificates):
        """The ordered pairs (a, b) of sibling indices for which the record
        of a's certificate, made by ``covers_type``, proposes it for b."""
        proposed = set()
        records = [covers_type(h.m, h.k) for h in siblings]
        # Each sibling's S(T) and |T|.
        sides = [
            (_supporting(covers.masks, *h.mask_steps()[-1]), len(h.steps[-1][1]))
            for covers, h in zip(records, siblings)
        ]
        for a, (first, covers) in enumerate(zip(siblings, records)):
            certificate = certificates[first]
            covers.add(certificate, _verify_certificate_fast(first, certificate), *sides[a])
            proposed |= {(a, b) for b, side in enumerate(sides) if b != a and covers.find(*side)}
        return proposed

    def test_records_propose_exactly_the_certificates_that_hold(self):
        res = enumerate_histories(10, 8)
        siblings = [h for h in res.certificates if len(h.steps) == 2]
        assert len(siblings) == 85 and len({h.steps[1][0] for h in siblings}) == 1
        holds = set()
        for b, second in enumerate(siblings):
            rows = history_system(second)
            for a, first in enumerate(siblings):
                if b != a and verify_farkas(rows, res.certificates[first]):
                    holds.add((a, b))
        assert 0 < len(holds) < 85 * 84
        assert self.proposals(proofs._Covers, siblings, res.certificates) == holds

        def last(covers):
            return len(covers.certificates) - 1

        class NoThreshold(proofs._Covers):
            def add(self, *args):
                super().add(*args)
                self.least[last(self)] = 0

        class NotStrict(proofs._Covers):
            # r <= y_d |T_B| / k in place of r < y_d |T_B| / k.
            def add(self, certificate, held, supports, size):
                super().add(certificate, held, supports, size)
                y_d = certificate.multiplier(certificate.n_rows - 1)
                r = held.value + Fraction(y_d * size, self.k)
                self.least[last(self)] = math.ceil(r * self.k / y_d) if y_d else 0

        class Subset(proofs._Covers):
            # S(T_B) within S(T_A) in place of the base.
            def add(self, certificate, held, supports, size):
                super().add(certificate, held, supports, size)
                self.fails[last(self)] = np.packbits(~supports)

        for mutant in (NoThreshold, NotStrict, Subset):
            assert self.proposals(mutant, siblings, res.certificates) != holds, mutant

    def test_a_proposal_that_fails_its_check_goes_to_the_lp(self, monkeypatch):
        # Records that propose the first certificate for every sibling,
        # the feasible (4, 2) continuation of the root included: the check
        # on the sibling's own rows refuses what does not hold, and the LP
        # decides those.
        def first(covers, supports, size):
            return covers.certificates[0] if covers.certificates else None

        refused = []
        check = proofs._verify_certificate_fast

        def counted(history, certificate):
            held = check(history, certificate)
            refused.append(held is None)
            return held

        monkeypatch.setattr(proofs._Covers, "find", first)
        monkeypatch.setattr(proofs, "_verify_certificate_fast", counted)
        res = enumerate_histories(10, 8)
        assert res.complete and len(res.histories) == 2 and len(res.certificates) == 99
        assert any(refused)
        for hist, certificate in res.certificates.items():
            assert verify_farkas(history_system(hist), certificate)


def test_proposition1_at_k8_m10():
    # The paper's k = 8 search at m = 10: the empty history and the (4, 2)
    # step survive; every other continuation has a certificate.
    res = enumerate_histories(10, 8)
    assert res.complete
    assert len(res.histories) == 2
    assert len(res.certificates) == 99
    assert check_proposition1(res.histories, 8)


@pytest.mark.paperscale
@pytest.mark.parametrize(
    "m, k, n_histories, n_certificates", [(11, 9, 5, 425), (11, 8, 2, 421)]
)
def test_proposition1_at_m11(m, k, n_histories, n_certificates):
    res = enumerate_histories(m, k)
    assert res.complete
    assert len(res.histories) == n_histories
    assert len(res.certificates) == n_certificates
    assert check_proposition1(res.histories, k)


@pytest.mark.parametrize("m, k", [(10, 8), pytest.param(11, 9, marks=pytest.mark.paperscale)])
def test_padding_keeps_every_history(m, k):
    # A profile on m candidates is a profile on m + 1 whose extra candidate
    # nobody approves: each witness at (m, k) realizes its history at
    # (m + 1, k), and the search there finds that history with the same masks.
    small, big = enumerate_histories(m, k), enumerate_histories(m + 1, k)
    assert small.complete and big.complete
    padded = {h.mask_steps() for h in big.histories}
    for h in small.histories:
        assert h.mask_steps() in padded
        if h.steps:
            witness = dict(small.witnesses[h].mask_items())
            assert _witness_realizes(witness, m + 1, k, h.mask_steps())
