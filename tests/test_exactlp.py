"""Tests for the exact LP engine: simplex verdicts, certificates, duality."""

import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import tableau_oracle
from pavcore import exactlp, proofs
from pavcore.checker import FarkasCertificate, Row, verify_farkas
from pavcore.exactlp import (
    Feasible,
    Infeasible,
    Optimal,
    Unbounded,
    _Master,
    _Problem,
    maximize,
    solve_feasibility,
    verify_optimum,
)


def make_problem(rows, n_vars):
    """The solver's form of `Row`s over ``n_vars`` nonnegative columns:
    each row scaled to integers by the lcm of its denominators, in an int64
    matrix, or an object matrix when an entry reaches 2^62."""
    scaled = []
    for row in rows:
        denom = math.lcm(
            row.rhs.denominator, *(c.denominator for c in row.coeffs.values())
        )
        scaled.append(({j: int(c * denom) for j, c in row.coeffs.items()}, denom))
    wide = any(abs(v) >= 2**62 for ints, _ in scaled for v in ints.values())
    matrix = np.zeros((len(rows), n_vars), dtype=object if wide else np.int64)
    for i, (ints, _) in enumerate(scaled):
        for j, v in ints.items():
            matrix[i, j] = v
    return _Problem(
        matrix, [s for _, s in scaled], [row.rhs for row in rows], [row.tag for row in rows]
    )


def make_system(rows, n_vars=None):
    """rows: list of (dense coeff list, rhs). Returns the `Row`s, which
    `verify_farkas` checks, and their solver form."""
    if n_vars is None:
        n_vars = max(len(c) for c, _ in rows)
    built = [
        Row(
            {j: Fraction(c) for j, c in enumerate(coeffs) if c},
            Fraction(rhs),
            ("row", i),
        )
        for i, (coeffs, rhs) in enumerate(rows)
    ]
    return built, make_problem(built, n_vars)


def fourier_motzkin_feasible(rows, n_vars):
    """Independent exact feasibility oracle by variable elimination."""
    system = [([Fraction(c) for c in coeffs], Fraction(rhs)) for coeffs, rhs in rows]
    for var in range(n_vars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in system:
            a = coeffs[var]
            if a > 0:
                pos.append(([c / a for c in coeffs], rhs / a))
            elif a < 0:
                neg.append(([c / -a for c in coeffs], rhs / -a))
            else:
                rest.append((coeffs, rhs))
        for (pc, pr), (nc, nr) in itertools.product(pos, neg):
            combined = [p + n for p, n in zip(pc, nc)]
            combined[var] = Fraction(0)
            rest.append((combined, pr + nr))
        system = rest
    return all(rhs >= 0 for _, rhs in system)



def fraction_verify_farkas(rows, certificate):
    """The reference for `verify_farkas`: the same three tests, with one
    `Fraction` multiply and one add per entry of every used row."""
    if certificate.n_rows != len(rows):
        raise ValueError("multiplier count does not match the rows")
    if any(v < 0 for v in certificate.nonzero.values()):
        return False
    yb = Fraction(0)
    col_sums = {}
    for i, mult in certificate.nonzero.items():
        row = rows[i]
        yb += mult * row.rhs
        for j, coef in row.coeffs.items():
            col_sums[j] = col_sums.get(j, 0) + mult * coef
    return yb < 0 and all(total >= 0 for total in col_sums.values())


def random_entry(rng):
    """0, a small int, a Fraction over one of several denominators, or an
    entry of size 2^70."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 5:
        return rng.choice([2**70, -(2**70), Fraction(2**70, 3)])
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 9, 12]))


def random_certified_system(rng):
    """Random rows and multipliers, then one more row with multiplier 1
    that lifts every negative column sum to 0 or above and sets y.b to -1,
    0 or 1, so that about a third of the certificates hold."""
    n_cols = rng.randint(1, 5)
    rows = []
    for i in range(rng.randint(1, 5)):
        if rng.random() < 0.2:  # an all-zero row, stored or sparse
            coeffs = dict.fromkeys(range(n_cols), 0) if rng.random() < 0.5 else {}
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, n_cols))
            coeffs = {j: random_entry(rng) for j in cols}
        rows.append(Row(coeffs, random_entry(rng), ("row", i)))
    mults = [rng.choice([0, 1, 2, 5, 2**40]) for _ in rows]
    sums = {}
    for mult, row in zip(mults, rows):
        for j, c in row.coeffs.items():
            sums[j] = sums.get(j, 0) + mult * c
    lift = {j: rng.choice([0, Fraction(1, 5)]) - min(s, 0) for j, s in sums.items()}
    yb = sum((mult * row.rhs for mult, row in zip(mults, rows)), Fraction(0))
    rhs = rng.choice([-1, 0, 1]) * Fraction(1, rng.choice([1, 6])) - yb
    at = rng.randint(0, len(rows))
    rows.insert(at, Row(lift, rhs, ("lift",)))
    mults.insert(at, 1)
    return rows, mults

def disjoint_rows_system(rng):
    """Rows over pairwise disjoint columns, some over none, with
    multipliers that may all be 0: the used rows share no column, or no
    row is used at all."""
    rows, col = [], 0
    for i in range(rng.randint(1, 5)):
        width = rng.randint(0, 3)
        coeffs = {col + j: abs(random_entry(rng)) * rng.choice([1, 1, -1]) for j in range(width)}
        col += width
        rows.append(Row(coeffs, random_entry(rng), ("row", i)))
    if rng.random() < 0.2:
        return rows, [0] * len(rows)
    return rows, [rng.choice([0, 1, 3, 2**40, 2**100]) for _ in rows]

def price(problem, multipliers):
    """The reference for `_Problem.column_gaps` without costs, as the solver
    once priced: exact ``(totals, factor)`` with ``totals = factor * G^T y``
    and ``factor > 0``, in int64 when no sum can overflow."""
    denom = 1
    for u in multipliers:
        d = int(u.denominator)
        denom = denom * d // math.gcd(denom, d)
    factor = denom * problem.lcm_scale
    scaled = [
        int(u * denom) * (problem.lcm_scale // problem.scales[i])
        for i, u in enumerate(multipliers)
    ]
    bound = sum(abs(s) for s in scaled) * max(problem.max_abs, 1)
    if bound < 2**62:
        return np.asarray(scaled, dtype=np.int64) @ problem.matrix, factor
    obj_vec = np.asarray(scaled, dtype=object)
    return obj_vec @ problem.matrix.astype(object), factor


def loop_violations(problem, duals, objective=None):
    """The reference for `_Problem.violations`: one Python step per column,
    then a sort on (reduced cost, column)."""
    totals, factor = price(problem, duals)
    out = []
    for j in range(problem.n_vars):
        if objective is None:
            reduced = totals[j]
        else:
            c = objective.get(j)
            reduced = (c * factor if c else 0) - totals[j]
        if reduced < 0:
            out.append((reduced, j))
    out.sort()
    return [j for _, j in out]


def random_pricing_case(rng):
    """A random problem, int64 or with entries of 2^62 and above, with
    `Fraction` or int multipliers and an objective or none."""
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 40)
    wide = rng.random() < 0.4
    matrix = np.zeros((n_rows, n_cols), dtype=object if wide else np.int64)
    for i in range(n_rows):
        for j in rng.sample(range(n_cols), rng.randint(0, n_cols)):
            if wide and rng.random() < 0.3:
                big = rng.choice([2**62, 2**63 + 1, 2**70])
                matrix[i, j] = rng.choice([-1, 1]) * big
            else:
                matrix[i, j] = rng.randint(-4, 4)
    scales = [rng.choice([1, 2, 3, 6, 12, 420]) for _ in range(n_rows)]
    problem = _Problem(matrix, scales, [0] * n_rows, [("row", i) for i in range(n_rows)])
    as_fractions = rng.random() < 0.5
    y = [
        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 7, 12]))
        if as_fractions
        else rng.choice([0, 1, -2, 3, 2**40, -(2**61), 2**63])
        for _ in range(n_rows)
    ]
    objective = None
    if rng.random() < 0.6:
        costs = [0, Fraction(2**64, 3)] + [
            Fraction(rng.randint(-9, 9), rng.choice([1, 3, 11])) for _ in range(3)
        ]
        cols = rng.sample(range(n_cols), rng.randint(1, n_cols))
        objective = {j: Fraction(rng.choice(costs)) for j in cols}
    return problem, y, objective


class TestPricingKernel:
    def test_matches_the_column_loop_on_random_systems(self):
        rng = random.Random(1812)
        kinds = set()
        for _ in range(400):
            problem, y, objective = random_pricing_case(rng)
            kinds.add((problem.matrix.dtype == object, type(y[0]), objective is None))
            case = (problem.matrix.tolist(), problem.scales, y, objective)
            assert problem.violations(y, objective) == loop_violations(
                problem, y, objective
            ), case
            gaps = problem.column_gaps(y, objective)
            for j, gap in enumerate(gaps.tolist()):
                exact = sum(
                    (Fraction(int(problem.matrix[i, j]) * u, s)
                     for i, (u, s) in enumerate(zip(y, problem.scales))),
                    Fraction(0),
                ) - (objective or {}).get(j, 0)
                assert (gap > 0) - (gap < 0) == (exact > 0) - (exact < 0), (case, j)
        assert len(kinds) == 8

    def test_falls_back_to_python_ints_past_int64(self):
        matrix = np.array([[1, -1], [2, 0]], dtype=np.int64)
        problem = _Problem(matrix, [1, 1], [0, 0], [("row", 0), ("row", 1)])
        assert problem.column_gaps([1, 1]).dtype == np.int64
        gaps = problem.column_gaps([2**62, 2**62])
        assert gaps.dtype == object and gaps.tolist() == [3 * 2**62, -(2**62)]
        gaps = problem.column_gaps([1, 0], {0: Fraction(2**63)})
        assert gaps.dtype == object and gaps.tolist() == [1 - 2**63, -1]


class TestSmallVerdicts:
    def test_contradiction_pair(self):
        rows, problem = make_system([([1], -1), ([-1], 0)])
        verdict = solve_feasibility(problem)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows, verdict.certificate)
        # The textbook certificate for this pair also verifies.
        assert verify_farkas(rows, FarkasCertificate.from_list([1, 1]))

    def test_simple_feasible(self):
        _, problem = make_system([([1], 1), ([-1], 0)])
        verdict = solve_feasibility(problem)
        assert isinstance(verdict, Feasible)
        x = verdict.assignment.get(0, Fraction(0))
        assert 0 <= x <= 1

    def test_negative_bound_infeasible(self):
        # x <= -1 alone has no solution: every variable is nonnegative.
        rows, problem = make_system([([1], -1)])
        verdict = solve_feasibility(problem)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows, verdict.certificate)

    def test_free_variable_infeasible(self):
        # x <= 0 and x >= 1.
        rows, problem = make_system([([1], 0), ([-1], -1)])
        verdict = solve_feasibility(problem)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows, verdict.certificate)

    def test_feasible_assignment_satisfies_rows_exactly(self):
        rows, problem = make_system(
            [
                ([1, 1, 0], Fraction(3, 2)),
                ([-1, 2, 1], Fraction(-1, 3)),
                ([0, -1, 0], 0),
                ([-1, 0, 0], 0),
                ([0, 0, -1], 0),
            ]
        )
        verdict = solve_feasibility(problem)
        assert isinstance(verdict, Feasible)
        for row in rows:
            total = sum(
                (
                    coef * verdict.assignment.get(j, Fraction(0))
                    for j, coef in row.coeffs.items()
                ),
                Fraction(0),
            )
            assert total <= row.rhs


class TestRow:
    def test_a_mapping_reads_back_as_given(self):
        coeffs = {
            7: Fraction(1, 6),
            0: Fraction(2**70, 3),
            3: Fraction(0),
            5: -(2**63),
            9: 0,
        }
        row = Row(coeffs, Fraction(-1, 2), ("big",))
        assert row.coeffs == coeffs and list(row.coeffs) == [0, 3, 5, 7, 9]
        assert row.cols.tolist() == [0, 3, 5, 7, 9] and row.den == 6
        assert row.nums.dtype == object  # entries reach 2^62
        small = Row({2: Fraction(1, 3), 1: Fraction(0), 4: -5}, 0, ("small",))
        assert small.nums.dtype == np.int64
        assert small.coeffs == {1: 0, 2: Fraction(1, 3), 4: -5}
        with pytest.raises(TypeError):
            small.coeffs[2] = Fraction(1)

    def test_mapping_and_arrays_build_equal_rows(self):
        tag = ("swap", 1, 0, 3)
        row = Row({4: Fraction(-1, 3), 0: Fraction(1, 2)}, 0, tag)
        for den in (6, 12, 2520):
            nums = np.array([den // 2, -(den // 3)], dtype=np.int64)
            assert row == Row.from_arrays(np.array([0, 4]), nums, den, 0, tag)
        wide = np.array([2**70, -1], dtype=object)
        assert Row({0: 2**70, 1: -1}, 1, ("w",)) == Row.from_arrays(
            np.array([0, 1]), wide, 1, 1, ("w",)
        )
        cols, nums = np.array([0, 4]), np.array([3, -2])
        assert row != Row.from_arrays(cols, nums, 6, Fraction(1), tag)
        assert row != Row.from_arrays(cols, nums, 6, 0, ("swap", 1, 0, 4))
        assert row != Row({4: Fraction(-1, 3), 0: Fraction(1, 2), 2: 0}, 0, tag)

    @pytest.mark.parametrize(
        "cols, nums, den",
        [([1, 0], [1, 1], 1), ([0, 0], [1, 1], 1), ([-1, 2], [1, 1], 1), ([0, 1], [1], 1), ([0], [1], 0)],
    )
    def test_from_arrays_refuses_a_malformed_row(self, cols, nums, den):
        with pytest.raises(ValueError):
            Row.from_arrays(np.array(cols), np.array(nums), den, 0, ("bad",))

    @pytest.mark.parametrize(
        "cols, nums, error",
        [
            (np.array([0.0, 1.0]), np.array([1, 1]), TypeError),
            (np.array([0, 1], dtype=np.int32), np.array([1, 1]), TypeError),
            (np.array([0, 1], dtype=">i8"), np.array([1, 1]), TypeError),
            (np.array([0, 1]), np.array([1.0, 1.0]), TypeError),
            (np.array([0, 1]), np.array([1, 1], dtype=np.int32), TypeError),
            (np.array([[0, 1]]), np.array([[1, 1]]), ValueError),
            (np.array([0, 1, 2, 5, 4, 6]), np.ones(6, dtype=np.int64), ValueError),
        ],
    )
    def test_from_arrays_refuses_wrong_dtypes_shapes_and_orders(self, cols, nums, error):
        with pytest.raises(error):
            Row.from_arrays(cols, nums, 1, 0, ("bad",))

    def test_from_arrays_makes_an_exact_right_hand_side(self):
        cols, nums = np.array([0, 2]), np.array([1, -1])
        for rhs in (Fraction(1, 2), 0, -3, np.int64(4)):
            row = Row.from_arrays(cols.copy(), nums.copy(), 1, rhs, ("r",))
            assert type(row.rhs) is Fraction and row.rhs == rhs


class TestVerifyFarkas:
    def test_rejects_wrong_sign_product(self):
        rows, _ = make_system([([1], -1), ([-1], 0)])
        # y.b = 0, not < 0.
        assert not verify_farkas(rows, FarkasCertificate.from_list([0, 1]))

    def test_rejects_negative_multiplier(self):
        rows, _ = make_system([([1], -1), ([-1], 0)])
        assert not verify_farkas(rows, FarkasCertificate.from_list([1, -1]))

    def test_dimension_mismatch_is_error(self):
        rows, _ = make_system([([1], -1), ([-1], 0)])
        with pytest.raises(ValueError):
            verify_farkas(rows, FarkasCertificate.from_list([1, 1, 1]))

    def test_matches_the_fraction_loop_on_random_systems(self):
        rng = random.Random(2007)
        verdicts = []
        for _ in range(600):
            rows, mults = random_certified_system(rng)
            change = rng.random()
            i = rng.randrange(len(mults))
            if change < 0.2:
                mults[i] = -rng.randint(1, 3)
            elif change < 0.4:
                mults[i] = 0
            certificate = FarkasCertificate.from_list(mults)
            verdict = verify_farkas(rows, certificate)
            assert verdict == fraction_verify_farkas(rows, certificate), (rows, mults)
            # The solver's test, on the solver's form of the rows, agrees; a
            # list of another length refutes nothing.
            problem = make_problem(rows, 5)
            assert problem.refuted_by(mults) == verdict, (rows, mults)
            assert not problem.refuted_by(mults + [1]) and not problem.refuted_by(mults[1:])
            verdicts.append(verdict)
            longer = FarkasCertificate.from_list(mults + [1])
            for check in (verify_farkas, fraction_verify_farkas):
                with pytest.raises(ValueError):
                    check(rows, longer)
        assert 100 < sum(verdicts) < 500

    def test_matches_the_fraction_loop_on_disjoint_and_empty_certificates(self):
        rng = random.Random(2018)
        verdicts = collections.Counter()
        for _ in range(400):
            rows, mults = disjoint_rows_system(rng)
            certificate = FarkasCertificate.from_list(mults)
            verdict = verify_farkas(rows, certificate)
            assert verdict == fraction_verify_farkas(rows, certificate), (rows, mults)
            verdicts[verdict, bool(certificate.nonzero)] += 1
        # Every kind occurs; a certificate that uses no row has y.b = 0.
        assert verdicts[True, True] > 20 and verdicts[False, True] > 20
        assert verdicts[False, False] > 20 and not verdicts[True, False]

    def test_rejects_violated_column_sum(self):
        # x0 - x1 <= -1 with nonnegativity on both: feasible, so no valid
        # certificate exists; this candidate fails the A^T y >= 0 test.
        rows, _ = make_system([([1, -1], -1), ([-1, 0], 0), ([0, -1], 0)])
        assert not verify_farkas(rows, FarkasCertificate.from_list([1, 0, 0]))


class TestMaximize:
    def test_bounded_maximum(self):
        _, problem = make_system([([1], 1), ([-1], 0)])
        result = maximize(problem, {0: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == 1

    def test_minimize_via_negation(self):
        _, problem = make_system([([1], 1), ([-1], Fraction(-1, 3))])
        result = maximize(problem, {0: Fraction(-1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(-1, 3)

    def test_unbounded(self):
        _, problem = make_system([([-1], 0)])
        assert isinstance(maximize(problem, {0: Fraction(1)}), Unbounded)

    def test_infeasible(self):
        rows, problem = make_system([([1], -1), ([-1], 0)])
        result = maximize(problem, {0: Fraction(1)})
        assert isinstance(result, Infeasible)
        assert verify_farkas(rows, result.certificate)

    def test_two_variable_lp(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (8/5, 6/5).
        _, problem = make_system(
            [([1, 2], 4), ([3, 1], 6), ([-1, 0], 0), ([0, -1], 0)]
        )
        result = maximize(problem, {0: Fraction(1), 1: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(14, 5)
        assert result.assignment[0] == Fraction(8, 5)
        assert result.assignment[1] == Fraction(6, 5)


class TestAntiCycling:
    def test_beale_cycle_ends_under_blands_rule(self, monkeypatch):
        # Beale's LP: min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 cycles under the
        # most-negative reduced cost rule. The stall counter must hand the
        # entering choice to Bland's rule after _DEGENERACY_LIMIT pivots.
        _, problem = make_system(
            [
                ([Fraction(1, 4), -8, -1, 9], 0),
                ([Fraction(1, 2), -12, Fraction(-1, 2), 3], 0),
                ([0, 0, 1, 0], 1),
            ]
        )
        pivots = []
        pivot = _Master._pivot

        def counted(*args):
            pivots.append(args[-2:])
            assert len(pivots) < 200, "the simplex cycles"
            return pivot(*args)

        monkeypatch.setattr(_Master, "_pivot", staticmethod(counted))
        objective = {
            0: Fraction(3, 4), 1: Fraction(-20), 2: Fraction(1, 2), 3: Fraction(-6)
        }
        result = maximize(problem, objective)
        assert isinstance(result, Optimal)
        assert result.value == Fraction(5, 4)
        assert result.assignment.get(0) == 1 and result.assignment.get(2) == 1
        assert verify_optimum(problem, objective, result)
        assert len(pivots) > exactlp._DEGENERACY_LIMIT


class TestAgainstFourierMotzkin:
    def test_random_small_systems(self):
        rng = random.Random(20250809)
        for trial in range(250):
            n_vars = rng.randint(1, 4)
            n_rows = rng.randint(1, 6)
            rows = []
            for _ in range(n_rows):
                coeffs = [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in range(n_vars)
                ]
                rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                rows.append((coeffs, rhs))
            # Every variable is nonnegative; the system states it as rows
            # about half the time, the oracle always.
            bounds = []
            for j in range(n_vars):
                unit = [Fraction(0)] * n_vars
                unit[j] = Fraction(-1)
                bounds.append((unit, Fraction(0)))
            if rng.random() < 0.5:
                rows = rows + bounds
            built, problem = make_system(rows, n_vars)
            verdict = solve_feasibility(problem)
            expected = fourier_motzkin_feasible(rows + bounds, n_vars)
            if expected:
                assert isinstance(verdict, Feasible), f"trial {trial}"
                for row in built:
                    total = sum(
                        (
                            c * verdict.assignment.get(j, Fraction(0))
                            for j, c in row.coeffs.items()
                        ),
                        Fraction(0),
                    )
                    assert total <= row.rhs
            else:
                assert isinstance(verdict, Infeasible), f"trial {trial}"
                assert verify_farkas(built, verdict.certificate)


class TestColumnActivation:
    def test_wide_feasible_system(self):
        # Many columns, one of which must carry weight 1.
        n = 3000
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({2718: Fraction(-1)}, Fraction(-1, 2), ("need",)),
        ]
        verdict = solve_feasibility(make_problem(rows, n))
        assert isinstance(verdict, Feasible)
        assert verdict.assignment.get(2718, Fraction(0)) >= Fraction(1, 2)
        total = sum(verdict.assignment.values(), Fraction(0))
        assert total == 1

    def test_wide_infeasible_system(self):
        # Total weight 1 but every column is capped well below 1/n; the
        # certificate must touch every cap row, and the system is as tall as
        # it is wide.
        n = 600
        rows = [
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
        ]
        for j in range(n):
            rows.append(Row({j: Fraction(1)}, Fraction(1, 3 * n), ("cap", j)))
        verdict = solve_feasibility(make_problem(rows, n))
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows, verdict.certificate)

    def test_wide_maximize(self):
        n = 2000
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
        ]
        result = maximize(make_problem(rows, n), {561: Fraction(2)})
        assert isinstance(result, Optimal)
        assert result.value == 2
        assert result.assignment[561] == 1


class TestLargeEntries:
    def test_entries_beyond_int64_stay_exact(self):
        # x0 <= 1/4 through a 2^70 coefficient, x1 <= 1/4 through a 2^-70
        # one, so that every pivot prices 300 columns in Python ints.
        n = 300
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({0: Fraction(2**70)}, Fraction(2**68), ("big",)),
            Row({1: Fraction(1, 2**70)}, Fraction(1, 2**72), ("small",)),
        ]
        problem = make_problem(rows, n)
        assert problem.matrix.dtype == object
        objective = {0: Fraction(1), 1: Fraction(1)}
        result = maximize(problem, objective)
        assert isinstance(result, Optimal) and result.value == Fraction(1, 2)
        assert verify_optimum(problem, objective, result)
        cut = Row({0: Fraction(-1), 1: Fraction(-1)}, Fraction(-2, 3), ("cut",))
        verdict = solve_feasibility(make_problem(rows + [cut], n))
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows + [cut], verdict.certificate)


class TestDuals:
    def test_master_duals_on_negative_rhs_row(self):
        # max -x0 - 2 x1  st  x0 + x1 <= 2,  -x0 - x1 <= -1,  x >= 0.
        # The optimum -1 sits at x0 = 1; the covering row (negative rhs)
        # carries multiplier 1 and the packing row 0.
        block = np.array([[1, 1], [-1, -1]], dtype=np.int64)
        rhs = [Fraction(2), Fraction(-1)]
        objective = {0: Fraction(-1), 1: Fraction(-2)}
        master = _Master(_Problem(block, [1, 1], rhs, [("packing",), ("covering",)]))
        result = master.solve(objective)
        assert isinstance(result, Optimal)
        assert result.value == -1 and result.assignment == {0: 1}
        assert list(result.duals) == [0, 1]
        # Dual feasibility and strong duality for max c.x, Gx <= h, x >= 0.
        assert all(y >= 0 for y in result.duals)
        for key in (0, 1):
            col = block[:, key].tolist()
            assert sum(y * g for y, g in zip(result.duals, col)) - objective[key] >= 0
        assert sum(y * h for y, h in zip(result.duals, rhs)) == result.value

    def test_wide_maximize_with_negative_rhs_rows(self):
        # Every pivot prices with the duals; a wrong sign on the
        # negative-rhs rows flags columns that are already basic.
        n = 300
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({0: Fraction(1), n - 1: Fraction(-2)}, Fraction(-1), ("link",)),
        ]
        problem = make_problem(rows, n)
        result = maximize(problem, {0: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(1, 3)
        assert verify_optimum(problem, {0: Fraction(1)}, result)

    def test_activation_matches_all_columns(self):
        # The full-tableau solver with column activation, activating two
        # columns per round from five, must find the same optima.
        rng = random.Random(3)
        cases = []
        for _ in range(40):
            n = 30
            rows = [
                Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
                Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            ]
            for r in range(3):
                coeffs = {
                    j: Fraction(rng.randint(-3, 3))
                    for j in rng.sample(range(n), 6)
                }
                rows.append(Row(coeffs, Fraction(rng.randint(-2, 1), 2), ("r", r)))
            objective = {j: Fraction(rng.randint(-2, 2)) for j in rng.sample(range(n), 4)}
            cases.append((make_problem(rows, n), objective))
        activated = [
            tableau_oracle.maximize(problem, objective, dense_limit=5, batch=2)
            for problem, objective in cases
        ]
        for (problem, objective), expected in zip(cases, activated):
            result = maximize(problem, objective)
            assert type(result) is type(expected)
            if isinstance(result, Optimal):
                assert result.value == expected.value
                assert verify_optimum(problem, objective, result)


def random_lp(rng):
    """Random rows, some with negative right-hand sides, some all-zero,
    some repeated (redundant once one copy is tight), and in about one
    system in six an entry of 2^63 or more; a row capping the total weight
    half the time, and an objective or none."""
    n = rng.randint(1, 8) if rng.random() < 0.85 else rng.randint(20, 60)
    big = rng.random() < 0.17
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.1:
            coeffs, rhs = {}, Fraction(rng.choice([0, 0, 0, 1, -1]))
        else:
            cols = rng.sample(range(n), rng.randint(1, min(n, 4)))
            coeffs = {
                j: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for j in cols
            }
            if big and rng.random() < 0.4:
                big_entry = rng.choice([1, -1]) * (2**63 + rng.randint(0, 9))
                coeffs[cols[0]] = Fraction(big_entry)
            rhs = Fraction(rng.randint(-3, 4), rng.choice([1, 2, 5]))
        rows.append(Row(coeffs, rhs, ("r", len(rows))))
        if rng.random() < 0.15:
            rows.append(Row(coeffs, rhs, ("r", len(rows))))
    if rng.random() < 0.5:
        cap = Fraction(rng.randint(1, 5))
        rows.append(Row({j: Fraction(1) for j in range(n)}, cap, ("cap",)))
    objective = None
    if rng.random() < 0.6:
        cols = rng.sample(range(n), rng.randint(1, n))
        objective = {
            j: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for j in cols
        }
    return rows, make_problem(rows, n), objective


class TestAgainstTableauOracle:
    def test_same_verdicts_on_random_systems(self, monkeypatch):
        object_pricing = []
        gaps = _Problem.column_gaps

        def spy(self, y, c=None):
            out = gaps(self, y, c)
            object_pricing.append(out.dtype == object)
            return out

        monkeypatch.setattr(_Problem, "column_gaps", spy)
        # Where the float basis proposed a refutation, which route gave the
        # verdict: the direct certificate, or the slack tableau after the
        # ray was refused.
        routes = []
        certify = _Master._certify

        def certify_logged(self, *args):
            out = certify(self, *args)
            routes.append("direct" if out is not None else "tableau")
            return out

        monkeypatch.setattr(_Master, "_certify", certify_logged)
        # Per solver: its pivots, (pivot row, entering column) each, and the
        # number of pivots and the basis at the end of each pivot loop.
        pivots = {_Master: [], tableau_oracle.Master: []}
        loops = {_Master: [], tableau_oracle.Master: []}
        for owner in pivots:
            pivot, loop = owner._pivot, owner._pivot_loop

            def logged(*args, pivot=pivot, log=pivots[owner]):
                log.append(args[3:5])
                return pivot(*args)

            def looped(self, tab, den, basis, *args, loop=loop, log=pivots[owner], **kw):
                out = loop(self, tab, den, basis, *args, **kw)
                loops[type(self)].append((len(log), list(basis)))
                return out

            monkeypatch.setattr(owner, "_pivot", staticmethod(logged))
            monkeypatch.setattr(owner, "_pivot_loop", looped)
        rng = random.Random(13)
        kinds = collections.Counter()
        same = collections.Counter()
        for trial in range(500):
            rows, problem, objective = random_lp(rng)
            case = (trial, rows, objective)
            knobs = rng.choice([{}, {"dense_limit": 3, "batch": 2}])
            if objective is None:
                solve = lambda: solve_feasibility(problem)
                oracle = lambda: tableau_oracle.solve_feasibility(problem, **knobs)
            else:
                solve = lambda: maximize(problem, objective)
                oracle = lambda: tableau_oracle.maximize(problem, objective, **knobs)
            for log in [*pivots.values(), *loops.values()]:
                log.clear()
            expected = oracle()
            slack = slack_started(monkeypatch, solve)
            slack_pivots = list(pivots[_Master])
            if not knobs:
                # From the slack start, the oracle makes the same pivots; a
                # feasibility verdict skips its last ones, which only drive
                # artificials out of the basis. Each phase ends at the
                # oracle's basis, row for row, with the oracle's
                # certificate, point and duals.
                assert slack == expected, case
                new, old = pivots[_Master], pivots[tableau_oracle.Master]
                assert new == old[: len(new) if objective is None else None], case
                ends = [basis for _, basis in loops[_Master]]
                assert ends == [basis for _, basis in loops[tableau_oracle.Master]], case
                same[type(expected).__name__] += 1
            # From the float start, the verdict and the optimum are the
            # oracle's, and every certificate, point and dual checks out.
            routes.clear()
            pivots[_Master].clear()
            result = solve()
            assert type(result) is type(expected), case
            same.update(routes[-1:])
            if objective is not None:
                # A maximize runs no float pass, so no basis is proposed.
                assert not routes, case
            if objective is not None or not isinstance(result, Infeasible):
                # The float basis only proposes refutations of feasibility
                # problems: any other verdict is the slack start's, pivot
                # for pivot, and so on a knob-free case the oracle's.
                assert result == slack and pivots[_Master] == slack_pivots, case
                same["slack " + type(result).__name__] += 1
            kinds[type(result).__name__, objective is None] += 1
            if isinstance(result, Infeasible):
                assert verify_farkas(rows, result.certificate), case
            elif isinstance(result, Feasible):
                assert problem.satisfied_by(result.assignment), case
            elif isinstance(result, Optimal):
                assert result.value == expected.value, case
                assert verify_optimum(problem, objective, result), case
        assert set(kinds) == {
            ("Feasible", True), ("Infeasible", True), ("Infeasible", False),
            ("Optimal", False), ("Unbounded", False),
        }
        assert min(kinds.values()) >= 20, kinds
        # Every route is a feasibility problem's. A refused ray is rare:
        # rounding must mislead the float pass, and none does here, so
        # `test_a_basis_that_is_no_certificate_goes_to_the_tableau` forces it.
        assert same["direct"] > 80, same
        kinds_from_slack = ("Feasible", "Optimal", "Unbounded", "Infeasible")
        assert min(same["slack " + kind] for kind in kinds_from_slack) >= 20, same
        assert same["Infeasible"] > 100, same
        assert any(object_pricing) and not all(object_pricing)


def slack_started(monkeypatch, solve):
    """``solve()`` with the float start replaced by the slack start."""
    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "_float_pivots", lambda problem: None)
        return solve()


def beale_phase_one(bound):
    """Beale's cycling LP as a phase 1: its rows and ``c.x >= bound`` for its
    objective c, whose maximum is 5/4. The artificial of the last row prices
    the structural columns as Beale's objective does."""
    c = [Fraction(3, 4), -20, Fraction(1, 2), -6]
    return make_system(
        [
            ([Fraction(1, 4), -8, -1, 9], 0),
            ([Fraction(1, 2), -12, Fraction(-1, 2), 3], 0),
            ([0, 0, 1, 0], 1),
            ([-v for v in c], -bound),
        ]
    )


def solve_fractions(a):
    """The solution of the square nonsingular system ``a = [E | b]``, by
    Gauss-Jordan elimination in Fractions."""
    a = [[Fraction(v) for v in row] for row in a]
    for k in range(len(a)):
        p = next(i for i in range(k, len(a)) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(len(a)):
            if i != k and a[i][k]:
                a[i] = [v - a[i][k] * w for v, w in zip(a[i], a[k])]
    return [row[-1] for row in a]


def phase_one_state(problem, basis):
    """The exact phase-1 reduced costs at ``basis`` of every column,
    numbered structurals | slacks | artificials, and the values of the
    basic columns. Row i is ``sigma_i`` times problem row i with its slack,
    plus its artificial when ``sigma_i < 0``, equal to ``|h_i|``; the cost
    is the sum of the artificials."""
    R, S = problem.n_rows, problem.n_vars
    sigma = [-1 if b < 0 else 1 for b in problem.rhs]
    art = [i for i in range(R) if sigma[i] < 0]
    M = [
        [Fraction(int(v) * sigma[i], problem.scales[i]) for v in problem.matrix[i]]
        + [sigma[i] if k == i else 0 for k in range(R)]
        + [int(a == i) for a in art]
        for i in range(R)
    ]
    c = [0] * (S + R) + [1] * len(art)
    # The duals y solve y B = c_B, and the values x solve B x = |h|.
    y = solve_fractions([[M[i][j] for i in range(R)] + [c[j]] for j in basis])
    x = solve_fractions([[M[i][j] for j in basis] + [abs(problem.rhs[i])] for i in range(R)])
    return [c[j] - sum(y[i] * M[i][j] for i in range(R)) for j in range(len(c))], x


class TestFloatStart:
    # x0 + x1 <= 2, x0 + x1 >= 1, x0 - x1 <= 0, and x3 a copy of x0.
    ROWS = [([1, 1, 0, 1], 2), ([-1, -1, 0, -1], -1), ([1, -1, 0, 1], 0)]

    # Columns x0..x3, slacks 4..6, and 7 the artificial of row 1; the slack
    # start is [4, 7, 6]. None of these bases holds the artificial, so none
    # proposes a refutation, and the verdict is the slack start's.
    @pytest.mark.parametrize(
        "start",
        [
            # x0 basic in the covering row: s2 = 0 - x0 = -1 < 0.
            [4, 0, 6],
            # x0 and its copy x3 both basic: no nonzero entry is left for x3.
            [0, 3, 6],
            # One column basic in two rows.
            [0, 0, 6],
        ],
        ids=["infeasible", "singular", "repeated"],
    )
    @pytest.mark.parametrize("objective", [None, {0: Fraction(1), 1: Fraction(-2)}])
    def test_a_wrong_basis_falls_back_to_the_slack_start(self, monkeypatch, start, objective):
        _, problem = make_system(self.ROWS)
        solve = lambda: (
            solve_feasibility(problem) if objective is None else maximize(problem, objective)
        )
        expected = slack_started(monkeypatch, solve)
        monkeypatch.setattr(exactlp, "_float_pivots", lambda p: (list(start), []))
        assert solve() == expected
        if objective is not None:
            assert verify_optimum(problem, objective, expected)

    @pytest.mark.parametrize("big", [2**53 - 1, 2**53, 2**63])
    @pytest.mark.parametrize("where", ["entry", "rhs"])
    def test_numbers_from_2_53_skip_the_float_pass(self, big, where):
        entry, rhs = (big, -1) if where == "entry" else (1, -big)
        rows = [Row({0: Fraction(entry), 1: Fraction(1)}, Fraction(rhs), ("big",))]
        rows.append(Row({1: Fraction(1)}, Fraction(-1, 3), ("small",)))
        problem = make_problem(rows, 2)
        assert (exactlp._float_pivots(problem) is None) == (big >= 2**53)
        assert problem.matrix.dtype == (object if entry >= 2**62 else np.int64)
        assert isinstance(solve_feasibility(problem), Infeasible)

    @pytest.mark.parametrize("bound", [Fraction(5, 4), Fraction(5, 4) + Fraction(1, 100)])
    def test_beale_cycle_ends_in_the_float_pass(self, monkeypatch, bound):
        # Beale's LP cycles under Dantzig's rule; the float pass ends on it
        # with the slack start's and the oracle's verdict, both with its own
        # stall limit and with Bland's rule from the first stall on, which
        # a limit of -R rows gives. Its first pivot is on a row with
        # right-hand side 0, a stall. The bound is the maximum 5/4, then
        # just above it.
        rows, problem = beale_phase_one(bound)
        expected = tableau_oracle.solve_feasibility(problem)
        for limit in (exactlp._DEGENERACY_LIMIT, -problem.n_rows):
            monkeypatch.setattr(exactlp, "_DEGENERACY_LIMIT", limit)
            _, pivots = exactlp._float_pivots(problem)
            assert len(pivots) > 1 and problem.rhs[pivots[0][0]] == 0
            result = solve_feasibility(problem)
            slack = slack_started(monkeypatch, lambda: solve_feasibility(problem))
            assert type(result) is type(slack) is type(expected)
            if bound == Fraction(5, 4):
                assert problem.satisfied_by(result.assignment)
            else:
                assert result == slack == expected
                assert verify_farkas(rows, result.certificate)

    def test_bland_takes_over_after_the_stall_limit(self, monkeypatch):
        # A limit of -R rows hands the entering choice to Bland's rule at
        # the first stall, a pivot on a row whose basic value is 0. From then
        # on each entering column is the first that prices negative in exact
        # arithmetic, and on Beale's LP and some random systems steepest edge
        # would have picked another: the pivots differ from those under the
        # default limit.
        rng = random.Random(5)
        problems = [beale_phase_one(Fraction(5, 4))[1]]
        problems += [random_lp(rng)[1] for _ in range(300)]
        checked, differ = 0, []
        for n, problem in enumerate(problems):
            default = exactlp._float_pivots(problem)
            with monkeypatch.context() as patch:
                patch.setattr(exactlp, "_DEGENERACY_LIMIT", -problem.n_rows)
                found = exactlp._float_pivots(problem)
            if found is None:
                continue
            end, pivots = found
            R, S = problem.n_rows, problem.n_vars
            basis = [S + i for i in range(R)]
            for a, i in enumerate(i for i, b in enumerate(problem.rhs) if b < 0):
                basis[i] = S + R + a
            bland = False
            for i, j in pivots:
                costs, values = phase_one_state(problem, basis)
                if bland:
                    assert j == min(k for k, d in enumerate(costs) if d < 0), n
                    checked += 1
                bland = bland or values[i] == 0
                basis[i] = j
            assert basis == end, n
            if pivots != default[1]:
                differ.append(n)
        assert checked > 25 and 0 in differ and len(differ) > 3, (checked, differ)


@pytest.fixture(scope="module")
def search_m10_k8():
    """Every continuation of the (10, 8) history search, each decided by
    `proofs.history_verdict` on its own, so no sibling's certificate stands
    in for an LP: the verdicts, every LP they solve and the float pivots of
    each."""
    problems, float_pivots, verdicts = [], [], []
    solve, float_pass = proofs._solve_problem, exactlp._float_pivots

    def counted(problem):
        found = float_pass(problem)
        float_pivots.append([] if found is None else found[1])
        return found

    def captured(problem):
        problems.append(problem)
        return solve(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs, "_solve_problem", captured)
        patch.setattr(exactlp, "_float_pivots", counted)
        frontier = [proofs.History(10, 8, ())]
        while frontier:
            level = [
                proofs.history_verdict(parent.child(*step))
                for parent in frontier
                for step in proofs.canonical_continuations(parent)
            ]
            verdicts += level
            frontier = [v.history for v in level if v.witness is not None]
    return verdicts, problems, float_pivots


def both_routes(monkeypatch, problem):
    """The direct route's certificate of the basis where the slack tableau's
    phase 1 ends, and the tableau's own certificate; None when the tableau
    finds ``problem`` feasible."""
    ends = []
    loop = _Master._pivot_loop

    def looped(self, tab, den, basis, *args, **kw):
        out = loop(self, tab, den, basis, *args, **kw)
        ends.append(list(basis))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(exactlp, "_float_pivots", lambda problem: None)
        patch.setattr(_Master, "_pivot_loop", looped)
        tableau = _Master(problem).solve()
    if not isinstance(tableau, Infeasible):
        return None
    (end,) = ends
    return _Master(problem)._certify(end), tableau.certificate


class TestDirectCertificate:
    def test_the_m10_k8_search_makes_few_float_pivots(self, search_m10_k8):
        verdicts, problems, float_pivots = search_m10_k8
        assert sum(v.certificate is not None for v in verdicts) == 99
        assert sum(v.witness is not None for v in verdicts) == 1
        assert len(problems) == len(float_pivots) == 91
        # 698 with steepest edge; 790 without the largest pivot entry
        # among tied ratios, and 1757 under Dantzig's rule.
        assert sum(map(len, float_pivots)) <= 750

    def test_equals_the_tableaus_on_the_m10_k8_search(self, monkeypatch, search_m10_k8):
        routes = [both_routes(monkeypatch, problem) for problem in search_m10_k8[1]]
        certified = [r for r in routes if r is not None]
        assert len(certified) == 90
        for direct, tableau in certified:
            assert direct == tableau

    def test_equals_the_tableaus_on_random_systems(self, monkeypatch):
        rng = random.Random(26)
        certified = 0
        for trial in range(300):
            rows, problem, _ = random_lp(rng)
            routes = both_routes(monkeypatch, problem)
            if routes is not None:
                direct, tableau = routes
                assert direct == tableau, (trial, rows)
                assert verify_farkas(rows, direct), (trial, rows)
                certified += 1
        assert certified > 50

    def test_integer_solve_matches_fractions(self):
        rng = random.Random(17)
        singular = 0
        for trial in range(300):
            s = rng.randint(0, 6)
            entries = [0, 0, 0, 1, -1, 2, -3, 7]
            rows = [[rng.choice(entries) for _ in range(s + 1)] for _ in range(s)]
            if s > 1 and rng.random() < 0.2:
                rows[-1] = [2 * v for v in rows[0]]
            solution = exactlp._solve_integer([list(row) for row in rows])
            # Gauss-Jordan in Fractions, with the rank of E.
            a = [[Fraction(v) for v in row] for row in rows]
            rank = 0
            for k in range(s):
                p = next((i for i in range(rank, s) if a[i][k]), None)
                if p is None:
                    continue
                a[rank], a[p] = a[p], a[rank]
                a[rank] = [v / a[rank][k] for v in a[rank]]
                for i in range(s):
                    if i != rank and a[i][k]:
                        a[i] = [v - a[i][k] * w for v, w in zip(a[i], a[rank])]
                rank += 1
            if rank < s:
                assert solution is None, rows
                singular += 1
            else:
                assert [Fraction(b, a) for b, a in solution] == [row[-1] for row in a], rows
        assert singular > 20

    @pytest.mark.parametrize(
        "system, start",
        [
            # x0 >= 1, x0 <= 2 at the slack start: the artificial's ray
            # y = (0, 1) prices x0 at -1.
            ([([1], 2), ([-1], -1)], [1, 3]),
            # x0 >= 1, x0 >= 0 with x0 basic in row 1: the ray (1, -1)
            # prices x0 at 0 and has y . h = -1, but a negative multiplier.
            ([([-1], -1), ([-1], 0)], [3, 0]),
            # The slack and the artificial of row 0 both basic: singular.
            ([([-1], -1), ([1], 2)], [1, 3]),
            # x0 basic in both rows: singular.
            ([([-1], -1), ([1], 2)], [0, 0]),
        ],
        ids=["prices-negative", "negative-multiplier", "slack-and-artificial", "repeated"],
    )
    def test_a_basis_that_is_no_certificate_goes_to_the_tableau(
        self, monkeypatch, system, start
    ):
        rows, problem = make_system(system)
        assert _Master(problem)._certify(start) is None
        monkeypatch.setattr(exactlp, "_float_pivots", lambda p: (list(start), []))
        result = solve_feasibility(problem)
        assert problem.satisfied_by(result.assignment)


class TestVerifyOptimum:
    def setup_method(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6 over nonnegative x, y.
        _, self.problem = make_system([([1, 2], 4), ([3, 1], 6)])
        self.objective = {0: Fraction(1), 1: Fraction(1)}
        self.point = {0: Fraction(8, 5), 1: Fraction(6, 5)}

    def test_accepts_the_optimum_with_its_duals(self):
        claim = Optimal(Fraction(14, 5), self.point, (Fraction(2, 5), Fraction(1, 5)))
        assert verify_optimum(self.problem, self.objective, claim)
        solved = maximize(self.problem, self.objective)
        assert solved.duals == (Fraction(2, 5), Fraction(1, 5))
        assert verify_optimum(self.problem, self.objective, solved)

    def test_rejects_a_perturbed_dual(self):
        for duals in (
            (Fraction(2, 5), Fraction(1, 5) + Fraction(1, 100)),
            (Fraction(7, 10), Fraction(0)),  # h.y still 14/5; column 0 fails
            (Fraction(-2, 5), Fraction(1, 5)),
        ):
            claim = Optimal(Fraction(14, 5), self.point, duals)
            assert not verify_optimum(self.problem, self.objective, claim), duals

    def test_rejects_a_wrong_value(self):
        duals = (Fraction(2, 5), Fraction(1, 5))
        assert not verify_optimum(
            self.problem, self.objective, Optimal(Fraction(3), self.point, duals)
        )
        # A feasible but suboptimal point cannot carry the optimum's value.
        low = {0: Fraction(1), 1: Fraction(1)}
        assert not verify_optimum(
            self.problem, self.objective, Optimal(Fraction(2), low, duals)
        )

    def test_rejects_an_infeasible_point(self):
        duals = (Fraction(2, 5), Fraction(1, 5))
        far = {0: Fraction(2), 1: Fraction(4, 5)}  # value 14/5, 3x + y > 6
        assert not verify_optimum(
            self.problem, self.objective, Optimal(Fraction(14, 5), far, duals)
        )
