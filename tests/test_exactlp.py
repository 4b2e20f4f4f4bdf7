"""Tests for the exact LP engine: simplex verdicts, certificates, and
optima certified as bounds through the feasibility path."""

import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import tableau_oracle
from pavcore import exactlp, proofs
from pavcore.checker import FarkasCertificate, Row, verify_bound, verify_farkas, verify_point
from pavcore.exactlp import Feasible, Infeasible, _Master, _Problem, solve_feasibility
from pavcore.proofs import OptimalityRecord, _bound_problem, _certified_bound


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
    """The reference for `_Problem.column_gaps`, as the solver once
    priced: exact ``(totals, factor)`` with ``totals = factor * G^T y``
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


def loop_violations(problem, y):
    """The reference for `_Problem.violations`: one Python step per column,
    then a sort on (reduced cost, column)."""
    totals, _ = price(problem, y)
    out = sorted((totals[j], j) for j in range(problem.n_vars) if totals[j] < 0)
    return [j for _, j in out]


def random_pricing_case(rng):
    """A random problem, int64 or with entries of 2^62 and above, with
    `Fraction` or int multipliers."""
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
    return problem, y


class TestPricingKernel:
    def test_matches_the_column_loop_on_random_systems(self):
        rng = random.Random(1812)
        kinds = set()
        for _ in range(400):
            problem, y = random_pricing_case(rng)
            kinds.add((problem.matrix.dtype == object, type(y[0])))
            case = (problem.matrix.tolist(), problem.scales, y)
            assert problem.violations(y) == loop_violations(problem, y), case
            gaps = problem.column_gaps(y)
            for j, gap in enumerate(gaps.tolist()):
                exact = sum(
                    (Fraction(int(problem.matrix[i, j]) * u, s)
                     for i, (u, s) in enumerate(zip(y, problem.scales))),
                    Fraction(0),
                )
                assert (gap > 0) - (gap < 0) == (exact > 0) - (exact < 0), (case, j)
        assert len(kinds) == 4

    def test_falls_back_to_python_ints_past_int64(self):
        matrix = np.array([[1, -1], [2, 0]], dtype=np.int64)
        problem = _Problem(matrix, [1, 1], [0, 0], [("row", 0), ("row", 1)])
        assert problem.column_gaps([1, 1]).dtype == np.int64
        gaps = problem.column_gaps([2**62, 2**62])
        assert gaps.dtype == object and gaps.tolist() == [3 * 2**62, -(2**62)]


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


def fraction_verify_point(rows, point, n_cols):
    """The reference for `verify_point`: one `Fraction` multiply and one add
    per entry of every row."""
    if any(not 0 <= j < n_cols or v < 0 for j, v in point.items()):
        return False
    return all(
        sum((c * point.get(j, 0) for j, c in row.coeffs.items()), Fraction(0)) <= row.rhs
        for row in rows
    )


class TestVerifyPoint:
    def test_matches_the_fraction_loop_on_random_systems(self):
        # The rows of `random_certified_system`, entries of 2^70 among
        # them, use at most 5 of the point's 5 to 8 columns, so that some
        # columns meet no row; each right-hand side is the row's sum at
        # the point, moved by 0, a little up or a little down.
        rng = random.Random(33)
        kinds = collections.Counter()
        weights = [0, 1, 3, Fraction(1, 3), Fraction(2**70, 7), Fraction(1, 2**70)]
        for _ in range(600):
            rows, _ = random_certified_system(rng)
            n_cols = rng.randint(5, 8)
            cols = rng.sample(range(n_cols), rng.randint(0, n_cols))
            point = {j: rng.choice(weights) for j in cols}
            rows = [
                Row(
                    row.coeffs,
                    sum((c * point.get(j, 0) for j, c in row.coeffs.items()), Fraction(0))
                    + rng.choice([0, 0, 0, 0, Fraction(1, 2**80), -Fraction(1, 2**80)]),
                    row.tag,
                )
                for row in rows
            ]
            change = rng.random()
            if change < 0.1:
                point[rng.randrange(n_cols)] = -rng.choice(weights[1:])
            elif change < 0.2:
                point[rng.choice([-1, n_cols, n_cols + 3])] = rng.choice(weights)
            verdict = verify_point(rows, point, n_cols)
            assert verdict == fraction_verify_point(rows, point, n_cols), (rows, point)
            kinds[verdict, change < 0.2] += 1
        assert kinds[True, False] > 100 and kinds[False, False] > 100
        assert kinds[False, True] > 50, kinds

    def test_a_wide_row_and_a_column_it_lacks(self):
        # Column j of 0, 2, ..., 2998 holds (j % 5 - 2) / 3; 2999 holds 0.
        row = Row({j: Fraction(j % 5 - 2, 3) for j in range(0, 3000, 2)}, Fraction(1, 3), ("w",))
        assert verify_point([row], {2999: 7, 4: Fraction(1, 2)}, 3000)
        assert not verify_point([row], {4: Fraction(1, 2), 8: Fraction(1, 2)}, 3000)
        assert verify_point([], {}, 0) and not verify_point([], {0: 1}, 0)


def homogenized(rows, n_vars, objective, sign, value):
    """The rows of the system of the bound ``sign * c.x <= sign * value``
    (`proofs._bound_problem`), built here from `Row`s: each row
    ``a.x <= b`` becomes ``a.x - b s <= 0`` over one more column s, and
    ``-sign c.x + sign value s <= -1`` is added."""
    built = [Row({**row.coeffs, n_vars: -row.rhs}, 0, row.tag) for row in rows]
    last = {j: -sign * Fraction(c) for j, c in objective.items()}
    last[n_vars] = sign * Fraction(value)
    return built + [Row(last, -1, ("bound",))]


def certify(problem, objective, sense, value):
    return _certified_bound(problem, objective, sense, Fraction(value), "bound")


class TestMaximize:
    """Optima of small LPs, certified as bounds by the feasibility path
    (`proofs._certified_bound`): a bound at the optimum certifies, and one
    past it raises."""

    def test_bounded_maximum(self):
        rows, problem = make_system([([1], 1), ([-1], 0)])
        record = certify(problem, {0: 1}, "max", 1)
        assert record.multipliers == (1, 0) and record.scale == 1
        assert record.verify(rows)
        with pytest.raises(RuntimeError):
            certify(problem, {0: 1}, "max", Fraction(99, 100))

    def test_minimize_via_negation(self):
        rows, problem = make_system([([1], 1), ([-1], Fraction(-1, 3))])
        record = certify(problem, {0: 1}, "min", Fraction(1, 3))
        assert record.multipliers == (0, 1) and record.scale == 1
        assert record.verify(rows)
        with pytest.raises(RuntimeError):
            certify(problem, {0: 1}, "min", Fraction(1, 3) + Fraction(1, 100))

    def test_unbounded(self):
        # No bound holds: the bound's system has the ray (x, s) = (1, 0).
        _, problem = make_system([([-1], 0)])
        with pytest.raises(RuntimeError):
            certify(problem, {0: 1}, "max", 10**6)

    def test_infeasible(self):
        # No point breaks a bound on an empty system, so every bound
        # certifies.
        rows, problem = make_system([([1], -1), ([-1], 0)])
        assert isinstance(solve_feasibility(problem), Infeasible)
        for value in (-5, 0, 7):
            assert certify(problem, {0: 1}, "max", value).verify(rows)

    def test_two_variable_lp(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (8/5, 6/5), with
        # the duals (2/5, 1/5).
        rows, problem = make_system(
            [([1, 2], 4), ([3, 1], 6), ([-1, 0], 0), ([0, -1], 0)]
        )
        objective = {0: Fraction(1), 1: Fraction(1)}
        record = certify(problem, objective, "max", Fraction(14, 5))
        assert record.multipliers == (2, 1, 0, 0) and record.scale == 5
        assert record.verify(rows)
        assert record.value_at({0: Fraction(8, 5), 1: Fraction(6, 5)}) == Fraction(14, 5)
        with pytest.raises(RuntimeError):
            certify(problem, objective, "max", Fraction(14, 5) - Fraction(1, 10**6))

class TestBoundProblem:
    def test_the_bound_system_is_the_homogenized_rows(self):
        # `_bound_problem` scales each row by its right-hand side's
        # denominator; as rationals its rows are those built from `Row`s.
        rng = random.Random(32)
        for trial in range(100):
            rows, n = random_rows(rng)
            objective, sign = random_objective(rng, n), rng.choice([1, -1])
            value = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            built = _bound_problem(make_problem(rows, n), objective, sign, value)
            expected = make_problem(homogenized(rows, n, objective, sign, value), n + 1)
            assert built.tags == expected.tags and built.rhs == expected.rhs, trial
            rationals = [
                [[Fraction(int(v), scale) for v in row] for row, scale in zip(p.matrix, p.scales)]
                for p in (built, expected)
            ]
            assert rationals[0] == rationals[1], trial


class TestVerifyBound:
    def test_matches_the_homogenized_farkas_check_on_random_systems(self):
        # The systems of `TestBoundProblem`. The solver's certificate of the
        # bound's system, where it has one, and random or changed
        # multipliers: `verify_bound` puts s one column past the columns
        # used, `homogenized` at column n, and both agree.
        rng = random.Random(32)
        kinds = collections.Counter()
        for trial in range(100):
            rows, n = random_rows(rng)
            objective, sign = random_objective(rng, n), rng.choice([1, -1])
            value = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            bound = homogenized(rows, n, objective, sign, value)
            verdict = solve_feasibility(make_problem(bound, n + 1))
            candidates = [[rng.choice([0, 0, 1, 2, 7]) for _ in bound] for _ in range(3)]
            if isinstance(verdict, Infeasible):
                found = [verdict.certificate.multiplier(i) for i in range(len(bound))]
                candidates.append(found)
                changed = list(found)
                changed[rng.randrange(len(bound))] += rng.choice([-1, 1, 3])
                candidates += [changed, found[:-1] + [0]]
            for *y, mu in candidates:
                record = (objective, "max" if sign == 1 else "min", value, y, mu)
                accepted = verify_bound(rows, *record)
                expected = fraction_verify_farkas(bound, FarkasCertificate.from_list([*y, mu]))
                assert accepted == expected, (trial, rows, record)
                kinds[accepted] += 1
            assert not verify_bound(rows, objective, "max", value, [0] * (len(rows) + 1), 1)
        assert kinds[True] > 30 and kinds[False] > 200, kinds


class TestAntiCycling:
    def test_beale_cycle_ends_under_blands_rule(self, monkeypatch):
        # Beale's LP, max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4 with maximum 5/4,
        # as the system of that bound, from the slack start. The
        # most-negative reduced cost rule cycles on it, six pivots a turn;
        # the stall counter must hand the entering choice to Bland's rule
        # after _DEGENERACY_LIMIT pivots, which ends with the bound's
        # certificate.
        rows, problem = make_system(
            [
                ([Fraction(1, 4), -8, -1, 9], 0),
                ([Fraction(1, 2), -12, Fraction(-1, 2), 3], 0),
                ([0, 0, 1, 0], 1),
            ]
        )
        objective = {
            0: Fraction(3, 4), 1: Fraction(-20), 2: Fraction(1, 2), 3: Fraction(-6)
        }
        bound = _bound_problem(problem, objective, 1, Fraction(5, 4))
        pivots = []
        pivot = _Master._pivot

        def counted(*args):
            pivots.append(args[3:5])
            if len(pivots) == 200:
                raise RuntimeError("the simplex cycles")
            return pivot(*args)

        monkeypatch.setattr(_Master, "_pivot", staticmethod(counted))
        monkeypatch.setattr(exactlp, "_float_pivots", lambda problem: None)
        verdict = solve_feasibility(bound)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(homogenized(rows, 4, objective, 1, Fraction(5, 4)), verdict.certificate)
        assert exactlp._DEGENERACY_LIMIT < len(pivots) < 30
        # With Bland's rule out of reach, the same six pivots repeat.
        pivots.clear()
        monkeypatch.setattr(exactlp, "_DEGENERACY_LIMIT", 10**9)
        with pytest.raises(RuntimeError, match="cycles"):
            solve_feasibility(bound)
        assert pivots[6:] == pivots[:-6] and len(set(pivots)) == 6


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
        problem = make_problem(rows, n)
        record = certify(problem, {561: Fraction(2)}, "max", 2)
        assert record.multipliers == (2, 0) and record.scale == 1
        assert record.value_at({561: Fraction(1)}) == 2
        with pytest.raises(RuntimeError):
            certify(problem, {561: Fraction(2)}, "max", Fraction(199, 100))


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
        # The bound's system has Python-int entries too, so the float pass
        # skips it and the slack tableau certifies it.
        assert certify(problem, {0: 1, 1: 1}, "max", Fraction(1, 2)).verify(rows)
        cut = Row({0: Fraction(-1), 1: Fraction(-1)}, Fraction(-2, 3), ("cut",))
        verdict = solve_feasibility(make_problem(rows + [cut], n))
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(rows + [cut], verdict.certificate)


class TestDuals:
    """The multipliers of a bound's certificate are the LP duals of its
    optimum, times the certificate's scale."""

    def test_master_duals_on_negative_rhs_row(self):
        # max -x0 - 2 x1  st  x0 + x1 <= 2,  -x0 - x1 <= -1,  x >= 0.
        # The optimum -1 sits at x0 = 1; the covering row (negative rhs)
        # carries multiplier 1 and the packing row 0.
        block = np.array([[1, 1], [-1, -1]], dtype=np.int64)
        problem = _Problem(block, [1, 1], [2, -1], [("packing",), ("covering",)])
        objective = {0: Fraction(-1), 1: Fraction(-2)}
        record = certify(problem, objective, "max", -1)
        assert record.multipliers == (0, 1) and record.scale == 1
        assert record.value_at({0: Fraction(1)}) == -1
        with pytest.raises(RuntimeError):
            certify(problem, objective, "max", Fraction(-101, 100))

    def test_wide_maximize_with_negative_rhs_rows(self):
        # Every pivot prices with the multipliers; a wrong sign on the
        # negative-rhs rows flags columns that are already basic.
        n = 300
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({0: Fraction(1), n - 1: Fraction(-2)}, Fraction(-1), ("link",)),
        ]
        problem = make_problem(rows, n)
        assert certify(problem, {0: Fraction(1)}, "max", Fraction(1, 3)).verify(rows)
        with pytest.raises(RuntimeError):
            certify(problem, {0: Fraction(1)}, "max", Fraction(1, 3) - Fraction(1, 10**6))

    def test_activation_matches_all_columns(self):
        # The full-tableau solver with column activation, activating two
        # columns per round from five, must reach the same verdicts on the
        # systems of bounds.
        rng = random.Random(3)
        kinds = collections.Counter()
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
            value = Fraction(rng.randint(-2, 2), 2)
            bound = homogenized(rows, n, objective, 1, value)
            problem = make_problem(bound, n + 1)
            expected = tableau_oracle.solve_feasibility(problem, dense_limit=5, batch=2)
            result = solve_feasibility(problem)
            assert type(result) is type(expected)
            if isinstance(result, Infeasible):
                assert verify_farkas(bound, result.certificate)
            kinds[type(result)] += 1
        assert min(kinds[Feasible], kinds[Infeasible]) >= 10, kinds


def random_rows(rng):
    """Random rows over n columns, some with negative right-hand sides,
    some all-zero, some repeated (redundant once one copy is tight), and
    in about one system in six an entry of 2^63 or more; a row capping the
    total weight half the time. Returns the rows and n."""
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
    return rows, n


def random_objective(rng, n):
    cols = rng.sample(range(n), rng.randint(1, n))
    return {j: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for j in cols}


def random_lp(rng):
    """Random rows (`random_rows`), and in about three systems in five
    instead the system of a bound on a random objective over them
    (`homogenized`), whose rows but one have right-hand side 0. Returns
    the rows, their solver form and whether they are a bound's."""
    rows, n = random_rows(rng)
    bound = rng.random() < 0.6
    if bound:
        objective, sign = random_objective(rng, n), rng.choice([1, -1])
        rows = homogenized(rows, n, objective, sign, Fraction(rng.randint(-4, 4), 2))
        n += 1
    return rows, make_problem(rows, n), bound


class TestAgainstTableauOracle:
    def test_same_verdicts_on_random_systems(self, monkeypatch):
        object_pricing = []
        gaps = _Problem.column_gaps

        def spy(self, y):
            out = gaps(self, y)
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
            rows, problem, bound = random_lp(rng)
            case = (trial, rows)
            knobs = rng.choice([{}, {"dense_limit": 3, "batch": 2}])
            solve = lambda: solve_feasibility(problem)
            for log in [*pivots.values(), *loops.values()]:
                log.clear()
            expected = tableau_oracle.solve_feasibility(problem, **knobs)
            slack = slack_started(monkeypatch, solve)
            slack_pivots = list(pivots[_Master])
            if not knobs:
                # From the slack start, the oracle makes the same pivots and
                # ends phase 1 at the same basis, row for row, with the
                # same certificate or point.
                assert slack == expected, case
                assert pivots[_Master] == pivots[tableau_oracle.Master], case
                ends = [basis for _, basis in loops[_Master]]
                assert ends == [basis for _, basis in loops[tableau_oracle.Master]], case
                same[type(expected).__name__] += 1
            # From the float start, the verdict is the oracle's, and every
            # certificate and point checks out.
            routes.clear()
            pivots[_Master].clear()
            result = solve()
            assert type(result) is type(expected), case
            same.update(routes[-1:])
            if isinstance(result, Feasible):
                # The float basis only proposes refutations: a point is the
                # slack start's, pivot for pivot, and so on a knob-free case
                # the oracle's.
                assert result == slack and pivots[_Master] == slack_pivots, case
                assert verify_point(rows, result.assignment, problem.n_vars), case
            else:
                assert verify_farkas(rows, result.certificate), case
            kinds[type(result).__name__, bound] += 1
        assert set(kinds) == {
            ("Feasible", False), ("Feasible", True), ("Infeasible", False), ("Infeasible", True),
        }
        assert min(kinds.values()) >= 20, kinds
        # A refused ray is rare: rounding must mislead the float pass, and
        # none does here, so
        # `test_a_basis_that_is_no_certificate_goes_to_the_tableau` forces it.
        assert same["direct"] > 80, same
        assert same["Feasible"] >= 20 and same["Infeasible"] > 100, same
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
    # proposes a refutation, and the verdict is the slack start's. So it is
    # for the system of the bound x0 - 2 x1 <= -1/2, the maximum over the
    # rows, whose one artificial is column 9.
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
        rows, problem = make_system(self.ROWS)
        if objective is not None:
            rows = homogenized(rows, 4, objective, 1, Fraction(-1, 2))
            problem = make_problem(rows, 5)
        solve = lambda: solve_feasibility(problem)
        expected = slack_started(monkeypatch, solve)
        monkeypatch.setattr(exactlp, "_float_pivots", lambda p: (list(start), []))
        assert solve() == expected
        if objective is not None:
            assert verify_farkas(rows, expected.certificate)

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
                assert verify_point(rows, result.assignment, problem.n_vars)
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
        assert verify_point(rows, result.assignment, problem.n_vars)


class TestVerifyOptimum:
    """`OptimalityRecord.verify` checks a bound on `Row`s with no solver; a
    point of the rows that attains it makes it the optimum."""

    def setup_method(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6 over nonnegative x, y.
        self.rows, self.problem = make_system([([1, 2], 4), ([3, 1], 6)])
        self.objective = {0: Fraction(1), 1: Fraction(1)}
        self.point = {0: Fraction(8, 5), 1: Fraction(6, 5)}

    def record(self, optimum, multipliers, scale):
        return OptimalityRecord("x + y", "max", optimum, self.objective, multipliers, scale)

    def test_accepts_the_optimum_with_its_duals(self):
        # The duals (2/5, 1/5), times the scale 5.
        claim = self.record(Fraction(14, 5), (2, 1), 5)
        assert claim.verify(self.rows)
        assert verify_point(self.rows, self.point, 2)
        assert claim.value_at(self.point) == Fraction(14, 5)
        solved = certify(self.problem, self.objective, "max", Fraction(14, 5))
        assert solved == dataclasses.replace(claim, label="bound")

    def test_rejects_a_perturbed_dual(self):
        for multipliers, scale in (
            ((40, 21), 100),  # (2/5, 1/5 + 1/100): y.h > 14/5
            ((7, 0), 10),  # (7/10, 0): y.h is still 14/5; column 0 fails
            ((-2, 1), 5),
            ((2, 1), 0),
            ((2, 1, 0), 5),
        ):
            claim = self.record(Fraction(14, 5), multipliers, scale)
            assert not claim.verify(self.rows), multipliers

    def test_rejects_a_wrong_value(self):
        # Below the optimum the bound fails; above it the bound holds, but
        # no point attains it.
        assert not self.record(Fraction(2), (2, 1), 5).verify(self.rows)
        claim = self.record(Fraction(3), (2, 1), 5)
        assert claim.verify(self.rows) and claim.value_at(self.point) != 3

    def test_rejects_an_infeasible_point(self):
        far = {0: Fraction(2), 1: Fraction(4, 5)}  # value 14/5, 3x + y > 6
        claim = self.record(Fraction(14, 5), (2, 1), 5)
        assert claim.value_at(far) == Fraction(14, 5)
        assert not verify_point(self.rows, far, 2)
