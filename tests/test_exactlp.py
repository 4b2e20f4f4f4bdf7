"""Tests for the exact LP engine: simplex verdicts, certificates, duality."""

import itertools
import random
from fractions import Fraction

import pytest

from pavcore import exactlp
from pavcore.exactlp import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearSystem,
    Optimal,
    Row,
    Unbounded,
    _Master,
    _Problem,
    maximize,
    solve_feasibility,
    verify_farkas,
    verify_optimum,
)


def make_system(rows, n_vars=None):
    """rows: list of (dense coeff list, rhs)."""
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
    return LinearSystem.from_rows(list(range(n_vars)), built)


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


class TestSmallVerdicts:
    def test_contradiction_pair(self):
        system = make_system([([1], -1), ([-1], 0)])
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(system, verdict.certificate)
        # The textbook certificate for this pair also verifies.
        assert verify_farkas(system, FarkasCertificate.from_list([1, 1]))

    def test_simple_feasible(self):
        system = make_system([([1], 1), ([-1], 0)])
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Feasible)
        x = verdict.value(0)
        assert 0 <= x <= 1

    def test_free_variable_feasible(self):
        # x <= -1 alone is satisfiable by a negative x.
        system = make_system([([1], -1)])
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Feasible)
        assert verdict.value(0) <= -1

    def test_free_variable_infeasible(self):
        # x <= 0 and x >= 1.
        system = make_system([([1], 0), ([-1], -1)])
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(system, verdict.certificate)

    def test_feasible_assignment_satisfies_rows_exactly(self):
        system = make_system(
            [
                ([1, 1, 0], Fraction(3, 2)),
                ([-1, 2, 1], Fraction(-1, 3)),
                ([0, -1, 0], 0),
                ([-1, 0, 0], 0),
                ([0, 0, -1], 0),
            ]
        )
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Feasible)
        for row in system.iter_rows():
            total = sum(
                (coef * verdict.value(system.variables[j]) for j, coef in row.coeffs.items()),
                Fraction(0),
            )
            assert total <= row.rhs


class TestVerifyFarkas:
    def test_rejects_wrong_sign_product(self):
        system = make_system([([1], -1), ([-1], 0)])
        # y.b = 0, not < 0.
        assert not verify_farkas(system, FarkasCertificate.from_list([0, 1]))

    def test_rejects_negative_multiplier(self):
        system = make_system([([1], -1), ([-1], 0)])
        assert not verify_farkas(system, FarkasCertificate.from_list([1, -1]))

    def test_dimension_mismatch_is_error(self):
        system = make_system([([1], -1), ([-1], 0)])
        with pytest.raises(ValueError):
            verify_farkas(system, FarkasCertificate.from_list([1, 1, 1]))

    def test_rejects_violated_column_sum(self):
        # x0 - x1 <= -1 with nonnegativity on both: feasible, so no valid
        # certificate exists; this candidate fails the A^T y >= 0 test.
        system = make_system([([1, -1], -1), ([-1, 0], 0), ([0, -1], 0)])
        assert not verify_farkas(system, FarkasCertificate.from_list([1, 0, 0]))


class TestMaximize:
    def test_bounded_maximum(self):
        system = make_system([([1], 1), ([-1], 0)])
        result = maximize(system, {0: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == 1

    def test_minimize_via_negation(self):
        system = make_system([([1], 1), ([-1], Fraction(1, 3))])
        result = maximize(system, {0: Fraction(-1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(1, 3)

    def test_unbounded(self):
        system = make_system([([-1], 0)])
        assert isinstance(maximize(system, {0: Fraction(1)}), Unbounded)

    def test_infeasible(self):
        system = make_system([([1], -1), ([-1], 0)])
        result = maximize(system, {0: Fraction(1)})
        assert isinstance(result, Infeasible)
        assert verify_farkas(system, result.certificate)

    def test_two_variable_lp(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (8/5, 6/5).
        system = make_system(
            [([1, 2], 4), ([3, 1], 6), ([-1, 0], 0), ([0, -1], 0)]
        )
        result = maximize(system, {0: Fraction(1), 1: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(14, 5)
        assert result.assignment[0] == Fraction(8, 5)
        assert result.assignment[1] == Fraction(6, 5)


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
            # Mix in nonnegativity rows about half the time.
            if rng.random() < 0.5:
                for j in range(n_vars):
                    unit = [Fraction(0)] * n_vars
                    unit[j] = Fraction(-1)
                    rows.append((unit, Fraction(0)))
            system = make_system(rows, n_vars)
            verdict = solve_feasibility(system)
            expected = fourier_motzkin_feasible(rows, n_vars)
            if expected:
                assert isinstance(verdict, Feasible), f"trial {trial}"
                for row in system.iter_rows():
                    total = sum(
                        (c * verdict.value(j) for j, c in row.coeffs.items()),
                        Fraction(0),
                    )
                    assert total <= row.rhs
            else:
                assert isinstance(verdict, Infeasible), f"trial {trial}"
                assert verify_farkas(system, verdict.certificate)


class TestColumnActivation:
    def test_wide_feasible_system(self):
        # Many columns, one of which must carry weight 1.
        n = 3000
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({2718: Fraction(-1)}, Fraction(-1, 2), ("need",)),
        ]
        system = LinearSystem(list(range(n)), rows, nonneg_block=True)
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Feasible)
        assert verdict.value(2718) >= Fraction(1, 2)
        total = sum(verdict.assignment.values(), Fraction(0))
        assert total == 1

    def test_wide_infeasible_system(self):
        # Total weight 1 but every column is capped well below 1/n; the
        # certificate must touch every cap row, the worst case for column
        # activation.
        n = 600
        rows = [
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
        ]
        for j in range(n):
            rows.append(Row({j: Fraction(1)}, Fraction(1, 3 * n), ("cap", j)))
        system = LinearSystem(list(range(n)), rows, nonneg_block=True)
        verdict = solve_feasibility(system)
        assert isinstance(verdict, Infeasible)
        assert verify_farkas(system, verdict.certificate)

    def test_wide_maximize(self):
        n = 2000
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
        ]
        system = LinearSystem(list(range(n)), rows, nonneg_block=True)
        result = maximize(system, {561: Fraction(2)})
        assert isinstance(result, Optimal)
        assert result.value == 2
        assert result.assignment[561] == 1


class TestDuals:
    def test_master_duals_on_negative_rhs_row(self):
        # min x0 + 2 x1  st  x0 + x1 <= 2,  -x0 - x1 <= -1,  x >= 0.
        # The optimum 1 sits at x0 = 1; the covering row (negative rhs)
        # carries multiplier -1 and the packing row 0.
        columns = [(0, [Fraction(1), Fraction(-1)]), (1, [Fraction(1), Fraction(-1)])]
        rhs = [Fraction(2), Fraction(-1)]
        cost = {0: Fraction(1), 1: Fraction(2)}
        status, x, value, duals = _Master(columns, rhs).solve(objective_per_key=cost)
        assert status == "optimal"
        assert value == 1 and x == {0: 1}
        assert list(duals) == [0, -1]
        # Dual feasibility and strong duality for min c.x, Gx <= h, x >= 0.
        assert all(y <= 0 for y in duals)
        for key, col in columns:
            assert cost[key] - sum(y * g for y, g in zip(duals, col)) >= 0
        assert sum(y * h for y, h in zip(duals, rhs)) == value

    def test_wide_maximize_with_negative_rhs_rows(self):
        # Column activation prices with the duals; a wrong sign on the
        # negative-rhs rows keeps flagging columns that are already active.
        n = 300
        rows = [
            Row({j: Fraction(1) for j in range(n)}, Fraction(1), ("up",)),
            Row({j: Fraction(-1) for j in range(n)}, Fraction(-1), ("lo",)),
            Row({0: Fraction(1), n - 1: Fraction(-2)}, Fraction(-1), ("link",)),
        ]
        system = LinearSystem(list(range(n)), rows, nonneg_block=True)
        result = maximize(system, {0: Fraction(1)})
        assert isinstance(result, Optimal)
        assert result.value == Fraction(1, 3)
        assert verify_optimum(_Problem.from_system(system), {0: Fraction(1)}, result)

    def test_activation_matches_all_columns(self, monkeypatch):
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
            cases.append((LinearSystem(list(range(n)), rows, nonneg_block=True), objective))
        dense = [maximize(system, objective) for system, objective in cases]
        monkeypatch.setattr(exactlp, "DENSE_COLUMN_LIMIT", 5)
        monkeypatch.setattr(exactlp, "ACTIVATION_BATCH", 2)
        for (system, objective), expected in zip(cases, dense):
            result = maximize(system, objective)
            assert type(result) is type(expected)
            if isinstance(result, Optimal):
                assert result.value == expected.value
                problem = _Problem.from_system(system)
                assert verify_optimum(problem, objective, result)


class TestVerifyOptimum:
    def setup_method(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6, x, y >= 0.
        self.system = make_system(
            [([1, 2], 4), ([3, 1], 6), ([-1, 0], 0), ([0, -1], 0)]
        )
        self.problem = _Problem.from_system(self.system)
        self.objective = {0: Fraction(1), 1: Fraction(1)}
        self.point = {0: Fraction(8, 5), 1: Fraction(6, 5)}

    def test_accepts_the_optimum_with_its_duals(self):
        claim = Optimal(Fraction(14, 5), self.point, (Fraction(2, 5), Fraction(1, 5)))
        assert verify_optimum(self.problem, self.objective, claim)
        solved = maximize(self.system, self.objective)
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
