"""Exact linear-program feasibility and optimization over the rationals.

A system is a list of rows ``Ax <= b`` over nonnegative variables: every
variable is a ballot weight, so ``x >= 0`` is part of every problem without
any row stating it. Verdicts are produced by an exact two-phase simplex
whose tableau is fraction-free: each row is a vector of Python ints over
one positive row denominator, and a pivot updates a row with integer
products and one gcd (Edmonds 1967; Bareiss 1968), so no `Fraction` is
made inside the pivot loop. The entering rule falls back to Bland's
anti-cycling rule when the objective stalls. Infeasibility comes with an
integer Farkas certificate (one multiplier per row, y >= 0 with y.b < 0
and A^T y >= 0, which together rule out every x >= 0) that `verify_farkas`
checks without any solver, in ints over one common denominator; an optimum
comes with a point and an LP-duality certificate that `verify_optimum`
checks exactly.

The solver sees a system as one dense integer matrix with a positive scale
and an exact right-hand side per row (`_Problem`); column j is variable j.
One pricing kernel (`_Problem.column_gaps`) computes ``G^T y - c`` for every
column exactly, with integer dot products: for column activation, for the
optimum check, and for the certificate check of the searches in `proofs`.
Wide systems (many variables, few rows) are solved by column activation:
the simplex works on a growing subset of columns, and after each verdict
every column of the full system is priced to either confirm the verdict or
activate violated columns. Setting a variable to zero preserves
feasibility, so a feasible restricted system is feasible in full; an
infeasibility ray or an optimum's duals that price clean on every column
hold for the full system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

_Q0 = Fraction(0)

#: Systems with at most this many variables are solved with all columns
#: active from the start; larger ones go through column activation.
DENSE_COLUMN_LIMIT = 280

#: How many violated columns to activate per pricing round.
ACTIVATION_BATCH = 64

#: Integer sums below this bound cannot overflow int64.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class Row:
    """One inequality ``sum(coeffs[j] * x_j) <= rhs`` with a provenance tag."""

    coeffs: Mapping[int, Fraction]  # column position -> coefficient
    rhs: Fraction
    tag: tuple


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative integer row multipliers proving ``Ax <= b`` infeasible,
    one per row of the system.

    Stored sparsely: ``nonzero`` maps row index to multiplier; all other
    rows carry multiplier 0. ``n_rows`` pins the system size the certificate
    belongs to.
    """

    n_rows: int
    nonzero: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(
            self,
            "nonzero",
            {int(i): int(v) for i, v in self.nonzero.items() if v != 0},
        )
        for i in self.nonzero:
            if not 0 <= i < self.n_rows:
                raise ValueError(f"multiplier index {i} out of range")

    @classmethod
    def from_list(cls, multipliers: Sequence[int]) -> "FarkasCertificate":
        return cls(
            len(multipliers),
            {i: int(v) for i, v in enumerate(multipliers) if v != 0},
        )

    def multiplier(self, row_index: int) -> int:
        return self.nonzero.get(row_index, 0)


@dataclass(frozen=True)
class Feasible:
    """A satisfying assignment per column; absent columns are zero."""

    assignment: Mapping[int, Fraction]

    def value(self, column: int) -> Fraction:
        return self.assignment.get(column, Fraction(0))


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


@dataclass(frozen=True)
class Optimal:
    """An optimum with its point and its LP-duality certificate: ``duals``
    are multipliers ``y >= 0`` over the rows with ``G^T y >= c`` and
    ``h . y = value``."""

    value: Fraction
    assignment: Mapping[int, Fraction]
    duals: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class Unbounded:
    pass


LpVerdict = Union[Feasible, Infeasible]
MaximizeResult = Union[Optimal, Infeasible, Unbounded]


def verify_farkas(rows: Sequence[Row], certificate: FarkasCertificate) -> bool:
    """Check a Farkas certificate exactly, without any solver.

    True iff every multiplier is a nonnegative integer, ``y . b < 0``, and
    ``A^T y >= 0`` componentwise. Then every ``x >= 0`` with ``Ax <= b``
    would give ``0 <= (A^T y) . x = y . Ax <= y . b < 0``, so the system,
    whose variables are all nonnegative, has no solution.

    Both sums are ints scaled by ``L > 0``, the lcm of the denominators in
    the rows with a nonzero multiplier, so their signs are the exact ones.
    """
    if certificate.n_rows != len(rows):
        raise ValueError(
            f"certificate has {certificate.n_rows} multipliers, "
            f"system has {len(rows)} rows"
        )
    if any(v < 0 for v in certificate.nonzero.values()):
        return False
    used = [(mult, rows[i]) for i, mult in certificate.nonzero.items()]
    dens = {c.denominator for _, row in used for c in (row.rhs, *row.coeffs.values())}
    L = math.lcm(*dens)
    yb = 0
    col_sums: dict[int, int] = {}
    for mult, row in used:
        yb += mult * row.rhs.numerator * (L // row.rhs.denominator)
        scale = {d: mult * (L // d) for d in dens}
        for j, coef in row.coeffs.items():
            num, den = coef.as_integer_ratio()
            col_sums[j] = col_sums.get(j, 0) + num * scale[den]
    if not yb < 0:
        return False
    return all(total >= 0 for total in col_sums.values())


# ---------------------------------------------------------------------------
# Exact two-phase simplex on the active-column master problem.


#: Consecutive non-improving pivots tolerated before switching the
#: entering rule from steepest (Dantzig) to Bland's rule, which cannot
#: cycle; the verdict itself is exact either way.
_DEGENERACY_LIMIT = 12


class _Master:
    """Dense exact tableau for ``min c.x : Gx <= h, x >= 0``, in integers.

    Row i of ``G x <= h`` reads ``block[i] . x <= scales[i] * rhs[i]``, as
    in `_Problem`: an integer ``block`` (int64 or Python ints), positive
    integer scales and exact right-hand sides; column j of ``block`` is
    column ``keys[j]`` of the problem. Each tableau row, and the objective
    row below them, is a numpy object array of Python ints over one
    positive row denominator, kept in lowest terms: a pivot updates every
    other row without division and then divides it by one gcd. The
    entering column is chosen by most-negative reduced cost until the
    objective stalls, after which Bland's least-index rule takes over,
    guaranteeing termination. The reduced costs share the objective row's
    denominator, so their numerators decide; ratios compare by
    cross-multiplication. Values leave the tableau as `Fraction`s.
    """

    def __init__(self, keys, block, scales, rhs):
        self.keys = list(keys)
        self.block = block
        self.scales = scales
        self.rhs = rhs
        self.n_rows, self.n_struct = block.shape

    def solve(self, objective_per_key=None):
        """Run two-phase simplex; return a result tuple.

        ("infeasible", ray)       ray over the rows, all >= 0
        ("optimal", x, value, duals)  x sparse over keys; duals over rows
        ("unbounded",)
        """
        R, S = self.n_rows, self.n_struct
        h = [b * s for b, s in zip(self.rhs, self.scales)]
        sigma = [1 if b >= 0 else -1 for b in h]
        art_rows = [i for i in range(R) if sigma[i] < 0]
        width = S + R + len(art_rows)
        # Column layout: structural | slacks | artificials | rhs. Row i is
        # sigma_i times original row i, over den[i]; row R is the objective.
        tab = np.zeros((R + 1, width + 1), dtype=object)
        mult = np.array([si * b.denominator for si, b in zip(sigma, h)], dtype=object)
        tab[:R, :S] = self.block.astype(object) * mult[:, None]
        den = [b.denominator * s for b, s in zip(h, self.scales)] + [1]
        for i in range(R):
            tab[i, S + i] = sigma[i] * den[i]
            tab[i, width] = sigma[i] * h[i].numerator
        basis = [S + i for i in range(R)]
        for a, i in enumerate(art_rows):
            tab[i, S + R + a] = den[i]
            basis[i] = S + R + a
        for i in range(R):
            _lowest_terms(tab, den, i, den[i])

        # Phase 1: minimize the sum of artificials.
        tab[R, S + R : width] = 1
        for i in art_rows:
            _eliminate(tab, den, R, i, basis[i])
        self._pivot_loop(tab, den, basis, allowed=width)
        if tab[R, width] < 0:
            # Farkas ray: phase-1 reduced costs of the slack columns.
            ray = [Fraction(tab[R, S + i], den[R]) for i in range(R)]
            return ("infeasible", ray)

        # Drive leftover artificial basics out (degenerate pivots).
        for i in range(R):
            if basis[i] >= S + R:
                nonzero = np.flatnonzero(tab[i, : S + R])
                if nonzero.size:
                    self._pivot(tab, den, basis, i, int(nonzero[0]))
                # An all-zero row is redundant; its artificial stays at 0.

        if objective_per_key is None:
            x = self._extract(tab, den, basis)
            return ("optimal", x, Fraction(0), self._duals(tab, den))

        # Phase 2 objective row, reduced against the basis.
        cost = [Fraction(objective_per_key.get(key, 0)) for key in self.keys]
        den[R] = math.lcm(1, *(c.denominator for c in cost))
        tab[R] = 0
        tab[R, :S] = [c.numerator * (den[R] // c.denominator) for c in cost]
        for i, b in enumerate(basis):
            if b < S and tab[R, b]:
                _eliminate(tab, den, R, i, b)
        status = self._pivot_loop(tab, den, basis, allowed=S + R)
        if status == "unbounded":
            return ("unbounded",)
        x = self._extract(tab, den, basis)
        value = _Q0
        for key, v in x.items():
            c = objective_per_key.get(key)
            if c:
                value += c * v
        return ("optimal", x, value, self._duals(tab, den))

    def _pivot_loop(self, tab, den, basis, allowed):
        R = self.n_rows
        bland = False
        stall = 0
        while True:
            costs = tab[R, :allowed]
            if bland:
                negative = np.flatnonzero(costs < 0)
                enter = int(negative[0]) if negative.size else -1
            else:
                enter = int(np.argmin(costs))
                if not costs[enter] < 0:
                    enter = -1
            if enter < 0:
                return "optimal"
            # Least ratio rhs / entry over positive entries; the row
            # denominator cancels in each ratio.
            leave = -1
            for i in np.flatnonzero(tab[:R, enter] > 0):
                a, b = tab[i, enter], tab[i, -1]
                if leave >= 0:
                    mine, best = b * best_a, best_b * a
                    if mine > best or (mine == best and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
            if leave < 0:
                return "unbounded"
            if not bland:
                stall = stall + 1 if best_b == 0 else 0
                if stall > _DEGENERACY_LIMIT:
                    bland = True
            self._pivot(tab, den, basis, int(leave), enter)

    @staticmethod
    def _pivot(tab, den, basis, pivot_row, pivot_col):
        row = tab[pivot_row]
        if row[pivot_col] < 0:
            np.negative(row, out=row)
        # Scaled so its pivot entry is its denominator, the row reads 1 there.
        _lowest_terms(tab, den, pivot_row, row[pivot_col])
        for i in np.flatnonzero(tab[:, pivot_col]):
            if i != pivot_row:
                _eliminate(tab, den, i, pivot_row, pivot_col)
        basis[pivot_row] = pivot_col

    def _extract(self, tab, den, basis):
        return {
            self.keys[b]: Fraction(tab[i, -1], den[i])
            for i, b in enumerate(basis)
            if b < self.n_struct and tab[i, -1]
        }

    def _duals(self, tab, den):
        # Tableau row i is sigma_i times original row i, and so is the
        # slack column of row i. The reduced cost of that slack is thus
        # -y_i for the multiplier y_i of the original row, whatever the
        # sign of sigma_i. At a minimum, y <= 0 and c - G^T y >= 0.
        R, S = self.n_rows, self.n_struct
        return [Fraction(-tab[R, S + i], den[R]) for i in range(R)]


def _eliminate(tab, den, i, r, c):
    """Subtract from row i the multiple of row r that zeroes column c;
    row r must read 1 there, i.e. hold its positive denominator q:
    ``N[i]/d[i] - (N[i,c]/d[i]) * N[r]/q = (q*N[i] - N[i,c]*N[r]) / (d[i]*q)``.
    """
    q = tab[r, c]
    tab[i] = q * tab[i] - tab[i, c] * tab[r]
    _lowest_terms(tab, den, i, den[i] * q)


def _lowest_terms(tab, den, i, d):
    """Give row i the denominator ``d > 0``, dividing out the gcd of the
    row and ``d``."""
    g = math.gcd(d, *tab[i])
    if g > 1:
        tab[i] //= g
        d //= g
    den[i] = d


# ---------------------------------------------------------------------------
# Column activation around the master problem.


class _Problem:
    """Integer rows over nonnegative columns, column j being variable j:
    row i reads ``matrix[i] . x <= scales[i] * rhs[i]``.

    The matrix is int64, or a numpy object array of Python ints when an
    entry does not fit; the scales are positive integers and the
    right-hand sides exact. Every product below is exact either way.
    """

    def __init__(self, matrix, scales, rhs):
        self.matrix = matrix
        self.n_rows, self.n_vars = matrix.shape
        self.scales = list(scales)
        self.rhs = [Fraction(v) for v in rhs]
        self.lcm_scale = math.lcm(1, *self.scales)
        self.max_abs = int(np.abs(matrix).max(initial=0))

    def master(self, active: Sequence[int]) -> _Master:
        return _Master(active, self.matrix[:, active], self.scales, self.rhs)

    def column_gaps(self, y, c: Optional[Mapping[int, Fraction]] = None):
        """Exact ``factor * (G^T y - c)`` for every column, ``factor > 0``.

        ``y`` holds one exact multiplier per row, ints or `Fraction`s;
        ``c`` maps columns to exact costs, absent columns cost 0. Returns
        one integer per column, whose sign is the sign of
        ``(G^T y - c)_j``: an int64 array when no sum can overflow, else an
        object array of Python ints.
        """
        c = {j: Fraction(v) for j, v in (c or {}).items() if v}
        denom = math.lcm(
            1, *(u.denominator for u in y), *(v.denominator for v in c.values())
        )
        factor = denom * self.lcm_scale
        scaled = [
            u.numerator * (denom // u.denominator) * (self.lcm_scale // s)
            for u, s in zip(y, self.scales)
        ]
        costs = [v.numerator * (factor // v.denominator) for v in c.values()]
        bound = sum(abs(s) for s in scaled) * max(self.max_abs, 1)
        bound += max(map(abs, costs), default=0)
        if bound < _INT64_SAFE:
            gaps = np.asarray(scaled, dtype=np.int64) @ self.matrix
        else:
            gaps = np.asarray(scaled, dtype=object) @ self.matrix.astype(object)
        if c:
            gaps[list(c)] -= np.asarray(costs, dtype=gaps.dtype)
        return gaps

    def violations(self, duals, objective=None):
        """Columns whose exact reduced cost is negative, worst first, ties
        in column order.

        For a feasibility ray the reduced cost of column j is ``(G^T y)_j``;
        with an objective (minimization) it is ``c_j - (G^T y)_j``.
        """
        gaps = self.column_gaps(duals, objective)
        reduced = gaps if objective is None else -gaps
        worst = np.flatnonzero(reduced < 0)
        return worst[np.argsort(reduced[worst], kind="stable")].tolist()

    def certificate(self, ray) -> FarkasCertificate:
        denom = math.lcm(1, *(u.denominator for u in ray))
        nonzero = {i: int(u * denom) for i, u in enumerate(ray) if u}
        return FarkasCertificate(self.n_rows, nonzero)

    def satisfied_by(self, assignment: Mapping[int, Fraction]) -> bool:
        """Exact check that an assignment (per column, absent columns are 0)
        is nonnegative and satisfies every row."""
        if any(not 0 <= j < self.n_vars or v < 0 for j, v in assignment.items()):
            return False
        x = {j: Fraction(v) for j, v in assignment.items() if v}
        denom = math.lcm(1, *(v.denominator for v in x.values()))
        ints = [v.numerator * (denom // v.denominator) for v in x.values()]
        sums = self.matrix[:, list(x)].astype(object) @ np.array(ints, dtype=object)
        return all(
            Fraction(int(t), s * denom) <= b
            for t, s, b in zip(sums, self.scales, self.rhs)
        )

    def initial_active(self, seed: Optional[Sequence[int]]) -> list[int]:
        n = self.n_vars
        if n <= DENSE_COLUMN_LIMIT:
            return list(range(n))
        active = sorted({j for j in seed or () if 0 <= j < n})
        return active or list(range(min(n, ACTIVATION_BATCH)))


def _activate(problem: _Problem, seed_columns, objective=None):
    """Column activation: solve the master on the active columns, price
    every column exactly against its verdict, and activate the worst
    violated columns until none is left.

    ``objective`` maps column positions to costs to minimize; without one
    the master only decides feasibility, and a feasible verdict needs no
    pricing, since zero on the inactive columns satisfies every row.
    Returns the last master result and its active columns.
    """
    active = problem.initial_active(seed_columns)
    while True:
        result = problem.master(active).solve(objective)
        if len(active) == problem.n_vars or result[0] == "unbounded":
            return result, active
        if result[0] == "infeasible":
            violated = problem.violations(result[1])
        elif objective is None:
            return result, active
        else:
            violated = problem.violations(result[3], objective)
        if not violated:
            return result, active
        # Exactness guarantees violated columns are inactive.
        active = sorted(set(active).union(violated[:ACTIVATION_BATCH]))


def solve_feasibility(problem: _Problem) -> LpVerdict:
    """Exact feasibility verdict for ``Ax <= b``, ``x >= 0``.

    Feasible systems yield an exact satisfying assignment; infeasible ones
    yield an integer Farkas certificate (the dual ray scaled by the least
    common multiple of its denominators) that passes `verify_farkas`.
    """
    return _solve_problem(problem)[0]


def _solve_problem(problem: _Problem):
    """`solve_feasibility`, also returning the columns active at the end."""
    result, active = _activate(problem, None)
    if result[0] == "infeasible":
        return Infeasible(problem.certificate(result[1])), active
    return Feasible(result[1]), active


def maximize(
    problem: _Problem,
    objective: Mapping[int, Fraction],
    seed_columns: Optional[Sequence[int]] = None,
) -> MaximizeResult:
    """Exact maximum of ``objective . x`` subject to the rows.

    The objective maps columns to costs; column activation starts from
    ``seed_columns`` when there are any. Minimization is maximization of
    the negated objective. Infeasible and unbounded systems are
    distinguished results. An `Optimal` result carries its LP-duality
    certificate: multipliers ``y >= 0`` over the rows with ``G^T y >= c``
    and ``h . y`` equal to the optimum, which `verify_optimum` checks
    without a solver.
    """
    if any(not 0 <= j < problem.n_vars for j in objective):
        raise ValueError("objective references an unknown column")
    # The master minimizes the negated objective.
    neg = {j: -Fraction(c) for j, c in objective.items() if c}
    result, _ = _activate(problem, seed_columns, neg)
    if result[0] == "unbounded":
        return Unbounded()
    if result[0] == "infeasible":
        return Infeasible(problem.certificate(result[1]))
    _, x, value, duals = result
    return Optimal(-value, x, tuple(-y for y in duals))


def verify_optimum(
    problem: _Problem, objective: Mapping[int, Fraction], optimum: Optimal
) -> bool:
    """Check exactly, without any solver, that ``optimum.value`` is the
    maximum of ``objective . x`` (objective and assignment per column).

    The assignment must satisfy every row with objective value equal to
    ``optimum.value``; the duals ``y`` must be nonnegative, with
    ``h . y = optimum.value`` and ``G^T y >= c`` on every column. Weak
    duality then bounds every feasible point by ``h . y``, so the value is
    the maximum.
    """
    duals = [Fraction(y) for y in optimum.duals]
    if len(duals) != problem.n_rows or any(y < 0 for y in duals):
        return False
    if any(not 0 <= j < problem.n_vars for j in objective):
        return False
    hy = sum((y * b for y, b in zip(duals, problem.rhs) if y), Fraction(0))
    cx = sum(
        (Fraction(c) * optimum.assignment.get(j, 0) for j, c in objective.items()),
        Fraction(0),
    )
    return (
        hy == cx == optimum.value
        and problem.satisfied_by(optimum.assignment)
        and not (problem.column_gaps(duals, objective) < 0).any()
    )
