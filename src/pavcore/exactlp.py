"""Exact linear-program feasibility and optimization over the rationals.

Systems are stored in the normal form ``row . x <= rhs``. Verdicts are
produced by a two-phase simplex with Bland's anti-cycling rule running on
exact rational arithmetic; infeasibility comes with an integer Farkas
certificate (row multipliers y >= 0 with y.b < 0 and A^T y >= 0) that
`verify_farkas` checks without any solver; an optimum comes with a point
and an LP-duality certificate that `verify_optimum` checks the same way.

Wide systems (many variables, few non-trivial rows) are solved by column
activation: the simplex works on a growing subset of columns, and after each
verdict every column of the full system is priced exactly (integer-scaled
dot products) to either confirm the verdict or activate violated columns.
Setting a variable to zero preserves feasibility, so a feasible restricted
system is feasible in full; an infeasibility ray that prices clean on every
column is a certificate for the full system.

The ``A^T y >= 0`` form of the certificate check is sound for systems whose
rows force the variables to be nonnegative, which is true for every system
this package constructs (they all carry explicit nonnegativity rows).
Certificates produced for systems with genuinely free variables satisfy the
stronger ``A^T y = 0`` componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

try:
    from gmpy2 import mpq as _q
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    _q = Fraction

_Q0 = _q(0)
_Q1 = _q(1)

#: Systems with at most this many variables are solved with all columns
#: active from the start; larger ones go through column activation.
DENSE_COLUMN_LIMIT = 280

#: How many violated columns to activate per pricing round.
ACTIVATION_BATCH = 64


def _fr(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(int(value.numerator), int(value.denominator))


@dataclass(frozen=True)
class Row:
    """One inequality ``sum(coeffs[j] * x_j) <= rhs`` with a provenance tag."""

    coeffs: Mapping[int, Fraction]  # column position -> coefficient
    rhs: Fraction
    tag: tuple

    def scaled_ints(self) -> tuple[dict[int, int], int, int]:
        """Return (integer coeffs, integer rhs, positive scale L)."""
        denom = self.rhs.denominator
        for c in self.coeffs.values():
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        ints = {j: int(c * denom) for j, c in self.coeffs.items()}
        return ints, int(self.rhs * denom), denom


class LinearSystem:
    """An ordered inequality system ``Ax <= b`` over labelled variables.

    ``head_rows`` come first; if ``nonneg_block`` is set, one row
    ``-x_j <= 0`` per variable follows, in variable order. The canonical
    systems of this package put normalization, swap and deviation rows in
    the head and end with the nonnegativity block.
    """

    def __init__(
        self,
        variables: Sequence[int],
        head_rows: Sequence[Row],
        nonneg_block: bool = False,
    ):
        self.variables: tuple[int, ...] = tuple(variables)
        self.head_rows: tuple[Row, ...] = tuple(head_rows)
        self.nonneg_block = bool(nonneg_block)
        n = len(self.variables)
        for row in self.head_rows:
            for j in row.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"row {row.tag} references column {j}")

    @classmethod
    def from_rows(
        cls, variables: Sequence[int], rows: Sequence[Row]
    ) -> "LinearSystem":
        return cls(variables, rows)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.head_rows) + (
            len(self.variables) if self.nonneg_block else 0
        )

    def row(self, index: int) -> Row:
        if not 0 <= index < self.n_rows:
            raise IndexError("row index out of range")
        n_head = len(self.head_rows)
        if index < n_head:
            return self.head_rows[index]
        index -= n_head
        return Row(
            {index: Fraction(-1)}, Fraction(0), ("nonneg", self.variables[index])
        )

    def iter_rows(self) -> Iterator[Row]:
        for i in range(self.n_rows):
            yield self.row(i)

    def general_rows(self) -> tuple[Row, ...]:
        """All rows except the implicit nonnegativity block."""
        return self.head_rows

    def general_row_indices(self) -> tuple[int, ...]:
        return tuple(range(len(self.head_rows)))


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative integer row multipliers proving ``Ax <= b`` infeasible.

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

    def as_list(self) -> list[int]:
        out = [0] * self.n_rows
        for i, v in self.nonzero.items():
            out[i] = v
        return out


@dataclass(frozen=True)
class Feasible:
    """A satisfying assignment; variables absent from the map are zero."""

    assignment: Mapping[int, Fraction]

    def value(self, label: int) -> Fraction:
        return self.assignment.get(label, Fraction(0))


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


@dataclass(frozen=True)
class Optimal:
    """An optimum with its point and its LP-duality certificate: ``duals``
    are multipliers ``y >= 0`` over the general rows (the rows other than
    the per-variable bounds) with ``G^T y >= c`` and ``h . y = value``."""

    value: Fraction
    assignment: Mapping[int, Fraction]
    duals: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class Unbounded:
    pass


LpVerdict = Union[Feasible, Infeasible]
MaximizeResult = Union[Optimal, Infeasible, Unbounded]


def verify_farkas(system: LinearSystem, certificate: FarkasCertificate) -> bool:
    """Check a Farkas certificate exactly, without any solver.

    True iff every multiplier is a nonnegative integer, ``y . b < 0``, and
    ``A^T y >= 0`` componentwise. For systems whose rows force ``x >= 0``
    (all systems built by this package) this soundly proves infeasibility.
    """
    if certificate.n_rows != system.n_rows:
        raise ValueError(
            f"certificate has {certificate.n_rows} multipliers, "
            f"system has {system.n_rows} rows"
        )
    if any(v < 0 for v in certificate.nonzero.values()):
        return False
    yb = _Q0
    col_sums: dict[int, object] = {}
    for i, mult in certificate.nonzero.items():
        row = system.row(i)
        if row.rhs:
            yb += mult * _q(row.rhs)
        for j, coef in row.coeffs.items():
            if j in col_sums:
                col_sums[j] += mult * _q(coef)
            else:
                col_sums[j] = mult * _q(coef)
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
    """Dense exact tableau for ``min c.x : Gx <= h, x >= 0`` (+ split frees).

    Rows are numpy object arrays of exact rationals. The entering column is
    chosen by most-negative reduced cost until the objective stalls, after
    which Bland's least-index rule takes over, guaranteeing termination.
    """

    def __init__(self, columns, rhs, free_positions=frozenset()):
        # columns: list of (key, dense list of _q over the general rows).
        self.n_rows = len(rhs)
        self.keys = []
        self.signs = []  # +1 for the positive part, -1 for a split negative
        cols = []
        for key, data in columns:
            self.keys.append(key)
            self.signs.append(1)
            cols.append(data)
            if key in free_positions:
                self.keys.append(key)
                self.signs.append(-1)
                cols.append([-v for v in data])
        self.n_struct = len(cols)
        self.rhs = [_q(v) for v in rhs]
        self.cols = cols

    def solve(self, objective_per_key=None):
        """Run two-phase simplex; return a result tuple.

        ("infeasible", ray)       ray over general rows, all >= 0
        ("optimal", x, value, duals)  x sparse over keys; duals over rows
        ("unbounded",)
        """
        R, S = self.n_rows, self.n_struct
        sigma = [1 if self.rhs[i] >= 0 else -1 for i in range(R)]
        art_rows = [i for i in range(R) if sigma[i] < 0]
        n_art = len(art_rows)
        width = S + R + n_art
        # Column layout: structural | slacks | artificials.
        tab = np.full((R, width + 1), _Q0, dtype=object)
        for i in range(R):
            si = sigma[i]
            for jj in range(S):
                v = self.cols[jj][i]
                if v:
                    tab[i, jj] = v if si > 0 else -v
            tab[i, S + i] = _Q1 if si > 0 else -_Q1
            tab[i, width] = self.rhs[i] if si > 0 else -self.rhs[i]
        for a, i in enumerate(art_rows):
            tab[i, S + R + a] = _Q1
        basis = [S + i for i in range(R)]
        for a, i in enumerate(art_rows):
            basis[i] = S + R + a

        # Phase 1: minimize the sum of artificials.
        z = np.full(width + 1, _Q0, dtype=object)
        for i in art_rows:
            z -= tab[i]
        for a in range(n_art):
            z[S + R + a] += _Q1
        self._pivot_loop(tab, basis, z, allowed=width)
        w_star = -z[width]
        if w_star > 0:
            # Farkas ray: phase-1 reduced costs of the slack columns.
            ray = [z[S + i] for i in range(R)]
            return ("infeasible", ray)

        # Drive leftover artificial basics out (degenerate pivots).
        for i in range(R):
            if basis[i] >= S + R:
                for j in range(S + R):
                    if tab[i, j]:
                        self._pivot(tab, basis, z, i, j)
                        break
                # An all-zero row is redundant; its artificial stays at 0.

        if objective_per_key is None:
            x = self._extract(tab, basis)
            duals = self._duals(z, S)
            return ("optimal", x, Fraction(0), duals)

        # Phase 2 objective row.
        z = np.full(width + 1, _Q0, dtype=object)
        cost = [_Q0] * width
        for jj in range(S):
            c = objective_per_key.get(self.keys[jj])
            if c:
                cost[jj] = _q(c) if self.signs[jj] > 0 else -_q(c)
                z[jj] = cost[jj]
        for i in range(R):
            b = basis[i]
            if b < width and cost[b]:
                z -= cost[b] * tab[i]
        status = self._pivot_loop(tab, basis, z, allowed=S + R)
        if status == "unbounded":
            return ("unbounded",)
        x = self._extract(tab, basis)
        value = _Q0
        for key, v in x.items():
            c = objective_per_key.get(key)
            if c:
                value += _q(c) * v
        duals = self._duals(z, S)
        return ("optimal", x, value, duals)

    def _pivot_loop(self, tab, basis, z, allowed):
        width = len(z) - 1
        bland = False
        stall = 0
        while True:
            enter = -1
            if bland:
                for j in range(allowed):
                    if z[j] < 0:
                        enter = j
                        break
            else:
                best = _Q0
                for j in range(allowed):
                    zj = z[j]
                    if zj < best:
                        best, enter = zj, j
            if enter < 0:
                return "optimal"
            leave, best_ratio = -1, None
            for i in range(self.n_rows):
                a = tab[i, enter]
                if a > 0:
                    ratio = tab[i, width] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio, leave = ratio, i
            if leave < 0:
                return "unbounded"
            if not bland:
                stall = stall + 1 if best_ratio == 0 else 0
                if stall > _DEGENERACY_LIMIT:
                    bland = True
            self._pivot(tab, basis, z, leave, enter)

    @staticmethod
    def _pivot(tab, basis, z, pivot_row, pivot_col):
        row = tab[pivot_row]
        piv = row[pivot_col]
        if piv != 1:
            np.multiply(row, _Q1 / piv, out=row)
        for i in range(tab.shape[0]):
            if i == pivot_row:
                continue
            factor = tab[i, pivot_col]
            if factor:
                np.subtract(tab[i], factor * row, out=tab[i])
        factor = z[pivot_col]
        if factor:
            np.subtract(z, factor * row, out=z)
        basis[pivot_row] = pivot_col

    def _extract(self, tab, basis):
        width = tab.shape[1] - 1
        x: dict[object, object] = {}
        for i, b in enumerate(basis):
            if b < self.n_struct and tab[i, width]:
                key = self.keys[b]
                delta = tab[i, width] if self.signs[b] > 0 else -tab[i, width]
                x[key] = x.get(key, _Q0) + delta
        return {k: v for k, v in x.items() if v}

    def _duals(self, z, n_struct):
        # Tableau row i is sigma_i times original row i, and so is the
        # slack column of row i. The reduced cost of that slack is thus
        # -y_i for the multiplier y_i of the original row, whatever the
        # sign of sigma_i. At a minimum, y <= 0 and c - G^T y >= 0.
        return [-z[n_struct + i] for i in range(self.n_rows)]


# ---------------------------------------------------------------------------
# Column activation around the master problem.


class _ScaledRows:
    """Integer-scaled general rows for exact vectorized pricing."""

    def __init__(self, system: LinearSystem):
        rows = system.general_rows()
        self.n_vars = system.n_vars
        self.n_rows = len(rows)
        self.rhs = [_q(r.rhs) for r in rows]
        self.scales: list[int] = []
        int_rows: list[dict[int, int]] = []
        for r in rows:
            ints, _, scale = r.scaled_ints()
            self.scales.append(scale)
            int_rows.append(ints)
        self.lcm_scale = 1
        for s in self.scales:
            self.lcm_scale = self.lcm_scale * s // math.gcd(self.lcm_scale, s)
        max_abs = 0
        self.matrix = np.zeros((self.n_rows, self.n_vars), dtype=np.int64)
        overflow = False
        for i, ints in enumerate(int_rows):
            for j, v in ints.items():
                if abs(v) > 2**60:
                    overflow = True
                max_abs = max(max_abs, abs(v))
                if not overflow:
                    self.matrix[i, j] = v
        self.max_abs = max_abs
        if overflow:  # exact fallback for pathological inputs
            self.matrix = None
            self.int_rows = int_rows
        else:
            self.int_rows = int_rows

    @classmethod
    def from_dense_int(cls, matrix, scales, rhs_exact, n_vars):
        obj = cls.__new__(cls)
        obj.matrix = matrix
        obj.n_rows, obj.n_vars = matrix.shape
        assert obj.n_vars == n_vars
        obj.scales = list(scales)
        obj.rhs = [_q(v) for v in rhs_exact]
        obj.lcm_scale = 1
        for s in obj.scales:
            obj.lcm_scale = obj.lcm_scale * s // math.gcd(obj.lcm_scale, s)
        obj.max_abs = int(np.abs(matrix).max(initial=0))
        obj.int_rows = None
        return obj

    def exact_column(self, j: int) -> list:
        if self.matrix is not None:
            col = self.matrix[:, j]
            return [
                _q(int(col[i]), self.scales[i]) if col[i] else _Q0
                for i in range(self.n_rows)
            ]
        return [
            _q(self.int_rows[i].get(j, 0), self.scales[i])
            for i in range(self.n_rows)
        ]

    def rhs_fraction(self, i: int) -> Fraction:
        return _fr(self.rhs[i])

    def times(self, x: Mapping[int, Fraction]) -> list[Fraction]:
        """Exact ``G x`` for a sparse ``x`` given per column position."""
        if not x:
            return [Fraction(0)] * self.n_rows
        cols = list(x)
        denom = math.lcm(*(Fraction(v).denominator for v in x.values()))
        ints = [int(x[j] * denom) for j in cols]
        if self.matrix is not None:
            sums = self.matrix[:, cols].astype(object) @ np.array(ints, dtype=object)
        else:
            sums = [
                sum(row.get(j, 0) * v for j, v in zip(cols, ints))
                for row in self.int_rows
            ]
        return [
            Fraction(int(s), self.scales[i] * denom) for i, s in enumerate(sums)
        ]

    def price(self, multipliers):
        """Exact ``factor * (G^T y)`` for all columns, ``factor > 0``.

        ``multipliers`` are exact rationals over the general rows. Returns
        ``(totals, factor)`` with integer totals, so ``sign(totals[j])``
        equals ``sign((G^T y)_j)``.
        """
        denom = 1
        for u in multipliers:
            d = int(u.denominator)
            denom = denom * d // math.gcd(denom, d)
        factor = denom * self.lcm_scale
        scaled = [
            int(u * denom) * (self.lcm_scale // self.scales[i])
            for i, u in enumerate(multipliers)
        ]
        if self.matrix is not None:
            bound = sum(abs(s) for s in scaled) * max(self.max_abs, 1)
            if bound < 2**62:
                return np.asarray(scaled, dtype=np.int64) @ self.matrix, factor
            obj_vec = np.asarray(scaled, dtype=object)
            return obj_vec @ self.matrix.astype(object), factor
        totals = [0] * self.n_vars
        for i, s in enumerate(scaled):
            if s:
                for j, v in self.int_rows[i].items():
                    totals[j] += s * v
        return totals, factor


def _split_rows(system: LinearSystem):
    """Partition rows into general rows and per-variable bound rows.

    A bound row is exactly ``-x_j <= 0``; the first such row per variable is
    handled natively by the simplex (variables are nonnegative there), any
    further ones are redundant and kept out of the master entirely.
    """
    general_indices: list[int] = []
    bound_of: dict[int, int] = {}
    redundant: list[int] = []
    n_head = len(system.head_rows)
    for i, row in enumerate(system.head_rows):
        items = list(row.coeffs.items())
        if len(items) == 1 and items[0][1] == -1 and row.rhs == 0:
            j = items[0][0]
            if j not in bound_of:
                bound_of[j] = i
            else:
                redundant.append(i)
            continue
        general_indices.append(i)
    if system.nonneg_block:
        for j in range(system.n_vars):
            if j not in bound_of:
                bound_of[j] = n_head + j
    return general_indices, bound_of


class _Problem:
    """The solver-facing view: general rows + native nonnegative columns.

    Built either from a materialized `LinearSystem` or directly from
    integer-scaled row data (the fast path used by the proof-search module,
    which constructs the same canonical systems without materializing them).
    """

    def __init__(self, variables, n_rows_total, general_row_ids, free, scaled):
        self.variables = tuple(variables)
        self.n_vars = len(self.variables)
        self.n_rows_total = n_rows_total
        self.general_row_ids = list(general_row_ids)
        self.free = frozenset(free)
        self.scaled = scaled
        self.rhs = scaled.rhs

    @classmethod
    def from_system(cls, system: LinearSystem) -> "_Problem":
        general_row_ids, bound_of = _split_rows(system)
        rows = [system.row(i) for i in general_row_ids]
        free = frozenset(
            j for j in range(system.n_vars) if j not in bound_of
        )
        scaled = _ScaledRows(
            LinearSystem(system.variables, rows, nonneg_block=False)
        )
        return cls(system.variables, system.n_rows, general_row_ids, free, scaled)

    def master(self, active: Sequence[int]) -> _Master:
        columns = [(j, self.scaled.exact_column(j)) for j in active]
        return _Master(columns, self.rhs, free_positions=self.free)

    def violations(self, duals, objective=None):
        """Columns whose exact reduced cost is negative, worst first.

        For a feasibility ray the reduced cost of column j is ``(G^T y)_j``;
        with an objective (minimization) it is ``c_j - (G^T y)_j``. Columns
        of free (sign-split) variables need reduced cost exactly zero.
        """
        totals, factor = self.scaled.price(duals)
        out = []
        if objective is None:
            for j in range(self.n_vars):
                t = totals[j]
                if j in self.free:
                    if t != 0:
                        out.append((-abs(t), j))
                elif t < 0:
                    out.append((t, j))
        else:
            for j in range(self.n_vars):
                c = objective.get(j)
                lhs = c * factor if c else 0
                if j in self.free:
                    if totals[j] != lhs:
                        out.append((-abs(lhs - totals[j]), j))
                elif lhs < totals[j]:
                    out.append((lhs - totals[j], j))
        out.sort(key=lambda item: (item[0], item[1]))
        return [j for _, j in out]

    def certificate(self, ray) -> FarkasCertificate:
        denom = 1
        for u in ray:
            d = int(u.denominator)
            denom = denom * d // math.gcd(denom, d)
        nonzero = {}
        for pos, u in enumerate(ray):
            if u:
                nonzero[self.general_row_ids[pos]] = int(u * denom)
        return FarkasCertificate(self.n_rows_total, nonzero)

    def satisfied_by(self, assignment: Mapping[int, Fraction]) -> bool:
        """Exact check that an assignment (per label, absent labels are 0)
        satisfies every general row and every sign constraint."""
        pos_of = {label: j for j, label in enumerate(self.variables)}
        values = {}
        for label, v in assignment.items():
            j = pos_of.get(label)
            if j is None or (v < 0 and j not in self.free):
                return False
            if v:
                values[j] = Fraction(v)
        totals = self.scaled.times(values)
        return all(
            t <= self.scaled.rhs_fraction(i) for i, t in enumerate(totals)
        )

    def initial_active(self, seed: Optional[Sequence[int]]) -> list[int]:
        n = self.n_vars
        if n <= DENSE_COLUMN_LIMIT:
            return list(range(n))
        active = set(self.free)
        if seed:
            active.update(j for j in seed if 0 <= j < n)
        if not active:
            active.update(range(min(n, ACTIVATION_BATCH)))
        return sorted(active)


def _assignment_with_labels(variables, x) -> dict[int, Fraction]:
    return {variables[j]: _fr(v) for j, v in x.items() if v}


def solve_feasibility(
    system: LinearSystem, seed_columns: Optional[Sequence[int]] = None
) -> LpVerdict:
    """Exact feasibility verdict for ``Ax <= b``.

    Feasible systems yield an exact satisfying assignment; infeasible ones
    yield an integer Farkas certificate (the dual ray scaled by the least
    common multiple of its denominators) that passes `verify_farkas`.
    """
    problem = _Problem.from_system(system)
    return _solve_problem(problem, seed_columns)[0]


def _solve_problem(problem: _Problem, seed_columns=None):
    active = problem.initial_active(seed_columns)
    full = problem.n_vars
    while True:
        result = problem.master(active).solve()
        if result[0] == "optimal":
            _, x, _, _ = result
            return Feasible(_assignment_with_labels(problem.variables, x)), active
        ray = result[1]
        if len(active) == full:
            return Infeasible(problem.certificate(ray)), active
        violated = problem.violations(ray)
        if not violated:
            return Infeasible(problem.certificate(ray)), active
        # Exactness guarantees violated columns are inactive.
        active = sorted(set(active).union(violated[:ACTIVATION_BATCH]))


def maximize(
    system: LinearSystem,
    objective: Union[Mapping[int, Fraction], Sequence[Fraction]],
    seed_columns: Optional[Sequence[int]] = None,
) -> MaximizeResult:
    """Exact maximum of ``objective . x`` subject to the system.

    The objective is given per variable label (mapping) or as a dense vector
    in variable order. Minimization is maximization of the negated
    objective. Infeasible and unbounded systems are distinguished results.
    """
    if not isinstance(objective, Mapping):
        if len(objective) != system.n_vars:
            raise ValueError("objective length does not match variable count")
        objective = {
            system.variables[j]: Fraction(c)
            for j, c in enumerate(objective)
            if c
        }
    return _maximize_problem(
        _Problem.from_system(system), objective, seed_columns
    )


def _maximize_problem(
    problem: _Problem,
    objective: Mapping[int, Fraction],
    seed_columns: Optional[Sequence[int]] = None,
) -> MaximizeResult:
    """`maximize` on a solver-facing problem; ``objective`` is per label.

    An `Optimal` result carries its LP-duality certificate: multipliers
    ``y >= 0`` over the general rows with ``G^T y >= c`` and ``h . y`` equal
    to the optimum, which `verify_optimum` checks without a solver.
    """
    label_pos = {label: j for j, label in enumerate(problem.variables)}
    for label in objective:
        if label not in label_pos:
            raise ValueError(f"objective references unknown variable {label}")
    # The master minimizes the negated objective.
    neg = {label_pos[label]: -Fraction(c) for label, c in objective.items() if c}
    active = problem.initial_active(seed_columns)
    full = problem.n_vars
    while True:
        result = problem.master(active).solve(objective_per_key=neg)
        if result[0] == "unbounded":
            return Unbounded()
        if result[0] == "infeasible":
            ray = result[1]
            if len(active) < full:
                violated = problem.violations(ray)
                if violated:
                    active = sorted(set(active).union(violated[:ACTIVATION_BATCH]))
                    continue
            return Infeasible(problem.certificate(ray))
        _, x, value, duals = result
        if len(active) < full:
            violated = problem.violations(duals, objective=neg)
            if violated:
                active = sorted(set(active).union(violated[:ACTIVATION_BATCH]))
                continue
        return Optimal(
            _fr(-value),
            _assignment_with_labels(problem.variables, x),
            tuple(-_fr(y) for y in duals),
        )


def verify_optimum(
    problem: _Problem, objective: Mapping[int, Fraction], optimum: Optimal
) -> bool:
    """Check exactly, without any solver, that ``optimum.value`` is the
    maximum of ``objective . x`` (objective and assignment per label).

    The assignment must satisfy every row with objective value equal to
    ``optimum.value``; the duals ``y`` must be nonnegative, with
    ``h . y = optimum.value`` and ``G^T y >= c`` on every column (``=`` on
    free columns). Weak duality then bounds every feasible point by
    ``h . y``, so the value is the maximum.
    """
    duals = [Fraction(y) for y in optimum.duals]
    if len(duals) != problem.scaled.n_rows or any(y < 0 for y in duals):
        return False
    hy = sum(
        (y * problem.scaled.rhs_fraction(i) for i, y in enumerate(duals) if y),
        Fraction(0),
    )
    cx = sum(
        (Fraction(c) * optimum.assignment.get(label, 0) for label, c in objective.items()),
        Fraction(0),
    )
    if not hy == cx == optimum.value:
        return False
    if not problem.satisfied_by(optimum.assignment):
        return False
    label_pos = {label: j for j, label in enumerate(problem.variables)}
    if any(label not in label_pos for label in objective):
        return False
    totals, factor = problem.scaled.price(duals)
    scaled_c = {
        label_pos[label]: Fraction(c) * factor for label, c in objective.items()
    }
    for j, t in enumerate(np.asarray(totals).tolist()):
        cj = scaled_c.get(j, 0)
        if t < cj or (j in problem.free and t != cj):
            return False
    return True
