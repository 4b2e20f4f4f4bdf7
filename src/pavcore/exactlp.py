"""Exact linear-program feasibility over the rationals.

A system is a list of rows ``Ax <= b`` over nonnegative variables: every
variable is a ballot weight, so ``x >= 0`` is part of every problem without
any row stating it. The solver answers one question, whether the system has
a solution, with one of two exact verdicts: `Feasible`, with a point that
satisfies every row, or `Infeasible`, with an integer Farkas certificate
(one multiplier per row, y >= 0 with y.b < 0 and A^T y >= 0, which together
rule out every x >= 0) that leaves the solver as integers. The solver
checks neither: `checker` accepts every exact result. An optimum is a
bound that some point attains, and the affine form of Farkas' lemma turns
a bound into the infeasibility of one more system (`proofs.lemma2_suite`),
so this module needs no objective.

Verdicts come from an exact phase-1 revised simplex whose tableau is
fraction-free: each row is a vector of Python ints over one positive row
denominator, and a pivot updates the rows with integer products and one gcd
per row (Edmonds 1967; Bareiss 1968), so no `Fraction` is made inside the
pivot loop. The entering rule falls back to Bland's anti-cycling rule when
the objective stalls.

The solver sees a system as one dense integer matrix with a positive scale
and an exact right-hand side per row (`_Problem`); column j is variable j.
The systems are short and wide (tens of rows, up to thousands of
columns), so the tableau (`_Master`) holds only the basis inverse: the
slack and artificial columns and the right-hand side, one row per
constraint. A structural column's tableau column is formed only when it
enters. One pricing kernel (`_Problem.column_gaps`) computes ``G^T y``
for every column exactly, with integer dot products: on every pivot,
against the objective row's multipliers, and for the test of a ray read
off a float basis. A verdict is thus always reached with every column
priced clean, as in a dense tableau.

Phase 1 is found in floats and confirmed in exact arithmetic (QSopt_ex:
Applegate, Cook, Dash & Espinoza 2007). `_float_pivots` runs phase 1 as a
dense float64 revised simplex with steepest-edge pricing. When its basis
holds an artificial, one integer solve reads the Farkas ray off that basis
(`_Master._certify`), and the ray is the verdict if it passes the one exact
refutation test (`_Problem.refuted_by`); no tableau is built. In every
other case (a feasible system, a refused ray or no float start) the exact
tableau runs phase 1 from the slack basis. So every verdict, ray and point
is exact. The float pass only proposes a refutation, and with it which of
several valid certificates is returned; a point is always the slack
start's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from .checker import _INT64_SAFE, FarkasCertificate


@dataclass(frozen=True)
class Feasible:
    """A satisfying assignment per column; absent columns are zero."""

    assignment: Mapping[int, Fraction]


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate


LpVerdict = Union[Feasible, Infeasible]


# ---------------------------------------------------------------------------
# The problem and its pricing kernel.


class _Problem:
    """Integer rows over nonnegative columns, column j being variable j:
    row i reads ``matrix[i] . x <= scales[i] * rhs[i]`` and carries the
    provenance tag ``tags[i]``, as a `checker.Row` does.

    The matrix is int64, or a numpy object array of Python ints when an
    entry does not fit; the scales are positive integers and the
    right-hand sides exact. Every product below is exact either way.
    """

    def __init__(self, matrix, scales, rhs, tags):
        self.matrix = matrix
        self.n_rows, self.n_vars = matrix.shape
        self.scales = list(scales)
        self.rhs = [Fraction(v) for v in rhs]
        self.tags = list(tags)
        self.lcm_scale = math.lcm(1, *self.scales)
        #: ``weights[i] * matrix[i]`` is row i over ``lcm_scale``.
        self.weights = [self.lcm_scale // s for s in self.scales]
        # Python ints, and no full-size temporary as np.abs would make.
        self.max_abs = max(int(matrix.max(initial=0)), -int(matrix.min(initial=0)))

    def column_gaps(self, y):
        """Exact ``factor * G^T y`` for every column, ``factor > 0``.

        ``y`` holds one exact multiplier per row, ints or `Fraction`s.
        Returns one integer per column, whose sign is the sign of
        ``(G^T y)_j``: an int64 array when no sum can overflow, else an
        object array of Python ints.
        """
        denom = math.lcm(1, *(u.denominator for u in y))
        scaled = [
            u.numerator * (denom // u.denominator) * w for u, w in zip(y, self.weights)
        ]
        if sum(abs(s) for s in scaled) * max(self.max_abs, 1) < _INT64_SAFE:
            return np.asarray(scaled, dtype=np.int64) @ self.matrix
        return np.asarray(scaled, dtype=object) @ self.matrix.astype(object)

    def violations(self, y):
        """Columns whose exact ``(G^T y)_j`` is negative, worst first, ties
        in column order."""
        gaps = self.column_gaps(y)
        worst = np.flatnonzero(gaps < 0)
        return worst[np.argsort(gaps[worst], kind="stable")].tolist()

    def refuted_by(self, y) -> bool:
        """Exact check that ``y``, one nonnegative integer per row, is a
        Farkas certificate of the rows: ``y . h < 0`` and no column has a
        negative ``(G^T y)_j``."""
        if len(y) != self.n_rows or any(v < 0 for v in y):
            return False
        used = [(v, b) for v, b in zip(y, self.rhs) if v]
        d = math.lcm(1, *(b.denominator for _, b in used))
        if sum(v * b.numerator * (d // b.denominator) for v, b in used) >= 0:
            return False
        return not (self.column_gaps(y) < 0).any()


# ---------------------------------------------------------------------------
# Revised exact phase-1 simplex over every column of a problem.


#: Consecutive non-improving pivots tolerated before switching the
#: entering rule from steepest (Dantzig) to Bland's rule, which cannot
#: cycle; the verdict itself is exact either way.
_DEGENERACY_LIMIT = 12


class _Master:
    """Revised exact phase-1 simplex deciding whether the rows of a
    `_Problem` have a solution ``x >= 0``, in integers, with every column of
    the problem. It answers `Feasible` or `Infeasible`.

    Row i, ``(G_i / s_i) . x <= h_i`` for the matrix ``G``, the row scales
    ``s`` and the right-hand sides ``h``, is an equation with a slack,
    times the sign ``sigma_i`` that makes its right-hand side nonnegative,
    plus an artificial when ``sigma_i < 0``. The basis is ``B``. The
    tableau keeps only the columns a structural column does not
    determine: the slack block ``T = B^-1 diag(sigma)``, the artificials,
    the right-hand side and one scratch column, in R constraint rows and
    an objective row, the sum of the artificials. Each row is a numpy
    object array of Python ints over one positive row denominator, kept in
    lowest terms.

    The tableau column of structural column j is ``T (G_j / s)``, formed in
    the scratch column only for the column that enters. The objective
    row's slack entries are the multipliers ``y`` of the phase-1 ray, up to
    its denominator, so every pivot prices all structural columns at once
    against them (`_Problem.violations`). The entering column is the most
    negative reduced cost (ties to the lower index, structurals before
    slacks before artificials) until the objective stalls, after which
    Bland's least-index rule takes over, guaranteeing termination. A Farkas
    certificate leaves the tableau as integers; a point leaves it as
    `Fraction`s.

    A float64 phase 1 runs first (`_float_pivots`). When its basis holds an
    artificial, it proposes a refutation: one integer solve reads the
    Farkas ray off that basis (`_certify`), and a ray that passes the exact
    test is the verdict, with no tableau and no exact pivot. In every other
    case the slack tableau is built once and `_pivot_loop` runs phase 1
    from it. Both routes return the primitive integer ray, so at one basis
    they return the same certificate.
    """

    def __init__(self, problem: _Problem):
        self.problem = problem
        self.n_rows, self.n_struct = problem.n_rows, problem.n_vars
        # The rows with a negative right-hand side, which get artificials.
        self.art_rows = [i for i, b in enumerate(problem.rhs) if b.numerator < 0]

    def solve(self) -> LpVerdict:
        """Decide feasibility: `Infeasible` with the primitive integer
        certificate of the phase-1 ray, else `Feasible` with a point."""
        R, S, A = self.n_rows, self.n_struct, len(self.art_rows)
        found = _float_pivots(self.problem)
        if found is not None and max(found[0]) >= S + R:
            certificate = self._certify(found[0])
            if certificate is not None:
                return Infeasible(certificate)
        tab, den, basis = self._slack_start()
        self._pivot_loop(tab, den, basis)
        if tab[R, R + A] < 0:
            # Farkas ray: phase-1 reduced costs t_i / den[R] of the slacks.
            ray = tab[R, :R].tolist()
            g = math.gcd(*ray)
            return Infeasible(FarkasCertificate.from_list([t // g for t in ray]))
        # Artificials left basic are at zero: x satisfies every row.
        return Feasible(self._extract(tab, den, basis))

    def _slack_start(self):
        """The phase-1 tableau at the basis of slacks and artificials.

        Column layout: slacks | artificials | rhs | scratch. Row i is
        sigma_i times problem row i with its slack, over ``den[i]``; the
        objective row is the sum of the artificials, reduced against the
        basis.
        """
        R, S = self.n_rows, self.n_struct
        rhs, art_rows = self.problem.rhs, self.art_rows
        A = len(art_rows)
        tab = np.zeros((R + 1, R + A + 2), dtype=object)
        den = np.array([b.denominator for b in rhs] + [1], dtype=object)
        basis = [S + i for i in range(R)]
        for i, b in enumerate(rhs):
            tab[i, i] = den[i] if b >= 0 else -den[i]
            tab[i, R + A] = abs(b.numerator)
        for a, i in enumerate(art_rows):
            tab[i, R + a] = den[i]
            basis[i] = S + R + a
        tab[R, R : R + A] = 1
        for i in art_rows:
            _subtract(tab, den, R, i, 1)
        return tab, den, basis

    def _certify(self, start):
        """The primitive Farkas certificate of the phase-1 basis ``start``
        (one basic column per row), read off in one integer solve, or None
        when the basis is singular or its ray is no certificate.

        The ray ``y`` is the phase-1 reduced costs of the slacks, which the
        objective row of the slack tableau would hold at this basis. Every
        basic column prices at zero: ``y_i = 0`` when row i's slack is
        basic and ``y_i = 1`` when its artificial is, and each basic
        structural column j gives ``(G^T y)_j = 0``, one equation in the
        other rows' ``y_i``, which `_solve_integer` solves. The ray is kept
        only if it refutes the rows (`_Problem.refuted_by`).
        """
        R, S, problem = self.n_rows, self.n_struct, self.problem
        struct = [j for j in start if j < S]
        # Row -> its known y_i: 0 for a basic slack, 1 for a basic artificial.
        known = {j - S: 0 for j in start if S <= j < S + R}
        known.update((self.art_rows[j - S - R], 1) for j in start if j >= S + R)
        free = [i for i in range(R) if i not in known]
        if len(free) != len(struct):
            return None
        w = problem.weights
        ones = [i for i, v in known.items() if v]
        system = [
            [w[i] * col[i] for i in free] + [-sum(w[i] * col[i] for i in ones)]
            for col in problem.matrix[:, struct].T.tolist()
        ]
        solution = _solve_integer(system)
        if solution is None:
            return None
        # y_i = b_i / a_i on the free rows, times the lcm of the a_i.
        scale = math.lcm(*(a for _, a in solution))
        y = {i: v * scale for i, v in known.items()}
        y.update((i, b * (scale // a)) for i, (b, a) in zip(free, solution))
        g = math.gcd(*y.values())
        ray = [y[i] // g for i in range(R)]
        return FarkasCertificate.from_list(ray) if problem.refuted_by(ray) else None

    def _load(self, tab, den, j):
        """Write structural column j into the scratch column. Returns the
        scale of the column: entry i is over ``den[i] * scale``."""
        L, w = self.problem.lcm_scale, self.problem.weights
        g = self.problem.matrix[:, j]
        rows = np.flatnonzero(g)
        col = [w[i] * v for i, v in zip(rows.tolist(), g[rows].tolist())]
        tab[:, -1] = tab[:, rows] @ np.array(col, dtype=object)
        return L

    def _pivot_loop(self, tab, den, basis):
        """Pivot until no column prices negative: every structural column,
        priced against the objective row, and every stored column but the
        right-hand side and the scratch one."""
        R, S = self.n_rows, self.n_struct
        bland = False
        stall = 0
        while True:
            # Structural column j prices at (G^T y)_j / den[R], for y the
            # slack entries of the objective row.
            priced = self.problem.violations(tab[R, :R].tolist())
            negative = np.flatnonzero(tab[R, :-2] < 0)
            enter = -1
            if priced:
                enter = min(priced) if bland else priced[0]
                scale = self._load(tab, den, enter)
            if negative.size and (enter < 0 or not bland):
                k = negative[0] if bland else negative[np.argmin(tab[R, negative])]
                # A stored column enters only if it prices strictly lower.
                if enter < 0 or tab[R, k] * scale < tab[R, -1]:
                    enter, scale = S + int(k), 1
                    tab[:, -1] = tab[:, k]
            if enter < 0:
                return
            # Least ratio rhs / entry over positive entries; the row
            # denominators and the scale cancel in each ratio.
            leave = -1
            for i in np.flatnonzero(tab[:R, -1] > 0):
                a, b = tab[i, -1], tab[i, -2]
                if leave >= 0:
                    mine, best = b * best_a, best_b * a
                    if mine > best or (mine == best and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
            if leave < 0:
                raise RuntimeError("phase 1 is bounded below by 0, so it has no ray")
            if not bland:
                stall = stall + 1 if best_b == 0 else 0
                if stall > _DEGENERACY_LIMIT:
                    bland = True
            self._pivot(tab, den, basis, int(leave), enter, scale)

    @staticmethod
    def _pivot(tab, den, basis, pivot_row, pivot_col, scale):
        """Make ``pivot_col`` basic in ``pivot_row``. The entering column
        is in the scratch column, entry i over ``den[i] * scale``.

        Every row i with a nonzero entry ``u_i`` becomes
        ``(q * N_i - u_i * N_r) / (den[i] * q)`` for the pivot row ``N_r``
        with its entry ``q > 0``; the scale cancels there. The pivot row
        itself becomes ``N_r * scale / q``. Each changed row then drops its
        gcd.
        """
        col = tab[:, -1].copy()
        q = col[pivot_row]
        row = tab[pivot_row] * (1 if q > 0 else -1)
        q = abs(q)
        rows = np.flatnonzero(col)
        tab[rows] = q * tab[rows] - np.outer(col[rows], row)
        den[rows] *= q
        tab[pivot_row] = row * scale
        den[pivot_row] = q
        _reduce(tab, den, rows)
        basis[pivot_row] = pivot_col

    def _extract(self, tab, den, basis):
        return {
            b: Fraction(tab[i, -2], den[i])
            for i, b in enumerate(basis)
            if b < self.n_struct and tab[i, -2]
        }


#: Integers below this bound are exact in float64.
_FLOAT_EXACT = 2**53

#: The float pass's relative tolerance for ties and zeros.
_FLOAT_TOL = 1e-9

#: Pivots between fresh inverses of the float basis (R of them for R > 16
#: rows, which bounds the cost of inverting); rounding builds up only
#: between two.
_FLOAT_REFRESH = 16


def _float_pivots(problem: _Problem) -> Optional[tuple]:
    """A float64 phase 1 from the slack start: the basis it ends at, one
    basic column per row, and its pivots, (row, column) each; or None when
    there is no float start.

    Columns are numbered as in `_Master`'s basis: structurals | slacks |
    artificials. The entering column has the steepest edge: the most
    ``d_j^2 / gamma_j`` over the columns that price negative, with
    ``gamma_j = 1 + |B^-1 a_j|^2`` from the slack start's diagonal inverse,
    then kept by the Goldfarb-Reid update (Goldfarb & Reid 1977; Forrest &
    Goldfarb 1992). The leaving row has the least ratio, then the largest
    pivot entry, then the least basic column. Ties and zeros are judged
    within `_FLOAT_TOL`.

    After ``_DEGENERACY_LIMIT + R`` stalls in a row, for R rows, Bland's
    rule takes over: the first column that prices negative, and the least
    ratio with ties to the least basic column. Steepest edge may need about
    R stalls to leave a degenerate vertex of an R-row basis: the longest
    run in the (12, 8) search is 24 stalls, at up to 28 rows, and handing
    over after 12 made 111066 float pivots there instead of 18761.

    Without artificials the slack basis is already optimal; a matrix of
    Python ints, or an entry, scale or right-hand side of 2^53 or more, is
    not exact in float64. Rounding can cost a refused ray and so the slack
    tableau's pivots, but never a wrong verdict.
    """
    rhs = problem.rhs
    negative = [b.numerator < 0 for b in rhs]
    if problem.matrix.dtype != np.int64 or not any(negative):
        return None
    if max(problem.max_abs, *problem.scales) >= _FLOAT_EXACT or any(
        abs(b.numerator) >= _FLOAT_EXACT * b.denominator for b in rhs
    ):
        return None
    sigma = np.where(negative, -1.0, 1.0)
    art_rows = np.flatnonzero(negative)
    (R, S), A = problem.matrix.shape, art_rows.size
    N = S + R + A
    M = np.zeros((R, N))
    M[:, :S] = problem.matrix * (sigma / np.array(problem.scales, dtype=float))[:, None]
    M[:, S : S + R] = np.diag(sigma)
    M[art_rows, S + R + np.arange(A)] = 1.0
    h = np.array([abs(b.numerator) / b.denominator for b in rhs])
    c = np.zeros(N)
    c[S + R :] = 1.0
    basis = list(range(S, S + R))
    for a, i in enumerate(art_rows.tolist()):
        basis[i] = S + R + a
    basic_cost = c[basis]
    # The slack start's inverse is diagonal with entries +-1.
    gamma = 1.0 + (M * M).sum(axis=0)
    pivots = []
    bland, stall = False, 0
    # Bland's rule ends in exact arithmetic; the bound ends it in floats.
    for n in range(4 * N):
        if n % max(_FLOAT_REFRESH, R) == 0:
            try:
                inverse = np.linalg.inv(M[:, basis])
            except np.linalg.LinAlgError:
                return None
            x = inverse @ h
            cost = c - (basic_cost @ inverse) @ M
        low = cost.min()
        tol = _FLOAT_TOL * max(1.0, -low)
        if low >= -tol:
            return basis, pivots
        if bland:
            enter = int(np.argmax(cost < -tol))
        else:
            score = np.where(cost < -tol, cost * cost / gamma, 0.0)
            enter = int(np.argmax(score >= score.max() * (1.0 - _FLOAT_TOL)))
        col = inverse @ M[:, enter]
        rows = np.flatnonzero(col > _FLOAT_TOL * np.abs(col).max())
        if not rows.size:
            return None
        ratios = np.maximum(x[rows], 0.0) / col[rows]
        step = ratios.min()
        tied = rows[ratios <= step + _FLOAT_TOL * max(1.0, step)]
        if not bland:
            if tied.size > 1:
                # The largest pivot entry among the least ratios.
                tied = tied[col[tied] >= col[tied].max() * (1.0 - _FLOAT_TOL)]
            stall = stall + 1 if step <= _FLOAT_TOL else 0
            bland = stall > _DEGENERACY_LIMIT + R
        leave = min(tied.tolist(), key=basis.__getitem__)
        pivots.append((leave, enter))
        # With the entering column alpha and the new pivot row of B^-1,
        # row = e_r B^-1 / alpha_r, the ratios p_j = row . a_j update the
        # reduced costs, d_j -= d_q p_j, and Goldfarb-Reid updates gamma:
        # gamma_j += p_j (p_j gamma_q - 2 alpha^T B^-1 a_j), kept at least
        # 1 + p_j^2, with gamma_q = 1 + |alpha|^2.
        row = inverse[leave] / col[leave]
        gamma_q = 1.0 + col @ col
        ratio = row @ M
        cost -= cost[enter] * ratio
        gamma += ratio * ((gamma_q * row - 2.0 * (col @ inverse)) @ M)
        np.maximum(gamma, 1.0 + ratio * ratio, out=gamma)
        gamma[basis[leave]] = max(gamma_q / col[leave] ** 2, 1.0)
        basis[leave], basic_cost[leave] = enter, c[enter]
        x -= step * col
        x[leave] = step
        inverse -= np.outer(col, row)
        inverse[leave] = row
    return None


def _solve_integer(rows: list) -> Optional[list]:
    """The exact solution of ``E z = b`` for the s x (s + 1) integer system
    ``rows = [E | b]``, as s pairs ``(b_i, a_i)`` with ``z_i = b_i / a_i``,
    or None when E is singular. The rows are overwritten.

    Fraction-free Gauss-Jordan elimination (Edmonds 1967; Bareiss 1968),
    scaled row by row: a row is an equation, so step k only makes each
    other row with an entry ``u != 0`` in column k into ``q N - u N_k`` for
    the pivot row ``N_k`` and its entry ``q``, and divides it by its gcd.
    Rows with no entry in column k are not touched, so a sparse system
    costs what its nonzeros cost. E ends diagonal.
    """
    s = len(rows)
    for k in range(s):
        p = next((i for i in range(k, s) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        q = pivot[k]
        for i, row in enumerate(rows):
            u = row[k]
            if u and i != k:
                new = [q * a - u * b for a, b in zip(row, pivot)]
                g = math.gcd(*new)
                rows[i] = [a // g for a in new] if g > 1 else new
    return [(row[-1], row[i]) for i, row in enumerate(rows)]


def _subtract(tab, den, t, i, c):
    """Subtract ``c`` times row i from row t, for an integer ``c``:
    ``N[t]/d[t] - c N[i]/d[i] = (d[i] N[t] - c d[t] N[i]) / (d[i] d[t])``.
    """
    tab[t] = den[i] * tab[t] - c * den[t] * tab[i]
    den[t] *= den[i]
    _reduce(tab, den, [t])


def _reduce(tab, den, rows):
    """Divide each of ``rows`` and its denominator by their gcd."""
    block = tab[rows]
    g = np.array(
        [math.gcd(d, *row) for d, row in zip(den[rows].tolist(), block.tolist())],
        dtype=object,
    )
    tab[rows] = block // g[:, None]
    den[rows] //= g


def solve_feasibility(problem: _Problem) -> LpVerdict:
    """Exact feasibility verdict for ``Ax <= b``, ``x >= 0``.

    Feasible systems yield an exact satisfying assignment; infeasible ones
    yield an integer Farkas certificate, read off the tableau as integers,
    that passes `checker.verify_farkas`.
    """
    return _solve_problem(problem)[0]


def _solve_problem(problem: _Problem):
    """`solve_feasibility`, also returning the columns priced on each
    pivot: all of them."""
    return _Master(problem).solve(), range(problem.n_vars)
